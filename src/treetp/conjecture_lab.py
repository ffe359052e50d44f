"""Randomized generation and batch testing of the tree-positivity conjecture.

Candidates are integer matrices that meet every minor of the hypothesis
plan (``positivity.hypothesis_plan``, flat in ``_kernels``), found by
rejection sampling or greedy repair, then re-checked by ``positivity``.
Every random decision flows from a per-slot seed stream, so a batch is
reproducible and the parallel and serial runs produce identical reports.

Repair starts from a uniform draw on stars.  On a tree whose longest
maximal path has 4 or more vertices it starts from a template: an integer
totally positive matrix on that path, a product of elementary bidiagonal
factors with positive integer parameters (Loewner-Whitney), whose rows and
columns the vertices off the path copy.  Templates draw from their own
seed lane, and a start whose template will not fit the entry range falls
back to a uniform draw.
"""
from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .exact_linalg import ExactMatrix, matrix_from_text, matrix_to_text
from .positivity import AdjointCheck, HypothesisReport, is_t_tp, pendant_deletion_hypothesis
from .spectral import SmallestEigen, SpectralSummary, smallest_eig_vector
from .tree_model import LabelledTree, enumerate_labelled_trees, maximal_paths

_SEED_MASK = 2**64 - 1
_BATCH = 4096
_REPAIR_CHUNK = 2048
_REPAIR_ROUNDS = 20_000  # proposals per repair start
_INT64_MAX = 2**63 - 1  # entries are drawn as int64
_TEMPLATE_DRAWS = 64  # template draws a repair start tries before a uniform start


@dataclass(frozen=True)
class GenConfig:
    """Settings for candidate generation.

    ``max_attempts`` counts starting matrices: screened candidates in
    rejection mode, hill-climb starts when ``repair`` is on.  Left as
    None, ``budget`` reads it as 1,000 starts with ``repair`` and
    2,000,000 candidates without.
    Entries are drawn uniformly from ``entry_range``
    (inclusive); positivity of the target class forces lo >= 1, and the
    int64 draw forces hi <= 2**63 - 1.
    """

    tree: LabelledTree
    entry_range: tuple[int, int] = (1, 150)
    seed: int = 0
    max_attempts: int | None = None
    augmented: bool = False
    symmetric: bool = False
    repair: bool = False

    def __post_init__(self):
        lo, hi = self.entry_range
        if lo < 1:
            raise ValueError("entry range must start at 1 or above")
        if hi < lo:
            raise ValueError("empty entry range")
        if hi > _INT64_MAX:
            raise ValueError("entry range must end at or below 2**63 - 1")
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")

    @property
    def budget(self) -> int:
        """The attempts a slot may spend: `max_attempts`, or the mode's default."""
        if self.max_attempts is not None:
            return self.max_attempts
        return 1_000 if self.repair else 2_000_000


def _hypothesis_reports(A: ExactMatrix, tree: LabelledTree, augmented: bool) -> HypothesisReport:
    if augmented:
        return pendant_deletion_hypothesis(A, tree)
    return HypothesisReport(is_t_tp(A, tree), ())


def _rng_for(cfg: GenConfig, slot: int, lane: int = 0, template: bool = False) -> np.random.Generator:
    """A slot's proposal stream, or with `template` its template stream.

    Proposal keys are ``(slot,)`` and, in a sweep, ``(lane, slot)``; the
    template key ``(lane, slot, 1)`` is the only 3-tuple, so none collide.
    """
    key = (lane, slot, 1) if template else (lane, slot) if lane else (slot,)
    return np.random.default_rng(np.random.SeedSequence(cfg.seed & _SEED_MASK, spawn_key=key))


def _symmetrize(batch: np.ndarray) -> np.ndarray:
    upper = np.triu(batch)
    return upper + np.swapaxes(np.triu(batch, 1), -1, -2)


def _compile(cfg: GenConfig):
    """The objective every slot of `cfg` evaluates, built once per batch.

    When repairing, a ``RepairPlan`` and the ``_template_layout``.  Else
    the plan's distinct minors in screen order: by size, smallest first,
    since the screen drops each candidate at its first failing minor and
    most fail a 2x2 one, and 1x1 minors last.  Those are entries, which
    cannot fail once lo >= 1; the screen still checks them, so it stays
    right for any batch.  Within a size the plan's order is kept; the
    screen's answer does not depend on it.
    """
    plan = _kernels.minor_plan(cfg.tree, cfg.augmented)
    if cfg.repair:
        return _kernels.repair_plan(plan, cfg.tree.n, cfg.symmetric), _template_layout(cfg)
    return tuple(sorted(dict.fromkeys(plan), key=lambda m: (len(m[0]) == 1, len(m[0]))))


def _template_layout(cfg: GenConfig) -> tuple[int, ...] | None:
    """The template row each vertex copies, or None where starts stay uniform.

    A vertex on the first longest maximal path takes its place along it.  A
    vertex off it copies a path neighbour of the path vertex it hangs from,
    the one toward the nearer end, so the path from it to the farther end
    keeps the template's order; each vertex further out steps on the same
    way, which stays on the path because no path is longer.  None on stars
    and when the smallest template, every parameter and diagonal entry 1,
    exceeds ``hi``.
    """
    tree = cfg.tree
    path = max(maximal_paths(tree), key=len).vertices if tree.n >= 4 else ()
    m = len(path)
    if m < 4:
        return None
    smallest = _lower(m, [1] * (m * (m - 1) // 2))
    if max(map(max, _template([1] * m, smallest, smallest))) > cfg.entry_range[1]:
        return None
    place = {v: i for i, v in enumerate(path)}
    stack = [(w, i, -1 if 2 * i < m else 1) for i, v in enumerate(path) for w in tree.neighbors(v)]
    while stack:
        v, i, step = stack.pop()
        if v not in place:
            place[v] = i + step
            stack += [(w, i + step, step) for w in tree.neighbors(v)]
    return tuple(place[v] for v in range(1, tree.n + 1))


def _lower(m: int, params) -> list[list[int]]:
    """Whitney's product of the factors I + t E_(i, i-1), params in product order."""
    low = [[int(r == c) for c in range(m)] for r in range(m)]
    t = iter(params)
    for k in range(1, m):
        for i in range(m - 1, k - 1, -1):
            x = next(t)
            for row in low:
                row[i - 1] += x * row[i]  # right-multiply: column i-1 += t column i
    return low


def _template(diag, low, up) -> list[list[int]]:
    """L D U^T: TP for a positive diagonal and positive parameters of L and U."""
    return [[sum(x * d * y for x, d, y in zip(r, diag, c)) for c in up] for r in low]


def _template_start(cfg: GenConfig, layout: tuple[int, ...], rng) -> list[list[int]] | None:
    """A template laid out on the tree, or None when no draw fits ``entry_range``.

    Parameters and diagonal come from {1, 2} on a 4-vertex path; on longer
    ones every parameter is 1 and the diagonal comes from 1..3.  The draw
    T is then multiplied by c = max(1, hi // (4 max T)), still TP: on a
    wide range that puts its largest entry near hi / 4, on the scale of
    the proposals, where an unscaled template stalls (at 1..2**40 no
    symmetric pitchfork start mends its copied vertex).  At 1..150, c = 1.
    """
    m = max(layout) + 1
    k = m * (m - 1) // 2
    top, top_diag = (2, 2) if m == 4 else (1, 3)
    lo, hi = cfg.entry_range
    for _ in range(_TEMPLATE_DRAWS):
        low = _lower(m, rng.integers(1, top + 1, size=k).tolist())
        up = low if cfg.symmetric else _lower(m, rng.integers(1, top + 1, size=k).tolist())
        t = _template(rng.integers(1, top_diag + 1, size=m).tolist(), low, up)
        c = max(1, hi // (4 * max(map(max, t))))
        if all(lo <= c * x <= hi for row in t for x in row):
            return [[c * t[p][q] for q in layout] for p in layout]
    return None


def _screened(cfg: GenConfig, minors, rng):
    """Rejection proposals: each screened hit, with the candidates drawn through it."""
    n = cfg.tree.n
    lo, hi = cfg.entry_range
    drawn = 0
    while drawn < cfg.budget:
        size = min(_BATCH, cfg.budget - drawn)
        batch = rng.integers(lo, hi + 1, size=(size, n, n), dtype=np.int64)
        if cfg.symmetric:
            batch = _symmetrize(batch)
        start = 0
        while start < size:
            idx = _kernels.screen_batch_vectorized(batch[start:], minors, hi)
            if idx < 0:
                break
            start += idx + 1
            yield batch[start - 1].tolist(), drawn + start
        drawn += size


def _repaired(cfg: GenConfig, compiled, rng, template_rng):
    """Repair proposals: each start that reaches zero violations, with its 1-based index.

    A start is a template from `template_rng` where the layout allows one
    and a draw fits, else uniform from `rng`; proposals come from `rng`.
    """
    rplan, layout = compiled
    n = cfg.tree.n
    lo, hi = cfg.entry_range
    for attempt in range(1, cfg.budget + 1):
        a = None if layout is None else _template_start(cfg, layout, template_rng)
        if a is None:
            a = rng.integers(lo, hi + 1, size=(n, n), dtype=np.int64)
            a = (_symmetrize(a) if cfg.symmetric else a).tolist()
        current, values = _kernels.repair_start(a, rplan)
        rounds_left = _REPAIR_ROUNDS
        while rounds_left > 0 and current > 0:
            size = min(_REPAIR_CHUNK, rounds_left)
            pos_i = rng.integers(0, n, size=size, dtype=np.int64)
            pos_j = rng.integers(0, n, size=size, dtype=np.int64)
            vals = rng.integers(lo, hi + 1, size=size, dtype=np.int64)
            current, used = _kernels.repair_chunk(a, pos_i, pos_j, vals, rplan, values, current)
            rounds_left -= used
        if current == 0:
            yield a, attempt


def _generate_slot(
    cfg: GenConfig, slot: int, lane: int = 0, compiled=None
) -> tuple[ExactMatrix | None, int]:
    """One deterministic candidate stream; returns (matrix, attempts used).

    `compiled` is ``_compile(cfg)``; it is built here when not given.  The
    mode's stream proposes matrices that meet every plan minor; this is the
    one place each is re-checked exactly.  A rejected one resumes the
    stream, and an exhausted stream returns (None, cfg.budget).
    """
    if compiled is None:
        compiled = _compile(cfg)
    rng = _rng_for(cfg, slot, lane)
    if cfg.repair:
        proposals = _repaired(cfg, compiled, rng, _rng_for(cfg, slot, lane, template=True))
    else:
        proposals = _screened(cfg, compiled, rng)
    for rows, attempts in proposals:
        candidate = ExactMatrix(rows)
        if _hypothesis_reports(candidate, cfg.tree, cfg.augmented).holds:
            return candidate, attempts
    return None, cfg.budget


def gen_candidate(cfg: GenConfig) -> ExactMatrix | None:
    """One hypothesis-satisfying matrix, or None when attempts run out."""
    matrix, _ = _generate_slot(cfg, 0)
    return matrix


@dataclass(frozen=True)
class ConjectureVerdict:
    hypothesis: HypothesisReport
    summary: SpectralSummary

    @property
    def adjoint(self) -> AdjointCheck:
        return self.summary.adjoint

    @property
    def smallest(self) -> SmallestEigen:
        return self.summary.smallest

    @property
    def eigenvector_signed(self) -> bool | None:
        return self.summary.signed_ok

    @property
    def conclusion_ok(self) -> bool:
        """The exact adjugate sign check alone; no float decides it.

        With S the tree signing, ``adjoint.ok`` says that S adj(A) S is
        entrywise positive.  If det A != 0, Perron-Frobenius makes det A/rho
        the unique eigenvalue of least modulus, real and simple, with the
        tree-signed eigenvector S w, w > 0 (Horn and Johnson, ch. 8).  If
        det A = 0, adj A has rank one with every entry nonzero; its trace,
        e_(n-1) of the eigenvalues, is then positive, so 0 is a simple
        eigenvalue and the adjugate column, tree-signed, is its eigenvector.
        When the check fails the conclusion fails with it.  The float
        fields (`smallest.is_real`, `is_simple`, `eigenvector_signed`) only
        describe: given the check, they have nothing left to decide.
        """
        return self.adjoint.ok

    @property
    def is_counterexample(self) -> bool:
        return self.hypothesis.holds and not self.conclusion_ok


def test_conjecture(A: ExactMatrix, tree: LabelledTree, augmented: bool = False) -> ConjectureVerdict:
    """Full verdict chain: hypotheses, then adjugate signs and smallest eigenpair from one pass."""
    hypothesis = _hypothesis_reports(A, tree, augmented)
    return ConjectureVerdict(hypothesis=hypothesis, summary=smallest_eig_vector(A, tree))


def smallest_summary(s: SmallestEigen) -> dict:
    """JSON-safe digest of a minimum-modulus eigenvalue classification."""
    return {
        "re": s.estimate.real,
        "im": s.estimate.imag,
        "is_real": s.is_real,
        "is_simple": s.is_simple,
        "ambiguous": s.ambiguous,
        "modulus_margin": s.modulus_margin,
    }


def verdict_summary(v: ConjectureVerdict) -> dict:
    """JSON-safe digest of a verdict chain."""
    return {
        "hypothesis_holds": v.hypothesis.holds,
        "t_tp": v.hypothesis.ttp.is_t_tp,
        "pendant_p_matrix": [
            {"vertex": c.vertex, "is_p_matrix": c.report.is_p_matrix}
            for c in v.hypothesis.pendant_checks
        ],
        "adjoint_ok": v.adjoint.ok,
        "adjoint_mismatches": [list(m) for m in v.adjoint.mismatches],
        "smallest": smallest_summary(v.smallest),
        "eigenvector_signed": v.eigenvector_signed,
        "counterexample": v.is_counterexample,
    }


@dataclass(frozen=True)
class Exemplar:
    matrix: ExactMatrix
    verdict: dict


@dataclass(frozen=True)
class BatchReport:
    """Counts of one batch: `generated` of `trials` slots found a matrix.

    Every generated matrix meets the hypothesis (the generator re-checks
    it exactly), so the hypothesis and conclusion counts follow from
    `generated` and `counterexamples`.
    """

    trials: int
    generated: int
    counterexamples: int
    exemplars: tuple[Exemplar, ...]
    seed: int
    config: dict

    @property
    def hypothesis_pass(self) -> int:
        """Deprecated: always equals `generated`."""
        return self.generated

    @property
    def conclusion_pass(self) -> int:
        return self.generated - self.counterexamples


def _config_echo(cfg: GenConfig) -> dict:
    return {
        "tree_n": cfg.tree.n,
        "tree_edges": [list(e) for e in cfg.tree.sorted_edges()],
        "entry_range": list(cfg.entry_range),
        "seed": cfg.seed,
        "max_attempts": cfg.budget,
        "augmented": cfg.augmented,
        "symmetric": cfg.symmetric,
        "repair": cfg.repair,
        "repair_rounds": _REPAIR_ROUNDS,
    }


def _run_slot(cfg: GenConfig, compiled, slot: int, lane: int) -> tuple[ExactMatrix, dict] | None:
    """(matrix, verdict_summary) for one slot, or None when it exhausts."""
    matrix, _ = _generate_slot(cfg, slot, lane, compiled)
    if matrix is None:
        return None
    return matrix, verdict_summary(test_conjecture(matrix, cfg.tree, cfg.augmented))


def _worker(args) -> list:
    cfg, compiled, slots, lane = args
    return [_run_slot(cfg, compiled, s, lane) for s in slots]


def batch_verify(
    cfg: GenConfig,
    trials: int,
    keep: int = 0,
    workers: int = 1,
    _lane: int = 0,
) -> BatchReport:
    """Generate up to `trials` hypothesis-satisfying matrices and test each.

    Up to `keep` counterexamples are stored with their verdicts.  Candidate
    slot i always uses the same seed stream, so reports are identical for
    any worker count.  A negative `trials` raises ValueError.
    """
    if trials < 0:
        raise ValueError(f"trials must be 0 or more, got {trials}")
    workers = max(1, min(workers, trials))
    compiled = _compile(cfg)
    chunks = [(cfg, compiled, range(w, trials, workers), _lane) for w in range(workers)]
    if workers == 1:
        per_worker = map(_worker, chunks)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_worker = list(pool.map(_worker, chunks))
    results = [None] * trials
    for w, chunk_results in enumerate(per_worker):
        results[w::workers] = chunk_results
    generated = counterexamples = 0
    exemplars = []
    for r in results:
        if r is None:
            continue
        generated += 1
        matrix, verdict = r
        if verdict["counterexample"]:
            counterexamples += 1
            if len(exemplars) < keep:
                exemplars.append(Exemplar(matrix, verdict))
    return BatchReport(
        trials=trials,
        generated=generated,
        counterexamples=counterexamples,
        exemplars=tuple(exemplars),
        seed=cfg.seed,
        config=_config_echo(cfg),
    )


def sweep_trees(
    n: int,
    cfg_template: GenConfig,
    trials_per_tree: int,
    keep: int = 1,
    workers: int = 1,
) -> list[tuple[LabelledTree, BatchReport]]:
    """Run the search over every labelled tree on n vertices."""
    if not (2 <= n <= 7):
        raise ValueError("sweep supports 2 <= n <= 7")
    out = []
    for lane, tree in enumerate(enumerate_labelled_trees(n), start=1):
        cfg = replace(cfg_template, tree=tree)
        out.append((tree, batch_verify(cfg, trials_per_tree, keep=keep, workers=workers, _lane=lane)))
    return out


# --- report serialization -------------------------------------------------

def report_to_json(report: BatchReport) -> str:
    payload = {
        "trials": report.trials,
        "generated": report.generated,
        "hypothesis_pass": report.hypothesis_pass,
        "conclusion_pass": report.conclusion_pass,
        "counterexamples": report.counterexamples,
        "seed": report.seed,
        "config": report.config,
        "exemplars": [
            {"matrix": matrix_to_text(e.matrix), "verdict": e.verdict} for e in report.exemplars
        ],
    }
    return json.dumps(payload, indent=2)


def report_from_json(text: str) -> BatchReport:
    """Parse `report_to_json` output; reject counts the report cannot have."""
    data = json.loads(text)
    exemplars = tuple(
        Exemplar(matrix_from_text(e["matrix"]), e["verdict"]) for e in data["exemplars"]
    )
    report = BatchReport(
        trials=data["trials"],
        generated=data["generated"],
        counterexamples=data["counterexamples"],
        exemplars=exemplars,
        seed=data["seed"],
        config=data["config"],
    )
    derived = (report.hypothesis_pass, report.conclusion_pass)
    if (data["hypothesis_pass"], data["conclusion_pass"]) != derived:
        raise ValueError("inconsistent counts in batch report")
    return report
