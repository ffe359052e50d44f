"""Randomized generation and batch testing of the tree-positivity conjecture.

Candidates are integer matrices that meet every minor of the tree's plan
in ``_kernels``, found by rejection sampling or by greedy repair, then
re-verified by ``positivity`` before they are ever reported.
Every random decision flows from a per-slot seed stream, so a batch is
reproducible and the parallel and serial runs produce identical reports.
"""
from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .exact_linalg import ExactMatrix, matrix_from_text, matrix_to_text
from .positivity import (
    AdjointCheck,
    HypothesisReport,
    check_adjoint_conclusion,
    is_t_tp,
    pendant_deletion_hypothesis,
)
from .spectral import SmallestEigen, SpectralSummary, smallest_eig_vector
from .tree_model import LabelledTree, enumerate_labelled_trees

_SEED_MASK = 2**64 - 1
_BATCH = 4096
_REPAIR_CHUNK = 2048


@dataclass(frozen=True)
class GenConfig:
    """Settings for candidate generation.

    ``max_attempts`` counts starting matrices: screened candidates in
    rejection mode, hill-climb starts when ``repair`` is on.  Entries are
    drawn uniformly from ``entry_range`` (inclusive); positivity of the
    target class forces lo >= 1.
    """

    tree: LabelledTree
    entry_range: tuple[int, int] = (1, 150)
    seed: int = 0
    max_attempts: int = 2_000_000
    augmented: bool = False
    symmetric: bool = False
    repair: bool = False
    repair_rounds: int = 20_000

    def __post_init__(self):
        lo, hi = self.entry_range
        if lo < 1:
            raise ValueError("entry range must start at 1 or above")
        if hi < lo:
            raise ValueError("empty entry range")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")


def _hypothesis_reports(A: ExactMatrix, tree: LabelledTree, augmented: bool) -> HypothesisReport:
    if augmented:
        return pendant_deletion_hypothesis(A, tree)
    return HypothesisReport(is_t_tp(A, tree), ())


def _rng_for(cfg: GenConfig, slot: int, lane: int = 0) -> np.random.Generator:
    key = (lane, slot) if lane else (slot,)
    return np.random.default_rng(np.random.SeedSequence(cfg.seed & _SEED_MASK, spawn_key=key))


def _symmetrize(batch: np.ndarray) -> np.ndarray:
    upper = np.triu(batch)
    return upper + np.swapaxes(np.triu(batch, 1), -1, -2)


def _compile(cfg: GenConfig):
    """The objective every slot of `cfg` evaluates, built once per batch.

    A ``RepairPlan`` when repairing, else the plan's distinct minors for
    the screen.
    """
    plan = _kernels.minor_plan(cfg.tree, cfg.augmented)
    if cfg.repair:
        return _kernels.repair_plan(plan, cfg.tree.n, cfg.symmetric)
    return tuple(dict.fromkeys(plan))


def _generate_slot(
    cfg: GenConfig, slot: int, lane: int = 0, compiled=None
) -> tuple[ExactMatrix | None, int]:
    """One deterministic candidate stream; returns (matrix, attempts used).

    `compiled` is ``_compile(cfg)``; it is built here when not given.
    """
    if compiled is None:
        compiled = _compile(cfg)
    rng = _rng_for(cfg, slot, lane)
    n = cfg.tree.n
    lo, hi = cfg.entry_range
    if cfg.repair:
        return _generate_repair(cfg, compiled, rng, n, lo, hi)
    attempts = 0
    while attempts < cfg.max_attempts:
        size = min(_BATCH, cfg.max_attempts - attempts)
        batch = rng.integers(lo, hi + 1, size=(size, n, n), dtype=np.int64)
        if cfg.symmetric:
            batch = _symmetrize(batch)
        start = 0
        while start < size:
            idx = _kernels.screen_batch_vectorized(batch[start:], compiled, hi)
            if idx < 0:
                attempts += size - start
                break
            attempts += idx + 1
            candidate = ExactMatrix(batch[start + idx].tolist())
            if _hypothesis_reports(candidate, cfg.tree, cfg.augmented).holds:
                return candidate, attempts
            start += idx + 1
    return None, attempts


def _generate_repair(cfg, rplan, rng, n, lo, hi) -> tuple[ExactMatrix | None, int]:
    for attempt in range(cfg.max_attempts):
        a = rng.integers(lo, hi + 1, size=(n, n), dtype=np.int64)
        if cfg.symmetric:
            a = _symmetrize(a[None])[0]
        a = a.tolist()
        current, bad = _kernels.repair_start(a, rplan)
        rounds_left = cfg.repair_rounds
        while rounds_left > 0 and current > 0:
            size = min(_REPAIR_CHUNK, rounds_left)
            pos_i = rng.integers(0, n, size=size, dtype=np.int64)
            pos_j = rng.integers(0, n, size=size, dtype=np.int64)
            vals = rng.integers(lo, hi + 1, size=size, dtype=np.int64)
            current, used = _kernels.repair_chunk(a, pos_i, pos_j, vals, rplan, bad, current)
            rounds_left -= used
        if current == 0:
            candidate = ExactMatrix(a)
            if _hypothesis_reports(candidate, cfg.tree, cfg.augmented).holds:
                return candidate, attempt + 1
    return None, cfg.max_attempts


def gen_candidate(cfg: GenConfig) -> ExactMatrix | None:
    """One hypothesis-satisfying matrix, or None when attempts run out."""
    matrix, _ = _generate_slot(cfg, 0)
    return matrix


@dataclass(frozen=True)
class ConjectureVerdict:
    hypothesis: HypothesisReport
    adjoint: AdjointCheck
    smallest: SmallestEigen
    eigenvector_signed: bool | None
    summary: SpectralSummary

    @property
    def conclusion_ok(self) -> bool:
        return (
            self.adjoint.ok
            and self.smallest.is_real
            and self.smallest.is_simple is True
            and self.eigenvector_signed is True
        )

    @property
    def is_counterexample(self) -> bool:
        return self.hypothesis.holds and not self.conclusion_ok


def test_conjecture(A: ExactMatrix, tree: LabelledTree, augmented: bool = False) -> ConjectureVerdict:
    """Full verdict chain: hypotheses, adjugate signs, smallest eigenpair."""
    if A.n != tree.n:
        raise ValueError(f"matrix is {A.n}x{A.n} but tree has {tree.n} vertices")
    hypothesis = _hypothesis_reports(A, tree, augmented)
    adjoint = check_adjoint_conclusion(A, tree)
    summary = smallest_eig_vector(A, tree, adjoint_check=adjoint)
    return ConjectureVerdict(
        hypothesis=hypothesis,
        adjoint=adjoint,
        smallest=summary.smallest,
        eigenvector_signed=summary.signed_ok,
        summary=summary,
    )


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
        "smallest": {
            "re": v.smallest.estimate.real,
            "im": v.smallest.estimate.imag,
            "is_real": v.smallest.is_real,
            "is_simple": v.smallest.is_simple,
            "ambiguous": v.smallest.ambiguous,
            "modulus_margin": v.smallest.modulus_margin,
        },
        "eigenvector_signed": v.eigenvector_signed,
        "counterexample": v.is_counterexample,
    }


@dataclass(frozen=True)
class Exemplar:
    matrix: ExactMatrix
    verdict: dict


@dataclass(frozen=True)
class BatchReport:
    trials: int
    generated: int
    hypothesis_pass: int
    conclusion_pass: int
    counterexamples: int
    exemplars: tuple[Exemplar, ...]
    seed: int
    config: dict

    def __post_init__(self):
        if self.conclusion_pass + self.counterexamples != self.hypothesis_pass:
            raise ValueError("inconsistent counts in batch report")


def _config_echo(cfg: GenConfig) -> dict:
    return {
        "tree_n": cfg.tree.n,
        "tree_edges": [list(e) for e in cfg.tree.sorted_edges()],
        "entry_range": list(cfg.entry_range),
        "seed": cfg.seed,
        "max_attempts": cfg.max_attempts,
        "augmented": cfg.augmented,
        "symmetric": cfg.symmetric,
        "repair": cfg.repair,
        "repair_rounds": cfg.repair_rounds,
    }


def _run_slot(cfg: GenConfig, compiled, slot: int, lane: int) -> dict | None:
    matrix, _ = _generate_slot(cfg, slot, lane, compiled)
    if matrix is None:
        return None
    verdict = test_conjecture(matrix, cfg.tree, cfg.augmented)
    return {
        "matrix": matrix,
        "hypothesis": verdict.hypothesis.holds,
        "conclusion": verdict.conclusion_ok,
        "counterexample": verdict.is_counterexample,
        "verdict": verdict_summary(verdict),
    }


def _worker(args) -> list:
    cfg, compiled, slots, lane = args
    return [_run_slot(cfg, compiled, s, lane) for s in slots]


def default_workers() -> int:
    value = os.environ.get("TREETP_WORKERS", "1")
    try:
        return max(1, int(value))
    except ValueError:
        return 1


def batch_verify(
    cfg: GenConfig,
    trials: int,
    keep: int = 0,
    workers: int | None = None,
    _lane: int = 0,
) -> BatchReport:
    """Generate up to `trials` hypothesis-satisfying matrices and test each.

    Candidate slot i always uses the same seed stream, so reports are
    identical for any worker count.
    """
    workers = default_workers() if workers is None else max(1, workers)
    slots = list(range(trials))
    compiled = _compile(cfg)
    if workers == 1 or trials <= 1:
        results = [_run_slot(cfg, compiled, s, _lane) for s in slots]
    else:
        chunks = [(cfg, compiled, slots[w::workers], _lane) for w in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_worker = list(pool.map(_worker, chunks))
        results = [None] * trials
        for w, chunk in enumerate(chunks):
            for s, r in zip(chunk[2], per_worker[w]):
                results[s] = r
    generated = hypothesis_pass = conclusion_pass = counterexamples = 0
    exemplars = []
    for r in results:
        if r is None:
            continue
        generated += 1
        if r["hypothesis"]:
            hypothesis_pass += 1
            if r["counterexample"]:
                counterexamples += 1
                if len(exemplars) < keep:
                    exemplars.append(Exemplar(r["matrix"], r["verdict"]))
            else:
                conclusion_pass += 1
    return BatchReport(
        trials=trials,
        generated=generated,
        hypothesis_pass=hypothesis_pass,
        conclusion_pass=conclusion_pass,
        counterexamples=counterexamples,
        exemplars=tuple(exemplars),
        seed=cfg.seed,
        config=_config_echo(cfg),
    )


def search_counterexamples(
    cfg: GenConfig, trials: int, keep: int = 5, workers: int | None = None
) -> BatchReport:
    """batch_verify that stores up to `keep` counterexamples with verdicts."""
    return batch_verify(cfg, trials, keep=keep, workers=workers)


def sweep_trees(
    n: int,
    cfg_template: GenConfig,
    trials_per_tree: int,
    keep: int = 1,
    workers: int | None = None,
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

def report_to_json(report: BatchReport, indent: int | None = 2) -> str:
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
    return json.dumps(payload, indent=indent)


def report_from_json(text: str) -> BatchReport:
    data = json.loads(text)
    exemplars = tuple(
        Exemplar(matrix_from_text(e["matrix"]), e["verdict"]) for e in data["exemplars"]
    )
    return BatchReport(
        trials=data["trials"],
        generated=data["generated"],
        hypothesis_pass=data["hypothesis_pass"],
        conclusion_pass=data["conclusion_pass"],
        counterexamples=data["counterexamples"],
        exemplars=exemplars,
        seed=data["seed"],
        config=data["config"],
    )
