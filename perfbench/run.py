"""Verified instances per second of treetp, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload star4-reject --seed 1 --seconds 15 --trace 0

One process, one workload, ``workers=1``.  The program is imported from
``src/`` next to this directory.  A run repeats whole rounds of the
workload until ``--seconds`` of work time have passed.  Between rounds the
clock stops, treetp's caches are emptied and the round's outputs are
written to ``perfbench/out/`` as JSON lines; after the last round
``checks.py`` checks them, and the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are scaled to an idle machine by ``SpeedProbe``.  With ``--trace 0``
the metrics are the end-to-end ones.  With ``--trace 1`` every round runs
twice, with and without spans around each layer (``tracing.py``), and the
metrics are the per-layer ones plus the tracing overhead.  See README.md.
"""
from __future__ import annotations

import time

_T_MODULE = time.perf_counter()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
CORPUS = HERE / "corpus.json"

# Generation workloads: every round is one batch_verify call of `trials`
# slots.  star4-reject draws a new generator seed per round from --seed.
# The two repair workloads cost seconds per instance and up to 5x more on
# some slots than on others, so a seed-chosen slot set would not give a
# steady rate; they run the same fixed slots in every round and every run.
GENERATE = {
    "star4-reject": {
        "tree": "star:4", "trials": 8, "fixed_seed": None, "theorem": True, "gen": {},
    },
    "star6-aug-repair": {
        "tree": "star:6", "trials": 4, "fixed_seed": 61, "theorem": True,
        "gen": {"augmented": True, "repair": True, "max_attempts": 50},
    },
    "pitchfork-sym-repair": {
        "tree": "pitchfork", "trials": 3, "fixed_seed": 31, "theorem": False,
        "gen": {"symmetric": True, "repair": True, "max_attempts": 25},
    },
}
# verify-corpus: matrices per round from each corpus category; the three
# fixtures join the first round.  Categories where the theorem applies
# must show no counterexample.
CORPUS_ROUND = {"star5": 6, "star6-aug": 1, "pitchfork-sym": 1, "random": 2}
THEOREM_CATEGORIES = {"star6-aug"}
WORKLOADS = [*GENERATE, "verify-corpus"]

PROBE_INTERVAL_S = 0.01
REF_UNIT_S = 0.0012  # the probe unit's time on an idle 2.1 GHz Xeon vCPU
END_TO_END_UNITS = {"verified_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
ROUTES = {"adjugate-perron": "spectral.route_adjugate_perron",
          "inverse-iteration": "spectral.route_inverse_iteration",
          "none": "spectral.route_none"}


def process_age() -> float:
    """Seconds since this process started (10 ms resolution)."""
    since_module = time.perf_counter() - _T_MODULE
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return since_module
    return age if since_module <= age < since_module + 5.0 else since_module


def automorphisms(tree) -> list[tuple[int, ...]]:
    """Vertex permutations (1-based images) that map the tree onto itself."""
    edges = {frozenset(e) for e in tree.sorted_edges()}
    return [
        perm for perm in itertools.permutations(range(1, tree.n + 1))
        if all(frozenset((perm[u - 1], perm[v - 1])) in edges for u, v in edges)
    ]


class CorpusStream:
    """Matrices of one corpus category, in a seeded order.

    Position p takes base matrix p mod B in the shuffled order; each later
    pass over the bases relabels them by the next tree automorphism, then
    scales them by the next integer.  Both keep every verdict and give a
    matrix not seen before, so no cache can answer one instance from
    another's work, however long the run.
    """

    def __init__(self, bases, autos, rng: random.Random) -> None:
        self.bases = bases
        self.autos = autos
        self.order = list(range(len(bases)))
        rng.shuffle(self.order)
        self.pos = 0

    def take(self) -> tuple[tuple[int, ...], ...]:
        p = self.pos
        self.pos += 1
        base = self.bases[self.order[p % len(self.bases)]]
        v = p // len(self.bases)
        perm = self.autos[v % len(self.autos)]
        c = 1 + v // len(self.autos)
        n = len(base)
        return tuple(tuple(c * base[perm[i] - 1][perm[j] - 1] for j in range(n)) for i in range(n))


class Workload:
    """Rounds of one workload; prepare() is untimed, execute() is timed."""

    def __init__(self, name: str, seed: int, treetp) -> None:
        self.name = name
        self.seed = seed
        self.tp = treetp
        if name in GENERATE:
            spec = GENERATE[name]
            self.spec = spec
            self.cfg = treetp.GenConfig(
                tree=treetp.parse_tree_spec(spec["tree"]), entry_range=(1, 150),
                seed=spec["fixed_seed"] or 0, **spec["gen"],
            )
        else:
            self._load_corpus()

    def _load_corpus(self) -> None:
        data = json.loads(CORPUS.read_text())
        self.streams = []
        for cat in data["categories"]:
            tree = self.tp.parse_tree_spec(cat["tree"])
            rng = random.Random(f"{self.seed}:{cat['name']}")
            stream = CorpusStream(cat["matrices"], automorphisms(tree), rng)
            meta = (tree, cat["augmented"], cat["symmetric"], cat["name"] in THEOREM_CATEGORIES)
            self.streams.append((stream, CORPUS_ROUND[cat["name"]], meta))
        self.fixtures = []
        for fx in data["fixtures"]:
            tree = self.tp.parse_tree_spec(fx["tree"])
            self.fixtures.append((fx["matrix"], (tree, fx["augmented"], False, False)))

    def prepare(self, r: int):
        if self.name in GENERATE:
            if self.spec["fixed_seed"] is not None:
                return self.cfg
            return replace(self.cfg, seed=(self.seed << 20) + r)
        items = list(self.fixtures) if r == 0 else []
        for stream, count, meta in self.streams:
            items.extend((stream.take(), meta) for _ in range(count))
        return [(self.tp.ExactMatrix(m), meta) for m, meta in items]

    def execute(self, prepared) -> tuple[int, int]:
        """Run one round; returns (attempted, verified)."""
        lab = self.tp.conjecture_lab
        if self.name in GENERATE:
            trials = self.spec["trials"]
            report = lab.batch_verify(prepared, trials, workers=1)
            return trials, report.generated
        for matrix, (tree, augmented, _, _) in prepared:
            lab.test_conjecture(matrix, tree, augmented)
        return len(prepared), len(prepared)

    def flags(self, prepared, k: int) -> tuple[bool, bool]:
        """(symmetric, theorem applies) for the k-th verdict of a round."""
        if self.name in GENERATE:
            return self.cfg.symmetric, self.spec["theorem"]
        return prepared[k][1][2], prepared[k][1][3]


def digest(matrix, tree, augmented: bool, verdict, symmetric: bool = False,
           theorem: bool = False) -> dict:
    """JSON-safe copy of one treetp verdict chain and its input."""
    s = verdict.summary.smallest
    return {
        "n": tree.n,
        "edges": [list(e) for e in tree.sorted_edges()],
        "augmented": augmented,
        "symmetric": symmetric,
        "theorem": theorem,
        "A": [[str(x) for x in row] for row in matrix.rows],
        "holds": verdict.hypothesis.holds,
        "t_tp": verdict.hypothesis.ttp.is_t_tp,
        "pendant": [[c.vertex, c.report.is_p_matrix] for c in verdict.hypothesis.pendant_checks],
        "adj": [[str(x) for x in row] for row in verdict.adjoint.adjugate.rows],
        "adj_ok": verdict.adjoint.ok,
        "mismatches": [list(m) for m in verdict.adjoint.mismatches],
        "char_poly": [str(c) for c in verdict.summary.char_poly.coeffs],
        "is_real": s.is_real,
        "is_simple": s.is_simple,
        "interval": None if s.interval is None else [str(s.interval.lo), str(s.interval.hi)],
        "estimate": [s.estimate.real, s.estimate.imag],
        "route": verdict.summary.route,
        "vector": None if verdict.summary.eigenvector_unit is None
        else list(verdict.summary.eigenvector_unit),
        "signed": verdict.eigenvector_signed,
        "counterexample": verdict.is_counterexample,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _probe_unit() -> Fraction:
    # fixed pure-Python work: integer and Fraction arithmetic, as in treetp
    acc, x = Fraction(0), 12345
    for i in range(1, 400):
        x = (x * 1103515245 + 12345) % 2147483648
        acc += Fraction(x % 997 + 1, i)
    return acc


class SpeedProbe:
    """Samples how fast this process runs while treetp works.

    On a shared machine other tenants slow a process down by up to 2x, in
    bursts from milliseconds to seconds long, which no run length averages
    away.  While the probe is on, a SIGALRM handler runs a fixed unit of
    work every PROBE_INTERVAL_S and records its time.  ``clock()`` leaves
    the handler's own time out, and ``speed()`` is the mean of
    REF_UNIT_S / unit time over a set of samples: the fraction of idle-machine
    speed this process had while the samples were taken.
    """

    def __init__(self) -> None:
        self.spent = 0.0
        self.samples: list[float] = []

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _probe_unit()
        dt = time.perf_counter() - t0
        self.spent += dt
        self.samples.append(dt)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @staticmethod
    def speed(samples: list[float]) -> float:
        return sum(REF_UNIT_S / t for t in samples) / len(samples) if samples else 1.0


def lru_caches() -> list:
    """Every functools cache at module level in treetp."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "treetp" or name.startswith("treetp."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "treetp" / "__init__.py").is_file():
        print(f"perfbench: treetp sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "verify-corpus" and not CORPUS.is_file():
        print(f"perfbench: corpus file {CORPUS} is missing", file=sys.stderr)
        return 2
    # Set-up runs from the process start to the first round.  The part
    # before main() is taken as it is; the rest is sampled by the probe
    # and scaled to an idle machine, as the rounds are.
    probe = SpeedProbe()
    before_main = process_age()
    with probe:
        t0 = probe.clock()
        sys.path.insert(0, str(SRC))
        import treetp
        from treetp import conjecture_lab

        workload = Workload(args.workload, args.seed, treetp)
        caches = lru_caches()
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer(caches, probe.clock)
        setup_s = before_main + (probe.clock() - t0) * probe.speed(probe.samples)

    # keep each verdict of the current round for the untimed digest
    records = []
    verify = conjecture_lab.test_conjecture

    def recorded(A, tree, augmented=False):
        verdict = verify(A, tree, augmented)
        records.append((A, tree, augmented, verdict))
        return verdict

    conjecture_lab.test_conjecture = recorded

    OUT.mkdir(exist_ok=True)
    raw_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.jsonl"
    raw = open(raw_path, "w")
    problems: list[str] = []
    totals = {"attempted": 0, "exhausted": 0}
    routes: list[str] = []
    # per timing mode: [verified, seconds of work, probe samples]
    spent = {False: [0, 0.0, []], True: [0, 0.0, []]}

    def run_round(r: int, prepared, traced: bool, keep: bool) -> int:
        """One timed round, with treetp's caches emptied first; its
        verdicts are digested when `keep`."""
        for cache in caches:
            cache.cache_clear()
        if traced:
            tracer.install()
        first = len(probe.samples)
        with probe:
            t0 = probe.clock()
            attempted, done = workload.execute(prepared)
            elapsed = probe.clock() - t0
        if traced:
            tracer.uninstall()
        acc = spent[traced]
        acc[0] += done
        acc[1] += elapsed
        acc[2].extend(probe.samples[first:])
        if done != len(records):
            problems.append(f"round {r}: {done} verified, {len(records)} verdicts")
        totals["attempted"] += attempted
        totals["exhausted"] += attempted - done
        if keep:
            for k, (A, tree, augmented, verdict) in enumerate(records):
                symmetric, theorem = workload.flags(prepared, k)
                d = digest(A, tree, augmented, verdict, symmetric, theorem)
                routes.append(d["route"])
                raw.write(json.dumps(d) + "\n")
        records.clear()
        return done

    def ref_seconds(traced: bool) -> float:
        """Work time at idle-machine speed."""
        _, secs, samples = spent[traced]
        return secs * probe.speed(samples)

    r = 0
    if tracer is None:
        while spent[False][1] < args.seconds:
            run_round(r, workload.prepare(r), False, keep=True)
            r += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        # every round runs traced and untraced, in alternating order
        while spent[True][1] + spent[False][1] < args.seconds:
            prepared = workload.prepare(r)
            for traced in (r % 2 == 0, r % 2 == 1):
                run_round(r, prepared, traced, keep=traced)
            r += 1
    raw.close()
    verified = spent[tracer is not None][0]

    # independent checks, outside the timed region and after peak memory
    import checks

    failed_checks = undecided = 0
    with open(raw_path) as f:
        for line in f:
            errors, unsure = checks.check(json.loads(line))
            undecided += unsure
            if errors:
                failed_checks += 1
                problems.extend(errors)
    for p in problems[:10]:
        print(f"perfbench: {p}", file=sys.stderr)
    print(f"perfbench: {r} rounds, {verified} instances, speed "
          f"{probe.speed(probe.samples):.3f} of idle from {len(probe.samples)} samples, "
          f"{undecided} undecided numeric comparisons", file=sys.stderr)

    if tracer is None:
        values = {"verified_per_s": verified / ref_seconds(False), "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        layer = tracer.metrics(verified, probe.speed(spent[True][2]))
        for route, name in ROUTES.items():
            layer[name] = routes.count(route)
        layer["trace.overhead_pct"] = 100.0 * (ref_seconds(True) / ref_seconds(False) - 1.0)
        absent = tracer.absent_metrics()
        for name in absent:
            print(f"perfbench: {name} absent, its traced function no longer exists", file=sys.stderr)
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layer.items()}
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "instances": verified,
            "speed": probe.speed(spent[True][2]),
            "absent": absent, "spans": tracer.spans(), "metrics": layer,
        }, indent=1) + "\n")

    print(json.dumps({
        "correct": not problems,
        "attempted": totals["attempted"],
        "failed": totals["exhausted"] + failed_checks,
        "metrics": metrics,
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_pct"):
        return "%"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
