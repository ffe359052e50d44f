"""Spans around treetp's layers, patched in from the benchmark's side.

Each traced function is replaced by a wrapper in the module namespace
where its caller looks the name up (``conjecture_lab`` looks up
``test_conjecture`` and ``is_t_tp`` in its own globals, ``minor`` and
``adjugate`` look up ``det`` in ``exact_linalg``, and so on).  A span's
self time is its duration minus the durations of the spans opened inside
it.  Spans are aggregated per name in memory; nothing is written until
the run ends.
"""
from __future__ import annotations

from collections import defaultdict

from treetp import _kernels, conjecture_lab, exact_linalg, positivity, spectral

_ACTIVE = getattr(_kernels, "active", None)  # the kernel backend in use

# (span name, module, attribute); a missing attribute marks its metrics absent
_SPANS = [
    ("verify", conjecture_lab, "test_conjecture"),
    ("batch", conjecture_lab, "batch_verify"),
    ("hypothesis", conjecture_lab, "pendant_deletion_hypothesis"),
    ("hypothesis", conjecture_lab, "is_t_tp"),
    ("adjoint", conjecture_lab, "check_adjoint_conclusion"),
    ("eigvec", conjecture_lab, "smallest_eig_vector"),
    ("adjugate", positivity, "adjugate"),
    ("det", exact_linalg, "det"),
    ("det", spectral, "det"),
    ("char_poly", spectral, "char_poly"),
    ("real_roots", spectral, "real_roots"),
    ("numeric_spectrum", spectral, "full_spectrum_numeric"),
    ("screen", _kernels, "screen_batch_vectorized"),
    ("repair_start", _ACTIVE, "hypothesis_violations"),
    ("repair_chunk", _ACTIVE, "repair_chunk"),
]

# metric name -> spans it needs; listed as absent when one is missing
REQUIRES = {
    "conjecture_lab.generate_ms": ["batch", "verify"],
    "conjecture_lab.sample_ms": ["batch", "verify"],
    "conjecture_lab.recheck_ms": ["hypothesis"],
    "conjecture_lab.recheck_rejected": ["hypothesis"],
    "kernels.screen_ms": ["screen"],
    "kernels.screen_candidates": ["screen"],
    "kernels.screen_candidates_per_s": ["screen"],
    "kernels.repair_ms": ["repair_start", "repair_chunk"],
    "kernels.repair_starts": ["repair_start"],
    "kernels.repair_proposals": ["repair_chunk"],
    "kernels.repair_evals_per_s": ["repair_start", "repair_chunk"],
    "kernels.repair_stalled_starts": ["repair_start", "repair_chunk"],
    "positivity.hypothesis_ms": ["hypothesis"],
    "positivity.adjoint_ms": ["adjoint"],
    "exact_linalg.adjugate_ms": ["adjugate"],
    "exact_linalg.det_ms": ["det"],
    "exact_linalg.det_calls": ["det"],
    "spectral.char_poly_ms": ["char_poly"],
    "spectral.real_roots_ms": ["real_roots"],
    "spectral.real_roots_calls": ["real_roots"],
    "spectral.numeric_spectrum_ms": ["numeric_spectrum"],
    "spectral.eigvec_ms": ["eigvec"],
    "spectral.cache_hits": ["cache"],
}


class Tracer:
    """Installs span wrappers, collects per-name self time and counts."""

    def __init__(self, caches: list, clock) -> None:
        """`caches` are treetp's lru caches, whose hits show work shared
        inside one instance; `clock` times the spans."""
        self._clock = clock
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, self s, total s]
        self.counts = defaultdict(int)
        self._stack: list[list[float]] = []
        self._verify_depth = 0
        self._start_violations: int | None = None
        self._saved: list[tuple[object, str, object]] = []
        self.present = {name for name, module, attr in _SPANS if hasattr(module, attr)}
        self._caches = caches
        if caches:
            self.present.add("cache")
        self._cache_base = 0

    def absent_metrics(self) -> list[str]:
        return sorted(m for m, needs in REQUIRES.items() if not all(n in self.present for n in needs))

    def _cache_hits(self) -> int:
        return sum(c.cache_info().hits for c in self._caches)

    def install(self) -> None:
        for name, module, attr in _SPANS:
            if not hasattr(module, attr):
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        self._cache_base = self._cache_hits()

    def uninstall(self) -> None:
        self.counts["cache_hits"] += self._cache_hits() - self._cache_base
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def end_batch(self) -> None:
        """Close the last repair start of a generation batch."""
        if self._start_violations:
            self.counts["stalled_starts"] += 1
        self._start_violations = None

    def _span_name(self, name: str) -> str | None:
        # positivity calls made by the generator are its exact re-check;
        # det calls outside test_conjecture belong to that re-check too
        if name == "hypothesis" and not self._verify_depth:
            return "recheck"
        if name == "det" and not self._verify_depth:
            return None
        return name

    def _wrap(self, name, fn):
        stack, stats, clock = self._stack, self.stats, self._clock

        def wrapper(*args, **kwargs):
            span = self._span_name(name)
            if span is None:
                return fn(*args, **kwargs)
            if span == "verify":
                self.end_batch()
                self._verify_depth += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                entry = stats[span]
                entry[0] += 1
                entry[1] += dt - frame[0]
                entry[2] += dt
                if span == "verify":
                    self._verify_depth -= 1
            self._observe(span, args, result)
            return result

        return wrapper

    def _observe(self, span: str, args, result) -> None:
        if span == "screen":
            idx = int(result)
            self.counts["screen_candidates"] += idx + 1 if idx >= 0 else len(args[0])
        elif span == "recheck":
            self.counts["recheck_rejected"] += not bool(result)
        elif span == "repair_start":
            self.end_batch()
            self._start_violations = int(result)
        elif span == "repair_chunk":
            current, used = result
            self._start_violations = int(current)
            self.counts["repair_proposals"] += int(used)
        elif span == "batch":
            self.end_batch()

    def metrics(self, instances: int, speed: float) -> dict[str, float]:
        """Per-instance figures, keyed by the benchmark's per-layer names.

        Times are scaled by `speed` to idle-machine time, as the end-to-end
        rate is.
        """
        st = self.stats
        per = max(instances, 1)

        def self_ms(*names):
            return 1000.0 * speed * sum(st[n][1] for n in names) / per

        def total_s(name):
            return speed * st[name][2]

        # generation is what batch_verify does besides test_conjecture
        generate_s = total_s("batch") - total_s("verify") if st["batch"][0] else 0.0
        screen_s = speed * st["screen"][1]
        repair_s = speed * (st["repair_start"][1] + st["repair_chunk"][1])
        starts = st["repair_start"][0]
        proposals = self.counts["repair_proposals"]
        return {
            "conjecture_lab.generate_ms": 1000.0 * generate_s / per,
            "conjecture_lab.sample_ms":
                1000.0 * (generate_s - screen_s - repair_s - total_s("recheck")) / per
                if generate_s else 0.0,
            "conjecture_lab.recheck_ms": 1000.0 * total_s("recheck") / per,
            "conjecture_lab.recheck_rejected": self.counts["recheck_rejected"] / per,
            "kernels.screen_ms": self_ms("screen"),
            "kernels.screen_candidates": self.counts["screen_candidates"] / per,
            "kernels.screen_candidates_per_s":
                self.counts["screen_candidates"] / screen_s if screen_s else 0.0,
            "kernels.repair_ms": self_ms("repair_start", "repair_chunk"),
            "kernels.repair_starts": starts / per,
            "kernels.repair_proposals": proposals / per,
            "kernels.repair_evals_per_s": (starts + proposals) / repair_s if repair_s else 0.0,
            "kernels.repair_stalled_starts": self.counts["stalled_starts"] / per,
            "positivity.hypothesis_ms": self_ms("hypothesis"),
            "positivity.adjoint_ms": self_ms("adjoint"),
            "exact_linalg.adjugate_ms": self_ms("adjugate"),
            "exact_linalg.det_ms": self_ms("det"),
            "exact_linalg.det_calls": st["det"][0] / per,
            "spectral.char_poly_ms": self_ms("char_poly"),
            "spectral.real_roots_ms": self_ms("real_roots"),
            "spectral.real_roots_calls": st["real_roots"][0] / per,
            "spectral.numeric_spectrum_ms": self_ms("numeric_spectrum"),
            "spectral.eigvec_ms": self_ms("eigvec"),
            "spectral.cache_hits": self.counts["cache_hits"] / per,
        }

    def spans(self) -> dict[str, dict[str, float]]:
        return {
            name: {"calls": calls, "self_s": self_s, "total_s": total}
            for name, (calls, self_s, total) in sorted(self.stats.items())
        }
