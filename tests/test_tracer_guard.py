"""The benchmark tracer must keep finding the layers it patches.

``perfbench/tracing.py`` marks a metric absent when a function it wraps no
longer exists, and the benchmark then reads that metric as 0.  A refactor
that renames or deletes a traced function would silently disable a layer;
this guard fails instead.  The tracer is imported read-only, with the same
``sys.path`` setup as ``perfbench/test_checks.py``.
"""
from __future__ import annotations

import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path[:0] = [str(PERFBENCH), str(PERFBENCH.parent / "src")]

import tracing  # noqa: E402

# absent because their spans point at names the library has since dropped;
# mending the tracer may only shrink this set
KNOWN_ABSENT = {
    "kernels.repair_evals_per_s",
    "kernels.repair_ms",
    "kernels.repair_proposals",
    "kernels.repair_stalled_starts",
    "kernels.repair_starts",
    "positivity.adjoint_ms",
    "spectral.cache_hits",
}


def test_no_benchmark_layer_newly_absent():
    absent = set(tracing.Tracer([], time.perf_counter).absent_metrics())
    assert absent <= KNOWN_ABSENT, sorted(absent - KNOWN_ABSENT)
