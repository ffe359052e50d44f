"""The verify chain must keep reaching the names the benchmark tracer wraps.

``perfbench/tracing.py`` times a layer by replacing a function in the module
namespace where its caller looks it up, and ``perfbench/run.py`` records each
verdict by replacing ``conjecture_lab.test_conjecture``.  When a refactor
stops calling one of those names, its per-layer metric silently reads 0.
These tests install counting wrappers the same way and fail instead.
"""
from __future__ import annotations

import pytest

from treetp import GenConfig, batch_verify, conjecture_lab, make_star, spectral
from treetp.fixtures import STAR4_EXAMPLE

# (module, attribute) pairs that test_conjecture must reach, as the tracer patches them
VERIFY_LAYERS = [
    (conjecture_lab, "is_t_tp"),
    (conjecture_lab, "pendant_deletion_hypothesis"),
    (conjecture_lab, "smallest_eig_vector"),
    (spectral, "full_spectrum_numeric"),
    (spectral, "real_roots"),
]


@pytest.fixture
def reached(monkeypatch) -> dict[str, int]:
    """Calls per `module.attribute` of VERIFY_LAYERS while the test runs."""
    counts = {f"{m.__name__}.{attr}": 0 for m, attr in VERIFY_LAYERS}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module, attr in VERIFY_LAYERS:
        name = f"{module.__name__}.{attr}"
        monkeypatch.setattr(module, attr, counting(name, getattr(module, attr)))
    return counts


@pytest.mark.parametrize("augmented", [False, True], ids=["plain", "augmented"])
def test_test_conjecture_reaches_every_traced_layer(reached, augmented):
    conjecture_lab.test_conjecture(STAR4_EXAMPLE.matrix, STAR4_EXAMPLE.tree, augmented)
    hypothesis = "pendant_deletion_hypothesis" if augmented else "is_t_tp"
    other = "is_t_tp" if augmented else "pendant_deletion_hypothesis"
    assert reached == {
        f"treetp.conjecture_lab.{hypothesis}": 1,
        f"treetp.conjecture_lab.{other}": 0,
        "treetp.conjecture_lab.smallest_eig_vector": 1,
        "treetp.spectral.full_spectrum_numeric": 1,
        "treetp.spectral.real_roots": 1,
    }


@pytest.mark.parametrize(
    "cfg",
    [
        GenConfig(tree=make_star(4, 1), entry_range=(1, 150), seed=2),
        GenConfig(tree=make_star(5, 1), entry_range=(1, 150), seed=44, augmented=True,
                  repair=True, max_attempts=30),
    ],
    ids=["star4-reject", "star5-aug-repair"],
)
def test_batch_verify_calls_test_conjecture_once_per_generated_slot(monkeypatch, cfg):
    calls = []
    verify = conjecture_lab.test_conjecture

    def recorded(A, tree, augmented=False):  # the benchmark's recording wrapper
        verdict = verify(A, tree, augmented)
        calls.append((tree, augmented))
        return verdict

    monkeypatch.setattr(conjecture_lab, "test_conjecture", recorded)
    report = batch_verify(cfg, 3)
    assert report.generated == 3
    assert calls == [(cfg.tree, cfg.augmented)] * report.generated
