"""Self-tests of the independent checks: each must catch a planted wrong answer.

Run from the repository root:

    python3 -m pytest perfbench/test_checks.py
"""
from __future__ import annotations

import copy
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
from run import digest  # noqa: E402
import treetp  # noqa: E402
from treetp import FIXTURES  # noqa: E402


@pytest.fixture(scope="module", params=sorted(FIXTURES))
def clean(request) -> dict:
    fx = FIXTURES[request.param]
    return digest(fx.matrix, fx.tree, False, treetp.test_conjecture(fx.matrix, fx.tree))


def planted(d: dict, edit) -> list[str]:
    d = copy.deepcopy(d)
    edit(d)
    errors, _ = checks.check(d)
    return errors


def test_clean_digest_passes(clean):
    assert checks.check(clean) == ([], 0)


def test_flipped_adjugate_sign(clean):
    def edit(d):
        d["adj"][0][1] = str(-Fraction(d["adj"][0][1]))

    assert "A*adj(A) != det(A)*I" in planted(clean, edit)


def test_perturbed_polynomial_coefficient(clean):
    def edit(d):
        d["char_poly"][1] = str(Fraction(d["char_poly"][1]) + 1)

    assert any(e.startswith("characteristic polynomial") for e in planted(clean, edit))


def test_negated_eigenvector_component(clean):
    def edit(d):
        d["vector"][1] = -d["vector"][1]

    assert any(e.startswith("eigenvector signs") for e in planted(clean, edit))


def test_wrong_is_real(clean):
    def edit(d):
        d["is_real"] = not d["is_real"]

    assert any(e.startswith("is_real") for e in planted(clean, edit))


def test_interval_missing_the_root(clean):
    def edit(d):
        lo, hi = (Fraction(x) for x in d["interval"])
        d["interval"] = [str(hi + 1), str(hi + 2)]

    assert any(e.startswith("interval") for e in planted(clean, edit))


def test_wrong_hypothesis_verdict(clean):
    def edit(d):
        d["t_tp"] = not d["t_tp"]
        d["holds"] = not d["holds"]

    errors = planted(clean, edit)
    assert any(e.startswith("T-TP verdict") for e in errors)
    assert any(e.startswith("hypothesis verdict") for e in errors)


def test_wrong_signing_and_counterexample_verdicts(clean):
    def edit(d):
        d["signed"] = not d["signed"]
        d["counterexample"] = not d["counterexample"]

    errors = planted(clean, edit)
    assert any(e.startswith("signing verdict") for e in errors)
    assert any(e.startswith("counterexample verdict") for e in errors)


def test_promises_of_the_workload():
    fx = FIXTURES["star5-counterexample"]
    d = digest(fx.matrix, fx.tree, False, treetp.test_conjecture(fx.matrix, fx.tree),
               symmetric=True, theorem=True)
    errors, _ = checks.check(d)
    assert "symmetric candidate is not symmetric" in errors
    assert "counterexample where the theorem applies" in errors


def test_pendant_verdicts_are_checked():
    fx = FIXTURES["star4-example"]
    d = digest(fx.matrix, fx.tree, True, treetp.test_conjecture(fx.matrix, fx.tree, augmented=True))
    assert checks.check(d) == ([], 0)
    d["pendant"][0][1] = not d["pendant"][0][1]
    errors, _ = checks.check(d)
    assert any(e.startswith("pendant P-matrix verdicts") for e in errors)


def test_integer_determinant():
    assert checks.det_int([[2, 1, 0], [1, 2, 1], [0, 1, 2]]) == 4
    assert checks.det_int([[1, 2], [2, 4]]) == 0
    assert checks.det_int([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]) == 1


def test_leaf_paths_of_the_pitchfork():
    paths = checks.leaf_paths(5, [(1, 2), (1, 3), (1, 4), (4, 5)])
    assert sorted(map(tuple, paths)) == [(3, 1, 2), (5, 4, 1, 2), (5, 4, 1, 3)]


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
