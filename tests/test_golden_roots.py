"""Golden root isolation: every corpus matrix's real-root intervals pinned.

For each matrix and fixture of `perfbench/corpus.json`, the file
`golden_roots.json` holds `real_roots(char_poly(A), refine_to=ISOLATION_WIDTH)`
as `[lo, hi, multiplicity]` strings, so any change to the exact
arithmetic behind root isolation shows up as a changed interval.  The
corpus has only simple irrational roots, so companion matrices of a few
polynomials with repeated factors, rational roots and rational
coefficients are pinned too.  The corpus file is only read.  Regenerate the golden file (only when a change
to the printed intervals is intended) with

    PYTHONPATH=src python tests/test_golden_roots.py
"""
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from treetp import ExactMatrix, char_poly, real_roots
from treetp.spectral import ISOLATION_WIDTH

ROOT = Path(__file__).resolve().parent.parent
CORPUS = json.loads((ROOT / "perfbench" / "corpus.json").read_text())
GOLDEN_PATH = Path(__file__).resolve().parent / "golden_roots.json"


# ascending coefficients of monic polynomials, pinned through their companion matrices
COMPANION_CASES = {
    "cube-times-linear": ["-2", "5", "-3", "-1", "1"],  # (x-1)^3 (x+2)
    "rational-root-at-midpoint": ["0", "-4", "-6", "1"],
    "squared-quadratic": ["-4/3", "4", "4/3", "-4", "-1/3", "1"],  # (x^2-2)^2 (x-1/3)
    "complex-pair-and-double-half": ["3/4", "-11/4", "11/4", "-7/4", "2", "1"],  # (x^2+1)(x-1/2)^2 (x+3)
    "mixed-multiplicities": ["-243/4", "81", "135/4", "-81", "27/4", "27", "-27/4", "-3", "1"],  # (x-3/2)^2 (x^2-3)^3
    "rational-coefficients": ["5/6", "5/6", "-31/6", "-1/6", "1"],  # (x-1/2)(x+1/3)(x^2-5)
    # x^5 + x^2 - 2x - 2: the Sturm remainder drops two degrees and leads negative
    "sturm-degree-gap": ["-2", "-2", "1", "0", "0", "1"],
}


def _companion(coeffs: list[str]) -> list[list[Fraction]]:
    """Matrix whose characteristic polynomial is the monic `coeffs`."""
    n = len(coeffs) - 1
    rows = [[Fraction(int(i == j + 1)) for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][n - 1] = -Fraction(coeffs[i])
    return rows


def _matrices() -> dict[str, list]:
    """Case name -> matrix rows, for every corpus matrix, fixture and companion case."""
    cases = {f"companion-{name}": _companion(c) for name, c in COMPANION_CASES.items()}
    for category in CORPUS["categories"]:
        for i, rows in enumerate(category["matrices"]):
            cases[f"{category['name']}-{i}"] = rows
    for fixture in CORPUS["fixtures"]:
        cases[f"fixture-{fixture['name']}"] = fixture["matrix"]
    return cases


MATRICES = _matrices()


def observe(rows) -> list[list]:
    roots = real_roots(char_poly(ExactMatrix(rows)), refine_to=ISOLATION_WIDTH)
    return [[str(r.lo), str(r.hi), r.multiplicity] for r in roots]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_companion_matrices_have_their_polynomial():
    for coeffs in COMPANION_CASES.values():
        got = char_poly(ExactMatrix(_companion(coeffs))).coeffs
        assert got == tuple(Fraction(c) for c in coeffs)


def test_every_corpus_matrix_is_pinned(golden):
    assert sorted(golden) == sorted(MATRICES)


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_roots_are_pinned(golden, name):
    assert observe(MATRICES[name]) == golden[name]


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_any_estimates_give_the_same_roots(name):
    # the eigenvalue estimates only order refinement's probes: exact ones,
    # none and ones off by a relative 1e-3 give the default call's intervals
    A = ExactMatrix(MATRICES[name])
    p = char_poly(A)
    eig = [complex(z) for z in np.linalg.eigvals(np.array(A.to_float_rows(), dtype=float))]
    expected = real_roots(p, refine_to=ISOLATION_WIDTH)
    for estimates in (eig, [], [z * (1 + 1e-3) for z in eig]):
        assert real_roots(p, refine_to=ISOLATION_WIDTH, estimates=estimates) == expected


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({name: observe(rows) for name, rows in MATRICES.items()}, indent=1) + "\n"
    )
