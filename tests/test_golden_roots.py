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
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from treetp import ExactMatrix, char_poly, real_roots, spectral
from treetp.exact_linalg import clear_denominators
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


def _always_narrow(p, refine_to):
    """`real_roots` with its narrowing loop run on every polynomial.

    The reference for the shortcut that skips the loop when one factor
    has no exact point.  It splits p by Yun's algorithm alone and refines
    with no guess, since a guess only orders the probes.
    """
    f = spectral._primitive(clear_denominators(p.coeffs)[0])
    f = f if f[-1] > 0 else tuple(-c for c in f)
    found = []
    for g, mult in spectral._squarefree_factors(f):
        intervals, f_ints = spectral._isolate_squarefree(g)
        found += [(lo, hi, mult, f_ints) for lo, hi in intervals]
    changed = True
    while changed:
        changed = False
        for i, j in itertools.combinations(range(len(found)), 2):
            lo1, hi1, m1, f1 = found[i]
            lo2, hi2, m2, f2 = found[j]
            if f1 == f2 and lo1 != hi1 and lo2 != hi2 and (hi1 == lo2 or hi2 == lo1):
                continue
            if hi1 >= lo2 and hi2 >= lo1:
                if lo1 != hi1:
                    found[i] = (*spectral._refine(f1, lo1, hi1, (hi1 - lo1) / 4), m1, f1)
                    changed = True
                if lo2 != hi2:
                    found[j] = (*spectral._refine(f2, lo2, hi2, (hi2 - lo2) / 4), m2, f2)
                    changed = True
    out = []
    for lo, hi, mult, f_ints in found:
        if refine_to is not None and hi - lo > refine_to:
            lo, hi = spectral._refine(f_ints, lo, hi, refine_to)
        out.append((lo, hi, mult, f_ints))
    return sorted(out, key=lambda r: r[0] + r[1])


def _seeded_companion(seed: int) -> list[list[Fraction]]:
    """Companion matrix of a monic product of rational roots and x^2 - m, with powers."""
    rng = random.Random(seed)
    poly = [Fraction(1)]
    factors = [
        [Fraction(-rng.randint(-9, 9), rng.randint(1, 4)), 1] for _ in range(rng.randint(1, 3))
    ]
    if rng.random() < 0.6:
        factors.append([Fraction(-rng.randint(2, 7)), 0, 1])
    for factor in factors:
        for _ in range(rng.randint(1, 3)):
            out = [Fraction(0)] * (len(poly) + len(factor) - 1)
            for i, a in enumerate(poly):
                for j, b in enumerate(factor):
                    out[i + j] += a * b
            poly = out
    return _companion([str(c) for c in poly])


NARROWING_CASES = {**MATRICES, **{f"seeded-companion-{s}": _seeded_companion(s) for s in range(40)}}


@pytest.mark.parametrize("name", sorted(NARROWING_CASES))
def test_narrowing_shortcut_matches_always_narrowing(name):
    # unrefined, the narrowed intervals are the answer; refined, narrowing
    # only moves where refinement starts on the same dyadic grid
    p = char_poly(ExactMatrix(NARROWING_CASES[name]))
    for refine_to in (None, ISOLATION_WIDTH):
        got = real_roots(p, refine_to=refine_to)
        expected = _always_narrow(p, refine_to)
        assert [(r.lo, r.hi, r.multiplicity, r.factor) for r in got] == expected


def test_seeded_companions_repeat_factors_and_hit_rational_roots():
    # the seeded cases reach the narrowing loop: repeated factors and exact points
    roots = [real_roots(char_poly(ExactMatrix(_seeded_companion(s)))) for s in range(40)]
    assert sum(any(r.multiplicity > 1 for r in rs) for rs in roots) >= 30
    assert sum(any(r.is_exact() for r in rs) for rs in roots) >= 30


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({name: observe(rows) for name, rows in MATRICES.items()}, indent=1) + "\n"
    )
