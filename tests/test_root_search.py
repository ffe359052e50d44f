"""Root isolation and refinement against plain halving oracles.

`spectral._isolate_squarefree` skips the Sturm counts of midpoints beyond
a root bound, and `spectral._refine` finds the cell that halving stops on
by sign probes at its depth, steered by a float guess.  Both must return
exactly what halving returns; the oracles below are the halving loops,
written here on `Fraction`s and plain Sturm counts.
"""
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from treetp import ExactMatrix, char_poly, real_roots, spectral
from treetp.exact_linalg import clear_denominators
from treetp.spectral import ISOLATION_WIDTH

ROOT = Path(__file__).resolve().parent.parent
CORPUS = json.loads((ROOT / "perfbench" / "corpus.json").read_text())
CORPUS_MATRICES = [m for c in CORPUS["categories"] for m in c["matrices"]] + [
    f["matrix"] for f in CORPUS["fixtures"]
]


def _value(f, x: Fraction) -> Fraction:
    return sum((c * x**k for k, c in enumerate(f)), Fraction(0))


def _sign(f, x: Fraction) -> int:
    v = _value(f, x)
    return (v > 0) - (v < 0)


def halving_refine(f, lo: Fraction, hi: Fraction, width: Fraction | None):
    """Halve [lo, hi] until it is at most `width` wide, or 2^-53 of its end nearer 0."""
    s_lo = _sign(f, lo)
    while (hi - lo > width) if width is not None else (hi - lo) * 2**53 > min(abs(lo), abs(hi)):
        mid = (lo + hi) / 2
        s = _sign(f, mid)
        if s == 0:
            return mid, mid
        if s == s_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def halving_isolation(f):
    """Sturm bisection from the Cauchy bound with a Sturm count at every midpoint."""
    exact = []
    while True:
        if len(f) == 2:
            exact.append(Fraction(-f[0], f[1]))
            return [(r, r) for r in exact], ()
        chain = spectral._sturm_chain(f)

        def count(x: Fraction) -> int:
            signs = [s for s in (_sign(q, x) for q in chain) if s]
            return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

        bound = 1 + Fraction(max(abs(c) for c in f[:-1]), abs(f[-1]))
        stack, intervals, hit = [(-bound, bound, count(-bound), count(bound))], [], None
        while stack:
            lo, hi, v_lo, v_hi = stack.pop()
            if v_lo - v_hi == 1:
                intervals.append((lo, hi))
            if v_lo - v_hi < 2:
                continue
            mid = (lo + hi) / 2
            if _sign(f, mid) == 0:
                hit = mid
                break
            v_mid = count(mid)
            stack += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
        if hit is None:
            return [(r, r) for r in exact] + intervals, f
        exact.append(hit)
        f = spectral._exact_quotient(f, (-hit.numerator, hit.denominator))


def _squarefree_parts(coeffs):
    return [g for g, _ in spectral._squarefree_factors(spectral._primitive(coeffs))]


def _random_coeffs(rng: random.Random, degree: int, bits: int):
    """Integer coefficients, ascending, with a leading coefficient other than +-1."""
    lead = rng.choice((-1, 1)) * rng.randint(2, 10 ** rng.randint(1, 30))
    lower = rng.randint(0, bits)
    return [rng.randint(-(10**lower), 10**lower) for _ in range(degree)] + [lead]


def _corpus_factors():
    for rows in CORPUS_MATRICES:
        p = char_poly(ExactMatrix(rows))
        yield from _squarefree_parts(clear_denominators(p.coeffs)[0])


class TestRootBound:
    def test_bounds_every_complex_root(self):
        rng = random.Random(16)
        exponents = []
        for _ in range(120):
            f = _random_coeffs(rng, rng.randint(1, 8), 30)
            e = spectral._root_bound_exponent(tuple(f))
            with mpmath.workdps(50):
                roots = mpmath.polyroots(f[::-1], maxsteps=400, extraprec=400)
                assert all(abs(z) < mpmath.mpf(2) ** e for z in roots), (f, e)
            exponents.append(e)
        assert min(exponents) < -10 and max(exponents) > 10  # roots far below and above 1

    def test_roots_below_one_give_a_negative_exponent(self):
        # 10^30 x^3 + x + 1: all three roots have modulus about 10^-10
        f = (1, 1, 0, 10**30)
        e = spectral._root_bound_exponent(f)
        assert e < 0
        assert all(abs(z) < 2.0**e for z in mpmath.polyroots(f[::-1], maxsteps=200, extraprec=200))

    def test_monomial_roots_are_zero(self):
        assert spectral._root_bound_exponent((0, 0, 5)) == 1


class TestIsolationSkip:
    def test_matches_halving_on_random_polynomials(self):
        rng = random.Random(61)
        checked = 0
        for _ in range(120):
            f = _random_coeffs(rng, rng.randint(1, 8), rng.choice((1, 3, 30)))
            for g in _squarefree_parts(f):
                assert spectral._isolate_squarefree(g) == halving_isolation(g), g
                checked += 1
        assert checked >= 120

    def test_matches_halving_on_every_corpus_factor(self):
        for g in _corpus_factors():
            assert spectral._isolate_squarefree(g) == halving_isolation(g), g


def _refine_cases(f, lo, hi):
    """(width, guess) pairs: the four stopping rules times guesses good, bad and absent."""
    for width in (Fraction(1, 10), ISOLATION_WIDTH, (hi - lo) / 4, None):
        expected = halving_refine(f, lo, hi, width)
        root = (expected[0] + expected[1]) / 2
        cell = (expected[1] - expected[0]) or (hi - lo) / 2**60
        guesses = [None, float(root), math.nan, math.inf, -math.inf, float(hi + 1 + abs(hi))]
        guesses += [float(lo), float(hi), float((lo + hi) / 2)]  # far from the root, inside
        guesses += [float(root + k * cell) for k in (1, -1, 10, -10, 10**6, -(10**6))]
        for guess in guesses:
            yield width, guess, expected


def _cut_at_zero(f, spans):
    """[0, hi] for the least positive root, [lo, 0] for the greatest negative one.

    The adjugate-perron route cuts lambda's interval at 0 this way.
    """
    positive = [hi for lo, hi in spans if hi > 0 and _sign(f, max(lo, Fraction(0))) != _sign(f, hi)]
    negative = [lo for lo, hi in spans if lo < 0 and _sign(f, lo) != _sign(f, min(hi, Fraction(0)))]
    cuts = [(Fraction(0), min(positive))] if positive else []
    return cuts + ([(max(negative), Fraction(0))] if negative else [])


def _unaligned(f, lo, hi):
    """An interval around the same root whose ends are off the grid of [lo, hi]."""
    c_lo, c_hi = halving_refine(f, lo, hi, (hi - lo) / 8)
    w = (hi - lo) / 8
    return max(lo, c_lo - w / 3), min(hi, c_hi + w / 7)


class TestRefineOracle:
    def test_random_squarefree_polynomials(self):
        rng = random.Random(1916)
        for _ in range(25):
            f = [rng.randint(-40, 40) for _ in range(rng.randint(2, 7))] + [rng.randint(1, 9)]
            for g in _squarefree_parts(f):
                spans, g_ints = spectral._isolate_squarefree(g)
                spans = [(lo, hi) for lo, hi in spans if lo != hi]
                if g_ints and g_ints[0] != 0:
                    spans += _cut_at_zero(g_ints, spans)
                spans += [_unaligned(g_ints, lo, hi) for lo, hi in spans]
                for lo, hi in spans:
                    for width, guess, expected in _refine_cases(g_ints, lo, hi):
                        got = spectral._refine(g_ints, lo, hi, width, guess)
                        assert got == expected, (g_ints, lo, hi, width, guess)

    @pytest.mark.parametrize("lo, hi", [(Fraction(0), Fraction(1)), (Fraction(1, 3), Fraction(4, 3))])
    @pytest.mark.parametrize("depth", [3, 20, 50, 52, 53, 54, 55, 60])
    def test_dyadic_roots_around_the_stopping_depth(self, lo, hi, depth):
        # the root lo + (hi - lo) i / 2^depth, i odd, is first a grid point at `depth`
        i = 2 ** (depth - 1) + 1 if depth > 3 else 5
        root = lo + (hi - lo) * Fraction(i, 2**depth)
        f = spectral._primitive((-root.numerator, root.denominator))
        f = tuple(a + b for a, b in zip((0,) + f, f + (0,)))  # times (x + 1), outside [lo, hi]
        f = tuple(a + b for a, b in zip((0, 0) + f, f + (0, 0)))  # times (x^2 + 1)
        widths = [(hi - lo) / 2**k for k in (depth - 1, depth, depth + 1)] + [None]
        for width in widths:
            expected = halving_refine(f, lo, hi, width)
            for guess in (None, float(root), float(root) * (1 + 2**-40), math.nan, float(lo)):
                assert spectral._refine(f, lo, hi, width, guess) == expected, (depth, width, guess)

    def test_grid_root_below_the_stopping_depth(self):
        # on [3/2, 5/2] the 2^-53 rule stops at depth 52 for a root above 2,
        # a level above the depth that the end 3/2 guarantees; the root
        # 2 + 2^-53 is first a grid point at depth 53, so halving never meets it
        lo, hi = Fraction(3, 2), Fraction(5, 2)
        for f in ((-(2**54 + 1), 2**53, -(2**54 + 1), 2**53), (-5, 0, 1)):
            expected = halving_refine(f, lo, hi, None)
            assert expected[1] - expected[0] == Fraction(1, 2**52)
            for guess in (None, 2.0, 2.2, 2.4, math.nan):
                assert spectral._refine(f, lo, hi, None, guess) == expected, (f, guess)

    def test_exact_root_at_the_last_midpoint(self):
        # x = 1/2^k on [0, 1]: a point at width 1/2^k, a cell one level above
        f = (-1, 2**5)
        assert spectral._refine(f, Fraction(0), Fraction(1), Fraction(1, 2**5)) == (Fraction(1, 32),) * 2
        assert spectral._refine(f, Fraction(0), Fraction(1), Fraction(1, 2**4)) == (
            Fraction(0),
            Fraction(1, 16),
        )


def _big_triangular(scale: int) -> ExactMatrix:
    return ExactMatrix([[2, scale, 0], [0, 3, scale], [0, 0, 1]])


def _guess_free(monkeypatch, p):
    with monkeypatch.context() as m:
        m.setattr(spectral, "_root_estimates", lambda f: [])
        return real_roots(p, refine_to=ISOLATION_WIDTH)


class TestSteeringNeverRaises:
    @pytest.mark.parametrize(
        "A",
        [
            _big_triangular(10**200),
            _big_triangular(10**400),
            ExactMatrix([[10**100, 2 * 10**100], [3 * 10**100, 4 * 10**100]]),
            ExactMatrix([[10**160, 2 * 10**160], [3 * 10**160, 4 * 10**160]]),
            ExactMatrix([[10**400, 2], [3, 10**400 + 1]]),
            ExactMatrix([[Fraction(1, 10**200), 2], [3, Fraction(4, 10**200)]]),
        ],
        ids=["tri-1e200", "tri-1e400", "scaled-1e100", "scaled-1e160", "near-1e400", "tiny-diagonal"],
    )
    def test_equal_to_a_guess_free_run(self, monkeypatch, A):
        p = char_poly(A)
        assert real_roots(p, refine_to=ISOLATION_WIDTH) == _guess_free(monkeypatch, p)

    def test_overflowing_coefficients_give_no_estimates(self):
        assert spectral._root_estimates((-(10**400), 0, 1)) == []
        big = Fraction(10**400)
        assert spectral._estimate_in([complex(1.0)], big, big + 1) is None
        assert spectral._estimate_in([complex(1.0)], -big, big) == 1.0

    @pytest.mark.parametrize("guess", [None, 1e308, -1e308, math.nan, math.inf, -math.inf, 0.0])
    def test_huge_interval_ends(self, guess):
        # x^2 - 2 * 10^800: the root sqrt(2) 10^400 is beyond the float range
        f = (-2 * 10**800, 0, 1)
        lo, hi = Fraction(10**400), Fraction(2 * 10**400)
        for width in (ISOLATION_WIDTH, None):
            assert spectral._refine(f, lo, hi, width, guess) == halving_refine(f, lo, hi, width)


def test_sign_evaluations_are_fewer_than_half_of_halving(monkeypatch):
    # before the root bound and the direct cell search, this loop made
    # 111,877 calls to _sign_at over the 299 corpus matrices and fixtures
    calls = 0
    sign_at = spectral._sign_at

    def counted(*args):
        nonlocal calls
        calls += 1
        return sign_at(*args)

    polys = [char_poly(ExactMatrix(rows)) for rows in CORPUS_MATRICES]
    monkeypatch.setattr(spectral, "_sign_at", counted)
    for p in polys:
        real_roots(p, refine_to=ISOLATION_WIDTH)
    assert len(polys) == 299
    assert calls <= 0.45 * 111_877


def test_refine_runs_once_per_root_interval(monkeypatch):
    # before touching intervals of one factor were left alone, the narrowing
    # loop refined them to a quarter and refined the result again (18,459
    # calls to _sign_at over the corpus); and before the eigenvalue estimates
    # steered the probes, each factor made one np.roots call
    spans, calls = [], 0
    refine, sign_at = spectral._refine, spectral._sign_at

    def recorded(f, lo, hi, *args):
        spans.append((lo, hi))
        return refine(f, lo, hi, *args)

    def counted(*args):
        nonlocal calls
        calls += 1
        return sign_at(*args)

    def no_estimates(f):
        raise AssertionError("np.roots estimates asked for")

    monkeypatch.setattr(spectral, "_refine", recorded)
    monkeypatch.setattr(spectral, "_sign_at", counted)
    monkeypatch.setattr(spectral, "_root_estimates", no_estimates)
    for rows in CORPUS_MATRICES:
        spans.clear()
        roots = spectral.full_spectrum_numeric(ExactMatrix(rows)).roots
        assert len(set(spans)) == len(spans) <= len(roots), rows
    assert len(CORPUS_MATRICES) == 299
    assert calls <= 0.15 * 111_877  # unsteered probes would make about 68,500


def _holds_root_of(square: int, r: spectral.RootInterval) -> bool:
    """Whether r holds sqrt(square) or, when r lies below 0, -sqrt(square)."""
    lo, hi = (r.lo, r.hi) if r.lo >= 0 else (-r.hi, -r.lo)
    return lo >= 0 and lo**2 < square < hi**2


class TestTouchingIntervals:
    def test_touching_intervals_of_one_factor_are_kept(self):
        # x^2 - 2 isolates from the Cauchy bound 3 and halves once, at 0
        roots = real_roots(spectral.Polynomial([-2, 0, 1]))
        assert [(r.lo, r.hi, r.multiplicity) for r in roots] == [(-3, 0, 1), (0, 3, 1)]

    def test_point_touching_an_interval_of_its_factor_is_narrowed(self):
        # x (x^2 - 6x - 4): isolation hits 0 at its first midpoint and peels it
        # off, and x^2 - 6x - 4 then isolates in [-7, 0] and [0, 7]
        roots = real_roots(spectral.Polynomial([0, -4, -6, 1]))
        assert [(r.lo, r.hi) for r in roots if r.is_exact()] == [(0, 0)]
        assert len(roots) == 3 and all(a.hi < b.lo for a, b in zip(roots, roots[1:]))

    @pytest.mark.parametrize("refine_to", [None, ISOLATION_WIDTH])
    def test_overlapping_intervals_of_two_factors_are_narrowed(self, refine_to):
        # (x^2 - 2)^2 (x^2 - 3): x^2 - 2 isolates in [0, 3] and x^2 - 3 in
        # [0, 4] (and their mirrors), which overlap
        p = spectral.Polynomial([-12, 0, 16, 0, -7, 0, 1])
        roots = real_roots(p, refine_to=refine_to)
        assert [r.multiplicity for r in roots] == [1, 2, 2, 1]
        assert all(a.hi < b.lo for a, b in zip(roots, roots[1:]))
        assert all(_holds_root_of(sq, r) for r, sq in zip(roots, (3, 2, 2, 3)))
