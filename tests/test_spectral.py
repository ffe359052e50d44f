import dataclasses
import importlib
import inspect
import itertools
import json
import math
import pkgutil
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from treetp import (
    ExactMatrix,
    Polynomial,
    char_poly,
    det,
    minor,
    full_spectrum_numeric,
    make_path,
    make_star,
    real_roots,
    smallest_eig_vector,
)
from treetp import test_conjecture as run_conjecture
import treetp
from treetp import exact_linalg, matrix_to_text, spectral
from treetp.cli import main as cli_main
from treetp.fixtures import (
    PITCHFORK_COUNTEREXAMPLE,
    STAR4_EXAMPLE,
    STAR5_COUNTEREXAMPLE,
)

from conftest import laplace_det, random_int_matrix, random_rational_matrix

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.json"


def poly_of_matrix(p: Polynomial, A: ExactMatrix) -> ExactMatrix:
    """Exact matrix Horner; the Cayley-Hamilton oracle."""
    acc = ExactMatrix.identity(A.n).scaled(p.coeffs[-1])
    for c in reversed(p.coeffs[:-1]):
        acc = acc * A
        acc = ExactMatrix(
            [
                [acc.rows[i][j] + (c if i == j else 0) for j in range(A.n)]
                for i in range(A.n)
            ]
        )
    return acc


def _plus(a, b):
    """Sum of two integer coefficient tuples, ascending."""
    return spectral._trim(x + y for x, y in itertools.zip_longest(a, b, fillvalue=0))


def _times(a, b):
    """Product of two integer coefficient tuples, ascending."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


class TestPolynomial:
    def test_normalizes_trailing_zeros(self):
        assert Polynomial([1, 2, 0, 0]).degree == 1

    def test_eval_exact(self):
        p = Polynomial([2, -3, 1])  # (x-1)(x-2)
        assert p(Fraction(1)) == 0 and p(3) == 2

    def test_divmod_reconstructs(self, rng):
        # |lc(b)|^(deg a - deg b + 1) a = q b + r, with r the pseudo-remainder
        for _ in range(10):
            a = spectral._trim([rng.randint(-5, 5) for _ in range(6)])
            b = spectral._trim([rng.randint(-5, 5) for _ in range(3)])
            if not b:
                continue
            r = spectral._pseudo_remainder(a, b)
            scaled = tuple(abs(b[-1]) ** max(0, len(a) - len(b) + 1) * c for c in a)
            q = spectral._exact_quotient(_plus(scaled, [-c for c in r]), b)
            assert _plus(_times(q, b), r) == scaled
            assert len(r) < len(b)

    def test_gcd_of_common_factor(self):
        a = (-3, 2, 1)  # (x-1)(x+3)
        b = (-5, 3, 2)  # (x-1)(2x+5)
        assert spectral._gcd(a, b) == (-1, 1)

    def test_squarefree_decomposition(self):
        p = (2, -3, 0, 1)  # (x-1)^2 (x+2)
        expected = [((2, 1), 1), ((-1, 1), 2)]
        assert spectral._squarefree_factors(p) == expected
        # a negative, non-primitive multiple has the same primitive factors
        assert spectral._squarefree_factors(tuple(-3 * c for c in p)) == expected


class TestCharPoly:
    def test_identity_2x2(self):
        p = char_poly(ExactMatrix.identity(2))
        assert p.coeffs == (Fraction(1), Fraction(-2), Fraction(1))

    def test_cayley_hamilton_randomized(self, rng):
        for n in (2, 3, 4, 5, 6):
            A = random_int_matrix(rng, n)
            p = char_poly(A)
            zero = poly_of_matrix(p, A)
            assert all(x == 0 for row in zero.rows for x in row)

    def test_constant_term_is_signed_det(self, rng):
        for n in (2, 3, 4, 5):
            A = random_rational_matrix(rng, n)
            assert char_poly(A).coeffs[0] == (-1) ** n * det(A)

    def test_monic(self, rng):
        A = random_int_matrix(rng, 4)
        assert char_poly(A).coeffs[-1] == 1

    def test_matches_det_at_integer_points(self, rng):
        # n + 1 points fix a polynomial of degree n
        for n in (2, 3, 4, 5, 6):
            for A in (random_rational_matrix(rng, n), random_int_matrix(rng, n)):
                p = char_poly(A)
                assert p.degree == n
                for t in range(-1, n):
                    shifted = ExactMatrix(
                        [[(t if i == j else 0) - A.rows[i][j] for j in range(n)] for i in range(n)]
                    )
                    assert p(t) == det(shifted)


class TestRealRoots:
    def test_two_simple_roots(self):
        roots = real_roots(Polynomial([2, -3, 1]))
        assert len(roots) == 2
        assert all(r.multiplicity == 1 for r in roots)
        assert roots[0].lo <= 1 <= roots[0].hi
        assert roots[1].lo <= 2 <= roots[1].hi

    def test_no_real_roots(self):
        assert real_roots(Polynomial([1, 0, 1])) == []

    def test_worked_4x4_has_two_real_eigenvalues(self):
        roots = real_roots(char_poly(STAR4_EXAMPLE.matrix))
        assert len(roots) == 2

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            real_roots(Polynomial([]))

    def test_multiplicity(self):
        roots = real_roots(Polynomial([-2, 5, -3, -1, 1]))  # (x-1)^3 (x+2)
        assert [(float(r.midpoint()), r.multiplicity) for r in roots] == [(-2.0, 1), (1.0, 3)]

    def test_exact_rational_root_is_point_interval(self):
        roots = real_roots(Polynomial([1, -2, 1]))  # (x-1)^2
        assert len(roots) == 1
        assert roots[0].is_exact() and roots[0].lo == 1 and roots[0].multiplicity == 2

    def test_refinement_width(self):
        width = Fraction(1, 10**9)
        roots = real_roots(Polynomial([-2, 0, 1]), refine_to=width)  # sqrt(2)
        (r,) = [x for x in roots if x.lo > 0]
        assert r.width() <= width
        assert abs(float(r.midpoint()) - math.sqrt(2)) < 1e-8

    def test_integer_bisection_visits_the_same_rationals(self, rng):
        def fraction_bisection(p, lo, hi, width):
            s_lo = (p(lo) > 0) - (p(lo) < 0)
            while hi - lo > width:
                mid = (lo + hi) / 2
                s = (p(mid) > 0) - (p(mid) < 0)
                if s == 0:
                    return mid, mid
                if s == s_lo:
                    lo = mid
                else:
                    hi = mid
            return lo, hi

        p = Polynomial([-2, 0, 3])  # roots +-sqrt(2/3)
        ints = (-2, 0, 3)
        for lo, hi in [(Fraction(1, 3), Fraction(7, 5)), (Fraction(-9, 7), Fraction(-2, 3))]:
            for width in (Fraction(1, 10), Fraction(1, 10**12), (hi - lo) / 4):
                assert spectral._refine(ints, lo, hi, width) == fraction_bisection(p, lo, hi, width)
        # an exact root at a midpoint ends the bisection on it
        assert spectral._refine((-1, 2), Fraction(0), Fraction(1), Fraction(1, 8)) == (
            Fraction(1, 2),
            Fraction(1, 2),
        )

    def test_rational_root_at_a_bisection_midpoint(self):
        # x^3 - 6x^2 - 4x: the root 0 is the first midpoint, and the
        # deflated factor's intervals end at it
        roots = real_roots(Polynomial([0, -4, -6, 1]), refine_to=spectral.ISOLATION_WIDTH)
        assert [r.multiplicity for r in roots] == [1, 1, 1]
        assert roots[1].is_exact() and roots[1].lo == 0
        for r, expected in ((roots[0], 3 - math.sqrt(13)), (roots[2], 3 + math.sqrt(13))):
            assert r.width() <= spectral.ISOLATION_WIDTH
            assert r.lo < expected < r.hi or abs(float(r.lo) - expected) < 1e-9

    def test_disjoint_intervals(self, rng):
        for _ in range(10):
            A = random_int_matrix(rng, 5)
            roots = real_roots(char_poly(A))
            for a, b in zip(roots, roots[1:]):
                assert a.hi <= b.lo or (a.is_exact() and b.is_exact())


class TestFullSpectrum:
    def test_diagonal(self):
        est = full_spectrum_numeric(ExactMatrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]]))
        got = sorted(z.real for z in est.values)
        assert np.allclose(got, [1, 2, 3], atol=1e-9)
        assert all(z.imag == 0 for z in est.values)

    def test_worked_complex_pair(self):
        est = full_spectrum_numeric(STAR4_EXAMPLE.matrix)
        target = 83.6571 + 4.24099j
        best = min(abs(z - target) / abs(target) for z in est.values)
        assert best <= 5e-4
        # conjugates are exact mirror images
        ups = [z for z in est.values if z.imag > 0]
        downs = [z for z in est.values if z.imag < 0]
        assert sorted(z.conjugate().real for z in ups) == sorted(z.real for z in downs)

    def test_star5_smallest_modulus_root(self):
        est = full_spectrum_numeric(STAR5_COUNTEREXAMPLE.matrix)
        smallest = min(est.values, key=abs)
        assert abs(smallest - (-6.16)) <= 1e-2

    def test_root_count_conservation(self, rng):
        for n in (2, 3, 4, 5, 6):
            A = random_int_matrix(rng, n)
            p = char_poly(A)
            est = full_spectrum_numeric(A)
            n_real_exact = sum(r.multiplicity for r in real_roots(p))
            n_real_est = sum(1 for z in est.values if z.imag == 0)
            assert len(est.values) == n
            assert n_real_est == n_real_exact

    def test_converged_flag(self):
        # the estimates are roots of the exact polynomial to a scaled residual
        for fixture in (STAR4_EXAMPLE, STAR5_COUNTEREXAMPLE, PITCHFORK_COUNTEREXAMPLE):
            est = full_spectrum_numeric(fixture.matrix)
            monic = [float(c / est.char_poly.coeffs[-1]) for c in est.char_poly.coeffs]
            for w in est.values:
                value = sum(c * w**k for k, c in enumerate(monic))
                scale = sum(abs(c) * max(1.0, abs(w)) ** k for k, c in enumerate(monic))
                assert abs(value) / scale < 1e-9

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, -(10**20 + 1)], [1, 2 * 10**10]],
            [[0, -(10**20 + 1), 0], [1, 2 * 10**10, 0], [0, 0, 2 * 10**10]],
        ],
        ids=["2x2", "3x3"],
    )
    def test_pair_on_the_real_axis_counts_once(self, rows):
        # eigenvalues 1e10 +- i (and 2e10); the float estimates of the pair
        # are both 1e10 with no imaginary part, yet the pair stays non-real
        # and is still the smallest in modulus
        est = full_spectrum_numeric(ExactMatrix(rows))
        assert len(est.values) == len(rows)
        assert not est.smallest.is_real and est.smallest.interval is None
        assert abs(est.smallest.estimate - 1e10) <= 1e-6 * 1e10
        if len(rows) == 3:
            assert [r.multiplicity for r in est.roots] == [1]
            assert 2e10 in [z.real for z in est.values]
            assert abs(est.smallest.modulus_margin - 0.5) < 1e-9


class TestSmallestEigenvalue:
    def test_worked_4x4(self):
        s = full_spectrum_numeric(STAR4_EXAMPLE.matrix).smallest
        assert s.is_real and s.is_simple
        assert abs(s.estimate.real - 2.5) <= 0.05
        assert s.interval.width() <= Fraction(1, 10**12)

    def test_worked_pitchfork(self):
        s = full_spectrum_numeric(PITCHFORK_COUNTEREXAMPLE.matrix).smallest
        assert s.is_real and s.is_simple
        assert abs(s.estimate.real - (-2.54)) <= 0.01

    def test_identity_not_simple(self):
        s = full_spectrum_numeric(ExactMatrix.identity(4)).smallest
        assert s.is_real and s.is_simple is False and s.multiplicity == 4
        assert not s.ambiguous

    def test_equal_modulus_flags_ambiguous(self):
        s = full_spectrum_numeric(ExactMatrix([[0, 1], [1, 0]])).smallest  # eigenvalues +1, -1
        assert s.ambiguous

    def test_margin_value(self):
        s = full_spectrum_numeric(ExactMatrix([[1, 0], [0, 2]])).smallest
        assert abs(s.modulus_margin - 0.5) < 1e-9

    def test_non_real_smallest(self):
        A = ExactMatrix([[1, -5, 0], [5, 1, 0], [0, 0, 100]])
        s = full_spectrum_numeric(A).smallest
        assert not s.is_real
        assert abs(s.estimate - (1 + 5j)) < 1e-6

    def test_one_root_isolation_per_instance(self, monkeypatch):
        # each stage of the chain runs once and is passed down, not
        # recomputed: one Faddeev-LeVerrier pass per instance, whatever its
        # argument, on every eigenvector route
        calls = {}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        scaled_star4 = ExactMatrix([[int(3 * x) + 1 for x in row] for row in STAR4_EXAMPLE.matrix.rows])
        for A, tree, route in (
            (scaled_star4, make_star(4, 1), "adjugate-perron"),
            (ExactMatrix([[1, 2], [2, 4]]), make_path((1, 2)), "adjugate-column"),
            (STAR5_COUNTEREXAMPLE.matrix, STAR5_COUNTEREXAMPLE.tree, "inverse-iteration"),
        ):
            calls.clear()
            monkeypatch.undo()
            for name in ("real_roots", "full_spectrum_numeric"):
                counted(spectral, name)
            for module in (spectral, exact_linalg):
                counted(module, "faddeev_leverrier")
            verdict = run_conjecture(A, tree)
            assert verdict.summary.route == route
            assert calls == {"faddeev_leverrier": 1, "real_roots": 1, "full_spectrum_numeric": 1}

    def test_verdict_reads_the_adjugate_of_its_pass(self):
        A, tree = STAR5_COUNTEREXAMPLE.matrix, STAR5_COUNTEREXAMPLE.tree
        verdict = run_conjecture(A, tree)
        assert verdict.adjoint is verdict.summary.adjoint
        assert verdict.adjoint == treetp.check_adjoint_conclusion(A, tree)


def test_no_module_level_caches():
    # spectral work is passed down explicitly; no treetp module keeps a cache
    for info in pkgutil.iter_modules(treetp.__path__):
        importlib.import_module(f"treetp.{info.name}")
    cached = [
        f"{name}.{attr}"
        for name, module in list(sys.modules.items())
        if name == "treetp" or name.startswith("treetp.")
        for attr, obj in vars(module).items()
        if callable(getattr(obj, "cache_clear", None))
    ]
    assert cached == []


def test_no_rational_polynomial_algebra():
    # root isolation runs on integer coefficient tuples; Polynomial only
    # displays and evaluates, and the Fraction gcd and Yun are gone
    deleted = (
        "__add__", "__neg__", "__sub__", "__mul__", "scaled", "monic",
        "divmod", "__floordiv__", "__mod__", "derivative",
    )
    assert [name for name in deleted if hasattr(Polynomial, name)] == []
    assert not hasattr(spectral, "poly_gcd")
    assert not hasattr(spectral, "squarefree_decomposition")


def test_no_polynomial_root_finder():
    # the estimates come from LAPACK on A; the iteration on the rounded
    # polynomial and its never-read convergence fields are gone
    assert not hasattr(spectral, "_roots_durand_kerner")
    assert not hasattr(spectral, "RESIDUAL_TOL")
    fields = {f.name for f in dataclasses.fields(spectral.SpectrumEstimate)}
    assert fields.isdisjoint({"converged", "max_scaled_residual"})


def test_one_eigenvector_algorithm():
    # every route reads its vector exactly from the pass on A, as one
    # column of adj(mu I - A): the power iteration, its cap, the second
    # pass on A - mu I and the solve with a right-hand side are gone
    deleted = (
        "perron_vector", "PERRON_RTOL", "PERRON_MAX_ITER", "_solve_ones_or_kernel", "_least_modulus_shift",
        "_solve_shifted",
    )
    assert [name for name in deleted if hasattr(spectral, name)] == []
    assert not hasattr(treetp, "perron_vector")
    assert "adjoint_check" not in inspect.signature(smallest_eig_vector).parameters


def test_one_adjugate_form_on_the_verdict_path(monkeypatch):
    # the sign check compares plain integer tuples, and the one ExactMatrix
    # adjugate is built once per instance, for the AdjointCheck that reports it
    assert [name for name in ("SignMatrix", "Rational") if hasattr(treetp, name)] == []
    assert not hasattr(spectral, "smallest_eigenvalue")
    assert [f.name for f in dataclasses.fields(treetp.AdjointCheck)] == ["ok", "mismatches", "adjugate"]
    assert "adjugate" not in {f.name for f in dataclasses.fields(spectral.SpectrumEstimate)}
    calls = []
    build = spectral.adjugate_from_pass

    def counting(Ns, d):
        calls.append(d)
        return build(Ns, d)

    monkeypatch.setattr(spectral, "adjugate_from_pass", counting)
    full_spectrum_numeric(STAR4_EXAMPLE.matrix)
    assert calls == []
    cases = [
        (STAR4_EXAMPLE.matrix, STAR4_EXAMPLE.tree, "adjugate-perron"),
        (ExactMatrix([[1, 2], [2, 4]]), make_path((1, 2)), "adjugate-column"),
        (STAR5_COUNTEREXAMPLE.matrix, STAR5_COUNTEREXAMPLE.tree, "inverse-iteration"),
    ]
    for A, tree, route in cases:
        calls.clear()
        assert run_conjecture(A, tree).summary.route == route
        assert len(calls) == 1


@pytest.fixture
def column_reads(monkeypatch) -> list:
    """(mu, column) of every `_adjugate_column` call while the test runs."""
    calls = []
    read = spectral._adjugate_column

    def recording(faddeev, mu):
        calls.append((mu, read(faddeev, mu)))
        return calls[-1][1]

    monkeypatch.setattr(spectral, "_adjugate_column", recording)
    return calls


@pytest.mark.parametrize(
    "A, tree, route",
    [
        (STAR4_EXAMPLE.matrix, STAR4_EXAMPLE.tree, "adjugate-perron"),
        (ExactMatrix([[1, 2], [2, 4]]), make_path((1, 2)), "adjugate-column"),
        (STAR5_COUNTEREXAMPLE.matrix, STAR5_COUNTEREXAMPLE.tree, "inverse-iteration"),
    ],
    ids=["adjugate-perron", "adjugate-column", "inverse-iteration"],
)
def test_every_route_reads_one_adjugate_column_at_lambda(column_reads, A, tree, route):
    # one rule: a column of adj(mu I - A), with mu within 2^-53 |mu| of lambda
    s = smallest_eig_vector(A, tree)
    assert s.route == route
    [(mu, column)] = column_reads
    # p has a root in [mu, mu + 2^-53 mu]: mu is the end nearer 0
    p = char_poly(A)
    assert p(mu) == 0 or p(mu) * p(mu + Fraction(mu) / 2**53) < 0
    # the column is a positive multiple of a column of the cofactor adjugate
    adj = _cofactor_adjugate(_shift(mu, A))
    assert any(_positive_multiple(column, [row[j] for row in adj]) for j in range(A.n))


def _symmetric_big_6x6() -> list[list[int]]:
    rng = random.Random(6)
    rows = [[0] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(i, 6):
            rows[i][j] = rows[j][i] = rng.randint(1, 10**60)
    return rows


@pytest.mark.parametrize(
    "rows",
    [
        [[10**9, -1], [1, 10**9]],
        [[3, 0, 0], [0, 10**9, -1], [0, 1, 10**9]],
        _symmetric_big_6x6(),
    ],
    ids=["2x2-close-pair", "3x3-close-pair", "6x6-entries-1e60"],
)
def test_spectrum_cli_on_hard_polynomials(capsys, tmp_path, rows):
    # inputs whose characteristic polynomial defeats a root finder on its
    # rounded coefficients: a pair 1e9 +- i, and coefficients past 1e308
    path = tmp_path / "m.txt"
    path.write_text(matrix_to_text(ExactMatrix(rows)))
    assert cli_main(["spectrum", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    spectrum = [complex(*z) for z in data["spectrum"]]
    assert len(spectrum) == len(rows)
    if len(rows) < 6:
        pair = sorted(z.imag for z in spectrum if abs(z.real - 1e9) < 1)
        assert len(pair) == 2 and abs(pair[0] + 1) < 1e-6 and abs(pair[1] - 1) < 1e-6
    else:
        assert data["smallest"]["is_real"] and data["smallest"]["is_simple"]
        expected = min(np.linalg.eigvalsh(np.array(rows, dtype=float)), key=abs)
        assert abs(data["smallest"]["re"] - expected) <= 1e-9 * abs(expected)


@pytest.mark.parametrize("precision", ["2", "6"])
def test_spectrum_cli_prints_huge_values_in_exponent_form(capsys, tmp_path, precision):
    # the smallest eigenvalue (an interval midpoint) and its spectrum entry
    # (an eigvals estimate) agree to a double's digits, so they print alike
    path = tmp_path / "m.txt"
    path.write_text(matrix_to_text(ExactMatrix(_symmetric_big_6x6())))
    assert cli_main(["spectrum", str(path), "--precision", precision]) == 0
    lines = capsys.readouterr().out.splitlines()
    smallest = lines[0].removeprefix("smallest eigenvalue: ").split(" (")[0]
    spectrum = lines[1].removeprefix("spectrum: ").split(", ")
    assert smallest in spectrum
    assert all("e+" in value for value in spectrum)
    assert len(smallest.split("e")[0].split(".")[1]) == int(precision)


class TestSmallestEigVector:
    def test_worked_4x4(self):
        s = smallest_eig_vector(STAR4_EXAMPLE.matrix, STAR4_EXAMPLE.tree)
        assert s.route == "adjugate-perron"
        assert s.signed_ok is True
        got = np.array(s.eigenvector_last1)
        want = np.array(STAR4_EXAMPLE.expected_eigenvector_last1)
        assert np.max(np.abs(got - want)) <= 0.01

    def test_worked_star5(self):
        s = smallest_eig_vector(STAR5_COUNTEREXAMPLE.matrix, STAR5_COUNTEREXAMPLE.tree)
        assert s.route == "inverse-iteration"
        assert s.signed_ok is False
        got = np.array(s.eigenvector_last1)
        want = np.array(STAR5_COUNTEREXAMPLE.expected_eigenvector_last1)
        assert np.max(np.abs(got - want)) <= 0.01

    def test_worked_pitchfork(self):
        s = smallest_eig_vector(PITCHFORK_COUNTEREXAMPLE.matrix, PITCHFORK_COUNTEREXAMPLE.tree)
        assert s.signed_ok is False
        got = np.array(s.eigenvector_last1)
        want = np.array(PITCHFORK_COUNTEREXAMPLE.expected_eigenvector_last1)
        assert np.max(np.abs(got - want)) <= 0.01

    def test_residual_bound(self):
        for fixture in (STAR4_EXAMPLE, STAR5_COUNTEREXAMPLE, PITCHFORK_COUNTEREXAMPLE):
            s = smallest_eig_vector(fixture.matrix, fixture.tree)
            a = np.array(fixture.matrix.to_float_rows())
            norm_a = np.abs(a).sum(axis=1).max()
            assert s.residual_inf <= 1e-8 * norm_a
        # every route that reports a vector solves at lambda, to 2^-53 |lambda|
        corpus = json.loads(CORPUS.read_text())
        cases = [(rows, c["tree"]) for c in corpus["categories"] for rows in c["matrices"]]
        cases += [(f["matrix"], f["tree"]) for f in corpus["fixtures"]]
        with_vector = 0
        for rows, spec in cases:
            s = smallest_eig_vector(ExactMatrix(rows), treetp.parse_tree_spec(spec))
            if s.residual_inf is not None:
                with_vector += 1
                assert s.residual_inf <= 1e-14 * np.abs(np.array(rows, dtype=float)).sum(axis=1).max()
        assert with_vector > 200

    def test_singular_adjugate_column_route(self):
        # singular, adjugate matches the path-2 pattern: kernel via adjugate column
        A = ExactMatrix([[1, 2], [2, 4]])
        s = smallest_eig_vector(A, make_path((1, 2)))
        assert s.route == "adjugate-column"
        assert s.smallest.is_real and abs(s.smallest.estimate) < 1e-12
        assert s.signed_ok is True
        assert s.residual_inf == 0.0

    def test_exact_integer_eigenvalue_kernel_route(self):
        # isolation lands exactly on the rational eigenvalue; exact kernel used
        A = ExactMatrix([[2, 1], [0, 1]])
        s = smallest_eig_vector(A, make_path((1, 2)))
        assert s.route == "inverse-iteration"
        assert abs(s.smallest.estimate.real - 1) < 1e-12
        assert s.signed_ok is True
        v = np.array(s.eigenvector_unit)
        assert np.allclose(np.abs(v), [1 / np.sqrt(2)] * 2)

    def test_non_real_smallest_reports_not_applicable(self):
        A = ExactMatrix([[1, -5, 0], [5, 1, 0], [0, 0, 100]])
        s = smallest_eig_vector(A, make_path((1, 2, 3)))
        assert s.signed_ok is None and s.eigenvector_unit is None
        assert not s.smallest.is_real

    def test_unit_normalization_sign_convention(self):
        s = smallest_eig_vector(STAR4_EXAMPLE.matrix, STAR4_EXAMPLE.tree)
        vec = np.array(s.eigenvector_unit)
        assert abs(np.linalg.norm(vec) - 1) < 1e-12
        first_nonzero = next(x for x in vec if x != 0)
        assert first_nonzero > 0

    def test_rank_deficient_adjugate_raises(self):
        A = ExactMatrix([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
        with pytest.raises(ArithmeticError):
            smallest_eig_vector(A, make_star(3, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            smallest_eig_vector(ExactMatrix.identity(3), make_star(4, 1))

    def test_one_vertex_tree(self):
        # the 1x1 adjugate of the spectral pass is [1] (the empty minor),
        # so the adjugate route applies: eigenvalue a, eigenvector [1]
        s = smallest_eig_vector(ExactMatrix([[5]]), treetp.LabelledTree(1, []))
        assert s.adjoint.ok and s.route == "adjugate-perron"
        assert s.smallest.estimate == 5 and s.eigenvector_unit == (1.0,)
        assert s.signed_ok is True

    @pytest.mark.parametrize(
        "rows, tree, route",
        [
            ([[10**6, 1], [1, 10**6 + 1]], make_path((1, 2)), "adjugate-perron"),
            ([[10**8, 1], [1, 10**8 + 1]], make_path((1, 2)), "adjugate-perron"),
            ([[10**6, 1, 1], [1, 10**6 + 1, 0], [1, 0, 10**6 + 2]], make_star(3, 1), "adjugate-perron"),
            # det A < 0: mu is taken from below 0
            ([[-(10**6), -1, -1], [-1, -(10**6) - 1, 0], [-1, 0, -(10**6) - 2]], make_star(3, 1),
             "adjugate-perron"),
            # eigenvalues near 1e-14, below the isolation width of 1e-12
            ([[Fraction(10**6, 10**20), Fraction(1, 10**20)], [Fraction(1, 10**20), Fraction(10**6 + 1, 10**20)]],
             make_path((1, 2)), "adjugate-perron"),
            # the adjugate check fails: lambda's interval is the smallest real root's
            ([[3, 2, 5], [2, 8, 8], [5, 8, 4]], make_path((1, 2, 3)), "inverse-iteration"),
            ([[-3, -2, -5], [-2, -8, -8], [-5, -8, -4]], make_path((1, 2, 3)), "inverse-iteration"),
            ([[Fraction(x, 10**14) for x in row] for row in [[3, 2, 5], [2, 8, 8], [5, 8, 4]]],
             make_path((1, 2, 3)), "inverse-iteration"),
        ],
        ids=[
            "2x2-1e6", "2x2-1e8", "star3-1e6", "star3-1e6-negated", "2x2-1e6-scaled-down",
            "path3", "path3-negated", "path3-scaled-down",
        ],
    )
    def test_near_tie_adjugate_route(self, rows, tree, route):
        # the two smallest eigenvalues nearly tie, so a power iteration on
        # the conjugated adjugate stalls far from its limit; the exact read
        # from the pass does not, also when the eigenvalues are negative or
        # smaller than the width of their isolating intervals, and on the
        # inverse-iteration route, which solves at lambda too
        A = ExactMatrix(rows)
        s = smallest_eig_vector(A, tree)
        assert s.route == route
        if route == "adjugate-perron":
            assert s.signed_ok is True
        a = np.array(rows, dtype=float)
        vals, vecs = np.linalg.eigh(a)
        want = vecs[:, np.argmin(np.abs(vals))]
        want = want / want[-1]
        assert np.max(np.abs(np.array(s.eigenvector_last1) - want)) <= 1e-8
        assert s.residual_inf <= 1e-8 * np.abs(a).sum(axis=1).max()

    @pytest.mark.parametrize("jordan", [0, 1], ids=["diagonal", "jordan-block"])
    def test_double_irrational_eigenvalue(self, jordan):
        # 1 - sqrt 2 is a double root of p, where p keeps its sign: lambda's
        # interval is bisected on the square-free factor of p that holds it
        rows = [[0, 1, jordan, 0, 0], [1, 2, 0, jordan, 0], [0, 0, 0, 1, 0], [0, 0, 1, 2, 0], [0, 0, 0, 0, 9]]
        s = smallest_eig_vector(ExactMatrix(rows), make_path((1, 2, 3, 4, 5)))
        assert s.route == "inverse-iteration" and s.smallest.multiplicity == 2
        assert s.residual_inf <= 1e-14 * 9

    @pytest.mark.parametrize(
        "fixture, signs",
        [
            (STAR4_EXAMPLE, (1, -1, -1, -1)),
            (STAR5_COUNTEREXAMPLE, (1, -1, 1, -1, -1)),
            (PITCHFORK_COUNTEREXAMPLE, (1, -1, -1, -1, -1)),
        ],
        ids=["star4", "star5", "pitchfork"],
    )
    def test_fixture_sign_vectors_are_pinned(self, column_reads, fixture, signs):
        # the signs are those of the integer column, up to one global sign
        s = smallest_eig_vector(fixture.matrix, fixture.tree)
        [(_, column)] = column_reads
        lead = 1 if column[0] > 0 else -1
        assert tuple(lead * ((x > 0) - (x < 0)) for x in column) == signs
        assert tuple(int(np.sign(x)) for x in s.eigenvector_unit) == signs

    def test_eigenvector_does_not_depend_on_the_tree_signing(self):
        # the tree signing S is orthogonal to lambda's left eigenvector here,
        # so a solve (A - mu I) x = S misses the eigenvector; a column does not
        A = ExactMatrix([[-2, 0, -2], [-9, -9, 6], [9, 12, -3]])
        s = smallest_eig_vector(A, make_path((1, 2, 3)))
        assert s.route == "inverse-iteration" and abs(s.smallest.estimate - 3) < 1e-9
        want = np.array([2, -4, -5]) / np.sqrt(45)
        got = np.array(s.eigenvector_unit)
        assert min(np.max(np.abs(got - want)), np.max(np.abs(got + want))) <= 1e-12
        assert s.residual_inf <= 1e-14 * 24
        assert s.signing.violated_edge == (2, 3)

    def test_rational_lambda_is_hit_exactly(self):
        # lambda = -2 is k/d with k an integer root of det(xI - B); mu lands
        # on it and the eigenvector's zero entry reads exactly 0
        A = ExactMatrix([[-10, -6, 5], [8, -4, -5], [0, -11, -2]])
        s = smallest_eig_vector(A, make_path((1, 2, 3)))
        assert s.route == "inverse-iteration"
        assert s.signing.zero_vertex == 2 and s.eigenvector_unit[1] == 0
        assert s.residual_inf == 0.0
        assert run_conjecture(A, make_path((1, 2, 3))).eigenvector_signed is False

    def test_last1_is_read_from_the_integers(self):
        # eigenvector (-10^301, 1): the last entry is 10^-301 of the largest,
        # below any float threshold, yet exactly nonzero
        s = smallest_eig_vector(ExactMatrix([[2, 10**301], [0, 1]]), make_path((1, 2)))
        assert s.eigenvector_last1 == (-1e301, 1.0)
        assert s.eigenvector_unit == (1.0, -1e-301)

    def test_two_dimensional_eigenspace_reports_no_vector(self):
        # eigenvalue 1 has multiplicity 2 and A - I has rank 1: no single
        # eigenvector to sign, so no vector and no signing verdict
        A = ExactMatrix([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
        s = smallest_eig_vector(A, make_path((1, 2, 3)))
        assert s.route == "none"
        assert s.smallest.is_real and s.smallest.estimate == 1
        assert s.smallest.is_simple is False and s.smallest.multiplicity == 2
        assert s.signed_ok is None and s.signing is None
        assert s.eigenvector_unit is None and s.eigenvector_last1 is None
        assert s.residual_inf is None
        verdict = run_conjecture(A, make_path((1, 2, 3)))
        assert not verdict.conclusion_ok


def _rank_class(B: ExactMatrix) -> str:
    """'full', 'n-1' or 'low' from Bareiss determinants and minors."""
    n = B.n
    if det(B) != 0:
        return "full"
    if n == 1:
        return "n-1"
    subsets = list(itertools.combinations(range(1, n + 1), n - 1))
    if any(minor(B, r, c) != 0 for r in subsets for c in subsets):
        return "n-1"
    return "low"


def _shift(mu, A: ExactMatrix) -> list[list[Fraction]]:
    """Rows of mu I - A."""
    return [[(mu if i == j else 0) - A.rows[i][j] for j in range(A.n)] for i in range(A.n)]


def _cofactor_adjugate(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """adj by cofactor expansion: entry (i, j) is (-1)^(i+j) det of rows without j, cols without i."""
    n = len(rows)
    if n == 1:
        return [[Fraction(1)]]
    return [
        [
            (-1) ** (i + j) * laplace_det([r[:i] + r[i + 1 :] for k, r in enumerate(rows) if k != j])
            for j in range(n)
        ]
        for i in range(n)
    ]


def _positive_multiple(x, y) -> bool:
    """x = c y for some c > 0."""
    k = next((i for i, t in enumerate(y) if t != 0), None)
    if k is None or x[k] * y[k] <= 0:
        return False
    c = Fraction(x[k]) / y[k]
    return all(a == c * b for a, b in zip(x, y))


def _low_rank(rng, n: int, rank: int, den_bits: int) -> list[list[Fraction]]:
    u = [[Fraction(rng.randint(-3, 3), 2 ** rng.randint(0, den_bits)) for _ in range(rank)] for _ in range(n)]
    v = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rank)]
    return [[sum(u[i][k] * v[k][j] for k in range(rank)) for j in range(n)] for i in range(n)]


class TestSolveOnesOrKernel:
    """`_adjugate_column` against a cofactor adjugate and Bareiss ranks."""

    def _check(self, A: ExactMatrix, mu: Fraction, seen: set) -> None:
        column = spectral._adjugate_column(exact_linalg.faddeev_leverrier(A), mu)
        # mu I - A and its adjugate are built here only, as the checkers
        shifted = _shift(mu, A)
        kind = _rank_class(ExactMatrix(shifted))
        seen.add(kind)
        if kind == "low":
            assert column is None
            return
        assert column is not None and all(type(t) is int for t in column)
        # the oracle's column holding its first entry of largest modulus
        adj = _cofactor_adjugate(shifted)
        flat = [x for row in adj for x in row]
        top = max(range(len(flat)), key=lambda i: abs(flat[i]))
        assert _positive_multiple(column, [row[top % A.n] for row in adj])
        if kind == "n-1":
            assert [sum(b * t for b, t in zip(row, column)) for row in shifted] == [0] * A.n

    def test_random_integer_matrices(self, rng):
        seen: set = set()
        for _ in range(300):
            n = rng.randint(1, 5)
            if rng.random() < 0.5:
                B = random_int_matrix(rng, n, -2, 2)
            else:
                B = ExactMatrix(_low_rank(rng, n, rng.randint(0, n), 0))
            self._check(B, Fraction(0), seen)
        assert seen == {"full", "n-1", "low"}

    def test_rational_matrices_shifted_by_dyadic_mu(self, rng):
        seen: set = set()
        for _ in range(300):
            n = rng.randint(1, 5)
            mu = Fraction(rng.randint(-(2**50), 2**50), 2 ** rng.randint(0, 45))
            if rng.random() < 0.5:
                base = [list(row) for row in random_rational_matrix(rng, n).rows]
            else:
                # mu is an exact eigenvalue of base, of geometric multiplicity >= n - rank
                base = _low_rank(rng, n, rng.randint(0, n), 45)
                for i in range(n):
                    base[i][i] += mu
            self._check(ExactMatrix(base), mu, seen)
        assert seen == {"full", "n-1", "low"}
