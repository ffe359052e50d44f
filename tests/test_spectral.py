import importlib
import math
import pkgutil
import sys
from fractions import Fraction

import numpy as np
import pytest

from treetp import (
    ExactMatrix,
    Polynomial,
    char_poly,
    det,
    full_spectrum_numeric,
    make_path,
    make_star,
    perron_vector,
    real_roots,
    smallest_eig_vector,
    smallest_eigenvalue,
    tree_signing,
)
from treetp import test_conjecture as run_conjecture
import treetp
from treetp import spectral
from treetp.spectral import poly_gcd, squarefree_decomposition
from treetp.fixtures import (
    PITCHFORK_COUNTEREXAMPLE,
    STAR4_EXAMPLE,
    STAR5_COUNTEREXAMPLE,
)

from conftest import random_int_matrix, random_rational_matrix


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


class TestPolynomial:
    def test_normalizes_trailing_zeros(self):
        assert Polynomial([1, 2, 0, 0]).degree == 1

    def test_eval_exact(self):
        p = Polynomial([2, -3, 1])  # (x-1)(x-2)
        assert p(Fraction(1)) == 0 and p(3) == 2

    def test_divmod_reconstructs(self, rng):
        for _ in range(10):
            a = Polynomial([rng.randint(-5, 5) for _ in range(6)])
            b = Polynomial([rng.randint(-5, 5) for _ in range(3)])
            if b.is_zero():
                continue
            q, r = a.divmod(b)
            assert q * b + r == a
            assert r.degree < b.degree

    def test_gcd_of_common_factor(self):
        x_minus_1 = Polynomial([-1, 1])
        a = x_minus_1 * Polynomial([3, 1])
        b = x_minus_1 * Polynomial([5, 2])
        assert poly_gcd(a, b) == x_minus_1.monic()

    def test_squarefree_decomposition(self):
        p = Polynomial([-1, 1]) * Polynomial([-1, 1]) * Polynomial([2, 1])
        factors = squarefree_decomposition(p)
        assert [(f.coeffs, m) for f, m in factors] == [
            ((Fraction(2), Fraction(1)), 1),
            ((Fraction(-1), Fraction(1)), 2),
        ]


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
        cube = Polynomial([-1, 1]) * Polynomial([-1, 1]) * Polynomial([-1, 1])
        roots = real_roots(cube * Polynomial([2, 1]))
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
        ints = spectral._int_coeffs(p)
        for lo, hi in [(Fraction(1, 3), Fraction(7, 5)), (Fraction(-9, 7), Fraction(-2, 3))]:
            for width in (Fraction(1, 10), Fraction(1, 10**12), (hi - lo) / 4):
                assert spectral._refine(ints, lo, hi, width) == fraction_bisection(p, lo, hi, width)
        # an exact root at a midpoint ends the bisection on it
        q = Polynomial([-1, 2])
        assert spectral._refine(spectral._int_coeffs(q), Fraction(0), Fraction(1), Fraction(1, 8)) == (
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
        est = full_spectrum_numeric(STAR4_EXAMPLE.matrix)
        assert est.converged and est.max_scaled_residual < 1e-9


class TestSmallestEigenvalue:
    def test_worked_4x4(self):
        s = smallest_eigenvalue(STAR4_EXAMPLE.matrix)
        assert s.is_real and s.is_simple
        assert abs(s.estimate.real - 2.5) <= 0.05
        assert s.interval.width() <= Fraction(1, 10**12)

    def test_worked_pitchfork(self):
        s = smallest_eigenvalue(PITCHFORK_COUNTEREXAMPLE.matrix)
        assert s.is_real and s.is_simple
        assert abs(s.estimate.real - (-2.54)) <= 0.01

    def test_identity_not_simple(self):
        s = smallest_eigenvalue(ExactMatrix.identity(4))
        assert s.is_real and s.is_simple is False and s.multiplicity == 4
        assert not s.ambiguous

    def test_equal_modulus_flags_ambiguous(self):
        s = smallest_eigenvalue(ExactMatrix([[0, 1], [1, 0]]))  # eigenvalues +1, -1
        assert s.ambiguous

    def test_margin_value(self):
        s = smallest_eigenvalue(ExactMatrix([[1, 0], [0, 2]]))
        assert abs(s.modulus_margin - 0.5) < 1e-9

    def test_non_real_smallest(self):
        A = ExactMatrix([[1, -5, 0], [5, 1, 0], [0, 0, 100]])
        s = smallest_eigenvalue(A)
        assert not s.is_real
        assert abs(s.estimate - (1 + 5j)) < 1e-6

    def test_one_root_isolation_per_instance(self, monkeypatch):
        # each stage of the chain runs once and is passed down, not recomputed
        calls = {}

        def counted(name):
            fn = getattr(spectral, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(spectral, name, wrapper)

        for name in ("char_poly", "real_roots", "full_spectrum_numeric"):
            counted(name)
        A = ExactMatrix([[int(3 * x) + 1 for x in row] for row in STAR4_EXAMPLE.matrix.rows])
        run_conjecture(A, make_star(4, 1))
        assert calls == {"char_poly": 1, "real_roots": 1, "full_spectrum_numeric": 1}


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


class TestPerron:
    def test_ones_matrix(self):
        value, vec = perron_vector(ExactMatrix([[1, 1], [1, 1]]))
        assert abs(value - 2) < 1e-10
        assert np.allclose(vec, [1, 1])

    def test_signature_conjugated_adjugate_is_positive_and_matches(self):
        A, tree = STAR4_EXAMPLE.matrix, STAR4_EXAMPLE.tree
        from treetp import adjugate

        adj = adjugate(A)
        s = tree_signing(tree, 1)
        conj = ExactMatrix(
            [[s[i] * s[j] * adj.rows[i][j] for j in range(4)] for i in range(4)]
        )
        assert all(x > 0 for row in conj.rows for x in row)
        value, vec = perron_vector(conj)
        expected = np.abs(np.array(STAR4_EXAMPLE.expected_eigenvector_last1))
        got = vec / vec[-1]
        assert np.max(np.abs(got - expected)) <= 0.01

    def test_perron_value_equals_det_over_smallest(self):
        A, tree = STAR4_EXAMPLE.matrix, STAR4_EXAMPLE.tree
        from treetp import adjugate

        adj = adjugate(A)
        s = tree_signing(tree, 1)
        conj = ExactMatrix(
            [[s[i] * s[j] * adj.rows[i][j] for j in range(4)] for i in range(4)]
        )
        value, _ = perron_vector(conj)
        lam = smallest_eigenvalue(A).estimate.real
        assert abs(value - float(det(A)) / lam) / value <= 1e-6

    def test_positive_output(self, rng):
        for _ in range(5):
            A = random_int_matrix(rng, 4, lo=1, hi=50)
            value, vec = perron_vector(A)
            assert value > 0 and (vec > 0).all()

    def test_rejects_nonpositive_input(self):
        with pytest.raises(ValueError):
            perron_vector(ExactMatrix([[1, 0], [1, 1]]))


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
