import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treetp import (
    ExactMatrix,
    IndexList,
    SylvesterInapplicableError,
    adjugate,
    det,
    matrix_from_text,
    matrix_to_text,
    minor,
    sign_pattern,
    submatrix,
    sylvester_rhs,
)
from treetp.exact_linalg import clear_denominators, faddeev_leverrier
from treetp.fixtures import STAR4_EXAMPLE, STAR5_COUNTEREXAMPLE

from conftest import laplace_det, oracle_minor, random_int_matrix, random_rational_matrix

A4 = STAR4_EXAMPLE.matrix
A5 = STAR5_COUNTEREXAMPLE.matrix


class TestIndexList:
    def test_drops(self):
        a = IndexList((3, 1, 4))
        assert a.drop_last() == (3, 1)
        assert a.drop_first() == (1, 4)
        assert a.drop_ends() == (1,)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            IndexList((1, 2, 1))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            IndexList((0, 1))

    def test_order_preserved(self):
        assert tuple(IndexList((4, 2))) == (4, 2)


class TestMatrixBasics:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            ExactMatrix([[1, 2], [3, 4], [5, 6]])

    def test_immutable(self):
        with pytest.raises(AttributeError):
            A4.n = 5

    def test_entry_is_one_based(self):
        assert A4.entry(1, 1) == 130
        assert A4.entry(4, 2) == 1

    def test_equality_and_pickle(self):
        clone = pickle.loads(pickle.dumps(A4))
        assert clone == A4 and hash(clone) == hash(A4)

    def test_accepts_strings_and_fractions(self):
        m = ExactMatrix([["1/2", 1], [Fraction(3, 4), "2"]])
        assert m.entry(1, 1) == Fraction(1, 2)


class TestMinor:
    def test_single_entry_of_worked_example(self):
        assert minor(A4, (1,), (1,)) == 130

    def test_identity_full_minor(self):
        eye = ExactMatrix.identity(3)
        assert minor(eye, (1, 2, 3), (1, 2, 3)) == 1

    def test_matches_cofactor_oracle(self, rng):
        for _ in range(25):
            A = random_int_matrix(rng, 4)
            rows = tuple(rng.sample(range(1, 5), 3))
            cols = tuple(rng.sample(range(1, 5), 3))
            assert minor(A, rows, cols) == oracle_minor(A, rows, cols)

    def test_alternating_in_row_swap(self, rng):
        A = random_int_matrix(rng, 5)
        base = minor(A, (1, 2, 3), (2, 3, 4))
        assert minor(A, (2, 1, 3), (2, 3, 4)) == -base
        assert minor(A, (1, 2, 3), (3, 2, 4)) == -base

    def test_errors(self):
        with pytest.raises(ValueError):
            minor(A4, (1, 2), (1,))
        with pytest.raises(ValueError):
            minor(A4, (1, 5), (1, 2))
        with pytest.raises(ValueError):
            minor(A4, (1, 1), (1, 2))


class TestSubmatrix:
    def test_respects_order(self):
        s = submatrix(A4, (3, 1), (2, 1))
        assert s.rows == ((Fraction(57), Fraction(116)), (Fraction(78), Fraction(130)))


class TestDet:
    def test_worked_example_det(self):
        # equals (A * adj)[1][1] with the published adjugate
        assert det(A4) == 5574784

    def test_identity(self):
        assert det(ExactMatrix.identity(6)) == 1

    def test_repeated_row(self):
        assert det(ExactMatrix([[1, 2], [1, 2]])) == 0

    def test_rational_entries_against_oracle(self, rng):
        for _ in range(20):
            A = random_rational_matrix(rng, 4)
            assert det(A) == laplace_det([list(r) for r in A.rows])

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-50, 50), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    def test_fraction_free_equals_cofactor(self, rows):
        A = ExactMatrix(rows)
        assert det(A) == laplace_det([list(r) for r in A.rows])


class TestAdjugate:
    def test_worked_4x4_exact(self):
        assert adjugate(A4) == STAR4_EXAMPLE.expected_adjugate

    def test_worked_5x5_exact(self):
        adj = adjugate(A5)
        assert adj == STAR5_COUNTEREXAMPLE.expected_adjugate
        assert adj.entry(3, 1) == 2070092
        assert adj.entry(3, 3) == -5017752

    def test_identity(self):
        assert adjugate(ExactMatrix.identity(4)) == ExactMatrix.identity(4)

    def test_rejects_1x1(self):
        with pytest.raises(ValueError):
            adjugate(ExactMatrix([[5]]))

    def test_fundamental_identity(self, rng):
        for n in (2, 3, 4, 5):
            A = random_int_matrix(rng, n)
            adj = adjugate(A)
            scaled_eye = ExactMatrix.identity(n).scaled(det(A))
            assert A * adj == scaled_eye
            assert adj * A == scaled_eye

    def test_singular_matrix_still_exact(self):
        A = ExactMatrix([[1, 2], [2, 4]])
        assert det(A) == 0
        assert adjugate(A) == ExactMatrix([[4, -2], [-2, 1]])

    @staticmethod
    def _cofactor_adjugate(A: ExactMatrix) -> ExactMatrix:
        # adj(A)[j][i] is the signed minor deleting row i and column j
        n = A.n
        idx = range(1, n + 1)
        return ExactMatrix(
            [
                [
                    (-1) ** (i + j)
                    * minor(A, [r for r in idx if r != i], [c for c in idx if c != j])
                    for i in idx
                ]
                for j in idx
            ]
        )

    @staticmethod
    def _with_rank(rng, n: int, rank: int) -> ExactMatrix:
        # `rank` random rational rows, the rest random rational combinations
        basis = random_rational_matrix(rng, n).rows[:rank]
        rows = [list(r) for r in basis]
        while len(rows) < n:
            weights = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in basis]
            rows.append([sum(w * r[k] for w, r in zip(weights, basis)) for k in range(n)])
        rng.shuffle(rows)
        return ExactMatrix(rows)

    def test_matches_cofactor_oracle(self, rng):
        for n in (2, 3, 4, 5, 6):
            cases = [random_rational_matrix(rng, n), self._with_rank(rng, n, n - 1)]
            if n >= 3:
                cases.append(self._with_rank(rng, n, n - 2))
            for A in cases:
                assert adjugate(A) == self._cofactor_adjugate(A)

    def test_rank_deficiency(self, rng):
        for n in (3, 4, 5, 6):
            low = self._with_rank(rng, n, n - 2)
            assert adjugate(low) == ExactMatrix([[0] * n for _ in range(n)])
            one_short = self._with_rank(rng, n, n - 1)
            adj = adjugate(one_short)
            assert det(one_short) == 0
            assert any(x != 0 for row in adj.rows for x in row)
            assert one_short * adj == ExactMatrix([[0] * n for _ in range(n)])


class TestFaddeevLeVerrier:
    def test_integer_pass_scales_back(self, rng):
        for n in (2, 3, 4, 5):
            A = random_rational_matrix(rng, n)
            c, Ns, d = faddeev_leverrier(A)
            assert all(isinstance(x, int) for x in c)
            assert len(Ns) == n
            assert all(isinstance(x, int) for N in Ns for row in N for x in row)
            assert all(x * d == int(x * d) for row in A.rows for x in row)
            assert Fraction(c[0], d**n) == (-1) ** n * det(A)
            assert c[n] == 1
            # adj(xI - B) = sum_k x^(n-1-k) N_k, B = dA
            B = A.scaled(d)
            for x in (-3, 0, 7):
                adj_x = ExactMatrix(
                    [
                        [sum(x ** (n - 1 - k) * N[i][j] for k, N in enumerate(Ns)) for j in range(n)]
                        for i in range(n)
                    ]
                )
                xI_minus_B = ExactMatrix(
                    [[x * (i == j) - B.rows[i][j] for j in range(n)] for i in range(n)]
                )
                p_x = sum(ck * x**k for k, ck in enumerate(c))
                assert xI_minus_B * adj_x == ExactMatrix.identity(n).scaled(p_x)

    def test_clear_denominators(self):
        ints, d = clear_denominators([Fraction(1, 6), Fraction(-3, 4), Fraction(2)])
        assert (ints, d) == ([2, -9, 24], 12)
        assert clear_denominators([Fraction(5), Fraction(-7)]) == ([5, -7], 1)


class TestSylvester:
    def test_identity_matrix_base_case(self):
        eye = ExactMatrix.identity(3)
        assert sylvester_rhs(eye, (1, 2, 3), (1, 2, 3)) == 1

    def test_worked_permuted_case_is_negative(self):
        value = sylvester_rhs(A4, (3, 1, 4), (2, 1, 4))
        assert value == minor(A4, (3, 1, 4), (2, 1, 4))
        assert value < 0

    def test_matches_direct_minor_on_randoms(self, rng):
        hits = 0
        while hits < 30:
            A = random_rational_matrix(rng, 5)
            size = rng.choice((2, 3, 4))
            alpha = tuple(rng.sample(range(1, 6), size))
            beta = tuple(rng.sample(range(1, 6), size))
            try:
                value = sylvester_rhs(A, alpha, beta)
            except SylvesterInapplicableError:
                continue
            assert value == minor(A, alpha, beta)
            hits += 1

    def test_zero_central_minor_raises(self):
        A = ExactMatrix([[1, 1, 1], [1, 0, 1], [1, 1, 2]])
        with pytest.raises(SylvesterInapplicableError):
            sylvester_rhs(A, (1, 2, 3), (1, 2, 3))

    def test_too_short_lists(self):
        with pytest.raises(ValueError):
            sylvester_rhs(A4, (1,), (2,))


class TestSignPattern:
    def test_signs(self):
        m = ExactMatrix([[Fraction(1, 2), 0], [-3, 7]])
        assert sign_pattern(m) == ((1, 0), (-1, 1))


class TestTextFormat:
    def test_round_trip(self, rng):
        A = random_rational_matrix(rng, 4)
        assert matrix_from_text(matrix_to_text(A)) == A

    def test_comments_and_integers(self):
        text = "# a worked example\n1 2\n3 4/1\n"
        assert matrix_from_text(text) == ExactMatrix([[1, 2], [3, 4]])

    def test_integer_rendering_has_no_denominator(self):
        assert matrix_to_text(ExactMatrix([[1, 2], [3, 4]])) == "1 2\n3 4\n"

    def test_rational_rendering(self):
        assert matrix_to_text(ExactMatrix([["1/2"]])) == "1/2\n"

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            matrix_from_text("1 2\n3\n")

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            matrix_from_text("1 2 3\n4 5 6\n")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            matrix_from_text("1 x\n2 3\n")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            matrix_from_text("# only comments\n")
