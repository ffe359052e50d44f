import itertools
from fractions import Fraction

import pytest

from treetp import (
    ExactMatrix,
    GenConfig,
    check_adjoint_conclusion,
    gen_candidate,
    is_p_matrix,
    is_t_tp,
    is_tp,
    make_path,
    make_pitchfork,
    make_star,
    minor,
    path_matrix,
    pendant_deletion_hypothesis,
    predicted_adjoint_sign,
    submatrix,
)
from treetp.tree_model import TreePath
from treetp.exact_linalg import IndexList
from treetp.fixtures import (
    PITCHFORK_COUNTEREXAMPLE,
    STAR4_EXAMPLE,
    STAR5_COUNTEREXAMPLE,
)

from conftest import bidiagonal_tp, oracle_all_minors_positive, random_int_matrix

# star-5 tree-TP matrix whose pendant-2-deleted block is not a P-matrix
# (found by seeded search; frozen here)
TTP_NOT_P = ExactMatrix(
    [
        [105, 111, 92, 84, 38],
        [37, 135, 8, 24, 2],
        [102, 11, 143, 72, 7],
        [67, 31, 22, 145, 11],
        [143, 99, 73, 29, 87],
    ]
)


def star4_instances(count: int, seed: int = 77):
    cfg = GenConfig(tree=make_star(4, 1), entry_range=(1, 150), seed=seed)
    out = []
    for k in range(count):
        m = gen_candidate(
            GenConfig(tree=cfg.tree, entry_range=cfg.entry_range, seed=seed + k)
        )
        assert m is not None
        out.append(m)
    return out


class TestIsTp:
    def test_textbook_tp_matrix(self):
        A = ExactMatrix([[1, 1, 1], [1, 2, 3], [1, 3, 6]])
        verdict, checked = oracle_all_minors_positive(A)
        assert verdict and checked == 19
        report = is_tp(A, "all-minors")
        assert report.is_tp and report.minors_checked == 19
        assert is_tp(A, "initial-minors").is_tp

    def test_identity_fails_with_zero_witness(self):
        report = is_tp(ExactMatrix.identity(3), "all-minors")
        assert not report.is_tp
        assert tuple(report.witness.rows) == (1,)
        assert tuple(report.witness.cols) == (2,)
        assert report.witness.value == 0

    def test_negative_determinant_witness(self):
        report = is_tp(ExactMatrix([[1, 2], [3, 4]]))
        assert not report.is_tp
        assert report.witness.value == -2

    def test_modes_agree_on_randoms(self, rng):
        for _ in range(60):
            n = rng.choice((3, 4, 5))
            A = random_int_matrix(rng, n, lo=1, hi=30)
            assert is_tp(A, "all-minors").is_tp == is_tp(A, "initial-minors").is_tp

    def test_modes_agree_with_oracle_on_tp_family(self, rng):
        for n in (2, 3, 4, 5):
            A = bidiagonal_tp(n, rng)
            assert oracle_all_minors_positive(A)[0]
            assert is_tp(A, "all-minors").is_tp
            assert is_tp(A, "initial-minors").is_tp

    def test_initial_mode_checks_n_squared_minors(self):
        A = bidiagonal_tp(4, __import__("random").Random(3))
        assert is_tp(A, "initial-minors").minors_checked == 16

    def test_reversal_invariance(self, rng):
        for _ in range(20):
            A = random_int_matrix(rng, 4, lo=1, hi=20)
            rev = submatrix(A, (4, 3, 2, 1), (4, 3, 2, 1))
            assert is_tp(A).is_tp == is_tp(rev).is_tp
        B = bidiagonal_tp(4, rng)
        rev = submatrix(B, (4, 3, 2, 1), (4, 3, 2, 1))
        assert is_tp(B).is_tp and is_tp(rev).is_tp

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            is_tp(ExactMatrix.identity(2), "some-minors")


class TestPathMatrix:
    def test_orders_along_path(self):
        P = TreePath(IndexList((2, 1, 3)))
        m = path_matrix(STAR4_EXAMPLE.matrix, P)
        assert m.entry(1, 1) == STAR4_EXAMPLE.matrix.entry(2, 2)
        assert m.entry(1, 2) == STAR4_EXAMPLE.matrix.entry(2, 1)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            path_matrix(ExactMatrix.identity(2), TreePath(IndexList((1, 3))))


class TestIsTTp:
    def test_worked_star4(self):
        assert is_t_tp(STAR4_EXAMPLE.matrix, STAR4_EXAMPLE.tree).is_t_tp

    def test_worked_star5(self):
        assert is_t_tp(STAR5_COUNTEREXAMPLE.matrix, STAR5_COUNTEREXAMPLE.tree).is_t_tp

    def test_worked_pitchfork(self):
        assert is_t_tp(PITCHFORK_COUNTEREXAMPLE.matrix, PITCHFORK_COUNTEREXAMPLE.tree).is_t_tp

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            is_t_tp(ExactMatrix.identity(3), make_star(4, 1))

    def test_failure_reports_path_and_witness(self):
        report = is_t_tp(ExactMatrix.identity(4), make_star(4, 1))
        assert not report.is_t_tp
        failing = report.failing_path
        assert failing is not None and failing.report.witness is not None

    def test_entrywise_positivity_follows(self):
        for m in star4_instances(3):
            assert all(x > 0 for row in m.rows for x in row)

    def test_subpath_closure(self):
        # TP of a path block is inherited by its contiguous subpaths
        A = PITCHFORK_COUNTEREXAMPLE.matrix
        tree = PITCHFORK_COUNTEREXAMPLE.tree
        report = is_t_tp(A, tree)
        assert report.is_t_tp
        for check in report.per_path:
            verts = tuple(check.path.vertices)
            for size in range(2, len(verts)):
                for start in range(len(verts) - size + 1):
                    sub = TreePath(IndexList(verts[start : start + size]))
                    assert is_tp(path_matrix(A, sub)).is_tp

    def test_natural_path_reduces_to_plain_tp(self, rng):
        A = bidiagonal_tp(4, rng)
        assert is_t_tp(A, make_path(range(1, 5))).is_t_tp


class TestIsPMatrix:
    def test_identity(self):
        report = is_p_matrix(ExactMatrix.identity(5))
        assert report.is_p_matrix and report.minors_checked == 31

    def test_zero_diagonal_witness(self):
        report = is_p_matrix(ExactMatrix([[0, 1], [1, 0]]))
        assert not report.is_p_matrix
        assert tuple(report.witness.rows) == (1,)
        assert report.witness.value == 0

    def test_tp_implies_p(self, rng):
        for n in (3, 4, 5):
            A = bidiagonal_tp(n, rng)
            assert is_p_matrix(A).is_p_matrix

    def test_witness_surfaces_smallest_first(self):
        # both a 1x1 and the 2x2 fail; the 1x1 must be reported
        report = is_p_matrix(ExactMatrix([[-1, 0], [0, -1]]))
        assert len(report.witness.rows) == 1


class TestPendantDeletionHypothesis:
    def test_worked_4x4_holds(self):
        report = pendant_deletion_hypothesis(STAR4_EXAMPLE.matrix, STAR4_EXAMPLE.tree)
        assert report.holds
        assert [c.vertex for c in report.pendant_checks] == [2, 3, 4]

    def test_star4_adds_nothing(self):
        # for the 4-vertex star, tree-TP already forces the P-matrix part
        for m in star4_instances(4, seed=990):
            report = pendant_deletion_hypothesis(m, make_star(4, 1))
            assert report.ttp.is_t_tp
            assert all(c.report.is_p_matrix for c in report.pendant_checks)

    def test_star5_ttp_without_p(self):
        tree = make_star(5, 1)
        assert is_t_tp(TTP_NOT_P, tree).is_t_tp
        report = pendant_deletion_hypothesis(TTP_NOT_P, tree)
        assert not report.holds
        failing = next(c for c in report.pendant_checks if not c.report.is_p_matrix)
        assert failing.vertex == 2
        # witness is reported in original vertex labels (vertex 2 deleted)
        assert 2 not in failing.report.witness.rows

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pendant_deletion_hypothesis(ExactMatrix.identity(3), make_star(4, 1))


class TestPredictedAdjointSign:
    def test_star4_pattern(self):
        pattern = predicted_adjoint_sign(make_star(4, 1)).signs
        assert pattern == (
            (1, -1, -1, -1),
            (-1, 1, 1, 1),
            (-1, 1, 1, 1),
            (-1, 1, 1, 1),
        )

    def test_path2(self):
        assert predicted_adjoint_sign(make_path((1, 2))).signs == ((1, -1), (-1, 1))

    def test_pitchfork_rank_one_structure(self):
        s = (1, -1, -1, -1, 1)
        pattern = predicted_adjoint_sign(make_pitchfork()).signs
        for i in range(5):
            for j in range(5):
                assert pattern[i][j] == s[i] * s[j]


class TestCheckAdjointConclusion:
    def test_worked_4x4_true(self):
        assert check_adjoint_conclusion(STAR4_EXAMPLE.matrix, STAR4_EXAMPLE.tree).ok

    def test_worked_5x5_mismatches(self):
        check = check_adjoint_conclusion(STAR5_COUNTEREXAMPLE.matrix, STAR5_COUNTEREXAMPLE.tree)
        assert not check.ok
        assert check.mismatches == ((3, 1), (3, 3))

    def test_identity_fails_on_zeros(self):
        check = check_adjoint_conclusion(ExactMatrix.identity(4), make_star(4, 1))
        assert not check.ok
        assert (1, 2) in check.mismatches

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            check_adjoint_conclusion(ExactMatrix.identity(3), make_star(4, 1))


class TestPermutedMinorSigns:
    def test_three_negative_minors_on_generated_instances(self):
        # the sign facts behind the off-diagonal adjugate entries
        for m in star4_instances(4, seed=555):
            assert minor(m, (3, 1, 4), (2, 1, 4)) < 0
            assert minor(m, (4, 1, 3), (2, 1, 3)) < 0
            assert minor(m, (4, 1, 2), (3, 1, 2)) < 0

    def test_adjoint_conclusion_on_generated_instances(self):
        for m in star4_instances(4, seed=556):
            assert check_adjoint_conclusion(m, make_star(4, 1)).ok


def _initial_order(n: int):
    # contiguous blocks anchored at the first row, then at the first column
    for size in range(1, n + 1):
        for j in range(1, n - size + 2):
            yield tuple(range(1, size + 1)), tuple(range(j, j + size))
        for i in range(2, n - size + 2):
            yield tuple(range(i, i + size)), tuple(range(1, size + 1))


def _principal_order(n: int):
    for size in range(1, n + 1):
        for idx in itertools.combinations(range(1, n + 1), size):
            yield idx, idx


def _reference(M: ExactMatrix, order):
    """(first non-positive (rows, cols, value) or None, minors checked), via `minor`."""
    checked = 0
    for rows, cols in order:
        checked += 1
        value = minor(M, rows, cols)
        if value <= 0:
            return (rows, cols, value), checked
    return None, checked


def _observed(report):
    w = report.witness
    return (None if w is None else (tuple(w.rows), tuple(w.cols), w.value)), report.minors_checked


def _near_tp_rational(rng, n: int) -> ExactMatrix:
    """A rational TP matrix with one entry rescaled, so some minor may fail."""
    rows = [list(r) for r in bidiagonal_tp(n, rng).rows]
    i, j = rng.randrange(n), rng.randrange(n)
    rows[i][j] *= Fraction(rng.randint(0, 30), 20)
    return ExactMatrix(rows)


class TestRationalRowWitnesses:
    """Integer-row evaluation reports what a `minor` loop reports."""

    def test_is_tp_initial_minors(self, rng):
        deep_rational = 0
        for _ in range(80):
            n = rng.choice((2, 3, 4, 5))
            A = _near_tp_rational(rng, n)
            expected = _reference(A, _initial_order(n))
            assert _observed(is_tp(A)) == expected
            w = expected[0]
            if w is not None and len(w[0]) > 1 and w[2].denominator > 1:
                deep_rational += 1
        assert deep_rational >= 5

    def test_is_p_matrix(self, rng):
        for _ in range(60):
            n = rng.choice((2, 3, 4, 5))
            A = _near_tp_rational(rng, n)
            assert _observed(is_p_matrix(A)) == _reference(A, _principal_order(n))

    def test_pendant_deletion_hypothesis(self, rng):
        tree = make_star(5, 1)
        failing = 0
        for _ in range(30):
            A = _near_tp_rational(rng, 5)
            report = pendant_deletion_hypothesis(A, tree)
            for check in report.ttp.per_path:
                M = path_matrix(A, check.path)
                assert _observed(check.report) == _reference(M, _initial_order(M.n))
            for check in report.pendant_checks:
                keep = [v for v in range(1, 6) if v != check.vertex]
                witness, checked = _reference(submatrix(A, keep, keep), _principal_order(4))
                if witness is not None:
                    mapped = tuple(keep[i - 1] for i in witness[0])
                    witness = (mapped, mapped, witness[2])
                    failing += 1
                assert _observed(check.report) == (witness, checked)
        assert failing > 0
