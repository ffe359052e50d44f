"""Matrix-class predicates: TP, tree-relative TP, P-matrices, sign patterns.

A matrix is totally positive (TP) when every square minor is strictly
positive.  Relative to a labelled tree T, a matrix is T-TP when the
principal submatrix along every path of T, ordered as the path is walked,
is TP.  Every path extends to a leaf-to-leaf path and TP is inherited by
submatrices, so only maximal paths are checked.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact_linalg import (
    ExactMatrix,
    IndexList,
    SignMatrix,
    adjugate,
    clear_denominators,
    minor,
    minor_value,
    submatrix,
)
from .tree_model import LabelledTree, TreePath, maximal_paths, pendant_vertices, tree_signing

TP_MODES = ("initial-minors", "all-minors")


@dataclass(frozen=True)
class TpWitness:
    rows: IndexList
    cols: IndexList
    value: Fraction


@dataclass(frozen=True)
class TpReport:
    is_tp: bool
    witness: TpWitness | None
    minors_checked: int

    def __bool__(self) -> bool:
        return self.is_tp


@dataclass(frozen=True)
class PathCheck:
    path: TreePath
    report: TpReport


@dataclass(frozen=True)
class TtpReport:
    is_t_tp: bool
    per_path: tuple[PathCheck, ...]

    def __bool__(self) -> bool:
        return self.is_t_tp

    @property
    def failing_path(self) -> PathCheck | None:
        for check in self.per_path:
            if not check.report.is_tp:
                return check
        return None


@dataclass(frozen=True)
class PMatrixReport:
    is_p_matrix: bool
    witness: TpWitness | None
    minors_checked: int

    def __bool__(self) -> bool:
        return self.is_p_matrix


@dataclass(frozen=True)
class PendantCheck:
    vertex: int
    report: PMatrixReport


@dataclass(frozen=True)
class HypothesisReport:
    ttp: TtpReport
    pendant_checks: tuple[PendantCheck, ...]

    @property
    def holds(self) -> bool:
        return self.ttp.is_t_tp and all(c.report.is_p_matrix for c in self.pendant_checks)

    def __bool__(self) -> bool:
        return self.holds


def _all_minor_lists(n: int):
    for size in range(1, n + 1):
        for rows in itertools.combinations(range(1, n + 1), size):
            for cols in itertools.combinations(range(1, n + 1), size):
                yield rows, cols


def _initial_minor_lists(n: int):
    # contiguous blocks anchored at the first row or the first column
    for size in range(1, n + 1):
        for j in range(1, n - size + 2):
            yield tuple(range(1, size + 1)), tuple(range(j, j + size))
        for i in range(2, n - size + 2):
            yield tuple(range(i, i + size)), tuple(range(1, size + 1))


def is_tp(M: ExactMatrix, mode: str = "initial-minors") -> TpReport:
    """Total positivity test.

    "all-minors" checks every square minor; "initial-minors" checks the
    classical reduced criterion (contiguous blocks anchored at the first
    row or column).  The verdicts always agree; witnesses may differ.
    """
    if mode not in TP_MODES:
        raise ValueError(f"mode must be one of {TP_MODES}, got {mode!r}")
    if mode == "initial-minors":
        failing, checked = _first_nonpositive(M, _initial_minor_lists(M.n))
        return TpReport(failing is None, failing, checked)
    # "all-minors" stays on `minor`, an independent reference for the above
    checked = 0
    for rows, cols in _all_minor_lists(M.n):
        checked += 1
        value = minor(M, rows, cols)
        if value <= 0:
            return TpReport(False, TpWitness(IndexList(rows), IndexList(cols), value), checked)
    return TpReport(True, None, checked)


def _first_nonpositive(M: ExactMatrix, lists) -> tuple[TpWitness | None, int]:
    """(witness of the first non-positive minor or None, minors checked).

    Each row is scaled to integers by the LCM of its denominators, which is
    positive, so every minor keeps its sign; a witness value is the integer
    minor divided by the product of its rows' scales.
    """
    a, scales = zip(*map(clear_denominators, M.rows))
    checked = 0
    for rows, cols in lists:
        checked += 1
        r0 = [r - 1 for r in rows]
        value = minor_value(a, r0, [c - 1 for c in cols])
        if value <= 0:
            value = Fraction(value, math.prod(scales[r] for r in r0))
            return TpWitness(IndexList(rows), IndexList(cols), value), checked
    return None, checked


def path_matrix(A: ExactMatrix, path: TreePath) -> ExactMatrix:
    """Principal submatrix with rows and columns ordered along the path."""
    return submatrix(A, path.vertices, path.vertices)


def is_t_tp(A: ExactMatrix, tree: LabelledTree, mode: str = "initial-minors") -> TtpReport:
    """TP check of A[P] for every maximal path P of the tree."""
    if A.n != tree.n:
        raise ValueError(f"matrix is {A.n}x{A.n} but tree has {tree.n} vertices")
    checks = []
    ok = True
    for path in maximal_paths(tree):
        report = is_tp(path_matrix(A, path), mode)
        checks.append(PathCheck(path, report))
        ok = ok and report.is_tp
    return TtpReport(ok, tuple(checks))


def is_p_matrix(M: ExactMatrix) -> PMatrixReport:
    """All principal minors strictly positive; witnesses surface smallest-first."""
    principal = (
        (idx, idx)
        for size in range(1, M.n + 1)
        for idx in itertools.combinations(range(1, M.n + 1), size)
    )
    failing, checked = _first_nonpositive(M, principal)
    return PMatrixReport(failing is None, failing, checked)


def pendant_deletion_hypothesis(A: ExactMatrix, tree: LabelledTree) -> HypothesisReport:
    """T-TP plus: deleting any pendant vertex leaves a P-matrix.

    Witnesses are reported in the original vertex labels.
    """
    ttp = is_t_tp(A, tree)
    checks = []
    for p in pendant_vertices(tree):
        keep = IndexList(v for v in range(1, tree.n + 1) if v != p)
        report = is_p_matrix(submatrix(A, keep, keep))
        if report.witness is not None:
            mapped = IndexList(keep[i - 1] for i in report.witness.rows)
            report = PMatrixReport(
                report.is_p_matrix,
                TpWitness(mapped, mapped, report.witness.value),
                report.minors_checked,
            )
        checks.append(PendantCheck(p, report))
    return HypothesisReport(ttp, tuple(checks))


def predicted_adjoint_sign(tree: LabelledTree) -> SignMatrix:
    """Sign pattern s_i * s_j from the tree signing anchored at vertex 1."""
    s = tree_signing(tree, 1)
    return SignMatrix([[s[i] * s[j] for j in range(tree.n)] for i in range(tree.n)])


@dataclass(frozen=True)
class AdjointCheck:
    ok: bool
    mismatches: tuple[tuple[int, int], ...]
    adjugate: ExactMatrix
    predicted: SignMatrix

    def __bool__(self) -> bool:
        return self.ok


def check_adjoint_conclusion(A: ExactMatrix, tree: LabelledTree) -> AdjointCheck:
    """Does the exact adjugate match the tree-predicted sign pattern?

    Zero entries count as mismatches: the conclusion requires a totally
    nonzero adjugate.
    """
    if A.n != tree.n:
        raise ValueError(f"matrix is {A.n}x{A.n} but tree has {tree.n} vertices")
    adj = adjugate(A)
    predicted = predicted_adjoint_sign(tree)
    mismatches = []
    for i in range(A.n):
        for j in range(A.n):
            x = adj.rows[i][j]
            sgn = (x > 0) - (x < 0)
            if sgn != predicted.signs[i][j]:
                mismatches.append((i + 1, j + 1))
    return AdjointCheck(not mismatches, tuple(mismatches), adj, predicted)
