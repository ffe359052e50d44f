"""Matrix-class predicates: TP, tree-relative TP, P-matrices, sign patterns.

A matrix is totally positive (TP) when every square minor is strictly
positive.  Relative to a labelled tree T, a matrix is T-TP when the
principal submatrix along every path of T, ordered as the path is walked,
is TP.  Every path extends to a leaf-to-leaf path and TP is inherited by
submatrices, so only maximal paths are checked.

``hypothesis_plan`` is the one definition of the hypothesis as minors that
must be positive.  The predicates evaluate it with ``minor_value`` on the
matrix's integer form ``ExactMatrix.cleared``, built once with the matrix;
the generator reads it flattened (``_kernels.minor_plan``); ``all-minors``
stays on ``minor``, the reference.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exact_linalg import (
    ExactMatrix,
    IndexList,
    adjugate,
    minor,
    minor_value,
    sign_pattern,
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


def _initial_minors(idx: tuple[int, ...]):
    # contiguous blocks of idx anchored at its first row or its first column
    n = len(idx)
    for size in range(1, n + 1):
        for j in range(n - size + 1):
            yield idx[:size], idx[j : j + size]
        for i in range(1, n - size + 1):
            yield idx[i : i + size], idx[:size]


def _principal_minors(indices):
    # smallest first, so a witness is a smallest failing block
    for size in range(1, len(indices) + 1):
        for sel in itertools.combinations(indices, size):
            yield sel, sel


def hypothesis_plan(tree: LabelledTree, augmented: bool):
    """(path groups, pendant groups) of (owner, minors), in check order.

    Each maximal path owns its initial minors, listed along the path; with
    `augmented`, each pendant vertex owns the principal minors of the block
    without it, smallest first.  Minors are 0-based (rows, cols) of A.
    """
    paths = tuple(
        (path, tuple(_initial_minors(tuple(v - 1 for v in path.vertices))))
        for path in maximal_paths(tree)
    )
    pendants = tuple(
        (p, tuple(_principal_minors([i for i in range(tree.n) if i != p - 1])))
        for p in (pendant_vertices(tree) if augmented else ())
    )
    return paths, pendants


def _first_nonpositive(cleared, minors, path: TreePath | None = None):
    """(all positive, witness of the first non-positive minor or None, minors checked).

    `cleared` is ``ExactMatrix.cleared`` = (B, d), d > 0, so a k x k minor of
    B has the sign of A's; a witness divides it by d^k, and names each row
    and column by its 1-based position along `path`, else by its 1-based index.
    """
    a, d = cleared
    order = range(1, len(a) + 1) if path is None else path.vertices
    checked = 0
    for rows, cols in minors:
        checked += 1
        value = minor_value(a, rows, cols)
        if value <= 0:
            witness = TpWitness(
                IndexList(order.index(r + 1) + 1 for r in rows),
                IndexList(order.index(c + 1) + 1 for c in cols),
                Fraction(value, d ** len(rows)),
            )
            return False, witness, checked
    return True, None, checked


def is_tp(M: ExactMatrix, mode: str = "initial-minors") -> TpReport:
    """Total positivity test.

    "all-minors" checks every square minor; "initial-minors" checks the
    classical reduced criterion (contiguous blocks anchored at the first
    row or column).  The verdicts always agree; witnesses may differ.
    """
    if mode not in TP_MODES:
        raise ValueError(f"mode must be one of {TP_MODES}, got {mode!r}")
    if mode == "initial-minors":
        return TpReport(*_first_nonpositive(M.cleared, _initial_minors(tuple(range(M.n)))))
    # "all-minors" stays on `minor`, an independent reference for the above
    checked = 0
    for rows, cols in _all_minor_lists(M.n):
        checked += 1
        value = minor(M, rows, cols)
        if value <= 0:
            return TpReport(False, TpWitness(IndexList(rows), IndexList(cols), value), checked)
    return TpReport(True, None, checked)


def path_matrix(A: ExactMatrix, path: TreePath) -> ExactMatrix:
    """Principal submatrix with rows and columns ordered along the path."""
    return submatrix(A, path.vertices, path.vertices)


def _path_report(cleared, paths) -> TtpReport:
    checks = tuple(
        PathCheck(p, TpReport(*_first_nonpositive(cleared, minors, p))) for p, minors in paths
    )
    return TtpReport(all(c.report.is_tp for c in checks), checks)


def is_t_tp(A: ExactMatrix, tree: LabelledTree, mode: str = "initial-minors") -> TtpReport:
    """TP check of A[P] for every maximal path P; witnesses index along P."""
    if A.n != tree.n:
        raise ValueError(f"matrix is {A.n}x{A.n} but tree has {tree.n} vertices")
    if mode == "initial-minors":
        return _path_report(A.cleared, hypothesis_plan(tree, False)[0])
    # `is_tp` rejects an unknown mode
    checks = tuple(PathCheck(p, is_tp(path_matrix(A, p), mode)) for p in maximal_paths(tree))
    return TtpReport(all(c.report.is_tp for c in checks), checks)


def is_p_matrix(M: ExactMatrix) -> PMatrixReport:
    """All principal minors strictly positive; witnesses surface smallest-first."""
    return PMatrixReport(*_first_nonpositive(M.cleared, _principal_minors(range(M.n))))


def pendant_deletion_hypothesis(A: ExactMatrix, tree: LabelledTree) -> HypothesisReport:
    """T-TP plus: deleting any pendant vertex leaves a P-matrix.

    Pendant witnesses are reported in the original vertex labels.
    """
    if A.n != tree.n:
        raise ValueError(f"matrix is {A.n}x{A.n} but tree has {tree.n} vertices")
    paths, pendants = hypothesis_plan(tree, True)
    checks = tuple(
        PendantCheck(p, PMatrixReport(*_first_nonpositive(A.cleared, minors)))
        for p, minors in pendants
    )
    return HypothesisReport(_path_report(A.cleared, paths), checks)


def predicted_adjoint_sign(tree: LabelledTree) -> tuple[tuple[int, ...], ...]:
    """Sign pattern s_i * s_j from the tree signing anchored at vertex 1."""
    s = tree_signing(tree, 1)
    return tuple(tuple(s[i] * s[j] for j in range(tree.n)) for i in range(tree.n))


@dataclass(frozen=True)
class AdjointCheck:
    ok: bool
    mismatches: tuple[tuple[int, int], ...]
    adjugate: ExactMatrix

    def __bool__(self) -> bool:
        return self.ok


def adjugate_sign_check(adj: ExactMatrix, tree: LabelledTree) -> AdjointCheck:
    """Does the exact adjugate `adj` match the tree-predicted sign pattern?

    Zero entries count as mismatches: the conclusion requires a totally
    nonzero adjugate.  Mismatches are listed in row-major order.
    """
    predicted = predicted_adjoint_sign(tree)
    signs = sign_pattern(adj)
    mismatches = tuple(
        (i + 1, j + 1)
        for i in range(tree.n)
        for j in range(tree.n)
        if signs[i][j] != predicted[i][j]
    )
    return AdjointCheck(not mismatches, mismatches, adj)


def check_adjoint_conclusion(A: ExactMatrix, tree: LabelledTree) -> AdjointCheck:
    """`adjugate_sign_check` on the exact adjugate of A."""
    if A.n != tree.n:
        raise ValueError(f"matrix is {A.n}x{A.n} but tree has {tree.n} vertices")
    return adjugate_sign_check(adjugate(A), tree)
