"""Exact rational dense linear algebra on small square matrices.

Everything here is exact; no operation ever rounds.  The work runs on
Python integers: an ``ExactMatrix`` builds its integer form ``cleared`` =
(B, d), A = B/d with d > 0, once, and every exact reader takes it.  ``det``
and ``minor`` are fraction-free Bareiss eliminations on B, and
``faddeev_leverrier`` is one integer pass on B that gives the
characteristic polynomial's coefficients and every matrix coefficient of
adj(xI - B), the adjugate among them (singular matrices included).
``minor_value`` evaluates minors of an integer matrix up to 5x5 in
straight-line closed forms and runs Bareiss only from 6x6 up;
``minor_evaluator`` binds one minor to its form once, and ``det`` stays
the independent reference for both.  Minors are taken over *ordered* index
lists, so permuting a list flips the sign of the corresponding minor.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import partial
from typing import Iterable, Sequence


class SylvesterInapplicableError(ArithmeticError):
    """The central minor of the Sylvester quotient is zero.

    This signals that the identity cannot be evaluated for the given
    index lists, not that the inputs are malformed.
    """


class IndexList(tuple):
    """Ordered list of distinct 1-based indices.

    Order is significant and preserved: ``IndexList((3, 1, 4))`` selects
    row 3 first.  Derived lists drop the first and/or last entry.
    """

    def __new__(cls, indices: Iterable[int]) -> "IndexList":
        items = tuple(int(i) for i in indices)
        if any(i < 1 for i in items):
            raise ValueError(f"indices are 1-based, got {items}")
        if len(set(items)) != len(items):
            raise ValueError(f"duplicate index in {items}")
        return super().__new__(cls, items)

    def drop_last(self) -> "IndexList":
        return IndexList(self[:-1])

    def drop_first(self) -> "IndexList":
        return IndexList(self[1:])

    def drop_ends(self) -> "IndexList":
        return IndexList(self[1:-1])


def _to_rational(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot build an exact rational from {value!r}")


class ExactMatrix:
    """Immutable square matrix of exact rationals; ``cleared`` = (B, d), B/d = A.

    Built from Python ints alone, it stores them as they are, with
    ``cleared`` = (those rows, 1), and converts nothing; ``rows`` and
    ``entry`` still give Fractions, built when asked.
    """

    __slots__ = ("n", "_rows", "cleared")

    def __init__(self, rows: Iterable[Iterable]) -> None:
        data = tuple(map(tuple, rows))
        # bool is no int here: it becomes a Fraction, as every non-int does
        integral = all(type(x) is int for row in data for x in row)
        if not integral:
            data = tuple(tuple(map(_to_rational, row)) for row in data)
        n = len(data)
        if n == 0:
            raise ValueError("matrix must have at least one row")
        if any(len(row) != n for row in data):
            raise ValueError("matrix must be square")
        if integral:
            B, d = data, 1
        else:
            ints, d = clear_denominators(x for row in data for x in row)
            B = tuple(tuple(ints[i * n : (i + 1) * n]) for i in range(n))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_rows", data)
        object.__setattr__(self, "cleared", (B, d))

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def __reduce__(self):
        return (ExactMatrix, (self._rows,))

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        if self._rows is self.cleared[0]:  # built from ints
            return tuple(tuple(map(Fraction, row)) for row in self._rows)
        return self._rows

    def entry(self, i: int, j: int) -> Fraction:
        """1-based entry access."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"entry ({i},{j}) out of range for n={self.n}")
        return Fraction(self._rows[i - 1][j - 1])

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactMatrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self._rows)
        return f"ExactMatrix({self.n}x{self.n}: {body})"

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.n != other.n:
            raise ValueError("dimension mismatch in matrix product")
        cols = tuple(zip(*other._rows))
        return ExactMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self._rows]
        )

    def scaled(self, c) -> "ExactMatrix":
        c = _to_rational(c)
        return ExactMatrix([[c * x for x in row] for row in self._rows])

    def is_symmetric(self) -> bool:
        return self._rows == tuple(zip(*self._rows))

    def to_float_rows(self) -> list[list[float]]:
        # int true division rounds correctly, as float(Fraction) does
        B, d = self.cleared
        return [[x / d for x in row] for row in B]


def _check_lists(A: ExactMatrix, rows: Sequence[int], cols: Sequence[int]) -> tuple[IndexList, IndexList]:
    rows = rows if isinstance(rows, IndexList) else IndexList(rows)
    cols = cols if isinstance(cols, IndexList) else IndexList(cols)
    if len(rows) != len(cols):
        raise ValueError(f"row list {rows} and column list {cols} differ in length")
    if len(rows) == 0:
        raise ValueError("index lists must be non-empty")
    for idx in (*rows, *cols):
        if idx > A.n:
            raise ValueError(f"index {idx} out of range for n={A.n}")
    return rows, cols


def submatrix(A: ExactMatrix, rows: Sequence[int], cols: Sequence[int]) -> ExactMatrix:
    """Reordered submatrix A[rows; cols]; list order is respected."""
    rows, cols = _check_lists(A, rows, cols)
    return ExactMatrix([[A._rows[r - 1][c - 1] for c in cols] for r in rows])


def clear_denominators(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """(ints, d): d is the positive LCM of the denominators and ints[k] = d * values[k]."""
    values = list(values)
    d = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


def _det_int(rows: list[list[int]]) -> int:
    """Bareiss fraction-free elimination for integer matrices."""
    n = len(rows)
    m = [list(row) for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            mi = m[i]
            mk = m[k]
            fik = mi[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pivot - fik * mk[j]) // prev
        prev = pivot
    return sign * m[n - 1][n - 1]


# Closed-form minors.  Each takes (rows, cols, a) so that
# ``functools.partial`` can bind a minor's index lists once and leave a
# callable of the matrix alone (``minor_evaluator``).

def _det1(rows, cols, a):
    return a[rows[0]][cols[0]]


def _det2(rows, cols, a):
    i0, i1 = rows
    c0, c1 = cols
    r0, r1 = a[i0], a[i1]
    return r0[c0] * r1[c1] - r0[c1] * r1[c0]


def _det3(rows, cols, a):
    i0, i1, i2 = rows
    c0, c1, c2 = cols
    r0, r1, r2 = a[i0], a[i1], a[i2]
    return (
        r0[c0] * (r1[c1] * r2[c2] - r1[c2] * r2[c1])
        - r0[c1] * (r1[c0] * r2[c2] - r1[c2] * r2[c0])
        + r0[c2] * (r1[c0] * r2[c1] - r1[c1] * r2[c0])
    )


def _det4(rows, cols, a):
    """Laplace expansion along rows 0-1: each of their six 2x2 minors
    times its complementary 2x2 minor in rows 2-3."""
    i0, i1, i2, i3 = rows
    c0, c1, c2, c3 = cols
    r0, r1, r2, r3 = a[i0], a[i1], a[i2], a[i3]
    x0, x1, x2, x3 = r0[c0], r0[c1], r0[c2], r0[c3]
    y0, y1, y2, y3 = r1[c0], r1[c1], r1[c2], r1[c3]
    z0, z1, z2, z3 = r2[c0], r2[c1], r2[c2], r2[c3]
    w0, w1, w2, w3 = r3[c0], r3[c1], r3[c2], r3[c3]
    return (
        (x0 * y1 - x1 * y0) * (z2 * w3 - z3 * w2)
        - (x0 * y2 - x2 * y0) * (z1 * w3 - z3 * w1)
        + (x0 * y3 - x3 * y0) * (z1 * w2 - z2 * w1)
        + (x1 * y2 - x2 * y1) * (z0 * w3 - z3 * w0)
        - (x1 * y3 - x3 * y1) * (z0 * w2 - z2 * w0)
        + (x2 * y3 - x3 * y2) * (z0 * w1 - z1 * w0)
    )


def _det5(rows, cols, a):
    """The ten 2x2 minors t of rows 3-4, the ten 3x3 minors u of rows 2-4
    expanded from them along row 2, then a Laplace expansion along rows
    0-1 against the u; names carry the column positions."""
    i0, i1, i2, i3, i4 = rows
    c0, c1, c2, c3, c4 = cols
    r0, r1, r2, r3, r4 = a[i0], a[i1], a[i2], a[i3], a[i4]
    v0, v1, v2, v3, v4 = r3[c0], r3[c1], r3[c2], r3[c3], r3[c4]
    w0, w1, w2, w3, w4 = r4[c0], r4[c1], r4[c2], r4[c3], r4[c4]
    t01 = v0 * w1 - v1 * w0
    t02 = v0 * w2 - v2 * w0
    t03 = v0 * w3 - v3 * w0
    t04 = v0 * w4 - v4 * w0
    t12 = v1 * w2 - v2 * w1
    t13 = v1 * w3 - v3 * w1
    t14 = v1 * w4 - v4 * w1
    t23 = v2 * w3 - v3 * w2
    t24 = v2 * w4 - v4 * w2
    t34 = v3 * w4 - v4 * w3
    z0, z1, z2, z3, z4 = r2[c0], r2[c1], r2[c2], r2[c3], r2[c4]
    u012 = z0 * t12 - z1 * t02 + z2 * t01
    u013 = z0 * t13 - z1 * t03 + z3 * t01
    u014 = z0 * t14 - z1 * t04 + z4 * t01
    u023 = z0 * t23 - z2 * t03 + z3 * t02
    u024 = z0 * t24 - z2 * t04 + z4 * t02
    u034 = z0 * t34 - z3 * t04 + z4 * t03
    u123 = z1 * t23 - z2 * t13 + z3 * t12
    u124 = z1 * t24 - z2 * t14 + z4 * t12
    u134 = z1 * t34 - z3 * t14 + z4 * t13
    u234 = z2 * t34 - z3 * t24 + z4 * t23
    x0, x1, x2, x3, x4 = r0[c0], r0[c1], r0[c2], r0[c3], r0[c4]
    y0, y1, y2, y3, y4 = r1[c0], r1[c1], r1[c2], r1[c3], r1[c4]
    return (
        (x0 * y1 - x1 * y0) * u234
        - (x0 * y2 - x2 * y0) * u134
        + (x0 * y3 - x3 * y0) * u124
        - (x0 * y4 - x4 * y0) * u123
        + (x1 * y2 - x2 * y1) * u034
        - (x1 * y3 - x3 * y1) * u024
        + (x1 * y4 - x4 * y1) * u023
        + (x2 * y3 - x3 * y2) * u014
        - (x2 * y4 - x4 * y2) * u013
        + (x3 * y4 - x4 * y3) * u012
    )


def _det_bareiss(rows, cols, a):
    return _det_int([[a[r][c] for c in cols] for r in rows])


_CLOSED_FORMS = {1: _det1, 2: _det2, 3: _det3, 4: _det4, 5: _det5}


def minor_value(a, rows, cols):
    """Exact det a[rows; cols] for 0-based index lists, reading entries as a[r][c].

    `a` is a matrix as nested lists of ints.  Minors of size <= 5 are
    straight-line closed forms on Python ints; Bareiss runs only from 6x6
    up.  For those closed forms `a` may also be an (n, n, B) int64 array,
    which gives the minors of a whole batch at once; the caller must rule
    out overflow (``_kernels.int64_screen_safe``), since numpy wraps
    silently.
    """
    return _CLOSED_FORMS.get(len(rows), _det_bareiss)(rows, cols, a)


def minor_evaluator(rows, cols):
    """``minor_value`` with its index lists bound: a picklable callable of `a`.

    The size dispatch happens here, once, instead of on every evaluation.
    """
    return partial(_CLOSED_FORMS.get(len(rows), _det_bareiss), tuple(rows), tuple(cols))


def det(A: ExactMatrix) -> Fraction:
    """Exact determinant via fraction-free elimination.

    The elimination runs on the integer form B of A = B/d, with no
    intermediate fractions, and det A = det B / d^n.
    """
    B, d = A.cleared
    return Fraction(_det_int(B), d**A.n)


def minor(A: ExactMatrix, rows: Sequence[int], cols: Sequence[int]) -> Fraction:
    """det A[rows; cols] with row/column order taken from the lists."""
    return det(submatrix(A, rows, cols))


def faddeev_leverrier(A: ExactMatrix) -> tuple[list[int], list[list[list[int]]], int]:
    """One integer Faddeev-LeVerrier pass on ``A.cleared`` = (B, d): (c, Ns, d).

    c[k] is the coefficient of x^k in det(xI - B), so det(xI - A) has
    coefficient c[k] / d^(n-k).  The recurrence N_0 = I,
    c[n-k] = -tr(B N_(k-1)) / k, N_k = B N_(k-1) + c[n-k] I runs on
    integers: the division by k is exact because every c[k] is an integer.
    Ns = [N_0, ..., N_(n-1)] gives adj(xI - B) = sum_k x^(n-1-k) N_k, and
    at x = 0 adj(B) = (-1)^(n+1) N_(n-1) for every B, singular included.
    """
    n = A.n
    B, d = A.cleared
    cols = list(zip(*B))
    c = [0] * (n + 1)
    c[n] = 1
    N = [[int(i == j) for j in range(n)] for i in range(n)]
    Ns = [N]
    for k in range(1, n):
        N_cols = list(zip(*N))
        N = [[sum(map(operator.mul, row, col)) for col in N_cols] for row in B]
        q, r = divmod(-sum(N[i][i] for i in range(n)), k)
        assert r == 0, "Faddeev-LeVerrier trace not divisible by k"
        c[n - k] = q
        for i in range(n):
            N[i][i] += q
        Ns.append(N)
    # the last step needs only tr(B N_(n-1))
    q, r = divmod(-sum(sum(map(operator.mul, N[j], cols[j])) for j in range(n)), n)
    assert r == 0, "Faddeev-LeVerrier trace not divisible by n"
    c[0] = q
    return c, Ns, d


def adjugate_from_pass(Ns: list[list[list[int]]], d: int) -> ExactMatrix:
    """adj(A) = (-1)^(n+1) N_(n-1) / d^(n-1) from `faddeev_leverrier(A)`'s Ns and d."""
    n = len(Ns)
    sign, scale = (-1) ** (n + 1), d ** (n - 1)
    if scale == 1:  # integer entries: nothing to clear
        return ExactMatrix([[sign * x for x in row] for row in Ns[-1]])
    return ExactMatrix([[Fraction(sign * x, scale) for x in row] for row in Ns[-1]])


def adjugate(A: ExactMatrix) -> ExactMatrix:
    """Exact adjugate, valid for singular matrices too (`adjugate_from_pass`)."""
    if A.n < 2:
        raise ValueError("adjugate requires n >= 2")
    _, Ns, d = faddeev_leverrier(A)
    return adjugate_from_pass(Ns, d)


def sylvester_rhs(A: ExactMatrix, alpha: Sequence[int], beta: Sequence[int]) -> Fraction:
    """Quotient-of-minors expansion of det A[alpha; beta].

    Evaluates (det A[a';b'] det A['a;'b] - det A[a';'b] det A['a;b'])
    / det A['a';'b'], where a' drops the last index, 'a drops the first,
    and 'a' drops both; the empty list has determinant 1.  Raises
    SylvesterInapplicableError when the central minor vanishes.
    """
    alpha, beta = _check_lists(A, alpha, beta)
    if len(alpha) < 2:
        raise ValueError("index lists must have length >= 2")
    central = minor(A, alpha.drop_ends(), beta.drop_ends()) if len(alpha) > 2 else Fraction(1)
    if central == 0:
        raise SylvesterInapplicableError(
            f"central minor det A[{alpha.drop_ends()}; {beta.drop_ends()}] is zero"
        )
    top = minor(A, alpha.drop_last(), beta.drop_last()) * minor(
        A, alpha.drop_first(), beta.drop_first()
    ) - minor(A, alpha.drop_last(), beta.drop_first()) * minor(
        A, alpha.drop_first(), beta.drop_last()
    )
    return top / central


def sign_pattern(A: ExactMatrix) -> tuple[tuple[int, ...], ...]:
    """Entrywise exact signs in {-1, 0, 1}, read from B of A = B/d, since d > 0."""
    return tuple(tuple((x > 0) - (x < 0) for x in row) for row in A.cleared[0])


# --- matrix text format -------------------------------------------------
#
# One matrix row per line, entries whitespace separated, each an optionally
# signed integer or p/q rational.  Lines starting with '#' are comments.

def matrix_from_text(text: str) -> ExactMatrix:
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            rows.append([Fraction(tok) for tok in stripped.split()])
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad matrix entry on line {lineno}: {exc}") from exc
    if not rows:
        raise ValueError("no matrix rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows) or width != len(rows):
        raise ValueError(
            f"matrix must be square, got {len(rows)} rows of widths {sorted({len(r) for r in rows})}"
        )
    return ExactMatrix(rows)


def _format_entry(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def matrix_to_text(A: ExactMatrix) -> str:
    lines = []
    for row in A.rows:
        cells = [_format_entry(x) for x in row]
        lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"
