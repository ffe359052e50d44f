"""Exact rational dense linear algebra on small square matrices.

Everything here is exact; no operation ever rounds.  The work runs on
Python integers: ``clear_denominators`` scales rationals to integers, so
determinants are fraction-free Bareiss eliminations on integer rows, and
``faddeev_leverrier`` is one integer pass on A = B/d that gives the
characteristic polynomial's coefficients and, by Cayley-Hamilton, the
adjugate (singular matrices included).  Minors are taken over *ordered*
index lists, so permuting a list flips the sign of the corresponding minor.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

Rational = Fraction


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
    """Immutable square matrix of exact rationals."""

    __slots__ = ("n", "_rows")

    def __init__(self, rows: Iterable[Iterable]) -> None:
        data = tuple(tuple(_to_rational(x) for x in row) for row in rows)
        n = len(data)
        if n == 0:
            raise ValueError("matrix must have at least one row")
        if any(len(row) != n for row in data):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_rows", data)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def __reduce__(self):
        return (ExactMatrix, (self._rows,))

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._rows

    def entry(self, i: int, j: int) -> Fraction:
        """1-based entry access."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"entry ({i},{j}) out of range for n={self.n}")
        return self._rows[i - 1][j - 1]

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

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(list(zip(*self._rows)))

    def is_symmetric(self) -> bool:
        return self._rows == tuple(zip(*self._rows))

    def column(self, j: int) -> tuple[Fraction, ...]:
        """1-based column extraction."""
        if not (1 <= j <= self.n):
            raise ValueError(f"column {j} out of range for n={self.n}")
        return tuple(row[j - 1] for row in self._rows)

    def to_float_rows(self) -> list[list[float]]:
        return [[float(x) for x in row] for row in self._rows]


class SignMatrix:
    """Square pattern of entrywise signs, each in {+1, -1, 0}."""

    __slots__ = ("n", "signs")

    def __init__(self, signs: Iterable[Iterable[int]]) -> None:
        data = tuple(tuple(int(s) for s in row) for row in signs)
        n = len(data)
        if any(len(row) != n for row in data):
            raise ValueError("sign pattern must be square")
        if any(s not in (-1, 0, 1) for row in data for s in row):
            raise ValueError("signs must be -1, 0 or +1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "signs", data)

    def __setattr__(self, name, value):
        raise AttributeError("SignMatrix is immutable")

    def __reduce__(self):
        return (SignMatrix, (self.signs,))

    def __eq__(self, other) -> bool:
        return isinstance(other, SignMatrix) and self.signs == other.signs

    def __hash__(self) -> int:
        return hash(self.signs)

    def __repr__(self) -> str:
        sym = {1: "+", -1: "-", 0: "0"}
        body = "; ".join("".join(sym[s] for s in row) for row in self.signs)
        return f"SignMatrix({body})"


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
    return ExactMatrix([[A.rows[r - 1][c - 1] for c in cols] for r in rows])


def clear_denominators(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """(ints, d): d is the positive LCM of the denominators and ints[k] = d * values[k]."""
    values = list(values)
    d = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


def _det_int(rows: list[list[int]]) -> int:
    """Bareiss fraction-free elimination for integer matrices."""
    n = len(rows)
    m = [row[:] for row in rows]
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


def minor_value(a, rows, cols):
    """Exact det a[rows; cols] for 0-based index lists, reading entries as a[r][c].

    `a` is a matrix as nested lists of ints.  For minors of size <= 3 it
    may also be an (n, n, B) int64 array, which gives the minors of a
    whole batch at once.
    """
    k = len(rows)
    if k == 1:
        return a[rows[0]][cols[0]]
    if k == 2:
        r0, r1 = a[rows[0]], a[rows[1]]
        c0, c1 = cols
        return r0[c0] * r1[c1] - r0[c1] * r1[c0]
    if k == 3:
        r0, r1, r2 = a[rows[0]], a[rows[1]], a[rows[2]]
        c0, c1, c2 = cols
        return (
            r0[c0] * (r1[c1] * r2[c2] - r1[c2] * r2[c1])
            - r0[c1] * (r1[c0] * r2[c2] - r1[c2] * r2[c0])
            + r0[c2] * (r1[c0] * r2[c1] - r1[c1] * r2[c0])
        )
    return _det_int([[a[r][c] for c in cols] for r in rows])


def det(A: ExactMatrix) -> Fraction:
    """Exact determinant via fraction-free elimination.

    Denominators are cleared row by row first so the elimination runs over
    plain integers with no intermediate fractions.
    """
    scale = 1
    int_rows: list[list[int]] = []
    for row in A.rows:
        ints, d = clear_denominators(row)
        scale *= d
        int_rows.append(ints)
    return Fraction(_det_int(int_rows), scale)


def minor(A: ExactMatrix, rows: Sequence[int], cols: Sequence[int]) -> Fraction:
    """det A[rows; cols] with row/column order taken from the lists."""
    return det(submatrix(A, rows, cols))


def faddeev_leverrier(A: ExactMatrix) -> tuple[list[int], list[list[int]], int]:
    """One integer Faddeev-LeVerrier pass: (c, N, d) with A = B/d, B integer.

    c[k] is the coefficient of x^k in det(xI - B), so det(xI - A) has
    coefficient c[k] / d^(n-k).  The recurrence N_0 = I,
    c[n-k] = -tr(B N_(k-1)) / k, N_k = B N_(k-1) + c[n-k] I runs on
    integers: the division by k is exact because every c[k] is an integer.
    N is N_(n-1), and by Cayley-Hamilton B N_(n-1) = -c[0] I, so
    adj(B) = (-1)^(n+1) N_(n-1) for every B, singular included.
    """
    n = A.n
    ints, d = clear_denominators(x for row in A.rows for x in row)
    B = [ints[i * n : (i + 1) * n] for i in range(n)]
    cols = list(zip(*B))
    c = [0] * (n + 1)
    c[n] = 1
    N = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n):
        N_cols = list(zip(*N))
        N = [[sum(map(operator.mul, row, col)) for col in N_cols] for row in B]
        q, r = divmod(-sum(N[i][i] for i in range(n)), k)
        assert r == 0, "Faddeev-LeVerrier trace not divisible by k"
        c[n - k] = q
        for i in range(n):
            N[i][i] += q
    # the last step needs only tr(B N_(n-1))
    q, r = divmod(-sum(sum(map(operator.mul, N[j], cols[j])) for j in range(n)), n)
    assert r == 0, "Faddeev-LeVerrier trace not divisible by n"
    c[0] = q
    return c, N, d


def adjugate(A: ExactMatrix) -> ExactMatrix:
    """Exact adjugate, valid for singular matrices too.

    adj(A) = (-1)^(n+1) N_(n-1) / d^(n-1) from the integer
    Faddeev-LeVerrier pass on A = B/d (Cayley-Hamilton).
    """
    n = A.n
    if n < 2:
        raise ValueError("adjugate requires n >= 2")
    _, N, d = faddeev_leverrier(A)
    sign, scale = (-1) ** (n + 1), d ** (n - 1)
    return ExactMatrix([[Fraction(sign * x, scale) for x in row] for row in N])


def _minor_or_one(A: ExactMatrix, rows: IndexList, cols: IndexList) -> Fraction:
    if len(rows) == 0:
        return Fraction(1)
    return minor(A, rows, cols)


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
    central = _minor_or_one(A, alpha.drop_ends(), beta.drop_ends())
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


def sign_pattern(A: ExactMatrix) -> SignMatrix:
    """Entrywise exact signs; zero maps to 0."""
    def sgn(x: Fraction) -> int:
        return (x > 0) - (x < 0)

    return SignMatrix([[sgn(x) for x in row] for row in A.rows])


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
