"""Spectral analysis built on the exact characteristic polynomial.

The polynomial comes from the integer Faddeev-LeVerrier pass in
``exact_linalg``.  Realness and simplicity of the minimum-modulus
eigenvalue are decided exactly (Sturm sequences on the square-free part of
the characteristic polynomial, bisected on integer numerators over a
power-of-two denominator); complex eigenvalues are estimated numerically,
which is all they are needed for.  The eigenvector of the smallest
eigenvalue prefers the adjugate route: when the adjugate is signature
similar to a positive matrix, power iteration on that positive matrix is
provably convergent.

Each instance computes its characteristic polynomial, root isolation and
numeric spectrum once, in `full_spectrum_numeric`, whose result carries
them down the chain; there is no module-level cache.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exact_linalg import ExactMatrix, clear_denominators, faddeev_leverrier
from .tree_model import LabelledTree, SigningVerdict, is_signed_according_to, tree_signing
from .positivity import AdjointCheck, check_adjoint_conclusion

MODULUS_MARGIN_RTOL = 1e-9
ISOLATION_WIDTH = Fraction(1, 10**12)


class Polynomial:
    """Dense univariate polynomial over exact rationals, ascending coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence) -> None:
        items = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while items and items[-1] == 0:
            items.pop()
        object.__setattr__(self, "coeffs", tuple(items))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return (Polynomial, (self.coeffs,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero():
            return "Polynomial(0)"
        terms = [f"{c}*x^{k}" for k, c in enumerate(self.coeffs) if c != 0]
        return "Polynomial(" + " + ".join(terms) + ")"

    def __call__(self, x: Fraction | int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] += c
        return Polynomial(merged)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero() or other.is_zero():
            return Polynomial([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    def scaled(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial([c * x for x in self.coeffs])

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        return self.scaled(Fraction(1) / self.coeffs[-1])

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = list(other.coeffs)
        q = [Fraction(0)] * max(0, len(rem) - len(d) + 1)
        lead = d[-1]
        for k in range(len(rem) - len(d), -1, -1):
            factor = rem[k + len(d) - 1] / lead
            q[k] = factor
            if factor:
                for i, c in enumerate(d):
                    rem[k + i] -= factor * c
        return Polynomial(q), Polynomial(rem[: len(d) - 1])

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return self.divmod(other)[1]


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd via the Euclidean algorithm."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def squarefree_decomposition(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun's algorithm: p = const * prod f_i^i with the f_i squarefree, coprime."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    p = p.monic()
    if p.degree < 1:
        return []
    dp = p.derivative()
    a = poly_gcd(p, dp)
    b = p // a
    c = dp // a
    d = c - b.derivative()
    out = []
    i = 1
    while b.degree > 0:
        g = poly_gcd(b, d)
        if g.degree > 0:
            out.append((g, i))
        b = b // g
        c = d // g
        d = c - b.derivative()
        i += 1
    return out


def char_poly(A: ExactMatrix) -> Polynomial:
    """Exact det(xI - A) from the integer Faddeev-LeVerrier pass on A = B/d."""
    c, _, d = faddeev_leverrier(A)
    n = A.n
    return Polynomial([Fraction(ck, d ** (n - k)) for k, ck in enumerate(c)])


@dataclass(frozen=True)
class RootInterval:
    """Closed interval holding exactly `multiplicity` roots (a point when exact)."""

    lo: Fraction
    hi: Fraction
    multiplicity: int

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def width(self) -> Fraction:
        return self.hi - self.lo

    def is_exact(self) -> bool:
        return self.lo == self.hi


def _int_coeffs(p: Polynomial) -> tuple[int, ...]:
    """Positive rescale to coprime integer coefficients (signs preserved)."""
    ints, _ = clear_denominators(p.coeffs)
    g = math.gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


def _sign_at(ints: tuple[int, ...], num: int, den: int) -> int:
    """Sign of the polynomial at num/den (den > 0), in pure integer arithmetic."""
    acc = ints[-1]
    dpow = 1
    for c in reversed(ints[:-1]):
        dpow *= den
        acc = acc * num + c * dpow
    return (acc > 0) - (acc < 0)


def _sturm_chain(f: Polynomial) -> list[tuple[int, ...]]:
    chain = [f, f.derivative()]
    while not chain[-1].is_zero():
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return [_int_coeffs(q) for q in chain]


def _variations(chain: list[tuple[int, ...]], num: int, den: int) -> int:
    signs = []
    for q in chain:
        s = _sign_at(q, num, den)
        if s != 0:
            signs.append(s)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _cauchy_bound(f: Polynomial) -> Fraction:
    lead = abs(f.coeffs[-1])
    return 1 + max(abs(c) for c in f.coeffs[:-1]) / lead if f.degree >= 1 else Fraction(1)


def _refine(
    f_ints: tuple[int, ...], lo: Fraction, hi: Fraction, width: Fraction
) -> tuple[Fraction, Fraction]:
    # one simple root in (lo, hi); f is nonzero with opposite signs at the ends.
    # Bisect on integers: the ends are a/den and b/den, and each step
    # doubles den, so the points are the rationals (lo + hi) / 2 would give.
    den = math.lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator)
    s_lo = _sign_at(f_ints, a, den)
    while (b - a) * width.denominator > width.numerator * den:
        mid = a + b
        a, b, den = 2 * a, 2 * b, 2 * den
        s = _sign_at(f_ints, mid, den)
        if s == 0:
            return Fraction(mid, den), Fraction(mid, den)
        if s == s_lo:
            a = mid
        else:
            b = mid
    return Fraction(a, den), Fraction(b, den)


def _isolate_squarefree(
    f: Polynomial,
) -> tuple[list[tuple[Fraction, Fraction]], tuple[int, ...]]:
    """Disjoint isolating intervals (or exact points) for all real roots of f.

    Also returns the integer coefficients of the deflated factor whose
    simple roots the proper intervals isolate.  It has no root at their
    ends, which f may have: a rational root peeled off at a bisection
    midpoint can be the end of an interval of the deflated factor.
    """
    exact: list[Fraction] = []
    # peel off rational roots hit during bisection by deflation
    while True:
        if f.degree == 1:
            exact.append(-f.coeffs[0] / f.coeffs[1])
            return [(r, r) for r in exact], ()
        if f.degree < 1:
            return [(r, r) for r in exact], ()
        f_ints = _int_coeffs(f)
        chain = _sturm_chain(f)
        bound = _cauchy_bound(f)
        hit = None
        intervals = []
        # an interval is (a, b) over the denominator bound.denominator << depth
        b0, d0 = bound.numerator, bound.denominator
        stack = [(-b0, b0, 0, _variations(chain, -b0, d0), _variations(chain, b0, d0))]
        while stack:
            a, b, depth, v_lo, v_hi = stack.pop()
            count = v_lo - v_hi
            if count == 0:
                continue
            if count == 1:
                den = d0 << depth
                intervals.append((Fraction(a, den), Fraction(b, den)))
                continue
            mid, depth = a + b, depth + 1
            den = d0 << depth
            if _sign_at(f_ints, mid, den) == 0:
                hit = Fraction(mid, den)
                break
            v_mid = _variations(chain, mid, den)
            stack.append((2 * a, mid, depth, v_lo, v_mid))
            stack.append((mid, 2 * b, depth, v_mid, v_hi))
        if hit is None:
            return [(r, r) for r in exact] + intervals, f_ints
        exact.append(hit)
        f = f // Polynomial([-hit, 1])


def real_roots(p: Polynomial, refine_to: Fraction | None = None) -> list[RootInterval]:
    """Isolating intervals with exact multiplicities for all real roots of p."""
    if p.is_zero():
        raise ValueError("zero polynomial has no well-defined roots")
    found: list[tuple[Fraction, Fraction, int, tuple[int, ...]]] = []
    for factor, mult in squarefree_decomposition(p):
        intervals, f_ints = _isolate_squarefree(factor)
        for lo, hi in intervals:
            found.append((lo, hi, mult, f_ints))
    # roots of coprime factors are distinct; shrink any overlapping intervals
    changed = True
    while changed:
        changed = False
        for i, j in itertools.combinations(range(len(found)), 2):
            lo1, hi1, m1, f1 = found[i]
            lo2, hi2, m2, f2 = found[j]
            if hi1 >= lo2 and hi2 >= lo1:
                if lo1 != hi1:
                    found[i] = (*_refine(f1, lo1, hi1, (hi1 - lo1) / 4), m1, f1)
                    changed = True
                if lo2 != hi2:
                    found[j] = (*_refine(f2, lo2, hi2, (hi2 - lo2) / 4), m2, f2)
                    changed = True
    out = []
    for lo, hi, mult, f_ints in found:
        if refine_to is not None and hi - lo > refine_to:
            lo, hi = _refine(f_ints, lo, hi, refine_to)
        out.append(RootInterval(lo, hi, mult))
    out.sort(key=lambda r: r.lo + r.hi)
    return out


def _roots_durand_kerner(p: Polynomial, tol: float) -> tuple[list[complex], bool, float]:
    """(estimates, converged, worst scaled residual) for all roots of p."""
    n = p.degree
    if n < 1:
        return [], True, 0.0
    monic = [float(c / p.coeffs[-1]) for c in p.coeffs]
    if n == 1:
        return [complex(-monic[0])], True, 0.0

    def eval_monic(z: complex) -> complex:
        acc = complex(1.0)
        for c in reversed(monic[:-1]):
            acc = acc * z + c
        return acc

    radius = max(abs(monic[0]) ** (1.0 / n), 1e-3)
    seed = 0.4 + 0.9j
    z = [radius * seed**k for k in range(n)]
    for _ in range(600):
        moved = 0.0
        for j in range(n):
            denom = complex(1.0)
            for k in range(n):
                if k != j:
                    denom *= z[j] - z[k]
            if denom == 0:
                z[j] *= 1 + 1e-12
                continue
            step = eval_monic(z[j]) / denom
            z[j] -= step
            moved = max(moved, abs(step) / (1.0 + abs(z[j])))
        if moved < 1e-15:
            break

    def scaled_residual(w: complex) -> float:
        scale = sum(abs(c) * max(1.0, abs(w)) ** k for k, c in enumerate(monic))
        return abs(eval_monic(w)) / scale

    worst = max(scaled_residual(w) for w in z)
    return z, worst <= tol, worst


def _pair_conjugates(values: Sequence[complex], n_real: int) -> list[complex]:
    """Snap the n_real estimates nearest the real axis; pair the rest conjugately."""
    order = sorted(range(len(values)), key=lambda i: (abs(values[i].imag), i))
    out: list[complex | None] = [None] * len(values)
    for i in order[:n_real]:
        out[i] = complex(values[i].real)
    rest = order[n_real:]
    used = set()
    for i in rest:
        if i in used:
            continue
        best = None
        for j in rest:
            if j != i and j not in used:
                d = abs(values[i] - values[j].conjugate())
                if best is None or d < best[0]:
                    best = (d, j)
        if best is None:
            out[i] = values[i]
            continue
        j = best[1]
        used.add(i)
        used.add(j)
        w = (values[i] + values[j].conjugate()) / 2
        if w.imag < 0:
            w = w.conjugate()
        out[i] = w
        out[j] = w.conjugate()
    return [v for v in out if v is not None]


@dataclass(frozen=True)
class SmallestEigen:
    """Classification of the minimum-modulus eigenvalue."""

    estimate: complex
    is_real: bool
    is_simple: bool | None
    multiplicity: int | None
    interval: RootInterval | None
    modulus_margin: float
    ambiguous: bool


def _modulus_entities(rroots: Sequence[RootInterval], spectrum: Sequence[complex]):
    """(modulus, kind, payload) per distinct eigenvalue; conjugate pairs count once."""
    entities = []
    for r in rroots:
        mid = r.midpoint()
        entities.append((abs(float(mid)), "real", r))
    nonreal = [z for z in spectrum if z.imag > 0]
    for z in nonreal:
        entities.append((abs(z), "pair", z))
    entities.sort(key=lambda t: t[0])
    return entities


def _classify_smallest(rroots: Sequence[RootInterval], spectrum: Sequence[complex]) -> SmallestEigen:
    entities = _modulus_entities(rroots, spectrum)
    m1, kind, payload = entities[0]
    if len(entities) > 1:
        m2 = entities[1][0]
        margin = (m2 - m1) / m2 if m2 > 0 else 0.0
        ambiguous = margin < MODULUS_MARGIN_RTOL
    else:
        margin = float("inf")
        ambiguous = False
    if kind == "real":
        interval: RootInterval = payload
        return SmallestEigen(
            estimate=complex(float(interval.midpoint())),
            is_real=True,
            is_simple=interval.multiplicity == 1,
            multiplicity=interval.multiplicity,
            interval=interval,
            modulus_margin=margin,
            ambiguous=ambiguous,
        )
    return SmallestEigen(
        estimate=payload,
        is_real=False,
        is_simple=None,
        multiplicity=None,
        interval=None,
        modulus_margin=margin,
        ambiguous=ambiguous,
    )


@dataclass(frozen=True)
class SpectrumEstimate:
    """One instance's spectral pass, carried down the chain."""

    values: tuple[complex, ...]
    converged: bool
    max_scaled_residual: float
    char_poly: Polynomial
    roots: tuple[RootInterval, ...]
    smallest: SmallestEigen


def full_spectrum_numeric(A: ExactMatrix, tol: float = 1e-9) -> SpectrumEstimate:
    """All n eigenvalue estimates from the exact characteristic polynomial.

    Deterministic simultaneous iteration; complex estimates are forced
    into exact conjugate pairs, with the count of real values taken from
    the exact root isolation.  The result also holds the polynomial, its
    isolated real roots and the classified minimum-modulus eigenvalue.
    """
    p = char_poly(A)
    roots = tuple(real_roots(p, refine_to=ISOLATION_WIDTH))
    values, converged, residual = _roots_durand_kerner(p, tol)
    paired = _pair_conjugates(values, sum(r.multiplicity for r in roots))
    paired.sort(key=lambda z: (z.real, z.imag))
    return SpectrumEstimate(
        tuple(paired), converged, residual, p, roots, _classify_smallest(roots, paired)
    )


def smallest_eigenvalue(A: ExactMatrix) -> SmallestEigen:
    """Identify and classify the eigenvalue of minimum modulus."""
    return full_spectrum_numeric(A).smallest


def perron_vector(M, tol: float = 1e-12, max_iter: int = 100_000) -> tuple[float, np.ndarray]:
    """Dominant eigenvalue and positive eigenvector of a positive matrix.

    Power iteration with Collatz-Wielandt bracketing; the returned vector
    has unit max entry.
    """
    if isinstance(M, ExactMatrix):
        if any(x <= 0 for row in M.rows for x in row):
            raise ValueError("matrix must be entrywise positive")
        mat = np.array(M.to_float_rows(), dtype=float)
    else:
        mat = np.asarray(M, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("matrix must be square")
        if not (mat > 0).all():
            raise ValueError("matrix must be entrywise positive")
    n = mat.shape[0]
    v = np.ones(n)
    value = float(mat.sum() / n)
    for _ in range(max_iter):
        w = mat @ v
        ratios = w / v
        lo, hi = float(ratios.min()), float(ratios.max())
        value = (lo + hi) / 2
        v = w / w.max()
        if hi - lo <= tol * hi:
            break
    return value, v


@dataclass(frozen=True)
class SpectralSummary:
    char_poly: Polynomial
    smallest: SmallestEigen
    eigenvector_unit: tuple[float, ...] | None
    eigenvector_last1: tuple[float, ...] | None
    signed_ok: bool | None
    signing: SigningVerdict | None
    full_spectrum: tuple[complex, ...]
    residual_inf: float | None
    route: str


def _solve_ones_or_kernel(B: ExactMatrix) -> tuple[list[Fraction], bool]:
    """Gauss-Jordan over the rationals on [B | 1].

    Returns (x, False) with B x = 1 when B is invertible, else (v, True)
    with v the exact kernel vector of B set by its first free column.
    """
    n = B.n
    m = [list(row) + [Fraction(1)] for row in B.rows]
    pivots: list[int] = []
    for col in range(n):
        row = len(pivots)
        piv = next((r for r in range(row, n) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = Fraction(1) / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(n):
            if r != row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        pivots.append(col)
    if len(pivots) == n:
        return [m[r][n] for r in range(n)], False
    free = next(c for c in range(n) if c not in pivots)
    vec = [Fraction(0)] * n
    vec[free] = Fraction(1)
    for r, col in enumerate(pivots):
        vec[col] = -m[r][free]
    return vec, True


def _normalizations(v: np.ndarray) -> tuple[tuple[float, ...], tuple[float, ...] | None]:
    norm = float(np.linalg.norm(v))
    unit = v / norm
    lead = next((x for x in unit if x != 0), 1.0)
    if lead < 0:
        unit = -unit
    last1 = None
    if abs(v[-1]) > 1e-300 * max(1.0, float(np.abs(v).max())):
        last1 = tuple(float(x) for x in v / v[-1])
    return tuple(float(x) for x in unit), last1


def smallest_eig_vector(
    A: ExactMatrix,
    tree: LabelledTree,
    adjoint_check: AdjointCheck | None = None,
) -> SpectralSummary:
    """Eigenvector of the smallest eigenvalue, with its tree-signing verdict.

    Prefers the signature-conjugated adjugate (a positive matrix whose
    Perron vector is the wanted eigenvector, up to signs); falls back to
    inverse iteration at the exactly isolated smallest real eigenvalue,
    and reports a complex pair when the smallest eigenvalue is not real.
    """
    if A.n != tree.n:
        raise ValueError(f"matrix is {A.n}x{A.n} but tree has {tree.n} vertices")
    spectrum = full_spectrum_numeric(A)
    p, smallest = spectrum.char_poly, spectrum.smallest
    check = adjoint_check if adjoint_check is not None else check_adjoint_conclusion(A, tree)
    if all(x == 0 for row in check.adjugate.rows for x in row):
        raise ArithmeticError("adjugate is identically zero: rank < n-1")

    a_float = np.array(A.to_float_rows(), dtype=float)
    vector: np.ndarray | None = None
    exact_vector: list[Fraction] | None = None
    lam: float | None = None
    route = "none"

    if check.ok:
        d = (-1) ** A.n * p.coeffs[0]  # det(A) = (-1)^n p(0)
        signs = tree_signing(tree, 1)
        if d != 0:
            conj = ExactMatrix(
                [
                    [signs[i] * signs[j] * check.adjugate.rows[i][j] for j in range(A.n)]
                    for i in range(A.n)
                ]
            )
            rho, w = perron_vector(conj)
            vector = np.array([signs[i] * w[i] for i in range(A.n)])
            lam = float(d) / rho
            route = "adjugate-perron"
        else:
            col = next(
                (j for j in range(1, A.n + 1) if any(x != 0 for x in check.adjugate.column(j))),
                None,
            )
            if col is None:
                raise ArithmeticError("adjugate is identically zero: rank < n-1")
            exact_vector = list(check.adjugate.column(col))
            vector = np.array([float(x) for x in exact_vector])
            lam = 0.0
            route = "adjugate-column"
    elif smallest.is_real and not smallest.ambiguous:
        interval = smallest.interval
        shift = interval.midpoint()
        shifted = ExactMatrix(
            [
                [A.rows[i][j] - (shift if i == j else 0) for j in range(A.n)]
                for i in range(A.n)
            ]
        )
        solution, singular = _solve_ones_or_kernel(shifted)
        if singular:
            # the midpoint hit the eigenvalue exactly; take the exact kernel
            exact_vector = solution
            vector = np.array([float(x) for x in exact_vector])
        else:
            biggest = max(abs(x) for x in solution)
            vector = np.array([float(x / biggest) for x in solution])
        lam = float(shift)
        route = "inverse-iteration"

    if vector is None:
        return SpectralSummary(
            char_poly=p,
            smallest=smallest,
            eigenvector_unit=None,
            eigenvector_last1=None,
            signed_ok=None,
            signing=None,
            full_spectrum=spectrum.values,
            residual_inf=None,
            route=route,
        )

    residual = float(np.abs(a_float @ vector - lam * vector).max())
    unit, last1 = _normalizations(vector)
    signing_input = exact_vector if exact_vector is not None else list(unit)
    signing = is_signed_according_to(signing_input, tree)
    return SpectralSummary(
        char_poly=p,
        smallest=smallest,
        eigenvector_unit=unit,
        eigenvector_last1=last1,
        signed_ok=signing.ok,
        signing=signing,
        full_spectrum=spectrum.values,
        residual_inf=residual,
        route=route,
    )
