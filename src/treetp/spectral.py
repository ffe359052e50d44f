"""Spectral analysis built on the exact characteristic polynomial.

`full_spectrum_numeric` runs the integer Faddeev-LeVerrier pass of
``exact_linalg`` on A once per instance and returns it with the
characteristic polynomial read from it, the root isolation and the
numeric spectrum, with no module-level cache; `smallest_eig_vector`
reads the adjugate and every eigenvector from the same pass.  The real
roots and their multiplicities are decided exactly: the polynomial is
cleared to integers once, and Yun's square-free decomposition (gcds by a
primitive pseudo-remainder sequence), the Sturm sequences and the
bisection (integer numerators over a power-of-two denominator) all run on
primitive integer polynomials.
Isolation takes no Sturm count beyond Fujiwara's root bound, where the
count is that at infinity.  Refinement returns the interval that halving
would, found at halving's stopping depth by exact sign probes.  The n
eigenvalue estimates come from one LAPACK ``eigvals`` call on A, not from
the rounded polynomial.  They order refinement's probes, and the exact
real roots sort them into real values and conjugate pairs; they describe
the spectrum and decide no interval and no verdict.  Every eigenvector is
one integer column of adj(mu I - A), read from the same pass, which keeps
every N_k of adj(xI - A): mu is within 2^-53 |mu| of the least-modulus
eigenvalue lambda, and equal to it when lambda is rational.  An eigenspace of dimension >= 2 reports no vector.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exact_linalg import ExactMatrix, adjugate_from_pass, clear_denominators, faddeev_leverrier
from .tree_model import LabelledTree, SigningVerdict, is_signed_according_to
from .positivity import AdjointCheck, adjugate_sign_check

MODULUS_MARGIN_RTOL = 1e-9
ISOLATION_WIDTH = Fraction(1, 10**12)


class Polynomial:
    """Dense univariate polynomial over exact rationals, ascending coefficients.

    A display and evaluation type: root isolation runs on integer
    coefficient tuples.
    """

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


def _char_poly(c: list[int], d: int) -> Polynomial:
    """det(xI - A) from the coefficients c of det(xI - B), A = B/d."""
    n = len(c) - 1
    return Polynomial([Fraction(ck, d ** (n - k)) for k, ck in enumerate(c)])


def char_poly(A: ExactMatrix) -> Polynomial:
    """Exact det(xI - A) from the integer Faddeev-LeVerrier pass on A = B/d."""
    c, _, d = faddeev_leverrier(A)
    return _char_poly(c, d)


@dataclass(frozen=True)
class RootInterval:
    """Closed interval holding exactly `multiplicity` roots (a point when exact).

    `factor` is the primitive square-free integer factor of p that a
    proper interval isolates a simple root of, nonzero at both its ends;
    refinement bisects on it.
    """

    lo: Fraction
    hi: Fraction
    multiplicity: int
    factor: tuple[int, ...] = field(default=(), compare=False, repr=False)

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def width(self) -> Fraction:
        return self.hi - self.lo

    def is_exact(self) -> bool:
        return self.lo == self.hi


# Root isolation runs on integer coefficient tuples, ascending.  Each is a
# positive multiple of the rational polynomial of the textbook algorithm,
# so signs, Sturm counts, the Cauchy bound and the bisection points match.

def _trim(f) -> tuple[int, ...]:
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def _primitive(f) -> tuple[int, ...]:
    """f divided by the gcd of its coefficients, signs kept."""
    f = _trim(f)
    g = math.gcd(*f)
    return tuple(c // g for c in f) if g > 1 else f


def _derivative(f: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(k * c for k, c in enumerate(f))[1:]


def _pseudo_remainder(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Remainder of |lc(b)|^(deg a - deg b + 1) a on division by b.

    The factor is positive, so this is a positive multiple of a mod b.
    """
    r = list(a)
    m, lc = len(b) - 1, b[-1]
    scale, sign = abs(lc), (lc > 0) - (lc < 0)
    for k in range(len(r) - 1 - m, -1, -1):
        q = sign * r[k + m]
        # scale r by |lc| and cancel its top coefficient with q x^k b
        r = [scale * x for x in r[: k + m]]
        for i in range(m):
            r[k + i] -= q * b[i]
    return _trim(r)


def _exact_quotient(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a / b for integer polynomials where b divides a over the integers."""
    r = list(a)
    m = len(b) - 1
    q = [0] * max(0, len(r) - m)
    for k in range(len(q) - 1, -1, -1):
        q[k] = r[k + m] // b[-1]
        for i, c in enumerate(b):
            r[k + i] -= q[k] * c
    assert not any(r), "inexact polynomial division"
    return tuple(q)


def _gcd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Primitive gcd with a positive leading coefficient (primitive PRS)."""
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    a = _primitive(a)
    return a if a[-1] > 0 else tuple(-c for c in a)


def _squarefree_factors(f: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """Yun's algorithm: f = const * prod g_i^i, the g_i squarefree and coprime.

    Each listed g_i has degree >= 1, is primitive and leads positive.  b
    and c carry the same factor, so d = c - b' is that factor times Yun's d.
    """
    df = _derivative(f)
    a = _gcd(f, df)
    b, c = _exact_quotient(f, a), _exact_quotient(df, a)
    out = []
    i = 1
    while len(b) > 1:
        d = _trim(x - y for x, y in itertools.zip_longest(c, _derivative(b), fillvalue=0))
        g = _gcd(b, d)
        if len(g) > 1:
            out.append((g, i))
        b, c = _exact_quotient(b, g), _exact_quotient(d, g)
        i += 1
    return out


def _sign_at(ints: tuple[int, ...], num: int, den: int) -> int:
    """Sign of the polynomial at num/den (den > 0), in pure integer arithmetic."""
    acc = ints[-1]
    dpow = 1
    for c in reversed(ints[:-1]):
        dpow *= den
        acc = acc * num + c * dpow
    return (acc > 0) - (acc < 0)


def _sturm_chain(f: tuple[int, ...]) -> list[tuple[int, ...]]:
    """f, f' and the negated remainders, each a primitive positive multiple."""
    chain = [f, _primitive(_derivative(f))]
    while r := _primitive(_pseudo_remainder(chain[-2], chain[-1])):
        chain.append(tuple(-c for c in r))
    return chain


def _changes(signs) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _variations(chain: list[tuple[int, ...]], num: int, den: int) -> int:
    return _changes(_sign_at(q, num, den) for q in chain)


def _root_bound_exponent(f: tuple[int, ...]) -> int:
    """An e with every complex root of f below 2^e in modulus, from bit lengths.

    Fujiwara (1916): every root is below 2 max_k |c_(n-k) / c_n|^(1/k), n the
    degree.  Each ratio is below 2^(bits(c_(n-k)) - bits(c_n) + 1), so each
    term is below 2^(1 + ceil((bits(c_(n-k)) - bits(c_n) + 1) / k)).
    """
    top = abs(f[-1]).bit_length()
    return 1 + max(
        (-((top - 1 - abs(c).bit_length()) // k) for k, c in enumerate(reversed(f[:-1]), 1) if c),
        default=0,  # f = c x^n: every root is 0
    )


def _shift(x: int, y: int) -> int:
    """The least s >= 0 with x * 2^s >= y, for x > 0."""
    s = max(0, y.bit_length() - x.bit_length())
    return s if x << s >= y else s + 1


def _refine(
    f_ints: tuple[int, ...],
    lo: Fraction,
    hi: Fraction,
    width: Fraction | None = None,
    guess: float | None = None,
) -> tuple[Fraction, Fraction]:
    """The interval that halving [lo, hi] on f stops on, found without halving.

    One simple root lies in (lo, hi), and f is nonzero with opposite signs
    at the ends.  Halving keeps the cell holding the root on the dyadic
    grid lo + i (hi - lo) / 2^k, and stops at hi - lo <= width or, with no
    width, at hi - lo <= 2^-53 times the end nearer 0 (which an interval
    holding 0 meets only as a point); it returns a grid point that is a
    root as soon as it is a midpoint.  Here the stopping depth is computed,
    the cell at that depth is found by exact signs at its grid points, and
    its ancestors are walked back to the first one halving stops on.  The
    float `guess` of the root only orders the sign probes: the search starts
    at the grid point nearest it and gallops away by 1, 4, 16, ... until
    it passes the root, then halves the index range.  Any guess, or none
    (NaN, infinite or off [lo, hi] by over half a cell counts as none),
    gives the same cell.
    """
    den = math.lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)  # lo = a/den, and cell j of depth k
    W = hi.numerator * (den // hi.denominator) - a  # is [a 2^k + j W, a 2^k + (j+1) W] / (den 2^k)
    s_lo = _sign_at(f_ints, a, den)
    g = guess.as_integer_ratio() if guess is not None and math.isfinite(guess) else None

    def stops(k: int, j: int) -> bool:
        if width is None:
            x = (a << k) + j * W
            return W << 53 <= min(abs(x), abs(x + W))
        return W * width.denominator <= (width.numerator * den) << k

    def locate(k: int, j: int, depth: int) -> tuple[int, bool]:
        # the cell of `depth` inside cell j of depth k that holds the root,
        # or (i, True) when grid point i of `depth` is the root
        lo_i, hi_i = j << (depth - k), (j + 1) << (depth - k)
        t = None
        if g is not None:  # the grid index nearest the guess
            q = g[1] * W
            t = (((g[0] * den - a * g[1]) << (depth + 1)) + q) // (2 * q)
            t = t if lo_i <= t <= hi_i else None
        p, up, step = t, None, 1
        while hi_i - lo_i > 1:
            if p is None:
                p = (lo_i + hi_i) // 2
            if lo_i < p < hi_i:
                r = _sign_at(f_ints, (a << depth) + p * W, den << depth) * s_lo
                if r == 0:
                    return p, True
                if r > 0:
                    lo_i = p
                else:
                    hi_i = p
            else:  # at or past a known end: below the root at lo_i, above it at hi_i
                r = 1 if p <= lo_i else -1
            if t is not None and up in (None, r > 0):  # gallop on until the root is passed
                up = r > 0
                p, step = t + step if up else t - step, 4 * step
            else:
                t = p = None
        return lo_i, False

    if width is None:
        k = j = 0
        while True:
            # a cell clear of 0 bounds the end nearer 0 of every cell inside
            # it; once that end is at least the cell's width, it sets the
            # stopping depth to within one level
            x = (a << k) + j * W
            near = x if x > 0 else -x - W  # <= 0 when the cell reaches 0
            final = near >= W
            depth = k + (_shift(near, W << 53) if final else _shift(near, W) if near > 0 else 1)
            j, hit = locate(k, j, depth)
            k = depth
            if final or hit:
                break
    else:
        k = _shift(width.numerator * den, W * width.denominator)
        j, hit = locate(0, 0, k)
    if hit:
        top = k - (j & -j).bit_length()  # the deepest level holding the point inside a cell
        if top < 0 or not stops(top, j >> (k - top)):
            x = Fraction((a << k) + j * W, den << k)
            return x, x
        k, j = top, j >> (k - top)
    while k > 0 and stops(k - 1, j >> 1):
        k, j = k - 1, j >> 1
    x = (a << k) + j * W
    return Fraction(x, den << k), Fraction(x + W, den << k)


def _isolate_squarefree(
    f: tuple[int, ...], chain: list[tuple[int, ...]] | None = None
) -> tuple[list[tuple[Fraction, Fraction]], tuple[int, ...]]:
    """Disjoint isolating intervals (or exact points) for all real roots of f.

    f is primitive and squarefree, and `chain`, when given, is its
    ``_sturm_chain``.  Also returns the deflated factor whose
    simple roots the proper intervals isolate.  It has no root at their
    ends, which f may have: a rational root peeled off at a bisection
    midpoint can be the end of an interval of the deflated factor.  Every
    root is below 2^e in modulus, so a point at or beyond it is no root and
    has the Sturm count of +-infinity, read from the leading coefficients.
    """
    exact: list[Fraction] = []
    # peel off rational roots hit during bisection by deflation
    while True:
        if len(f) == 2:
            exact.append(Fraction(-f[0], f[1]))
            return [(r, r) for r in exact], ()
        if chain is None:
            chain = _sturm_chain(f)
        e = _root_bound_exponent(f)
        at_inf = {
            side: _changes((1 if q[-1] > 0 else -1) * side ** (len(q) - 1) for q in chain)
            for side in (1, -1)
        }

        def beyond(num: int, den: int) -> bool:  # |num/den| >= 2^e
            return abs(num) >= den << e if e >= 0 else abs(num) << -e >= den

        def v_at(num: int, den: int) -> int:
            if beyond(num, den):
                return at_inf[1 if num > 0 else -1]
            return _variations(chain, num, den)

        bound = 1 + Fraction(max(abs(c) for c in f[:-1]), abs(f[-1]))  # Cauchy
        hit = None
        intervals = []
        # an interval is (a, b) over the denominator bound.denominator << depth
        b0, d0 = bound.numerator, bound.denominator
        stack = [(-b0, b0, 0, v_at(-b0, d0), v_at(b0, d0))]
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
            if not beyond(mid, den) and _sign_at(f, mid, den) == 0:
                hit = Fraction(mid, den)
                break
            v_mid = v_at(mid, den)
            stack.append((2 * a, mid, depth, v_lo, v_mid))
            stack.append((mid, 2 * b, depth, v_mid, v_hi))
        if hit is None:
            return [(r, r) for r in exact] + intervals, f
        exact.append(hit)
        # f primitive and den * x - num primitive: the quotient is primitive
        f = _exact_quotient(f, (-hit.numerator, hit.denominator))
        chain = None


def _root_estimates(f: tuple[int, ...]) -> list[complex]:
    """Float estimates of the roots of f from np.roots; none when they overflow."""
    try:
        with np.errstate(all="ignore"):
            z = np.roots([float(c) for c in reversed(f)])
    except (OverflowError, np.linalg.LinAlgError):
        return []
    return [w for w in z.tolist() if cmath.isfinite(w)]


def _estimate_in(estimates: list[complex], lo: Fraction, hi: Fraction) -> float | None:
    """The real part of the estimate nearest the real axis among those over [lo, hi]."""
    ends = []
    for x in (lo, hi):
        try:
            ends.append(float(x))
        except OverflowError:
            ends.append(math.inf if x > 0 else -math.inf)
    inside = [w for w in estimates if ends[0] <= w.real <= ends[1]]
    return min(inside, key=lambda w: abs(w.imag)).real if inside else None


def real_roots(
    p: Polynomial,
    refine_to: Fraction | None = None,
    *,
    estimates: Sequence[complex] | None = None,
) -> list[RootInterval]:
    """Isolating intervals with exact multiplicities for all real roots of p.

    Intervals that meet are narrowed until disjoint, except proper ones of
    one factor that share an end: isolation peels off any root it hits at
    a bisection midpoint, so that end is no root.
    A float estimate in a wider interval than `refine_to`, from
    `estimates` or else ``np.roots``, orders its refinement's probes.
    """
    if p.is_zero():
        raise ValueError("zero polynomial has no well-defined roots")
    f = _primitive(clear_denominators(p.coeffs)[0])
    f = f if f[-1] > 0 else tuple(-c for c in f)
    chain = _sturm_chain(f) if len(f) > 1 else None
    if chain is not None and len(chain[-1]) == 1:
        # the chain ends in gcd(f, f') times a constant: f is squarefree
        factors = [(f, 1, chain)]
    else:
        factors = [(g, mult, None) for g, mult in _squarefree_factors(f)]
    found: list[tuple[Fraction, Fraction, int, tuple[int, ...]]] = []
    for factor, mult, chain in factors:
        intervals, f_ints = _isolate_squarefree(factor, chain)
        for lo, hi in intervals:
            found.append((lo, hi, mult, f_ints))
    # roots of coprime factors are distinct; shrink any overlapping intervals
    changed = True
    while changed:
        changed = False
        for i, j in itertools.combinations(range(len(found)), 2):
            lo1, hi1, m1, f1 = found[i]
            lo2, hi2, m2, f2 = found[j]
            if f1 == f2 and lo1 != hi1 and lo2 != hi2 and (hi1 == lo2 or hi2 == lo1):
                continue  # they only touch, at a bisection midpoint that is no root of f1
            if hi1 >= lo2 and hi2 >= lo1:
                if lo1 != hi1:
                    found[i] = (*_refine(f1, lo1, hi1, (hi1 - lo1) / 4), m1, f1)
                    changed = True
                if lo2 != hi2:
                    found[j] = (*_refine(f2, lo2, hi2, (hi2 - lo2) / 4), m2, f2)
                    changed = True
    out = []
    per_factor: dict[tuple[int, ...], list[complex]] = {}  # np.roots, when no estimates are given
    for lo, hi, mult, f_ints in found:
        if refine_to is not None and hi - lo > refine_to:
            if estimates is None and f_ints not in per_factor:
                per_factor[f_ints] = _root_estimates(f_ints)
            guess = _estimate_in(per_factor[f_ints] if estimates is None else estimates, lo, hi)
            lo, hi = _refine(f_ints, lo, hi, refine_to, guess)
        out.append(RootInterval(lo, hi, mult, f_ints))
    out.sort(key=lambda r: r.lo + r.hi)
    return out


def _pair_conjugates(
    values: Sequence[complex], roots: Sequence[RootInterval]
) -> tuple[list[complex], list[complex]]:
    """Snap the estimates nearest each exact real root; pair the rest conjugately.

    A root of multiplicity m takes its m nearest estimates.  The others
    number n minus the exact real count, which is even, so each finds a
    partner.  Returns the n values and the upper member of each pair, so
    that a pair whose estimates average onto the real axis still counts
    once, as a non-real eigenvalue.
    """
    out = list(values)
    free = set(range(len(values)))
    for r in roots:
        mid = float(r.midpoint())
        for _ in range(r.multiplicity):
            i = min(free, key=lambda i: (abs(values[i] - mid), i))
            free.remove(i)
            out[i] = complex(values[i].real)
    rest = sorted(free, key=lambda i: (abs(values[i].imag), i))
    uppers: list[complex] = []
    used = set()
    for i in rest:
        if i in used:
            continue
        j = min(
            (j for j in rest if j != i and j not in used),
            key=lambda j: abs(values[i] - values[j].conjugate()),
        )
        used.update((i, j))
        w = (values[i] + values[j].conjugate()) / 2
        if w.imag < 0:
            w = w.conjugate()
        out[i], out[j] = w, w.conjugate()
        uppers.append(w)
    return out, uppers


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


def _classify_smallest(rroots: Sequence[RootInterval], pairs: Sequence[complex]) -> SmallestEigen:
    """The least-modulus eigenvalue; a conjugate pair enters once, as its upper member."""
    entities = [(abs(float(r.midpoint())), r) for r in rroots] + [(abs(z), z) for z in pairs]
    entities.sort(key=lambda t: t[0])
    m1, payload = entities[0]
    margin = float("inf")
    if len(entities) > 1:
        m2 = entities[1][0]
        margin = (m2 - m1) / m2 if m2 > 0 else 0.0
    ambiguous = margin < MODULUS_MARGIN_RTOL
    if isinstance(payload, RootInterval):
        return SmallestEigen(
            estimate=complex(float(payload.midpoint())),
            is_real=True,
            is_simple=payload.multiplicity == 1,
            multiplicity=payload.multiplicity,
            interval=payload,
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
    """One instance's Faddeev-LeVerrier pass on A and what is read from it."""

    values: tuple[complex, ...]
    char_poly: Polynomial
    faddeev: tuple[list[int], list[list[list[int]]], int]  # (c, Ns, d) of the pass on A
    roots: tuple[RootInterval, ...]
    smallest: SmallestEigen


def full_spectrum_numeric(A: ExactMatrix) -> SpectrumEstimate:
    """All n eigenvalue estimates, from LAPACK on A's float rows.

    One ``np.linalg.eigvals`` call proposes the values; the exact root
    isolation decides how many are real and near which roots they lie, and
    the others are forced into exact conjugate pairs.  The estimates also
    order the isolation's refinement probes; they decide no interval and
    no verdict.  The result also holds
    one Faddeev-LeVerrier pass on A with the polynomial read from it, the
    isolated real roots and the classified minimum-modulus eigenvalue.
    """
    c, _, d = faddeev = faddeev_leverrier(A)
    p = _char_poly(c, d)
    estimates = [complex(z) for z in np.linalg.eigvals(np.array(A.to_float_rows(), dtype=float))]
    roots = tuple(real_roots(p, refine_to=ISOLATION_WIDTH, estimates=estimates))
    values, pairs = _pair_conjugates(estimates, roots)
    values.sort(key=lambda z: (z.real, z.imag))
    return SpectrumEstimate(tuple(values), p, faddeev, roots, _classify_smallest(roots, pairs))


@dataclass(frozen=True)
class SpectralSummary:
    char_poly: Polynomial
    adjoint: AdjointCheck
    smallest: SmallestEigen
    eigenvector_unit: tuple[float, ...] | None
    eigenvector_last1: tuple[float, ...] | None
    signed_ok: bool | None
    signing: SigningVerdict | None
    full_spectrum: tuple[complex, ...]
    residual_inf: float | None
    route: str


def _adjugate_column(
    faddeev: tuple[list[int], list[list[list[int]]], int], mu: Fraction
) -> list[int] | None:
    """The column of adj(mu I - A) with the largest entry, in integers, or None when it is 0.

    With A = B/d and d mu = P/Q in lowest terms, the pass gives
    adj(xI - B) = sum_k x^(n-1-k) N_k, so M = sum_k P^(n-1-k) Q^k N_k
    is (dQ)^(n-1) adj(mu I - A), a positive multiple.  The column read is
    the first one holding an entry of largest modulus.  At mu = lambda
    every column of M is in the kernel of A - lambda I, and M = 0 exactly
    when that kernel has dimension >= 2.
    """
    _, Ns, d = faddeev
    n = len(Ns)
    t = d * Fraction(mu)
    P, Q = t.numerator, t.denominator
    M = [0] * (n * n)
    for k, N in enumerate(Ns):  # Horner in P, N_k weighted by Q^k
        q = Q**k
        M = [P * m + q * x for m, x in zip(M, itertools.chain.from_iterable(N))]
    top = max(range(n * n), key=lambda i: abs(M[i]))
    return M[top % n :: n] if M[top] else None


def _normalizations(
    v: np.ndarray, x: list[int]
) -> tuple[tuple[float, ...], tuple[float, ...] | None]:
    """v at unit norm with its first nonzero entry positive, and x / x[-1].

    The second is None when x[-1] = 0 or a ratio is beyond the float range.
    Both are display values: a nonzero entry too small beside the largest
    for a double (a ratio of 2e-400, say) shows as 0.0 in the first, while
    the signing verdict reads its signs from the integers x.
    """
    unit = v / float(np.linalg.norm(v))
    lead = next((t for t in unit if t != 0), 1.0)
    if lead < 0:
        unit = 0.0 - unit  # a zero entry stays +0.0
    try:
        last1 = tuple(t / x[-1] if t else 0.0 for t in x) if x[-1] else None
    except OverflowError:
        last1 = None
    return tuple(float(t) for t in unit), last1


def smallest_eig_vector(A: ExactMatrix, tree: LabelledTree) -> SpectralSummary:
    """Eigenvector of the smallest eigenvalue, with its tree-signing verdict.

    Every route reads one integer column of adj(mu I - A) from the pass on
    A (`_adjugate_column`), with no right-hand side and no solve.  mu is
    the end nearer 0 of lambda's interval, bisected on the square-free
    factor of p that holds lambda to within 2^-53 |mu| whatever the scale
    of A.  A rational lambda is k/d with k an integer root of det(xI - B),
    A = B/d, and mu lands on it exactly: the column is then the
    eigenvector itself, and an entry that is 0 reads 0.  The column is
    signed exactly and rounded only for display.  The routes differ only
    in where lambda's interval comes from.  When the adjugate check holds,
    lambda is the Perron-Frobenius root det A / rho, its interval is cut
    at 0, and mu = 0 when det A = 0: S adj(mu I - A) S then has entries
    of one strict sign, so every column is tree-signed.  Otherwise
    ``inverse-iteration`` takes the smallest real eigenvalue's interval.
    Reports no vector (route ``"none"``) when that eigenvalue is not real,
    and when mu = lambda with an eigenspace of dimension >= 2.  The float
    vectors only display the column: a nonzero entry too small beside the
    largest for a double shows as 0.0 in ``eigenvector_unit``
    (`_normalizations`), while ``signing`` reads the integers.
    """
    if A.n != tree.n:
        raise ValueError(f"matrix is {A.n}x{A.n} but tree has {tree.n} vertices")
    spectrum = full_spectrum_numeric(A)
    p, smallest, roots = spectrum.char_poly, spectrum.smallest, spectrum.roots
    c, Ns, d = spectrum.faddeev
    if not any(map(any, Ns[-1])):  # adj(A) = (-1)^(n+1) N_(n-1) / d^(n-1)
        raise ArithmeticError("adjugate is identically zero: rank < n-1")
    check = adjugate_sign_check(adjugate_from_pass(Ns, d), tree)

    route, interval = "none", None
    if check.ok:
        det_a = (-1) ** A.n * c[0]  # det(B) = (-1)^n c[0], B = dA: det A's sign
        route, interval = "adjugate-column", RootInterval(0, 0, 1)
        if det_a > 0:
            r = next(r for r in roots if r.hi > 0)
            route, interval = "adjugate-perron", replace(r, lo=max(r.lo, 0))
        elif det_a < 0:
            r = next(r for r in reversed(roots) if r.lo < 0)
            route, interval = "adjugate-perron", replace(r, hi=min(r.hi, 0))
    elif smallest.is_real and not smallest.ambiguous:
        route, interval = "inverse-iteration", smallest.interval

    residual = unit = last1 = signing = column = None
    if interval is not None:
        lo, hi = interval.lo, interval.hi
        if lo != hi:
            # no guess: the interval's own midpoint is the float at hand, and
            # galloping from it takes more probes than the plain index search
            lo, hi = _refine(interval.factor, lo, hi)
        mu = lo if lo >= 0 else hi
        # det(xI - B) is monic over the integers, so a rational lambda is k/d
        k = round(d * mu)
        if lo <= Fraction(k, d) <= hi and _sign_at(c, k, 1) == 0:
            mu = Fraction(k, d)
        column = _adjugate_column(spectrum.faddeev, mu)
    if column is None:
        route = "none"
    else:
        scale = max(map(abs, column))
        vector = np.array([x / scale for x in column])
        a_float = np.array(A.to_float_rows(), dtype=float)
        residual = float(np.abs(a_float @ vector - float(mu) * vector).max())
        unit, last1 = _normalizations(vector, column)
        signing = is_signed_according_to(column, tree)
    return SpectralSummary(
        char_poly=p,
        adjoint=check,
        smallest=smallest,
        eigenvector_unit=unit,
        eigenvector_last1=last1,
        signed_ok=None if signing is None else signing.ok,
        signing=signing,
        full_spectrum=spectrum.values,
        residual_inf=residual,
        route=route,
    )
