"""Independent checks of treetp's verdict chain, run outside the timed region.

``check`` takes the JSON digest of one instance (``run.digest``: the
input and everything treetp reported about it), recomputes each part
apart from treetp and returns the list of disagreements:

* the hypothesis verdict, from an all-minors check of every maximal-path
  block and all principal minors of every pendant-deleted block, with a
  cofactor-expansion integer determinant of our own;
* the adjugate, through ``A * adj(A) == adj(A) * A == det(A) * I`` in
  integers, and its sign verdict against the tree signing;
* the characteristic polynomial, against sympy's ``charpoly``;
* the smallest eigenvalue (realness, simplicity, isolating interval and
  estimate) and the signs of its eigenvector, against mpmath at 60 digits;
* symmetry and a real smallest eigenvalue where the generator promised a
  symmetric matrix, and no counterexample where the theorem applies.

Numeric comparisons that mpmath cannot decide (two eigenvalues of equal
modulus, an eigenvector component within 1e-30 of zero) are skipped and
counted as undecided, never as agreement or failure.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

import mpmath
import numpy as np
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

DPS = 60
_ZERO = mpmath.mpf(10) ** -40  # |Im| below this (relative) is a real root
_TIE = mpmath.mpf(10) ** -30   # moduli or components closer than this are undecided


# --- exact integer parts ---------------------------------------------------

def det_int(m: list[list[int]]) -> int:
    """Cofactor expansion along the first row."""
    k = len(m)
    if k == 1:
        return m[0][0]
    if k == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j, a in enumerate(m[0]):
        if a:
            sub = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-a if j & 1 else a) * det_int(sub)
    return total


def _ints(rows: list[list[str]]) -> list[list[int]] | None:
    out = []
    for row in rows:
        vals = [Fraction(x) for x in row]
        if any(v.denominator != 1 for v in vals):
            return None
        out.append([int(v) for v in vals])
    return out


def _neighbors(n: int, edges) -> dict[int, list[int]]:
    nb = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        nb[u].append(v)
        nb[v].append(u)
    return nb


def leaf_paths(n: int, edges) -> list[list[int]]:
    """Vertices of the path between every pair of leaves."""
    nb = _neighbors(n, edges)
    leaves = [v for v in nb if len(nb[v]) == 1]
    paths = []
    for a, b in itertools.combinations(leaves, 2):
        parent = {a: None}
        queue = [a]
        for u in queue:
            for w in nb[u]:
                if w not in parent:
                    parent[w] = u
                    queue.append(w)
        path = [b]
        while path[-1] != a:
            path.append(parent[path[-1]])
        paths.append(path)
    return paths


def signing(n: int, edges) -> list[int]:
    """+1 at vertex 1, opposite signs across every edge."""
    nb = _neighbors(n, edges)
    s = {1: 1}
    queue = [1]
    for u in queue:
        for w in nb[u]:
            if w not in s:
                s[w] = -s[u]
                queue.append(w)
    return [s[v] for v in range(1, n + 1)]


def all_minors_positive(a: list[list[int]], idx: list[int]) -> bool:
    """All minors of the block on `idx`, rows and columns kept in that order."""
    k = len(idx)
    for size in range(1, k + 1):
        for rows in itertools.combinations(idx, size):
            for cols in itertools.combinations(idx, size):
                if det_int([[a[r - 1][c - 1] for c in cols] for r in rows]) <= 0:
                    return False
    return True


def principal_minors_positive(a: list[list[int]], idx: list[int]) -> bool:
    for size in range(1, len(idx) + 1):
        for sel in itertools.combinations(idx, size):
            if det_int([[a[r - 1][c - 1] for c in sel] for r in sel]) <= 0:
                return False
    return True


# --- numeric parts at 60 digits -------------------------------------------

def _newton(coeffs: list[int], z):
    """Polish one root to DPS digits; None when it does not settle."""
    tol = mpmath.mpf(10) ** -(DPS - 5)
    for _ in range(60):
        p, dp = mpmath.polyval(coeffs, z, derivative=True)
        if dp == 0:
            return None
        step = p / dp
        z -= step
        if abs(step) <= tol * max(1, abs(z)):
            return z
    return None


def _small_roots(coeffs: list[int]) -> list:
    """The roots of least modulus of an integer polynomial (descending
    coefficients), at DPS digits.

    Double-precision roots pick the candidates: every root whose modulus is
    within 1e-6 of the least.  Each is polished by Newton's method; a real
    start is tried in real arithmetic first.  If any fails to settle, all
    roots come from mpmath.polyroots instead.
    """
    with mpmath.workdps(DPS):
        approx = np.roots([float(c) for c in coeffs])
        least = min(abs(approx))
        roots = []
        for z in approx:
            if abs(z) > least * (1 + 1e-6):
                continue
            w = None
            if abs(z.imag) <= 1e-7 * abs(z):
                w = _newton(coeffs, mpmath.mpf(z.real))
            if w is None:
                w = _newton(coeffs, mpmath.mpc(complex(z)))
            if w is None:
                return list(mpmath.polyroots(coeffs, maxsteps=500, extraprec=4 * DPS))
            roots.append(mpmath.mpc(w))
        return roots


def _smallest(roots):
    """(root, is_real, multiplicity) of the minimum-modulus eigenvalue, or None on a tie."""
    order = sorted(roots, key=abs)
    z = order[0]
    is_real = abs(z.imag) <= _ZERO * max(1, abs(z))
    same = [w for w in order if abs(abs(w) - abs(z)) <= _TIE * max(1, abs(z))]
    close = [w for w in same if abs(w - z) <= _TIE * max(1, abs(z))]
    conj = [w for w in same if abs(w - mpmath.conj(z)) <= _TIE * max(1, abs(z))]
    expected = len(close) if is_real else len(close) + len(conj)
    if len(same) != expected:
        return None
    return z, is_real, len(close)


def _solve(m: list[list], b: list) -> list | None:
    """Gaussian elimination with partial pivoting; None when singular."""
    n = len(m)
    m = [[mpmath.mpf(x) for x in row] + [mpmath.mpf(b[i])] for i, row in enumerate(m)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(m[r][col]))
        if m[piv][col] == 0:
            return None
        m[col], m[piv] = m[piv], m[col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    x = [0] * n
    for r in range(n - 1, -1, -1):
        x[r] = (m[r][n] - sum(m[r][c] * x[c] for c in range(r + 1, n))) / m[r][r]
    return x


def _eigvec(a, lam):
    """Null vector of A - lam*I, scaled to unit max-norm, or None."""
    n = len(a)
    # nudge the shift off lam: at DPS digits A - lam*I can be exactly singular
    mu = lam + mpmath.mpf(10) ** -(DPS - 10) * max(1, abs(lam))
    shifted = [[a[i][j] - (mu if i == j else 0) for j in range(n)] for i in range(n)]
    for b in [[1] * n] + [[int(i == k) for i in range(n)] for k in range(n)]:
        x = _solve(shifted, b)
        if x is None:
            continue
        big = max(abs(t) for t in x)
        if big == 0:
            continue
        v = [t / big for t in x]
        res = max(abs(sum(a[i][j] * v[j] for j in range(n)) - lam * v[i]) for i in range(n))
        if res <= mpmath.mpf(10) ** -(DPS // 2):
            return v
    return None


# --- the check ---------------------------------------------------------------

def check(d: dict) -> tuple[list[str], int]:
    """(disagreements, undecided comparisons) for one digested instance."""
    errors: list[str] = []
    undecided = 0
    n, edges = d["n"], d["edges"]
    a = _ints(d["A"])
    if a is None:
        return ["matrix is not integer"], 0

    # hypothesis
    t_tp = all(all_minors_positive(a, p) for p in leaf_paths(n, edges))
    pendant = {}
    if d["augmented"]:
        nb = _neighbors(n, edges)
        for p in (v for v in nb if len(nb[v]) == 1):
            pendant[p] = principal_minors_positive(a, [v for v in range(1, n + 1) if v != p])
    holds = t_tp and all(pendant.values())
    if d["t_tp"] != t_tp:
        errors.append(f"T-TP verdict {d['t_tp']}, all-minors check {t_tp}")
    if {v: ok for v, ok in d["pendant"]} != pendant:
        errors.append(f"pendant P-matrix verdicts {d['pendant']}, all-minors check {pendant}")
    if d["holds"] != holds:
        errors.append(f"hypothesis verdict {d['holds']}, all-minors check {holds}")

    # adjugate
    adj = _ints(d["adj"])
    det_a = det_int(a)
    if adj is None:
        errors.append("adjugate is not integer")
    else:
        ident = [[det_a if i == j else 0 for j in range(n)] for i in range(n)]
        left = [[sum(a[i][k] * adj[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        right = [[sum(adj[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        if left != ident or right != ident:
            errors.append("A*adj(A) != det(A)*I")
        s = signing(n, edges)
        mism = [[i + 1, j + 1] for i in range(n) for j in range(n)
                if (adj[i][j] > 0) - (adj[i][j] < 0) != s[i] * s[j]]
        if mism != d["mismatches"] or d["adj_ok"] != (not mism):
            errors.append(f"adjugate sign mismatches {d['mismatches']}, recomputed {mism}")

    # characteristic polynomial
    cp = [int(c) for c in DomainMatrix([[ZZ(x) for x in row] for row in a], (n, n), ZZ).charpoly()]
    if [Fraction(c) for c in reversed(d["char_poly"])] != cp:
        errors.append(f"characteristic polynomial {d['char_poly']}, sympy {cp[::-1]}")

    # smallest eigenvalue and eigenvector
    is_real = simple = signed = None
    with mpmath.workdps(DPS):
        found = _smallest(_small_roots(cp))
        if found is None:
            undecided += 1
        else:
            lam, is_real, mult = found
            simple = mult == 1
            if d["is_real"] != is_real:
                errors.append(f"is_real {d['is_real']}, mpmath {is_real}")
            elif is_real:
                if d["is_simple"] != simple:
                    errors.append(f"is_simple {d['is_simple']}, mpmath multiplicity {mult}")
                lo, hi = (Fraction(x) for x in d["interval"])
                tol = _ZERO * max(1, abs(lam))
                lo_mp = mpmath.mpf(lo.numerator) / lo.denominator
                hi_mp = mpmath.mpf(hi.numerator) / hi.denominator
                if not lo_mp - tol <= lam.real <= hi_mp + tol:
                    errors.append(f"interval [{lo}, {hi}] misses mpmath root {mpmath.nstr(lam.real, 20)}")
            est, ref = complex(*d["estimate"]), complex(lam)
            if min(abs(est - ref), abs(est - ref.conjugate())) > 1e-6 * max(1.0, abs(ref)):
                errors.append(f"estimate {est}, mpmath {mpmath.nstr(lam, 15)}")
            if is_real and simple:
                v = _eigvec(a, lam.real)
                if v is None:
                    undecided += 1
                else:
                    if all(abs(t) > _TIE for t in v):
                        signed = all((v[p - 1] > 0) != (v[q - 1] > 0) for p, q in edges)
                    else:
                        undecided += 1
                    if d["vector"] is not None:
                        both = [(t > 0, x > 0) for t, x in zip(v, d["vector"]) if abs(t) > _TIE and x != 0]
                        if len({p == q for p, q in both}) > 1:
                            errors.append(f"eigenvector signs {d['vector']}, mpmath "
                                          f"{[mpmath.nstr(t, 6) for t in v]}")
                        if signed is not None and d["signed"] != signed:
                            errors.append(f"signing verdict {d['signed']}, mpmath {signed}")

    if d["symmetric"]:
        if any(a[i][j] != a[j][i] for i in range(n) for j in range(n)):
            errors.append("symmetric candidate is not symmetric")
        if is_real is not True:
            errors.append("symmetric candidate has no real smallest eigenvalue")
    if None not in (is_real, simple):
        if signed is None:
            signed = d["signed"]
        counterexample = holds and not (d["adj_ok"] and is_real and simple and signed is True)
        if d["counterexample"] != counterexample:
            errors.append(f"counterexample verdict {d['counterexample']}, recomputed {counterexample}")
    if d["theorem"] and d["counterexample"]:
        errors.append("counterexample where the theorem applies")
    return errors, undecided
