"""The generator's screening objective: one minor plan, evaluated exactly.

``minor_plan`` is ``positivity.hypothesis_plan`` flat: every minor the
hypothesis needs strictly positive, once per path or block that needs it.
``hypothesis_violations`` counts its non-positive minors in Python
integers: the full recount that the tests hold repair's count against.

Greedy repair drives that count to zero, updated per proposal, not
recounted.  ``repair_plan`` compiles the plan into a table with one
entry per minor value, each bound once to its evaluator (a closed form
up to 5x5, so repair neither dispatches on size nor runs Bareiss), the
number of plan minors each stands for and, per matrix entry, one term
for each table minor that holds it.  Plan minors with the same row set,
column set and sign of the two orderings share an entry, since
det A[sR; tC] = sgn s * sgn t * det A[R; C] for permutations s and t; a
symmetric repair keeps the matrix symmetric, so there a minor also
shares its transpose's entry, and transposes fold only then.
``repair_start`` keeps the exact value of every table minor, and
``repair_chunk`` reads each touched minor's new value from that table
as its old value plus the change times the entry's signed cofactor: a
table value, times the sign between the two, when the cofactor equals a
table minor up to reordering, else one closed form a size smaller (a
symmetric proposal evaluates a minor that holds both changed entries
whole).  The failing minors go first, then the passing ones, rejecting
exactly as soon as the weighted count would rise.  A proposal is kept
iff the count does not rise, the same rule as a full recount.

Rejection sampling takes the first candidate of a batch with no
violation (``screen_batch_vectorized``).  The screen evaluates each
minor in int64 numpy arithmetic over the whole batch at once, but only
on the candidates that passed every minor before it, and only when
``int64_screen_safe`` proves that minors of its size fit; the few
survivors are checked against the remaining minors in Python integers.
``conjecture_lab`` hands it the distinct minors smallest first, so most
candidates drop out at the cheap 2x2 minors.  Every candidate either
mode proposes is re-checked by ``positivity`` before it is reported.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .exact_linalg import minor_evaluator, minor_value
from .positivity import hypothesis_plan
from .tree_model import LabelledTree

INT64_GUARD = 2**63
_INT64_FORMS = 5  # minor_value runs on int64 stacks through its 5x5 closed form

# ordered, 0-based (rows, cols) index tuples
Minor = tuple[tuple[int, ...], tuple[int, ...]]


def int64_screen_safe(max_minor_size: int, hi: int) -> bool:
    """True when every minor of at most this size provably fits in int64.

    Minors of a k-by-k block with entries in [-hi, hi] are bounded by the
    permanent of the all-hi block, k! * hi^k.  So is every intermediate
    value of the closed forms ``_det1``..``_det5`` that ``minor_value``
    runs on int64 stacks: each product, 2x2 minor, 3x3 minor of ``_det5``'s
    rows 2-4 and partial sum of the Laplace expansions of ``_det4`` and
    ``_det5`` is bounded by the permanent of the terms it expands to.
    """
    k = max(1, int(max_minor_size))
    return math.factorial(k) * (int(hi) ** k) < INT64_GUARD


def minor_plan(tree: LabelledTree, augmented: bool) -> tuple[Minor, ...]:
    """``positivity.hypothesis_plan`` as one flat tuple, in check order."""
    paths, pendants = hypothesis_plan(tree, augmented)
    return tuple(m for _, minors in paths + pendants for m in minors)


def hypothesis_violations(a: list[list[int]], plan: tuple[Minor, ...]) -> int:
    """Number of plan minors of `a` that are not strictly positive."""
    return sum(minor_value(a, rows, cols) <= 0 for rows, cols in plan)


# how a proposal reads the new value of one minor it touches: (m, s, c, f)
Term = tuple[int, int, int, Callable[[list[list[int]]], int] | None]


@dataclass(frozen=True)
class RepairPlan:
    """A minor plan compiled for incremental repair.

    ``minors`` hold one plan minor per minor value, the first the plan
    lists, in first-seen order; ``evaluators`` are the ``minor_evaluator``
    of each, bound once per plan (closed forms through 5x5, Bareiss only
    from 6x6 up), and ``weights`` the number of plan minors each stands
    for, so a weighted count of the failing ones equals
    ``hypothesis_violations``.  A plan minor stands for another when the
    two have the same row set, column set and sign of the two orderings
    (``_fold_key``), so their values are equal on every matrix; with
    ``symmetric`` also when one is the other's transpose, as a symmetric
    repair only holds symmetric matrices.  Transposes do not fold
    otherwise.

    ``cells[i * n + j]`` serves a proposal that changes entry (i, j) by d,
    and (j, i) by the same d when ``symmetric``.  It maps each minor m the
    proposal touches to its term (m, s, c, f), which reads the new value of
    m from its value x in the repair's value table ``values``:

    - cached (f None): x + s*d*values[c], the signed cofactor of the entry
      being +-minor c of the table, up to reordering, or, for a 1x1 minor,
      the empty minor that the table keeps last;
    - cofactor (s = +-1): x + s*d*f(a), f the evaluator of the cofactor's
      index sets, sorted (s carries the sign of the sort);
    - direct (s = 0): f(a), the whole minor on the changed matrix, for a
      symmetric proposal whose minor holds both changed entries.

    A minor is affine in any one entry, with the signed cofactor as slope;
    the cofactor holds neither changed entry unless the term is direct, so
    it is read from the matrix or the table as they were.  Terms come
    cheapest first: cached, then by the size of the minor they evaluate.
    """

    minors: tuple[Minor, ...]
    evaluators: tuple[Callable[[list[list[int]]], int], ...] = field(repr=False, compare=False)
    weights: tuple[int, ...]
    cells: tuple[dict[int, Term], ...] = field(repr=False, compare=False)
    symmetric: bool


def _fold_key(rows, cols, symmetric: bool) -> tuple[Minor, int]:
    """(sets, sign) with det A[rows; cols] = sign * det A[sets].

    `sets` are the sorted rows and the sorted cols, and `sign` the product
    of the parities of the two sorts.  With `symmetric` the pair is also
    put in order, since det A[C; R] = det A[R; C] when A is symmetric.
    """
    sets = tuple(sorted(rows)), tuple(sorted(cols))
    if symmetric and sets[1] < sets[0]:
        sets = sets[::-1]
    inversions = sum(x > y for seq in (rows, cols) for k, x in enumerate(seq) for y in seq[k + 1 :])
    return sets, -1 if inversions & 1 else 1


def repair_plan(plan: tuple[Minor, ...], n: int, symmetric: bool) -> RepairPlan:
    """Compile `plan` for single-entry proposals on an n-by-n matrix.

    With `symmetric` a proposal changes an entry and its mirror, and the
    matrix it runs on must be symmetric.
    """
    first = {}  # per fold key, its first-seen plan minor
    weight = Counter()
    for m in plan:
        key = _fold_key(*m, symmetric)
        first.setdefault(key, m)
        weight[key] += 1
    minors = tuple(first.values())
    whole = tuple(minor_evaluator(rows, cols) for rows, cols in minors)
    # per set pair, (t, sign) with det A[sets] = sign * values[t]
    index = {}
    for t, (sets, sign) in enumerate(first):
        index.setdefault(sets, (t, sign))
    index[(), ()] = (len(minors), 1)  # the empty minor, kept last in the value table
    cofactors = {}  # per set pair, the evaluator of a cofactor that is not in the table
    largest = max(len(rows) for rows, _ in minors)
    # per cell, the terms bucketed by the size of the minor they evaluate
    cells = [[[] for _ in range(largest + 1)] for _ in range(n * n)]
    for m, (rows, cols) in enumerate(minors):
        k = len(rows)
        rows_wo = [rows[:p] + rows[p + 1 :] for p in range(k)]
        cols_wo = rows_wo if cols == rows else [cols[:q] + cols[q + 1 :] for q in range(k)]
        for p, i in enumerate(rows):
            for q, j in enumerate(cols):
                if symmetric and i != j and j in rows and i in cols:
                    cells[i * n + j][k].append((m, 0, 0, whole[m]))
                    continue
                sets, sign = _fold_key(rows_wo[p], cols_wo[q], symmetric)
                s = -sign if (p + q) & 1 else sign
                hit = index.get(sets)
                if hit is not None:
                    c, table_sign = hit
                    cost, term = 0, (m, s * table_sign, c, None)
                else:
                    f = cofactors.get(sets)
                    if f is None:
                        f = cofactors[sets] = minor_evaluator(*sets)
                    cost, term = k - 1, (m, s, 0, f)
                cells[i * n + j][cost].append(term)
                if symmetric and i != j:
                    cells[j * n + i][cost].append(term)
    return RepairPlan(
        minors=minors,
        evaluators=whole,
        weights=tuple(weight[key] for key in first),
        cells=tuple({term[0]: term for bucket in buckets for term in bucket} for buckets in cells),
        symmetric=symmetric,
    )


def repair_start(a: list[list[int]], rplan: RepairPlan) -> tuple[int, list[int]]:
    """(violation count, value table) of a start matrix.

    The table holds the exact value of each of ``rplan.minors``, one per
    minor value of the plan, then the empty minor's value 1.  The count is
    the weight of the non-positive ones, which equals
    ``hypothesis_violations(a, plan)``.
    """
    values = [evaluate(a) for evaluate in rplan.evaluators]
    count = sum(w for w, x in zip(rplan.weights, values) if x <= 0)
    values.append(1)
    return count, values


def repair_chunk(
    a, pos_i, pos_j, vals, rplan: RepairPlan, values: list[int], current: int
) -> tuple[int, int]:
    """Greedy single-entry mutations of `a` and its value table, in place.

    Proposal t sets a[pos_i[t]][pos_j[t]] (and its mirror when the plan is
    symmetric) to vals[t], and is kept unless it raises the violation
    count.  Each minor it touches gets its new value from its term in
    ``rplan.cells``: the failing ones first, since only they can lower the
    count, then the passing ones, rejecting as soon as the count would
    rise.  A kept proposal writes every new value back, so `values` stays
    exact.  Stops once the count reaches zero; returns (count, proposals
    used).
    """
    weights, cells, symmetric = rplan.weights, rplan.cells, rplan.symmetric
    if current == 0:
        return current, 0
    n = len(a)
    new = values[:]  # the new values of a proposal's minors, by minor
    failing = [m for m, x in enumerate(values) if x <= 0]  # redone when one flips
    for t, (i, j, v) in enumerate(zip(pos_i.tolist(), pos_j.tolist(), vals.tolist()), 1):
        row = a[i]
        old = row[j]
        d = v - old
        if not d:
            continue  # an unchanged matrix keeps its count, so it is kept
        row[j] = v
        if symmetric:
            a[j][i] = v
        terms = cells[i * n + j]
        delta = 0
        flipped = False
        for m in failing:
            term = terms.get(m)
            if term is not None:
                _, s, c, f = term
                x = values[m]
                if f is None:
                    y = x + s * d * values[c]
                elif s:
                    y = x + s * d * f(a)
                else:
                    y = f(a)
                new[m] = y
                if y > 0:
                    delta -= weights[m]
                    flipped = True
        for m, s, c, f in terms.values():
            x = values[m]
            if x > 0:
                if f is None:
                    y = x + s * d * values[c]
                elif s:
                    y = x + s * d * f(a)
                else:
                    y = f(a)
                new[m] = y
                if y <= 0:
                    delta += weights[m]
                    if delta > 0:
                        break
                    flipped = True
        if delta > 0:
            row[j] = old
            if symmetric:
                a[j][i] = old
            continue
        for m in terms:
            values[m] = new[m]
        if flipped:
            current += delta
            if current == 0:
                return current, t
            failing = [m for m, x in enumerate(values) if x <= 0]
    return current, len(vals)


def screen_batch_vectorized(batch: np.ndarray, minors: tuple[Minor, ...], hi: int) -> int:
    """Index of the first matrix in the (B, n, n) batch with no violation, or -1.

    `minors` are the plan's distinct minors, in any order; the index does
    not depend on it.  With entries in [-hi, hi], each minor of size k <= 5
    for which ``int64_screen_safe(k, hi)`` holds is evaluated in int64 over
    the candidates that passed every such minor before it, and the batch is
    compacted to the ones it leaves positive, returning -1 once none is
    left.  Only the survivors of that pass are checked, in batch order and
    in Python integers, against the minors it skipped.
    """
    fits = {k: k <= _INT64_FORMS and int64_screen_safe(k, hi) for k in {len(r) for r, _ in minors}}
    index = np.arange(batch.shape[0])
    rest = []
    for rows, cols in minors:
        if not fits[len(rows)]:
            rest.append((rows, cols))
            continue
        keep = np.flatnonzero(minor_value(batch.transpose(1, 2, 0), rows, cols) > 0)
        if keep.size < index.size:
            if keep.size == 0:
                return -1
            index = index.take(keep)
            batch = batch.take(keep, axis=0)
    for t, a in zip(index.tolist(), batch.tolist()):
        if all(minor_value(a, rows, cols) > 0 for rows, cols in rest):
            return t
    return -1
