"""The generator's screening objective: one minor plan, evaluated exactly.

``minor_plan`` is ``positivity.hypothesis_plan`` flat: every minor the
hypothesis needs strictly positive, once per path or block that needs it.
``hypothesis_violations`` counts its non-positive minors in Python
integers, which never overflow, so one code path serves every entry range.

Greedy repair drives that count to zero.  ``repair_plan`` compiles the
plan into its distinct minors, each bound once to its evaluator (a
closed form up to 5x5, so the repair loop neither dispatches on size nor
runs Bareiss), their multiplicities and, per entry, the minors that
contain it; ``repair_start`` keeps one failing bit per distinct minor, and
``repair_chunk`` re-evaluates only the minors a proposal touches: the
failing ones first, then the passing ones, rejecting exactly as soon as
the weighted count would rise.  A proposal is kept iff the
count does not rise, the same rule as a full recount.  Rejection
sampling takes the first candidate of a batch with no violation
(``screen_batch_vectorized``).  The screen evaluates each minor in int64
numpy arithmetic over the whole batch at once, but only on the candidates
that passed every minor before it, and only when ``int64_screen_safe``
proves that minors of its size fit; the few survivors are checked against
the remaining minors in Python integers.  ``conjecture_lab`` hands it the
distinct minors smallest first, so most candidates drop out at the cheap
2x2 minors.  Every candidate either mode accepts is re-checked by
``positivity`` before it is reported.
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


@dataclass(frozen=True)
class RepairPlan:
    """A minor plan compiled for incremental repair.

    ``minors`` are the distinct minors of the plan in first-seen order,
    ``evaluators`` the ``minor_evaluator`` of each, bound once per plan
    (closed forms through 5x5, Bareiss only from 6x6 up), and ``weights``
    how often the plan lists each, so a weighted count of the failing ones
    equals ``hypothesis_violations``.  ``touched[i][j]`` holds the ids of
    the minors that contain entry (i, j), and also those that contain
    (j, i) when proposals are ``symmetric``.
    """

    minors: tuple[Minor, ...]
    evaluators: tuple[Callable[[list[list[int]]], int], ...] = field(repr=False, compare=False)
    weights: tuple[int, ...]
    touched: tuple[tuple[tuple[int, ...], ...], ...]
    symmetric: bool


def repair_plan(plan: tuple[Minor, ...], n: int, symmetric: bool) -> RepairPlan:
    """Compile `plan` for single-entry proposals on an n-by-n matrix."""
    weight = Counter(plan)
    minors = tuple(weight)
    cells = [[set() for _ in range(n)] for _ in range(n)]
    for m, (rows, cols) in enumerate(minors):
        for r in rows:
            for c in cols:
                cells[r][c].add(m)
                if symmetric:
                    cells[c][r].add(m)
    return RepairPlan(
        minors=minors,
        evaluators=tuple(minor_evaluator(rows, cols) for rows, cols in minors),
        weights=tuple(weight[m] for m in minors),
        touched=tuple(tuple(tuple(sorted(cell)) for cell in row) for row in cells),
        symmetric=symmetric,
    )


def repair_start(a: list[list[int]], rplan: RepairPlan) -> tuple[int, list[bool]]:
    """(violation count, failing bit per distinct minor) of a start matrix.

    The count is the weighted sum of the bits, which equals
    ``hypothesis_violations(a, plan)``.
    """
    bad = [evaluate(a) <= 0 for evaluate in rplan.evaluators]
    return sum(w for w, b in zip(rplan.weights, bad) if b), bad


def repair_chunk(
    a, pos_i, pos_j, vals, rplan: RepairPlan, bad: list[bool], current: int
) -> tuple[int, int]:
    """Greedy single-entry mutations of `a` and its failing bits `bad`, in place.

    Proposal t sets a[pos_i[t]][pos_j[t]] (and its mirror when the plan is
    symmetric) to vals[t], and is kept unless it raises the violation
    count.  Only the minors containing the changed entries are evaluated:
    the failing ones first, since only they can lower the count, then the
    passing ones, rejecting as soon as the count would rise.  Stops once the
    count reaches zero; returns (count, proposals used).
    """
    evaluators, weights, touched = rplan.evaluators, rplan.weights, rplan.touched
    symmetric = rplan.symmetric
    for t, (i, j, v) in enumerate(zip(pos_i.tolist(), pos_j.tolist(), vals.tolist())):
        if current == 0:
            return current, t
        old_ij, old_ji = a[i][j], a[j][i]
        if old_ij == v and (old_ji == v or not symmetric):
            continue  # an unchanged matrix keeps its count, so it is kept
        a[i][j] = v
        if symmetric:
            a[j][i] = v
        ids = touched[i][j]
        delta = 0
        flips = []
        for m in ids:
            if bad[m] and evaluators[m](a) > 0:
                delta -= weights[m]
                flips.append(m)
        for m in ids:
            if not bad[m] and evaluators[m](a) <= 0:
                delta += weights[m]
                if delta > 0:
                    break
                flips.append(m)
        if delta <= 0:
            current += delta
            for m in flips:
                bad[m] = not bad[m]
        else:
            a[i][j] = old_ij
            a[j][i] = old_ji
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
