"""The generator's screening objective: one minor plan, evaluated exactly.

The pendant-deletion hypothesis is a list of minors that must be strictly
positive: every initial minor of every maximal path of the tree (the
Gasca-Pena criterion for TP), and with ``augmented`` every principal minor
of every pendant-deleted block.  ``minor_plan`` lists them once, and
``hypothesis_violations`` counts the non-positive ones in Python integers,
which never overflow, so one code path serves every entry range.

Greedy repair drives that count to zero.  ``repair_plan`` compiles the
plan into its distinct minors, their multiplicities and, per entry, the
minors that contain it; ``repair_start`` keeps one failing bit per distinct
minor, and ``repair_chunk`` re-evaluates only the minors a proposal
touches: the failing ones first, then the passing ones, rejecting exactly
as soon as the weighted count would rise.  A proposal is kept iff the
count does not rise, the same rule as a full recount.  Rejection
sampling takes the first candidate of a batch with no violation
(``screen_batch_vectorized``), after an int64 numpy prefilter of the minors
of size <= 3 whenever they provably fit.  Every candidate either mode
accepts is re-checked by ``positivity`` before it is reported.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .exact_linalg import minor_value
from .positivity import _initial_minor_lists
from .tree_model import LabelledTree, maximal_paths, pendant_vertices

INT64_GUARD = 2**63

# ordered, 0-based (rows, cols) index tuples
Minor = tuple[tuple[int, ...], tuple[int, ...]]


def int64_screen_safe(max_minor_size: int, hi: int) -> bool:
    """True when every minor of at most this size provably fits in int64.

    Minors of a k-by-k block with entries in [0, hi] are bounded by the
    permanent, hence by k! * hi^k, and so is every partial sum of the
    cofactor expansion used by the prefilter.
    """
    k = max(1, int(max_minor_size))
    return math.factorial(k) * (int(hi) ** k) < INT64_GUARD


def minor_plan(tree: LabelledTree, augmented: bool) -> tuple[Minor, ...]:
    """Every minor the hypothesis needs positive, in path then block order.

    A minor shared by two paths or blocks is listed for each of them, so
    the violation count weighs it once per path or block.
    """
    plan = []
    for path in maximal_paths(tree):
        idx = [v - 1 for v in path.vertices]
        for rows, cols in _initial_minor_lists(len(idx)):
            plan.append((tuple(idx[r - 1] for r in rows), tuple(idx[c - 1] for c in cols)))
    if augmented:
        for p in pendant_vertices(tree):
            keep = [v - 1 for v in range(1, tree.n + 1) if v != p]
            for size in range(1, len(keep) + 1):
                plan.extend((sel, sel) for sel in itertools.combinations(keep, size))
    return tuple(plan)


def hypothesis_violations(a: list[list[int]], plan: tuple[Minor, ...]) -> int:
    """Number of plan minors of `a` that are not strictly positive."""
    return sum(minor_value(a, rows, cols) <= 0 for rows, cols in plan)


@dataclass(frozen=True)
class RepairPlan:
    """A minor plan compiled for incremental repair.

    ``minors`` are the distinct minors of the plan in first-seen order and
    ``weights`` how often the plan lists each, so a weighted count of the
    failing ones equals ``hypothesis_violations``.  ``touched[i][j]`` holds
    the ids of the minors that contain entry (i, j), and also those that
    contain (j, i) when proposals are ``symmetric``.
    """

    minors: tuple[Minor, ...]
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
        weights=tuple(weight[m] for m in minors),
        touched=tuple(tuple(tuple(sorted(cell)) for cell in row) for row in cells),
        symmetric=symmetric,
    )


def repair_start(a: list[list[int]], rplan: RepairPlan) -> tuple[int, list[bool]]:
    """(violation count, failing bit per distinct minor) of a start matrix.

    The count is the weighted sum of the bits, which equals
    ``hypothesis_violations(a, plan)``.
    """
    bad = [minor_value(a, rows, cols) <= 0 for rows, cols in rplan.minors]
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
    minors, weights, touched = rplan.minors, rplan.weights, rplan.touched
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
            if bad[m]:
                rows, cols = minors[m]
                if minor_value(a, rows, cols) > 0:
                    delta -= weights[m]
                    flips.append(m)
        for m in ids:
            if not bad[m]:
                rows, cols = minors[m]
                if minor_value(a, rows, cols) <= 0:
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

    `minors` are the plan's distinct minors, in order.  With entries in
    [0, hi] and the int64 guard met for 3x3 minors, those of size <= 3 are
    evaluated over the whole batch in int64; only the survivors are checked
    against the remaining minors in Python integers.
    """
    survivors = range(batch.shape[0])
    if int64_screen_safe(3, hi):
        stack = batch.transpose(1, 2, 0)  # stack[r][c] is the view batch[:, r, c]
        mask = np.ones(batch.shape[0], dtype=bool)
        for rows, cols in minors:
            if len(rows) <= 3:
                mask &= minor_value(stack, rows, cols) > 0
        minors = [m for m in minors if len(m[0]) > 3]
        survivors = np.flatnonzero(mask).tolist()
    for t in survivors:
        a = batch[t].tolist()
        if all(minor_value(a, rows, cols) > 0 for rows, cols in minors):
            return t
    return -1
