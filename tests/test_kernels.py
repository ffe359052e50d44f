import collections
import itertools
import math
import random

import numpy as np
import pytest

from treetp import (
    ExactMatrix,
    det,
    enumerate_labelled_trees,
    is_p_matrix,
    is_t_tp,
    is_tp,
    make_path,
    make_pitchfork,
    make_star,
    maximal_paths,
    minor,
    parse_tree_spec,
    pendant_deletion_hypothesis,
    pendant_vertices,
)
from treetp import GenConfig, batch_verify, conjecture_lab, exact_linalg, positivity
from treetp import _kernels as kernels
from treetp.fixtures import PITCHFORK_COUNTEREXAMPLE, STAR4_EXAMPLE

from conftest import laplace_det


def exact(a) -> ExactMatrix:
    return ExactMatrix([[int(x) for x in row] for row in a])


def reference_violations(A: ExactMatrix, tree, augmented: bool) -> int:
    """Non-positive hypothesis minors, counted with the exact library.

    Every initial minor of every maximal path, then with `augmented` every
    principal minor of every pendant-deleted block, each counted per path
    or block it belongs to.
    """
    bad = 0
    for path in maximal_paths(tree):
        idx = path.vertices
        length = len(idx)
        for size in range(1, length + 1):
            for j0 in range(length - size + 1):
                bad += minor(A, idx[:size], idx[j0 : j0 + size]) <= 0
            for i0 in range(1, length - size + 1):
                bad += minor(A, idx[i0 : i0 + size], idx[:size]) <= 0
    if augmented:
        for p in pendant_vertices(tree):
            keep = [v for v in range(1, tree.n + 1) if v != p]
            for size in range(1, len(keep) + 1):
                for sel in itertools.combinations(keep, size):
                    bad += minor(A, sel, sel) <= 0
    return bad


class TestGuard:
    def test_small_cases_safe(self):
        assert kernels.int64_screen_safe(3, 150)
        assert kernels.int64_screen_safe(5, 150)
        assert kernels.int64_screen_safe(7, 150)

    def test_large_cases_unsafe(self):
        assert not kernels.int64_screen_safe(8, 150)
        assert not kernels.int64_screen_safe(12, 50)

    def test_guard_follows_factorial_bound(self):
        k, hi = 6, 200
        expected = math.factorial(k) * hi**k < 2**63
        assert kernels.int64_screen_safe(k, hi) == expected


class TestMinorValue:
    def test_matches_exact_det(self, rng):
        for k in range(1, 8):
            a = [[rng.randint(1, 25) for _ in range(k)] for _ in range(k)]
            assert kernels.minor_value(a, range(k), range(k)) == det(exact(a))

    def test_row_and_column_order_respected(self, rng):
        a = [[rng.randint(-50, 50) for _ in range(6)] for _ in range(6)]
        for rows, cols in [((2, 0), (1, 3)), ((4, 1, 3), (0, 5, 2)), ((5, 0, 2, 1), (3, 4, 0, 1))]:
            expected = minor(exact(a), [r + 1 for r in rows], [c + 1 for c in cols])
            assert kernels.minor_value(a, rows, cols) == expected

    @pytest.mark.parametrize("hi", [1, 150, 2**21, 2**70])
    @pytest.mark.parametrize("k", [4, 5])
    def test_closed_forms_match_bareiss_and_laplace(self, rng, k, hi):
        a = [[rng.randint(-hi, hi) for _ in range(7)] for _ in range(7)]
        for t in range(24):
            rows, cols = rng.sample(range(7), k), rng.sample(range(7), k)
            if t % 3 == 0:  # ordered lists as well as permuted ones
                rows, cols = sorted(rows), sorted(cols)
            sub = [[a[r][c] for c in cols] for r in rows]
            expected = det(exact(sub))
            assert laplace_det(sub) == expected
            assert kernels.minor_value(a, rows, cols) == expected

    @pytest.mark.parametrize("hi", [1, 150, 2**21, 2**70])
    @pytest.mark.parametrize("k", [4, 5])
    def test_closed_forms_vanish_on_a_repeated_line(self, rng, k, hi):
        a = [[rng.randint(-hi, hi) for _ in range(7)] for _ in range(7)]
        for t in range(12):
            rows, cols = rng.sample(range(7), k), rng.sample(range(7), k)
            i, j = rng.sample(range(k), 2)
            if t % 2:
                rows[i] = rows[j]
            else:
                cols[i] = cols[j]
            sub = [[a[r][c] for c in cols] for r in rows]
            assert det(exact(sub)) == laplace_det(sub) == 0
            assert kernels.minor_value(a, rows, cols) == 0


class TestViolationCounts:
    def test_tp_initial_matches_is_tp(self, rng):
        for _ in range(30):
            k = rng.choice((2, 3, 4))
            plan = kernels.minor_plan(make_path(range(1, k + 1)), False)
            a = [[rng.randint(1, 30) for _ in range(k)] for _ in range(k)]
            bad = kernels.hypothesis_violations(a, plan)
            assert (bad == 0) == is_tp(exact(a), "initial-minors").is_tp

    def test_principal_matches_is_p_matrix(self, rng):
        plan = tuple(
            (sel, sel) for size in range(1, 5) for sel in itertools.combinations(range(4), size)
        )
        for _ in range(20):
            a = [[rng.randint(-10, 30) for _ in range(4)] for _ in range(4)]
            bad = kernels.hypothesis_violations(a, plan)
            assert (bad == 0) == is_p_matrix(exact(a)).is_p_matrix

    def test_hypothesis_counts_match_exact_reference(self, rng):
        for tree, augmented in [
            (make_star(5, 1), True),
            (make_pitchfork(), False),
            (make_star(6, 1), True),
        ]:
            plan = kernels.minor_plan(tree, augmented)
            for _ in range(6):
                a = [[rng.randint(1, 30) for _ in range(tree.n)] for _ in range(tree.n)]
                A = exact(a)
                bad = kernels.hypothesis_violations(a, plan)
                assert bad == reference_violations(A, tree, augmented)
                assert (bad == 0) == (
                    pendant_deletion_hypothesis(A, tree).holds if augmented else is_t_tp(A, tree).is_t_tp
                )


@pytest.mark.parametrize("augmented", [False, True], ids=["plain", "augmented"])
@pytest.mark.parametrize(
    "tree",
    [
        make_star(4, 1),
        make_star(5, 1),
        make_star(6, 1),
        make_star(6, 3),
        make_pitchfork(),
        make_path(range(1, 6)),
        make_path([2, 4, 1, 5, 3]),
    ],
    ids=["star4", "star5", "star6", "star6-center3", "pitchfork", "path5", "path5-permuted"],
)
def test_minor_plan_joins_path_then_pendant_lists(tree, augmented):
    """The flat plan is each maximal path's initial minors, ordered along
    the path, then with `augmented` each pendant block's principal minors,
    in the order the exact predicates check them."""
    per_path = []
    for path in maximal_paths(tree):
        idx = tuple(v - 1 for v in path.vertices)
        k = len(idx)
        minors = []
        for size in range(1, k + 1):
            minors += [(idx[:size], idx[j : j + size]) for j in range(k - size + 1)]
            minors += [(idx[i : i + size], idx[:size]) for i in range(1, k - size + 1)]
        per_path.append((path, tuple(minors)))
    per_pendant = []
    for p in pendant_vertices(tree) if augmented else ():
        keep = [v - 1 for v in range(1, tree.n + 1) if v != p]
        minors = [(sel, sel) for size in range(1, tree.n) for sel in itertools.combinations(keep, size)]
        per_pendant.append((p, tuple(minors)))
    assert positivity.hypothesis_plan(tree, augmented) == (tuple(per_path), tuple(per_pendant))
    joined = tuple(m for _, minors in per_path + per_pendant for m in minors)
    assert kernels.minor_plan(tree, augmented) == joined


def random_batch(rng, count, n, hi):
    return np.array(
        [[[rng.randint(1, hi) for _ in range(n)] for _ in range(n)] for _ in range(count)],
        dtype=np.int64,
    )


def first_hit(batch, tree):
    for t in range(batch.shape[0]):
        if is_t_tp(exact(batch[t]), tree).is_t_tp:
            return t
    return -1


class TestScreenBatch:
    def test_planted_hit_found(self, rng):
        tree = make_star(4, 1)
        plan = kernels.minor_plan(tree, False)
        batch = random_batch(rng, 500, 4, 150)
        batch[137] = [[int(x) for x in row] for row in STAR4_EXAMPLE.matrix.rows]
        expected = first_hit(batch, tree)
        assert 0 <= expected <= 137
        # 150 runs every minor in int64; 2**21 keeps the 2x2 minors there and
        # leaves the 3x3 ones to Python integers; 2**40 leaves every minor
        # above 1x1 to Python integers
        assert kernels.screen_batch_vectorized(batch, plan, 150) == expected
        assert kernels.screen_batch_vectorized(batch, plan, 2**21) == expected
        assert kernels.screen_batch_vectorized(batch, plan, 2**40) == expected

    def test_no_hit_returns_minus_one(self):
        plan = kernels.minor_plan(make_star(4, 1), False)
        batch = np.zeros((10, 4, 4), dtype=np.int64)
        assert kernels.screen_batch_vectorized(batch, plan, 150) == -1
        assert kernels.screen_batch_vectorized(batch, plan, 2**21) == -1

    def test_vectorized_handles_long_paths(self, rng):
        # the pitchfork's 4-vertex maximal path has 4x4 initial minors,
        # which run in int64 with the smaller ones at this entry range
        tree = make_pitchfork()
        plan = kernels.minor_plan(tree, False)
        batch = random_batch(rng, 300, 5, 90)
        batch[250] = [[int(x) for x in row] for row in PITCHFORK_COUNTEREXAMPLE.matrix.rows]
        per_matrix = next(
            t for t in range(300) if kernels.hypothesis_violations(batch[t].tolist(), plan) == 0
        )
        assert per_matrix == first_hit(batch, tree)
        assert kernels.screen_batch_vectorized(batch, plan, 90) == per_matrix


# one matrix meeting the hypothesis per (tree spec, augmented, symmetric),
# from the seeded repair generator
HITS = {
    ("star:4", False, False): [[41, 142, 142, 15], [14, 133, 13, 3], [11, 35, 88, 2], [141, 115, 61, 89]],
    ("star:4", False, True): [[33, 43, 48, 43], [43, 149, 40, 42], [48, 40, 143, 41], [43, 42, 41, 88]],
    ("star:3:2", False, False): [[127, 28, 2], [148, 80, 9], [57, 80, 28]],
    ("star:3:2", False, True): [[129, 31, 10], [31, 108, 54], [10, 54, 69]],
    ("star:5", True, False): [
        [34, 22, 27, 35, 15], [87, 135, 60, 50, 25], [141, 45, 148, 29, 62],
        [94, 54, 70, 144, 33], [118, 16, 36, 111, 129],
    ],
    ("star:5", True, True): [
        [105, 75, 50, 84, 65], [75, 113, 29, 37, 22], [50, 29, 84, 24, 30],
        [84, 37, 24, 96, 51], [65, 22, 30, 51, 77],
    ],
    ("pitchfork", False, False): [
        [113, 95, 111, 117, 58], [55, 52, 35, 23, 7], [48, 33, 93, 19, 4],
        [41, 24, 29, 139, 130], [22, 12, 13, 101, 138],
    ],
    ("pitchfork", False, True): [
        [81, 57, 79, 50, 31], [57, 146, 6, 24, 13], [79, 6, 122, 31, 19],
        [50, 24, 31, 114, 99], [31, 13, 19, 99, 147],
    ],
}


def reference_screen(batch, plan):
    """First index whose matrix has every plan minor positive, or -1."""
    for t in range(batch.shape[0]):
        if kernels.hypothesis_violations(batch[t].tolist(), plan) == 0:
            return t
    return -1


@pytest.mark.parametrize("hi", [150, 2**21, 2**40])
@pytest.mark.parametrize("spec, augmented, symmetric", list(HITS), ids=lambda v: str(v))
def test_screen_equals_first_hit_reference(spec, augmented, symmetric, hi):
    tree = parse_tree_spec(spec)
    n = tree.n
    plan = kernels.minor_plan(tree, augmented)
    cfg = GenConfig(tree, entry_range=(1, hi), augmented=augmented, symmetric=symmetric)
    screen_order = conjecture_lab._compile(cfg)
    assert sorted(screen_order) == sorted(set(plan))
    sizes = [len(rows) for rows, _ in screen_order]
    assert sizes == sorted(sizes, key=lambda k: (k == 1, k))
    shuffled = list(plan)
    random.Random(hi + n).shuffle(shuffled)
    orders = [plan, screen_order, tuple(shuffled)]

    # scaling every entry by c > 0 scales each k x k minor by c**k
    hit = np.array(HITS[spec, augmented, symmetric], dtype=np.int64) * (hi // 150)
    assert int(hit.max()) <= hi
    assert kernels.hypothesis_violations(hit.tolist(), plan) == 0
    gen = np.random.default_rng(hi % 1009 + n)

    def random_fill(count):
        batch = gen.integers(1, hi + 1, size=(count, n, n), dtype=np.int64)
        return conjecture_lab._symmetrize(batch) if symmetric else batch

    def check(batch, expected=None):
        ref = reference_screen(batch, plan)
        if expected is not None:
            assert ref == expected
        for minors in orders:
            assert kernels.screen_batch_vectorized(batch, minors, hi) == ref

    batch = random_fill(64)
    check(batch)
    batch[0] = hit
    check(batch, 0)
    batch = random_fill(64)
    batch[-1] = hit
    assert reference_screen(batch, plan) in range(64)
    check(batch)

    # every candidate fails the first minor of the screen order
    rows, cols = screen_order[0]
    emptied = random_fill(32)
    emptied[:, rows[0], cols[0]] = emptied[:, rows[1], cols[1]] = 1
    emptied[:, rows[0], cols[1]] = emptied[:, rows[1], cols[0]] = hi
    check(emptied, -1)

    # zero entries that fail 1x1 minors and no larger one
    zeroed = []
    for (i,), (j,) in {m for m in plan if len(m[0]) == 1}:
        a = hit.copy()
        a[i, j] = 0
        if symmetric:
            a[j, i] = 0
        bad = [m for m in plan if kernels.minor_value(a.tolist(), *m) <= 0]
        if bad and all(len(r) == 1 for r, _ in bad):
            zeroed.append(a)
    assert zeroed
    batch = np.array(zeroed * (8 // len(zeroed) + 1), dtype=np.int64)
    check(batch, -1)
    batch[-1] = hit
    check(batch, batch.shape[0] - 1)


def test_emptied_batch_stops_after_its_first_minor(monkeypatch):
    tree = make_star(4, 1)
    screen_order = conjecture_lab._compile(GenConfig(tree))
    (r0, r1), (c0, c1) = screen_order[0]
    batch = np.ones((100, 4, 4), dtype=np.int64)
    batch[:, r0, c1] = batch[:, r1, c0] = 2
    calls = []

    def counted(a, rows, cols):
        calls.append((rows, cols))
        return exact_linalg.minor_value(a, rows, cols)

    monkeypatch.setattr(kernels, "minor_value", counted)
    assert kernels.screen_batch_vectorized(batch, screen_order, 150) == -1
    assert calls == [screen_order[0]]


def largest_safe_hi(k):
    lo, hi = 1, 2**63  # safe at lo, unsafe at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if kernels.int64_screen_safe(k, mid) else (lo, mid)
    return lo


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_int64_closed_forms_exact_at_the_guard_edge(k):
    """At the largest hi the guard admits, the closed forms on an int64
    (n, n, B) stack equal the Python-int values entry by entry.  The stacks
    are the extremes: every 0/hi pattern up to 4x4 (a sample at 5x5, with
    the all-hi block, whose cofactor expansions reach the permanent bound
    k! * hi**k term by term), and a sample of -hi/0/hi patterns."""
    hi = largest_safe_hi(k)
    assert kernels.int64_screen_safe(k, hi) and not kernels.int64_screen_safe(k, hi + 1)
    gen = np.random.default_rng(k)
    if k <= 4:
        bits = (np.arange(2 ** (k * k))[:, None] >> np.arange(k * k)) & 1
    else:
        bits = np.vstack([np.ones((1, k * k), dtype=np.int64), gen.integers(0, 2, size=(4096, k * k))])
    signs = gen.integers(-1, 2, size=(4096, k * k))
    batch = np.vstack([bits, signs]).astype(np.int64).reshape(-1, k, k) * hi
    stack = batch.transpose(1, 2, 0)
    matrices = batch.tolist()
    for rows, cols in [(range(k), range(k)), (range(k)[::-1], range(k)), (range(k), [*range(1, k), 0])]:
        rows, cols = tuple(rows), tuple(cols)
        values = kernels.minor_value(stack, rows, cols)
        assert values.dtype == np.int64
        assert values.tolist() == [kernels.minor_value(a, rows, cols) for a in matrices]


def reference_chunk(a, pos_i, pos_j, vals, plan, symmetric, current):
    """The greedy repair rule with a full recount after every proposal."""
    for t, (i, j, v) in enumerate(zip(pos_i.tolist(), pos_j.tolist(), vals.tolist())):
        if current == 0:
            return current, t
        old_ij, old_ji = a[i][j], a[j][i]
        a[i][j] = v
        if symmetric:
            a[j][i] = v
        new = kernels.hypothesis_violations(a, plan)
        if new <= current:
            current = new
        else:
            a[i][j], a[j][i] = old_ij, old_ji
    return current, len(vals)


class TestRepairChunk:
    def test_symmetric_mutations_preserve_symmetry(self, rng):
        plan = kernels.minor_plan(make_pitchfork(), False)
        rplan = kernels.repair_plan(plan, 5, True)
        a = np.array([[rng.randint(1, 60) for _ in range(5)] for _ in range(5)], dtype=np.int64)
        a = (np.triu(a) + np.triu(a, 1).T).tolist()
        size = 200
        pos_i = np.array([rng.randrange(5) for _ in range(size)], dtype=np.int64)
        pos_j = np.array([rng.randrange(5) for _ in range(size)], dtype=np.int64)
        vals = np.array([rng.randint(1, 60) for _ in range(size)], dtype=np.int64)
        start, values = kernels.repair_start(a, rplan)
        current, used = kernels.repair_chunk(a, pos_i, pos_j, vals, rplan, values, start)
        assert a == [list(row) for row in zip(*a)]
        assert current == kernels.hypothesis_violations(a, plan) <= start
        assert 0 < used <= size

    @pytest.mark.parametrize(
        "tree, augmented, symmetric, hi",
        [
            (make_star(6, 1), True, False, 150),
            (make_pitchfork(), False, True, 150),
            (make_pitchfork(), False, False, 60),
            (make_star(4, 1), False, False, 2**21),
            (make_star(5, 1), True, True, 150),
        ],
        ids=["star6-augmented", "pitchfork-symmetric", "pitchfork", "star4-big",
             "star5-augmented-symmetric"],
    )
    def test_decisions_match_full_recount(self, tree, augmented, symmetric, hi):
        n = tree.n
        plan = kernels.minor_plan(tree, augmented)
        rplan = kernels.repair_plan(plan, n, symmetric)
        gen = np.random.default_rng(20070)
        for _ in range(3):
            a = gen.integers(1, hi + 1, size=(n, n), dtype=np.int64)
            if symmetric:
                a = np.triu(a) + np.triu(a, 1).T
            a = a.tolist()
            ref = [row[:] for row in a]
            current, values = kernels.repair_start(a, rplan)
            ref_current = kernels.hypothesis_violations(ref, plan)
            assert current == ref_current
            for _ in range(12):
                if current == 0:
                    break
                size = 256
                pos_i = gen.integers(0, n, size=size, dtype=np.int64)
                pos_j = gen.integers(0, n, size=size, dtype=np.int64)
                if symmetric:
                    pos_j[::4] = pos_i[::4]  # diagonal proposals
                vals = gen.integers(1, hi + 1, size=size, dtype=np.int64)
                # proposals that leave the matrix as it is
                vals[1::8] = [a[i][j] for i, j in zip(pos_i[1::8], pos_j[1::8])]
                current, used = kernels.repair_chunk(a, pos_i, pos_j, vals, rplan, values, current)
                ref_current, ref_used = reference_chunk(
                    ref, pos_i, pos_j, vals, plan, symmetric, ref_current
                )
                assert (a, current, used) == (ref, ref_current, ref_used)
                # the exact value of every distinct minor, then the empty minor's 1
                assert values == [kernels.minor_value(a, r, c) for r, c in rplan.minors] + [1]


def _term_value(term, values, d, a):
    """The new value a repair term reads: see ``RepairPlan``."""
    m, s, c, f = term
    if f is None:
        return values[m] + s * d * values[c]
    if s:
        return values[m] + s * d * f(a)
    return f(a)


@pytest.mark.parametrize(
    "tree, augmented, symmetric, hi",
    [
        (make_star(6, 1), True, False, 150),
        (make_pitchfork(), False, True, 150),
        (make_pitchfork(), False, False, 150),
        (make_star(5, 1), True, True, 150),
        (make_star(4, 1), False, False, 2**40),
    ],
    ids=["star6-augmented", "pitchfork-symmetric", "pitchfork", "star5-augmented-symmetric",
         "star4-2**40"],
)
def test_every_repair_term_is_exact(tree, augmented, symmetric, hi):
    """Each term of each cell predicts the minor's value after a move there."""
    n = tree.n
    plan = kernels.minor_plan(tree, augmented)
    rplan = kernels.repair_plan(plan, n, symmetric)
    gen = random.Random(f"{tree.n}:{augmented}:{symmetric}:{hi}")
    a = [[gen.randint(2, hi) for _ in range(n)] for _ in range(n)]
    if symmetric:
        a = [[a[min(r, c)][max(r, c)] for c in range(n)] for r in range(n)]
    _, values = kernels.repair_start(a, rplan)
    for i, j in itertools.product(range(n), repeat=2):
        terms = rplan.cells[i * n + j]
        touched = {
            m for m, (rows, cols) in enumerate(rplan.minors)
            if (i in rows and j in cols) or (symmetric and j in rows and i in cols)
        }
        assert set(terms) == touched
        assert all(term[0] == m for m, term in terms.items())
        old = a[i][j]
        # d > 0, d < 0 and a move to 1
        for v in (old + gen.randint(1, hi), gen.randint(1, old - 1), 1):
            moved = [row[:] for row in a]
            moved[i][j] = v
            if symmetric:
                moved[j][i] = v
            for term in terms.values():
                rows, cols = rplan.minors[term[0]]
                oracle = laplace_det([[moved[r][c] for c in cols] for r in rows])
                assert _term_value(term, values, v - old, moved) == oracle, (i, j, term)


def test_repair_chunk_evaluates_no_5x5_minor(monkeypatch):
    """On augmented star:6 every 5x5 minor's cofactor is a table entry or a
    4x4 closed form, so only ``repair_start`` evaluates the 5x5 minors."""
    calls = []

    def counted_det5(rows, cols, a):
        calls.append(rows)
        return exact_linalg._det5(rows, cols, a)

    monkeypatch.setitem(exact_linalg._CLOSED_FORMS, 5, counted_det5)
    tree = make_star(6, 1)
    rplan = kernels.repair_plan(kernels.minor_plan(tree, True), 6, False)
    fives = sum(len(rows) == 5 for rows, _ in rplan.minors)
    gen = np.random.default_rng(61)
    for _ in range(3):
        a = gen.integers(1, 151, size=(6, 6), dtype=np.int64).tolist()
        current, values = kernels.repair_start(a, rplan)
        assert len(calls) == fives
        for _ in range(4):
            pos_i, pos_j = gen.integers(0, 6, size=(2, 512), dtype=np.int64)
            vals = gen.integers(1, 151, size=512, dtype=np.int64)
            current, _ = kernels.repair_chunk(a, pos_i, pos_j, vals, rplan, values, current)
        assert len(calls) == fives
        calls.clear()


@pytest.mark.parametrize(
    "cfg",
    [
        GenConfig(tree=make_star(6, 1), seed=61, augmented=True, repair=True, max_attempts=50),
        GenConfig(tree=make_pitchfork(), seed=31, symmetric=True, repair=True, max_attempts=25),
    ],
    ids=["star6-augmented", "pitchfork-symmetric"],
)
def test_repair_runs_without_bareiss(monkeypatch, cfg):
    # every plan minor here is at most 5x5, so no evaluation reaches Bareiss
    expected = batch_verify(cfg, 1).generated

    def no_bareiss(rows):
        raise AssertionError("Bareiss elimination ran")

    monkeypatch.setattr(exact_linalg, "_det_int", no_bareiss)
    assert batch_verify(cfg, 1).generated == expected == 1


def _ordering_sign(seq) -> int:
    """Sign of the permutation that sorts `seq`: the determinant of its permutation matrix."""
    ranks = sorted(seq)
    return int(laplace_det([[int(ranks[b] == x) for b in range(len(seq))] for x in seq]))


def _value_key(rows, cols, symmetric):
    """What det A[rows; cols] is a function of: the two index sets and the
    sign of the orderings, and with `symmetric` not which set indexes rows."""
    sets = (tuple(sorted(rows)), tuple(sorted(cols)))
    if symmetric:
        sets = tuple(sorted(sets))
    return sets, _ordering_sign(rows) * _ordering_sign(cols)


@pytest.mark.parametrize("symmetric", [False, True], ids=["plain", "symmetric"])
@pytest.mark.parametrize("augmented", [False, True], ids=["paths", "augmented"])
def test_repair_table_holds_one_entry_per_minor_value(augmented, symmetric):
    """On every labelled tree on 5 vertices and on star:6, each table minor
    stands for one minor value, its weight counts the plan minors with that
    value, and the weighted count of a start is the full recount."""
    gen = np.random.default_rng(23)
    for tree in [*enumerate_labelled_trees(5), make_star(6, 1)]:
        n = tree.n
        plan = kernels.minor_plan(tree, augmented)
        rplan = kernels.repair_plan(plan, n, symmetric)
        keys = [_value_key(rows, cols, symmetric) for rows, cols in rplan.minors]
        assert len(set(keys)) == len(keys)
        assert sum(rplan.weights) == len(plan)
        weight = dict(zip(keys, rplan.weights))
        assert weight == dict(collections.Counter(_value_key(r, c, symmetric) for r, c in plan))
        for hi in (3, 150):
            a = gen.integers(1, hi + 1, size=(n, n), dtype=np.int64)
            if symmetric:
                a = np.triu(a) + np.triu(a, 1).T
            a = a.tolist()
            count, values = kernels.repair_start(a, rplan)
            assert count == kernels.hypothesis_violations(a, plan)
            table = dict(zip(keys, values))
            for rows, cols in plan:
                assert kernels.minor_value(a, rows, cols) == table[_value_key(rows, cols, symmetric)]


@pytest.mark.parametrize(
    "tree, augmented, symmetric, distinct, tabled",
    [
        (make_pitchfork(), False, True, 37, 23),
        (make_pitchfork(), False, False, 37, 37),
        (make_star(6, 1), True, False, 123, 109),
        (make_star(5, 1), True, False, 68, 59),
        (make_path(range(1, 6)), False, True, 25, 15),
    ],
    ids=["pitchfork-symmetric", "pitchfork", "star6-augmented", "star5-augmented",
         "path5-symmetric"],
)
def test_repair_table_sizes(tree, augmented, symmetric, distinct, tabled):
    """Plan minors equal up to reordering share an entry; transposes share
    one only under `symmetric`, so the plain pitchfork keeps all 37."""
    plan = kernels.minor_plan(tree, augmented)
    assert len(set(plan)) == distinct
    assert len(kernels.repair_plan(plan, tree.n, symmetric).minors) == tabled


@pytest.mark.parametrize("hi", [6, 150])
def test_symmetric_path5_decisions_match_full_recount(hi):
    """Symmetric path:5 folds the most, 25 ordered minors into 15 entries."""
    TestRepairChunk().test_decisions_match_full_recount(make_path(range(1, 6)), False, True, hi)


def test_symmetric_path5_repair_terms_are_exact():
    test_every_repair_term_is_exact(make_path(range(1, 6)), False, True, 150)
