import itertools
import math

import numpy as np
import pytest

from treetp import (
    ExactMatrix,
    det,
    is_p_matrix,
    is_t_tp,
    is_tp,
    make_path,
    make_pitchfork,
    make_star,
    maximal_paths,
    minor,
    pendant_deletion_hypothesis,
    pendant_vertices,
)
from treetp import GenConfig, batch_verify, exact_linalg, positivity
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
        # 150 keeps the int64 prefilter on; 2**21 turns it off
        assert kernels.screen_batch_vectorized(batch, plan, 150) == expected
        assert kernels.screen_batch_vectorized(batch, plan, 2**21) == expected

    def test_no_hit_returns_minus_one(self):
        plan = kernels.minor_plan(make_star(4, 1), False)
        batch = np.zeros((10, 4, 4), dtype=np.int64)
        assert kernels.screen_batch_vectorized(batch, plan, 150) == -1
        assert kernels.screen_batch_vectorized(batch, plan, 2**21) == -1

    def test_vectorized_handles_long_paths(self, rng):
        # the pitchfork's 4-vertex maximal path has 4x4 initial minors,
        # which the prefilter leaves to the Python-int check
        tree = make_pitchfork()
        plan = kernels.minor_plan(tree, False)
        batch = random_batch(rng, 300, 5, 90)
        batch[250] = [[int(x) for x in row] for row in PITCHFORK_COUNTEREXAMPLE.matrix.rows]
        per_matrix = next(
            t for t in range(300) if kernels.hypothesis_violations(batch[t].tolist(), plan) == 0
        )
        assert per_matrix == first_hit(batch, tree)
        assert kernels.screen_batch_vectorized(batch, plan, 90) == per_matrix


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
        start, bad = kernels.repair_start(a, rplan)
        current, used = kernels.repair_chunk(a, pos_i, pos_j, vals, rplan, bad, start)
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
        ],
        ids=["star6-augmented", "pitchfork-symmetric", "pitchfork", "star4-big"],
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
            current, bad = kernels.repair_start(a, rplan)
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
                current, used = kernels.repair_chunk(a, pos_i, pos_j, vals, rplan, bad, current)
                ref_current, ref_used = reference_chunk(
                    ref, pos_i, pos_j, vals, plan, symmetric, ref_current
                )
                assert (a, current, used) == (ref, ref_current, ref_used)
                assert bad == [kernels.minor_value(a, r, c) <= 0 for r, c in rplan.minors]


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
