import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treetp import (
    IndexList,
    LabelledTree,
    SignVector,
    enumerate_labelled_trees,
    is_signed_according_to,
    make_path,
    make_pitchfork,
    make_star,
    maximal_paths,
    parse_tree_spec,
    pendant_vertices,
    tree_from_text,
    tree_signing,
    tree_to_text,
)
from treetp.fixtures import (
    PITCHFORK_COUNTEREXAMPLE,
    STAR4_EXAMPLE,
    STAR5_COUNTEREXAMPLE,
)


def brute_force_trees(n: int) -> set[frozenset]:
    """All labelled trees on 1..n as edge sets, by filtering K_n subsets."""
    all_edges = list(itertools.combinations(range(1, n + 1), 2))
    found = set()
    for subset in itertools.combinations(all_edges, n - 1):
        try:
            LabelledTree(n, subset)
        except ValueError:
            continue
        found.add(frozenset(subset))
    return found


class TestValidate:
    def test_wrong_edge_count(self):
        with pytest.raises(ValueError):
            LabelledTree(3, [(1, 2)])

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            LabelledTree(4, [(1, 2), (2, 3), (3, 1)])

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            LabelledTree(4, [(1, 2), (3, 4), (1, 2)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            LabelledTree(2, [(1, 1)])

    def test_out_of_range_label(self):
        with pytest.raises(ValueError):
            LabelledTree(2, [(1, 3)])

    def test_accepts_duplicate_edge_listing(self):
        # {u,v} equals {v,u}; but the deduplicated count must still be n-1
        with pytest.raises(ValueError):
            LabelledTree(3, [(1, 2), (2, 1)])


class TestPendants:
    def test_star(self):
        assert pendant_vertices(make_star(4, 1)) == (2, 3, 4)

    def test_path(self):
        assert pendant_vertices(make_path((1, 2, 3))) == (1, 3)

    def test_pitchfork(self):
        assert pendant_vertices(make_pitchfork()) == (2, 3, 5)


class TestMaximalPaths:
    def test_star4(self):
        got = {tuple(p.vertices) for p in maximal_paths(make_star(4, 1))}
        assert got == {(2, 1, 3), (2, 1, 4), (3, 1, 4)}

    def test_pitchfork(self):
        got = {tuple(p.vertices) for p in maximal_paths(make_pitchfork())}
        assert got == {(2, 1, 3), (2, 1, 4, 5), (3, 1, 4, 5)}

    def test_natural_path(self):
        got = maximal_paths(make_path(range(1, 6)))
        assert len(got) == 1 and tuple(got[0].vertices) == (1, 2, 3, 4, 5)

    def test_canonical_orientation(self):
        for tree in enumerate_labelled_trees(5):
            for p in maximal_paths(tree):
                assert p.vertices[0] < p.vertices[-1]

    def test_every_pair_covered(self):
        # the structural fact that forces tree-TP matrices to be positive
        for tree in enumerate_labelled_trees(5):
            cover = set()
            for p in maximal_paths(tree):
                for a, b in itertools.combinations(p.vertices, 2):
                    cover.add(frozenset((a, b)))
            assert len(cover) == 10


def _leaf_pair_paths(tree: LabelledTree) -> tuple[list[int], list[tuple[int, ...]]]:
    """(leaves, leaf-to-leaf paths) by a fresh breadth-first search on the edge set."""
    adj = {v: [] for v in range(1, tree.n + 1)}
    for u, v in tree.edges:
        adj[u].append(v)
        adj[v].append(u)
    leaves = [v for v in adj if len(adj[v]) == 1]
    paths = []
    for a, b in itertools.combinations(leaves, 2):
        prev = {a: None}
        queue = [a]
        for u in queue:
            for w in adj[u]:
                if w not in prev:
                    prev[w] = u
                    queue.append(w)
        path = [b]
        while path[-1] != a:
            path.append(prev[path[-1]])
        paths.append(tuple(path) if path[0] < path[-1] else tuple(reversed(path)))
    return leaves, sorted(paths)


class TestStoredPaths:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_every_tree_matches_a_fresh_recomputation(self, n):
        for tree in enumerate_labelled_trees(n):
            leaves, paths = _leaf_pair_paths(tree)
            assert pendant_vertices(tree) == tuple(leaves)
            assert [tuple(p.vertices) for p in maximal_paths(tree)] == paths

    def test_mutating_a_returned_list_leaves_the_tree_unchanged(self):
        tree = make_pitchfork()
        first = maximal_paths(tree)
        expected = list(first)
        first.clear()
        first.append(maximal_paths(make_star(3, 1))[0])
        assert maximal_paths(tree) == expected
        assert maximal_paths(tree) is not maximal_paths(tree)

    def test_one_vertex_tree(self):
        tree = LabelledTree(1, [])
        assert pendant_vertices(tree) == ()
        with pytest.raises(ValueError):
            maximal_paths(tree)

    def test_pickled_tree_keeps_its_paths(self):
        tree = make_pitchfork()
        again = pickle.loads(pickle.dumps(tree))
        assert maximal_paths(again) == maximal_paths(tree)
        assert pendant_vertices(again) == pendant_vertices(tree)


class TestSigning:
    def test_star4(self):
        assert tree_signing(make_star(4, 1), 1) == (1, -1, -1, -1)

    def test_natural_path_alternates(self):
        assert tree_signing(make_path(range(1, 6)), 1) == (1, -1, 1, -1, 1)

    def test_pitchfork(self):
        assert tree_signing(make_pitchfork(), 1) == (1, -1, -1, -1, 1)

    def test_edge_product_negative(self):
        for tree in enumerate_labelled_trees(5):
            s = tree_signing(tree, 3)
            for u, v in tree.sorted_edges():
                assert s[u - 1] * s[v - 1] == -1

    def test_unique_up_to_global_sign(self):
        for tree in enumerate_labelled_trees(4):
            base = tree_signing(tree, 1)
            for anchor in range(2, 5):
                other = tree_signing(tree, anchor)
                assert other in (base, base.negated())

    def test_bad_anchor(self):
        with pytest.raises(ValueError):
            tree_signing(make_star(4, 1), 5)


class TestIsSignedAccordingTo:
    def test_worked_4x4_eigenvector(self):
        v = (-3.12, 1.93, 1.55, 1.0)
        assert is_signed_according_to(v, STAR4_EXAMPLE.tree).ok

    def test_star5_eigenvector_fails_on_edge_13(self):
        v = (-2.98, 1.21, -0.02, 2.39, 1.0)
        verdict = is_signed_according_to(v, STAR5_COUNTEREXAMPLE.tree)
        assert not verdict.ok
        assert verdict.violated_edge == (1, 3)

    def test_pitchfork_eigenvector_fails_on_edge_45(self):
        v = (-68.08, 32.75, 26.69, 45.57, 1.0)
        verdict = is_signed_according_to(v, PITCHFORK_COUNTEREXAMPLE.tree)
        assert not verdict.ok
        assert verdict.violated_edge == (4, 5)

    def test_zero_entry_reports_vertex(self):
        verdict = is_signed_according_to((1.0, 0.0, 1.0), make_path((1, 2, 3)))
        assert not verdict.ok and verdict.zero_vertex == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            is_signed_according_to((1.0,), make_star(4, 1))


class TestConstructors:
    def test_star_edges(self):
        t = make_star(5, 2)
        assert t.edges == frozenset({(1, 2), (2, 3), (2, 4), (2, 5)})

    def test_star_too_small(self):
        with pytest.raises(ValueError):
            make_star(1)

    def test_path_labels(self):
        t = make_path((2, 1, 3))
        assert t.edges == frozenset({(1, 2), (1, 3)})

    def test_path_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            make_path((1, 3))

    def test_pitchfork_edges(self):
        t = make_pitchfork()
        assert t.edges == frozenset({(1, 2), (1, 3), (1, 4), (4, 5)})


class TestEnumeration:
    def test_n2(self):
        assert len(list(enumerate_labelled_trees(2))) == 1

    def test_n4_against_brute_force(self):
        got = {t.edges for t in enumerate_labelled_trees(4)}
        assert len(got) == 16
        assert got == brute_force_trees(4)

    def test_n5_against_brute_force(self):
        got = {t.edges for t in enumerate_labelled_trees(5)}
        assert len(got) == 125
        assert got == brute_force_trees(5)

    def test_cayley_counts(self):
        for n in (3, 4, 5, 6):
            assert sum(1 for _ in enumerate_labelled_trees(n)) == n ** (n - 2)

    def test_all_emitted_trees_validate(self):
        for t in enumerate_labelled_trees(5):
            LabelledTree(t.n, t.edges)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            list(enumerate_labelled_trees(1))
        with pytest.raises(ValueError):
            list(enumerate_labelled_trees(9))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(3, 6), st.data())
    def test_prufer_round_trip_is_injective(self, n, data):
        seq1 = tuple(data.draw(st.integers(1, n)) for _ in range(n - 2))
        seq2 = tuple(data.draw(st.integers(1, n)) for _ in range(n - 2))
        from treetp.tree_model import tree_from_prufer

        if seq1 != seq2:
            assert tree_from_prufer(seq1, n).edges != tree_from_prufer(seq2, n).edges


class TestTextAndSpecs:
    def test_text_round_trip(self):
        t = make_pitchfork()
        assert tree_from_text(tree_to_text(t)) == t

    def test_text_with_comments(self):
        assert tree_from_text("# tiny\n2\n1 2\n") == make_path((1, 2))

    def test_bad_text(self):
        with pytest.raises(ValueError):
            tree_from_text("2\n1\n")

    def test_spec_star_with_center(self):
        assert parse_tree_spec("star:5:2") == make_star(5, 2)

    def test_spec_star_default_center(self):
        assert parse_tree_spec("star:4") == make_star(4, 1)

    def test_spec_path(self):
        assert parse_tree_spec("path:3") == make_path((1, 2, 3))

    def test_spec_pitchfork(self):
        assert parse_tree_spec("pitchfork") == make_pitchfork()

    def test_spec_file(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text(tree_to_text(make_star(4, 1)))
        assert parse_tree_spec(f"file:{p}") == make_star(4, 1)

    def test_spec_errors(self):
        for bad in ("star", "star:x", "path:zero", "noodle:4"):
            with pytest.raises(ValueError):
                parse_tree_spec(bad)


class TestSignVector:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SignVector((2, 1))

    def test_negated(self):
        assert SignVector((1, -1)).negated() == (-1, 1)


class TestIndexListInterop:
    def test_paths_yield_index_lists(self):
        p = maximal_paths(make_star(4, 1))[0]
        assert isinstance(p.vertices, IndexList)
