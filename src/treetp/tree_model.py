"""Labelled trees on vertices 1..n: paths, pendants, signings, enumeration."""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .exact_linalg import IndexList

TREE_ENUM_MAX = 8


class LabelledTree:
    """Tree on vertices 1..n given by its edge set.

    Construction validates the full tree property: exactly n-1 edges,
    no self loops, labels in range, connected and acyclic.  It also builds
    the pendant vertices and, for n >= 2, the maximal paths, which
    `pendant_vertices` and `maximal_paths` read.
    """

    __slots__ = ("n", "edges", "_adj", "_pendants", "_paths")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]) -> None:
        n = int(n)
        if n < 1:
            raise ValueError("tree needs at least one vertex")
        edge_set = set()
        for e in edges:
            u, v = (int(x) for x in e)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge {{{u},{v}}} out of range for n={n}")
            edge_set.add((min(u, v), max(u, v)))
        if len(edge_set) != n - 1:
            raise ValueError(f"a tree on {n} vertices has {n - 1} edges, got {len(edge_set)}")
        adj: dict[int, tuple[int, ...]] = {v: () for v in range(1, n + 1)}
        for u, v in edge_set:
            adj[u] = adj[u] + (v,)
            adj[v] = adj[v] + (u,)
        # connectivity; with n-1 edges this also rules out cycles
        seen = {1}
        stack = [1]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != n:
            raise ValueError("edge set is disconnected (or cyclic)")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(edge_set))
        object.__setattr__(self, "_adj", adj)
        pendants = IndexList(v for v in range(1, n + 1) if len(adj[v]) == 1)
        object.__setattr__(self, "_pendants", pendants)
        object.__setattr__(self, "_paths", _leaf_paths(adj, pendants) if n >= 2 else None)

    def __setattr__(self, name, value):
        raise AttributeError("LabelledTree is immutable")

    def __reduce__(self):
        return (LabelledTree, (self.n, tuple(self.sorted_edges())))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LabelledTree)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        body = ", ".join(f"{{{u},{v}}}" for u, v in self.sorted_edges())
        return f"LabelledTree(n={self.n}, edges=[{body}])"


@dataclass(frozen=True)
class TreePath:
    """Induced path, stored in canonical orientation (smaller endpoint first)."""

    vertices: IndexList

    def __post_init__(self):
        v = IndexList(self.vertices)
        if len(v) >= 2 and v[0] > v[-1]:
            v = IndexList(reversed(v))
        object.__setattr__(self, "vertices", v)

    def __len__(self) -> int:
        return len(self.vertices)


class SignVector(tuple):
    """Length-n vector of signs; +1/-1 for signings, 0 allowed for observations."""

    def __new__(cls, signs: Iterable[int]) -> "SignVector":
        items = tuple(int(s) for s in signs)
        if any(s not in (-1, 0, 1) for s in items):
            raise ValueError("signs must be -1, 0 or +1")
        return super().__new__(cls, items)

    def negated(self) -> "SignVector":
        return SignVector(-s for s in self)


@dataclass(frozen=True)
class SigningVerdict:
    """Outcome of checking a vector against a tree's sign constraints."""

    ok: bool
    zero_vertex: int | None = None
    violated_edge: tuple[int, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


def pendant_vertices(tree: LabelledTree) -> IndexList:
    """Degree-1 vertices in ascending order."""
    return tree._pendants


def _leaf_paths(adj: dict[int, tuple[int, ...]], leaves: IndexList) -> tuple[TreePath, ...]:
    """Every leaf-to-leaf path, sorted, from one walk per leaf to the leaves after it."""
    paths = []
    for k, a in enumerate(leaves):
        parent = {a: 0}
        stack = [a]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in parent:
                    parent[w] = u
                    stack.append(w)
        for b in leaves[k + 1 :]:
            path = [b]
            while path[-1] != a:
                path.append(parent[path[-1]])
            paths.append(TreePath(path[::-1]))  # from a, the smaller end
    return tuple(sorted(paths, key=lambda p: p.vertices))


def maximal_paths(tree: LabelledTree) -> list[TreePath]:
    """All leaf-to-leaf paths, canonically oriented, sorted, each once."""
    if tree._paths is None:
        raise ValueError("paths need at least two vertices")
    return list(tree._paths)


def tree_signing(tree: LabelledTree, anchor: int) -> SignVector:
    """The signing with +1 at the anchor and opposite signs across each edge.

    Equals the parity of tree distance from the anchor; unique up to a
    global factor of -1.
    """
    if not (1 <= anchor <= tree.n):
        raise ValueError(f"anchor {anchor} out of range")
    signs = [0] * (tree.n + 1)
    signs[anchor] = 1
    stack = [anchor]
    while stack:
        u = stack.pop()
        for w in tree.neighbors(u):
            if signs[w] == 0:
                signs[w] = -signs[u]
                stack.append(w)
    return SignVector(signs[1:])


def is_signed_according_to(vector: Sequence, tree: LabelledTree) -> SigningVerdict:
    """Check that the vector is totally nonzero with opposite signs on every edge."""
    if len(vector) != tree.n:
        raise ValueError(f"vector length {len(vector)} != n={tree.n}")
    for v in range(1, tree.n + 1):
        if vector[v - 1] == 0:
            return SigningVerdict(False, zero_vertex=v)
    for u, v in tree.sorted_edges():
        a, b = vector[u - 1], vector[v - 1]
        if (a > 0) == (b > 0):
            return SigningVerdict(False, violated_edge=(u, v))
    return SigningVerdict(True)


def make_star(n: int, center: int = 1) -> LabelledTree:
    if n < 2:
        raise ValueError("star needs n >= 2")
    if not (1 <= center <= n):
        raise ValueError(f"center {center} out of range")
    return LabelledTree(n, [(center, v) for v in range(1, n + 1) if v != center])


def make_path(labels: Sequence[int]) -> LabelledTree:
    """Path visiting the given labels in order; labels must cover 1..n."""
    labels = IndexList(labels)
    n = len(labels)
    if n < 2:
        raise ValueError("path needs at least 2 vertices")
    if set(labels) != set(range(1, n + 1)):
        raise ValueError("path labels must be a permutation of 1..n")
    return LabelledTree(n, list(zip(labels, labels[1:])))


def make_pitchfork() -> LabelledTree:
    """Five vertices: path 5-4-1 with prongs 2 and 3 at vertex 1."""
    return LabelledTree(5, [(1, 2), (1, 3), (1, 4), (4, 5)])


def tree_from_prufer(seq: Sequence[int], n: int) -> LabelledTree:
    """Decode a Prufer sequence of length n-2 over 1..n."""
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    ptr = 1
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for v in seq:
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n))
    return LabelledTree(n, edges)


def enumerate_labelled_trees(n: int) -> Iterator[LabelledTree]:
    """Every labelled tree on 1..n exactly once, via the Prufer bijection."""
    if not (2 <= n <= TREE_ENUM_MAX):
        raise ValueError(f"supported range is 2 <= n <= {TREE_ENUM_MAX}")
    if n == 2:
        yield LabelledTree(2, [(1, 2)])
        return
    for seq in itertools.product(range(1, n + 1), repeat=n - 2):
        yield tree_from_prufer(seq, n)


# --- tree text format and CLI mini-language ------------------------------
#
# Text format: first non-comment line is n, then one edge "u v" per line.
# Mini-language: star:<n>[:<center>], path:<n>, pitchfork, file:<path>.

def tree_from_text(text: str) -> LabelledTree:
    n = None
    edges = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        try:
            if n is None:
                if len(parts) != 1:
                    raise ValueError("expected the vertex count alone")
                n = int(parts[0])
            else:
                if len(parts) != 2:
                    raise ValueError("expected an edge 'u v'")
                edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ValueError(f"bad tree line {lineno}: {exc}") from exc
    if n is None:
        raise ValueError("no vertex count found")
    return LabelledTree(n, edges)


def tree_to_text(tree: LabelledTree) -> str:
    lines = [str(tree.n)]
    lines += [f"{u} {v}" for u, v in tree.sorted_edges()]
    return "\n".join(lines) + "\n"


def parse_tree_spec(spec: str) -> LabelledTree:
    """Parse the CLI tree mini-language."""
    spec = spec.strip()
    if spec == "pitchfork":
        return make_pitchfork()
    head, _, rest = spec.partition(":")
    if head == "star":
        parts = rest.split(":") if rest else []
        if not 1 <= len(parts) <= 2:
            raise ValueError(f"bad star spec {spec!r}; use star:<n>[:<center>]")
        try:
            n = int(parts[0])
            center = int(parts[1]) if len(parts) == 2 else 1
        except ValueError as exc:
            raise ValueError(f"bad star spec {spec!r}: {exc}") from exc
        return make_star(n, center)
    if head == "path":
        try:
            n = int(rest)
        except ValueError as exc:
            raise ValueError(f"bad path spec {spec!r}; use path:<n>") from exc
        return make_path(range(1, n + 1))
    if head == "file":
        return tree_from_text(Path(rest).read_text())
    raise ValueError(f"unknown tree spec {spec!r}")
