"""Regenerate perfbench/corpus.json, the input of the verify-corpus workload.

Run from the repository root (takes several minutes on the plain numpy
backend, most of it in the star-6 and pitchfork repair):

    python3 perfbench/make_corpus.py

Every matrix comes from a fixed generator seed, so the file is
reproducible.  The summary printed at the end (hypothesis verdicts,
counterexamples and eigenvector routes per category) is the make-up
recorded in perfbench/README.md.
"""
from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from treetp import (  # noqa: E402
    FIXTURES,
    ExactMatrix,
    GenConfig,
    gen_candidate,
    parse_tree_spec,
    test_conjecture,
)

CORPUS = HERE / "corpus.json"

# name: (tree spec, augmented, symmetric, first generator seed, count)
CATEGORIES = {
    "star5": ("star:5", False, False, 5000, 160),
    "star6-aug": ("star:6", True, False, 6000, 16),
    "pitchfork-sym": ("pitchfork", False, True, 7000, 24),
    "random": ("star:5", False, False, 8000, 96),
}
FIXTURE_TREES = {
    "star4-example": "star:4",
    "star5-counterexample": "star:5",
    "pitchfork-counterexample": "pitchfork",
}


def _ints(matrix: ExactMatrix) -> list[list[int]]:
    return [[int(x) for x in row] for row in matrix.rows]


def _generated(spec: str, augmented: bool, symmetric: bool, seed: int, count: int):
    """Slot 0 of seeds seed, seed+1, ...; seeds whose slot exhausts are skipped."""
    tree = parse_tree_spec(spec)
    out, skipped = [], []
    k = seed
    while len(out) < count:
        cfg = GenConfig(
            tree=tree, entry_range=(1, 150), seed=k, augmented=augmented,
            symmetric=symmetric, repair=True, max_attempts=50,
        )
        matrix = gen_candidate(cfg)
        if matrix is None:
            skipped.append(k)
        else:
            out.append(_ints(matrix))
        k += 1
    return out, skipped


def _random_failing(spec: str, seed: int, count: int):
    """Uniform matrices on 1..150 that fail the hypothesis for the tree."""
    tree = parse_tree_spec(spec)
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a = rng.integers(1, 151, size=(tree.n, tree.n)).tolist()
        if not test_conjecture(ExactMatrix(a), tree).hypothesis.holds:
            out.append(a)
    return out


def main() -> None:
    categories = []
    for name, (spec, augmented, symmetric, seed, count) in CATEGORIES.items():
        if name == "random":
            matrices, skipped = _random_failing(spec, seed, count), []
        else:
            matrices, skipped = _generated(spec, augmented, symmetric, seed, count)
        categories.append({
            "name": name, "tree": spec, "augmented": augmented, "symmetric": symmetric,
            "seed": seed, "skipped_seeds": skipped, "matrices": matrices,
        })
        print(f"{name}: {len(matrices)} matrices, skipped seeds {skipped}", file=sys.stderr)
    fixtures = [
        {"name": name, "tree": FIXTURE_TREES[name], "augmented": False,
         "matrix": _ints(FIXTURES[name].matrix)}
        for name in FIXTURE_TREES
    ]
    CORPUS.write_text(json.dumps({"categories": categories, "fixtures": fixtures}) + "\n")

    print("category | matrices | hypothesis holds | counterexamples | routes")
    for cat in categories + [{"name": f["name"], "tree": f["tree"], "augmented": False,
                              "matrices": [f["matrix"]]} for f in fixtures]:
        tree = parse_tree_spec(cat["tree"])
        routes, holds, cx = Counter(), 0, 0
        for a in cat["matrices"]:
            v = test_conjecture(ExactMatrix(a), tree, cat["augmented"])
            routes[v.summary.route] += 1
            holds += v.hypothesis.holds
            cx += v.is_counterexample
        mix = ", ".join(f"{r} {c}" for r, c in sorted(routes.items()))
        print(f"{cat['name']} | {len(cat['matrices'])} | {holds} | {cx} | {mix}")


if __name__ == "__main__":
    main()
