"""Golden verdicts: the exact verify chain pinned on fixed matrices.

Each case pins, for one matrix, the characteristic polynomial's
coefficients, the adjugate, the smallest real root's isolating interval,
the eigenvector route and the `verdict_summary`, all as printed strings
or JSON values.  The cases are the three fixtures, twelve matrices of
`perfbench/corpus.json` covering the `adjugate-perron`,
`inverse-iteration` and `none` routes, and three rational matrices
derived from them, so that a change to the exact arithmetic behind any
of these outputs shows up here.  The corpus file is only read.
"""
import json
import operator
from pathlib import Path

import pytest

from treetp import FIXTURES, ExactMatrix, parse_tree_spec, spectral, tree_signing
from treetp.conjecture_lab import test_conjecture as verify
from treetp.conjecture_lab import verdict_summary

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "perfbench" / "corpus.json"
GOLDEN = json.loads((Path(__file__).resolve().parent / "golden_verdicts.json").read_text())

# (corpus category, matrix index) per case
CORPUS_CASES = {
    f"{cat}-{i}": (cat, i)
    for cat, indices in [
        ("star5", (0, 1, 2, 17)),
        ("star6-aug", (0, 5)),
        ("pitchfork-sym", (0, 1)),
        ("random", (0, 1, 2, 3)),
    ]
    for i in indices
}

# rational case -> (integer case it is derived from, divisor of entry (i, j))
RATIONAL_CASES = {
    "star5-2-over-6": ("star5-2", lambda i, j: 6),
    "random-1-rows-over-i+2": ("random-1", lambda i, j: i + 2),
    "star4-example-mixed": ("star4-example", lambda i, j: 1 + (i + j) % 3),
}


def _corpus_case(cat: str, index: int):
    data = json.loads(CORPUS.read_text())
    category = next(c for c in data["categories"] if c["name"] == cat)
    return (
        ExactMatrix(category["matrices"][index]),
        parse_tree_spec(category["tree"]),
        category["augmented"],
    )


def _case(name: str):
    """(matrix, tree, augmented) of a named case."""
    if name in CORPUS_CASES:
        return _corpus_case(*CORPUS_CASES[name])
    if name in RATIONAL_CASES:
        base, divisor = RATIONAL_CASES[name]
        A, tree, augmented = _case(base)
        rows = [[x / divisor(i, j) for j, x in enumerate(row)] for i, row in enumerate(A.rows)]
        return ExactMatrix(rows), tree, augmented
    fx = FIXTURES[name]
    return fx.matrix, fx.tree, False


def observe(name: str) -> dict:
    """Everything a case pins, as JSON values."""
    A, tree, augmented = _case(name)
    v = verify(A, tree, augmented)
    interval = v.smallest.interval
    return {
        "char_poly": [str(c) for c in v.summary.char_poly.coeffs],
        "adjugate": [[str(x) for x in row] for row in v.adjoint.adjugate.rows],
        "interval": None if interval is None else [str(interval.lo), str(interval.hi)],
        "route": v.summary.route,
        "verdict": verdict_summary(v),
    }


CASES = sorted(FIXTURES) + list(CORPUS_CASES) + list(RATIONAL_CASES)


def test_cases_cover_every_route():
    assert sorted(GOLDEN) == sorted(CASES)
    routes = {GOLDEN[name]["route"] for name in CASES}
    assert {"adjugate-perron", "inverse-iteration", "none"} <= routes


@pytest.mark.parametrize("name", CASES)
def test_verdict_is_pinned(name):
    assert json.loads(json.dumps(observe(name))) == GOLDEN[name]


def test_adjugate_check_implies_the_float_conclusion():
    # Perron-Frobenius cross-check: wherever the exact adjugate check holds,
    # the descriptive float fields agree that the smallest eigenvalue is
    # real and simple with a tree-signed eigenvector
    data = json.loads(CORPUS.read_text())
    inputs = [_case(name) for name in CASES] + [
        (ExactMatrix(m), parse_tree_spec(c["tree"]), c["augmented"])
        for c in data["categories"]
        for m in c["matrices"]
    ]
    checked = 0
    for A, tree, augmented in inputs:
        v = verify(A, tree, augmented)
        if v.adjoint.ok:
            assert v.smallest.is_real and v.smallest.is_simple is True
            assert v.eigenvector_signed is True
            checked += 1
    assert checked > 0


def test_adjugate_routes_read_tree_signed_columns(monkeypatch):
    # S adj(mu I - A) S has one strict sign on the adjugate routes, so the
    # integer column read there is exactly tree-signed, entry by entry
    columns = []
    read = spectral._adjugate_column

    def recording(faddeev, mu):
        columns.append(read(faddeev, mu))
        return columns[-1]

    monkeypatch.setattr(spectral, "_adjugate_column", recording)
    data = json.loads(CORPUS.read_text())
    inputs = [_case(name) for name in CASES] + [
        (ExactMatrix(m), parse_tree_spec(c["tree"]), c["augmented"])
        for c in data["categories"]
        for m in c["matrices"]
    ]
    inputs.append((ExactMatrix([[1, 2], [2, 4]]), parse_tree_spec("path:2"), False))
    routes = set()
    for A, tree, augmented in inputs:
        columns.clear()
        route = verify(A, tree, augmented).summary.route
        if route.startswith("adjugate"):
            routes.add(route)
            [column] = columns
            s = tree_signing(tree, 1)
            assert {(x > 0) - (x < 0) for x in map(operator.mul, s, column)} in ({1}, {-1})
    assert routes == {"adjugate-perron", "adjugate-column"}
