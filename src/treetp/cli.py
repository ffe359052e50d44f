"""Command-line front end.

Exit codes: 0 when the requested verdict/reproduction passes, 1 when a
verdict is false or a reproduction mismatches, 2 on usage, parse or
exact-chain errors (a rank-1 matrix's zero adjugate under ``spectrum --tree``),
141 (128 + SIGPIPE) when the reader closes standard output early (``| head``).

Matrix arguments accept a file path or ``fixture:<name>`` for one of the
embedded examples.  Trees use the mini-language ``star:<n>[:<center>]``,
``path:<n>``, ``pitchfork`` or ``file:<path>``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .conjecture_lab import (
    GenConfig,
    batch_verify,
    report_to_json,
    smallest_summary,
    test_conjecture,
)
from .exact_linalg import ExactMatrix, adjugate, matrix_from_text, matrix_to_text
from .fixtures import FIXTURES, get_fixture
from .positivity import HypothesisReport, is_t_tp, pendant_deletion_hypothesis
from .spectral import full_spectrum_numeric, smallest_eig_vector
from .tree_model import enumerate_labelled_trees, parse_tree_spec, tree_signing


class CliError(Exception):
    """Bad input: maps to exit code 2."""


def _load_matrix(source: str) -> ExactMatrix:
    if source.startswith("fixture:"):
        name = source[len("fixture:"):]
        try:
            return get_fixture(name).matrix
        except KeyError as exc:
            raise CliError(str(exc)) from exc
    path = Path(source)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CliError(f"cannot read matrix file {source}: {exc}") from exc
    try:
        return matrix_from_text(text)
    except ValueError as exc:
        raise CliError(f"cannot parse matrix file {source}: {exc}") from exc


def _load_tree(spec: str):
    try:
        return parse_tree_spec(spec)
    except (ValueError, OSError) as exc:
        raise CliError(f"bad tree spec: {exc}") from exc


def _int_at_least(low: int):
    """argparse type for a flag that takes an integer, `low` or more.

    A non-integer gets argparse's own message for ``type=int``.
    """
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {low} or more, got {value}")
        return value
    return parse


def _fmt(x: float, precision: int) -> str:
    """Fixed decimals, or exponent form from 1e15 up, where fixed decimals
    would print digits past a double's precision."""
    return f"{x:.{precision}e}" if abs(x) >= 1e15 else f"{x:.{precision}f}"


def cmd_check(args) -> int:
    A = _load_matrix(args.matrix)
    tree = _load_tree(args.tree)
    # --mode applies to the paths only: the pendant checks have no mode
    ttp = is_t_tp(A, tree, mode=args.mode)
    pendant_checks = pendant_deletion_hypothesis(A, tree).pendant_checks if args.augmented else ()
    holds = HypothesisReport(ttp, pendant_checks).holds
    if args.json:
        payload = {
            "t_tp": ttp.is_t_tp,
            "holds": holds,
            "paths": [
                {
                    "path": list(c.path.vertices),
                    "is_tp": c.report.is_tp,
                    "minors_checked": c.report.minors_checked,
                    "witness": None
                    if c.report.witness is None
                    else {
                        "rows": list(c.report.witness.rows),
                        "cols": list(c.report.witness.cols),
                        "value": str(c.report.witness.value),
                    },
                }
                for c in ttp.per_path
            ],
        }
        if args.augmented:
            payload["pendant_checks"] = [
                {
                    "vertex": c.vertex,
                    "is_p_matrix": c.report.is_p_matrix,
                    "witness": None
                    if c.report.witness is None
                    else {
                        "index_set": list(c.report.witness.rows),
                        "value": str(c.report.witness.value),
                    },
                }
                for c in pendant_checks
            ]
        print(json.dumps(payload, indent=2))
    else:
        for c in ttp.per_path:
            status = "TP" if c.report.is_tp else "not TP"
            line = f"path {'-'.join(map(str, c.path.vertices))}: {status}"
            if c.report.witness is not None:
                w = c.report.witness
                line += f" (minor rows={list(w.rows)} cols={list(w.cols)} = {w.value})"
            print(line)
        for c in pendant_checks:
            status = "P-matrix" if c.report.is_p_matrix else "not a P-matrix"
            line = f"pendant {c.vertex} deleted: {status}"
            if c.report.witness is not None:
                w = c.report.witness
                line += f" (principal minor {list(w.rows)} = {w.value})"
            print(line)
        print("verdict:", "PASS" if holds else "FAIL")
    return 0 if holds else 1


def cmd_adjoint(args) -> int:
    print(matrix_to_text(adjugate(_load_matrix(args.matrix))), end="")
    return 0


def cmd_spectrum(args) -> int:
    A = _load_matrix(args.matrix)
    prec = args.precision
    if args.tree:
        tree = _load_tree(args.tree)
        summary = smallest_eig_vector(A, tree)
        char_poly, smallest, spectrum = summary.char_poly, summary.smallest, summary.full_spectrum
    else:
        summary = None
        numeric = full_spectrum_numeric(A)
        char_poly, smallest, spectrum = numeric.char_poly, numeric.smallest, numeric.values

    def cnum(z: complex) -> str:
        if z.imag == 0:
            return _fmt(z.real, prec)
        sign = "+" if z.imag >= 0 else "-"
        return f"{_fmt(z.real, prec)} {sign} {_fmt(abs(z.imag), prec)}i"

    if args.json:
        payload = {
            "char_poly": [str(c) for c in char_poly.coeffs],
            "smallest": smallest_summary(smallest),
            "spectrum": [[z.real, z.imag] for z in spectrum],
        }
        if summary is not None:
            payload["eigenvector_unit"] = list(summary.eigenvector_unit or [])
            payload["eigenvector_last1"] = list(summary.eigenvector_last1 or [])
            payload["signed_ok"] = summary.signed_ok
            payload["residual_inf"] = summary.residual_inf
        print(json.dumps(payload, indent=2))
        return 0

    kind = "real" if smallest.is_real else "complex"
    simple = {True: "simple", False: "multiple", None: "unknown multiplicity"}[smallest.is_simple]
    print(f"smallest eigenvalue: {cnum(smallest.estimate)} ({kind}, {simple})")
    if smallest.ambiguous:
        print("warning: modulus ordering ambiguous at tolerance")
    print("spectrum:", ", ".join(cnum(z) for z in spectrum))
    if summary is not None:
        if summary.eigenvector_last1 is not None:
            print(
                "eigenvector (last entry 1):",
                " ".join(_fmt(x, prec) for x in summary.eigenvector_last1),
            )
        if summary.eigenvector_unit is not None:
            print(
                "eigenvector (unit norm):",
                " ".join(_fmt(x, max(prec, 4)) for x in summary.eigenvector_unit),
            )
        if summary.signed_ok is None:
            print("tree signing: not applicable")
        else:
            verdict = "matches tree signing" if summary.signed_ok else "violates tree signing"
            detail = ""
            if summary.signing is not None and not summary.signing.ok:
                if summary.signing.zero_vertex is not None:
                    detail = f" (zero entry at vertex {summary.signing.zero_vertex})"
                elif summary.signing.violated_edge is not None:
                    u, v = summary.signing.violated_edge
                    detail = f" (edge {{{u},{v}}} violated)"
            print(f"eigenvector {verdict}{detail}")
    return 0


def cmd_signing(args) -> int:
    tree = _load_tree(args.tree)
    signs = tree_signing(tree, args.anchor)
    if args.json:
        print(json.dumps({"anchor": args.anchor, "signs": list(signs)}))
    else:
        print(" ".join("+" if s > 0 else "-" for s in signs))
    return 0


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, _, hi = text.partition(":")
        return int(lo), int(hi)
    except ValueError as exc:
        raise CliError(f"bad range {text!r}; use lo:hi") from exc


def cmd_conjecture(args) -> int:
    tree = _load_tree(args.tree)
    try:
        cfg = GenConfig(
            tree=tree,
            entry_range=_parse_range(args.range),
            seed=args.seed,
            max_attempts=args.max_attempts,
            augmented=args.augmented,
            symmetric=args.symmetric,
            repair=args.repair,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    report = batch_verify(cfg, args.trials, keep=args.keep, workers=args.workers)
    if args.json:
        print(report_to_json(report))
    else:
        print(f"trials:          {report.trials}")
        print(f"generated:       {report.generated}")
        print(f"hypothesis pass: {report.hypothesis_pass}")
        print(f"conclusion pass: {report.conclusion_pass}")
        print(f"counterexamples: {report.counterexamples}")
        for i, ex in enumerate(report.exemplars, 1):
            print(f"--- counterexample {i} ---")
            print(matrix_to_text(ex.matrix), end="")
            print(json.dumps(ex.verdict))
    return 1 if report.counterexamples > 0 else 0


def cmd_reproduce(args) -> int:
    try:
        fixture = get_fixture(args.name)
    except KeyError as exc:
        raise CliError(str(exc)) from exc
    failures: list[str] = []
    checks: list[str] = []

    def check(label: str, ok: bool, detail: str = ""):
        checks.append(f"{'PASS' if ok else 'FAIL'}  {label}" + (f"  {detail}" if detail else ""))
        if not ok:
            failures.append(label)

    A, tree = fixture.matrix, fixture.tree
    verdict = test_conjecture(A, tree, augmented=False)
    summary = verdict.summary

    if fixture.expected_adjugate is not None:
        got = verdict.adjoint.adjugate
        ok = got == fixture.expected_adjugate
        detail = ""
        if not ok:
            diffs = [
                f"({i + 1},{j + 1}): {got.rows[i][j]} != {fixture.expected_adjugate.rows[i][j]}"
                for i in range(A.n)
                for j in range(A.n)
                if got.rows[i][j] != fixture.expected_adjugate.rows[i][j]
            ]
            detail = "; ".join(diffs[:4])
        check("adjugate exact match", ok, detail)

    lam = summary.smallest.estimate
    ok = summary.smallest.is_real and abs(lam.real - fixture.expected_smallest) <= fixture.expected_smallest_tol
    check(
        f"smallest eigenvalue ~ {fixture.expected_smallest}",
        ok,
        f"got {lam.real:.4f}",
    )

    vec = summary.eigenvector_last1
    if vec is None:
        check("eigenvector (last entry 1)", False, "no last-1 normalization")
    else:
        worst = max(abs(a - b) for a, b in zip(vec, fixture.expected_eigenvector_last1))
        check(
            "eigenvector within 0.01 per entry",
            len(vec) == len(fixture.expected_eigenvector_last1) and worst <= 0.01,
            f"max deviation {worst:.4f}",
        )

    check(
        f"signing verdict = {fixture.expected_signed_ok}",
        summary.signed_ok == fixture.expected_signed_ok,
        f"got {summary.signed_ok}",
    )
    check(
        f"adjoint sign check = {fixture.expected_adjoint_ok}",
        verdict.adjoint.ok == fixture.expected_adjoint_ok,
        f"got {verdict.adjoint.ok}",
    )
    if fixture.expected_mismatches is not None:
        check(
            f"adjoint mismatch set = {set(fixture.expected_mismatches) or '{}'}",
            verdict.adjoint.mismatches == fixture.expected_mismatches,
            f"got {set(verdict.adjoint.mismatches) or '{}'}",
        )
    if fixture.expected_complex_pair is not None:
        target = fixture.expected_complex_pair
        best = min(
            (abs(z - target) / abs(target) for z in summary.full_spectrum),
            default=float("inf"),
        )
        check("complex pair within 5e-4 relative", best <= 5e-4, f"relative error {best:.2e}")
    check(
        f"counterexample flag = {fixture.expected_counterexample}",
        verdict.is_counterexample == fixture.expected_counterexample,
        f"got {verdict.is_counterexample}",
    )

    if args.json:
        print(
            json.dumps(
                {"fixture": fixture.name, "checks": checks, "ok": not failures}, indent=2
            )
        )
    else:
        for line in checks:
            print(line)
        print("reproduction:", "PASS" if not failures else "FAIL")
    return 0 if not failures else 1


def cmd_trees(args) -> int:
    try:
        trees = enumerate_labelled_trees(args.n)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    for tree in trees:
        print(" ".join(f"{u}-{v}" for u, v in tree.sorted_edges()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treetp",
        description="Exact checks of tree-relative total positivity and its spectral predictions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify the tree-TP property (optionally augmented)")
    p.add_argument("matrix", help="matrix file or fixture:<name>")
    p.add_argument("--tree", required=True, help="tree spec")
    p.add_argument("--augmented", action="store_true", help="also require pendant-deletion P-matrices")
    p.add_argument("--mode", choices=["initial-minors", "all-minors"], default="initial-minors")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("adjoint", help="print the exact adjugate")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_adjoint)

    p = sub.add_parser("spectrum", help="smallest-eigenvalue classification and eigenvector")
    p.add_argument("matrix")
    p.add_argument("--tree", help="tree spec for the signing verdict")
    p.add_argument("--precision", type=_int_at_least(0), default=2)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("signing", help="print the tree signing")
    p.add_argument("--tree", required=True)
    p.add_argument("--anchor", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_signing)

    p = sub.add_parser("conjecture", help="randomized batch verification / counterexample search")
    p.add_argument("--tree", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--range", default="1:150", help="entry range lo:hi")
    p.add_argument("--max-attempts", type=int, default=None, help="default: 2000000, or 1000 starts with --repair")
    p.add_argument("--augmented", action="store_true")
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--repair", action="store_true", help="greedy single-entry repair phase")
    p.add_argument("--keep", type=_int_at_least(0), default=5)
    p.add_argument("--workers", type=_int_at_least(1), default=1, help="worker processes; reports are identical for any count")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("reproduce", help="recompute an embedded example and compare")
    p.add_argument("name", choices=sorted(FIXTURES))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("trees", help="list all labelled trees on n vertices")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_trees)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe early is seen here, not at exit
        return code
    except BrokenPipeError:
        # as the Python docs advise: point stdout at devnull so the final flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (CliError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
