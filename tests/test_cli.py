import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import treetp
from treetp.cli import main
from treetp.exact_linalg import ExactMatrix, matrix_to_text
from treetp.fixtures import STAR4_EXAMPLE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_fixture_star4_passes(self, capsys):
        code, out, _ = run(capsys, "check", "fixture:star4-example", "--tree", "star:4")
        assert code == 0
        assert "PASS" in out

    def test_identity_fails_with_witness(self, capsys, tmp_path):
        p = tmp_path / "eye.txt"
        p.write_text("1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
        code, out, _ = run(capsys, "check", str(p), "--tree", "star:4")
        assert code == 1
        assert "not TP" in out and "0" in out

    def test_augmented_reports_pendant_blocks(self, capsys):
        code, out, _ = run(
            capsys, "check", "fixture:star5-counterexample", "--tree", "star:5", "--augmented"
        )
        assert "pendant" in out
        assert code in (0, 1)

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "check", "fixture:star4-example", "--tree", "star:4", "--json"
        )
        data = json.loads(out)
        assert data["t_tp"] is True and data["holds"] is True
        assert len(data["paths"]) == 3

    def test_parse_error_exit_2(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 x\n2 3\n")
        code, _, err = run(capsys, "check", str(p), "--tree", "star:2")
        assert code == 2 and "error" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent.txt", "--tree", "star:4")
        assert code == 2

    def test_dimension_mismatch_exit_2(self, capsys):
        # the size check belongs to the callee; main prints its ValueError
        for argv in (
            ["check"],
            ["check", "--augmented"],
            ["check", "--mode", "all-minors"],
            ["spectrum"],
        ):
            code, out, err = run(capsys, argv[0], "fixture:star4-example", "--tree", "star:5", *argv[1:])
            assert code == 2, argv
            assert out == ""
            assert err == "error: matrix is 4x4 but tree has 5 vertices\n"

    def test_bad_tree_spec_exit_2(self, capsys):
        code, _, err = run(capsys, "check", "fixture:star4-example", "--tree", "blob:4")
        assert code == 2

    def test_all_minors_mode(self, capsys):
        code, _, _ = run(
            capsys, "check", "fixture:star4-example", "--tree", "star:4", "--mode", "all-minors"
        )
        assert code == 0

    def test_augmented_follows_mode(self, capsys, tmp_path):
        # --mode decides the path checks with or without --augmented; the
        # pendant checks have no mode
        p = tmp_path / "m.txt"
        p.write_text("5 4 1 1\n4 5 4 1\n1 4 5 9\n1 1 9 5\n")
        pendant_checks = []
        for mode in ("initial-minors", "all-minors"):
            base = ("check", str(p), "--tree", "star:4", "--mode", mode, "--json")
            plain = json.loads(run(capsys, *base)[1])
            code, out, _ = run(capsys, *base, "--augmented")
            augmented = json.loads(out)
            assert code == 1 and augmented["paths"] == plain["paths"]
            pendant_checks.append(augmented["pendant_checks"])
        assert [c["minors_checked"] for c in augmented["paths"]] == [11, 12, 11]
        assert pendant_checks[0] == pendant_checks[1]

    def test_closed_pipe_exits_quietly(self):
        # a reader that stops early, as `treetp trees --n 7 | head -1` does
        src = str(Path(treetp.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "treetp.cli", "trees", "--n", "7"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.stdout.readline().strip()
        proc.stdout.close()  # 16,807 lines remain, more than a pipe buffer holds
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert err == b""


class TestAdjoint:
    def test_exact_output(self, capsys):
        code, out, _ = run(capsys, "adjoint", "fixture:star4-example")
        assert code == 0
        assert out == matrix_to_text(STAR4_EXAMPLE.expected_adjugate)

    def test_from_file(self, capsys, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("1 2\n3 4\n")
        code, out, _ = run(capsys, "adjoint", str(p))
        assert code == 0
        assert out == "4 -2\n-3 1\n"


class TestSpectrum:
    def test_star4_human(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "fixture:star4-example", "--tree", "star:4"
        )
        assert code == 0
        assert "2.50" in out
        assert "matches tree signing" in out

    def test_star5_reports_violation(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "fixture:star5-counterexample", "--tree", "star:5"
        )
        assert code == 0
        assert "violates tree signing" in out
        assert "{1,3}" in out

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "fixture:star4-example", "--tree", "star:4", "--json"
        )
        data = json.loads(out)
        assert data["smallest"]["is_real"] is True
        assert abs(data["smallest"]["re"] - 2.505) < 0.01
        assert data["signed_ok"] is True

    def test_without_tree(self, capsys):
        code, out, _ = run(capsys, "spectrum", "fixture:star4-example")
        assert code == 0
        assert "smallest eigenvalue" in out

    def test_json_without_tree_reports_char_poly(self, capsys):
        _, with_tree, _ = run(
            capsys, "spectrum", "fixture:star4-example", "--tree", "star:4", "--json"
        )
        code, out, _ = run(capsys, "spectrum", "fixture:star4-example", "--json")
        assert code == 0
        data = json.loads(out)
        assert len(data["char_poly"]) == 5
        assert data["char_poly"] == json.loads(with_tree)["char_poly"]

    def test_precision_flag(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "fixture:star4-example", "--tree", "star:4", "--precision", "4"
        )
        assert code == 0
        assert "2.5050" in out

    def test_negative_precision_exit_2(self, capsys):
        code, out, err = run(
            capsys, "spectrum", "fixture:star4-example", "--tree", "star:4", "--precision", "-1"
        )
        assert code == 2
        assert out == ""
        assert "--precision" in err

    def test_pair_estimated_on_the_real_axis(self, capsys, tmp_path):
        # eigenvalues 1e10 +- i, both estimated as 1e10 with no imaginary part
        p = tmp_path / "pair.txt"
        p.write_text(f"0 {-(10**20 + 1)}\n1 {2 * 10**10}\n")
        code, out, err = run(capsys, "spectrum", str(p))
        assert code == 0 and err == ""
        assert "(complex, unknown multiplicity)" in out

    def test_last1_beyond_the_float_range_is_left_out(self, capsys, tmp_path):
        # eigenvector (10^400 / 2, -10^200 / 2, 1) of the eigenvalue 1
        p = tmp_path / "big.txt"
        p.write_text(f"2 {10**200} 0\n0 3 {10**200}\n0 0 1\n")
        code, out, err = run(capsys, "spectrum", str(p), "--tree", "path:3")
        assert code == 0 and err == ""
        assert "eigenvector (unit norm): 1.0000" in out
        assert "last entry 1" not in out
        code, out, _ = run(capsys, "spectrum", str(p), "--tree", "path:3", "--json")
        data = json.loads(out)
        assert code == 0
        assert data["eigenvector_last1"] == []
        assert data["eigenvector_unit"][0] == 1.0 and data["signed_ok"] is True

    def test_rank_deficient_matrix_exit_2(self, capsys, tmp_path):
        p = tmp_path / "low.txt"
        p.write_text("0 0 0\n0 0 0\n0 0 1\n")
        code, out, err = run(capsys, "spectrum", str(p), "--tree", "star:3")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "rank" in err


class TestSigning:
    def test_star4(self, capsys):
        code, out, _ = run(capsys, "signing", "--tree", "star:4")
        assert code == 0
        assert out.strip() == "+ - - -"

    def test_anchor(self, capsys):
        code, out, _ = run(capsys, "signing", "--tree", "star:4", "--anchor", "2")
        assert code == 0
        assert out.strip() == "- + + +"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "signing", "--tree", "pitchfork", "--json")
        assert json.loads(out)["signs"] == [1, -1, -1, -1, 1]


class TestConjecture:
    def test_star4_tiny_batch(self, capsys):
        code, out, _ = run(
            capsys, "conjecture", "--tree", "star:4", "--trials", "3", "--seed", "5"
        )
        assert code == 0
        assert "counterexamples: 0" in out

    def test_star5_repair_finds_counterexamples(self, capsys):
        code, out, _ = run(
            capsys, "conjecture", "--tree", "star:5", "--trials", "10", "--seed", "44",
            "--repair", "--max-attempts", "30", "--keep", "1",
        )
        assert code == 1
        assert "counterexample 1" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "conjecture", "--tree", "star:4", "--trials", "2", "--seed", "5", "--json"
        )
        from treetp import report_from_json

        report = report_from_json(out)
        assert report.trials == 2

    def test_range_beyond_int64_exit_2(self, capsys):
        code, out, err = run(
            capsys, "conjecture", "--tree", "star:4", "--trials", "1",
            "--range", "1:100000000000000000000",
        )
        assert (code, out) == (2, "")
        assert err == "error: entry range must end at or below 2**63 - 1\n"

    def test_repair_attempt_default(self, capsys):
        code, out, _ = run(
            capsys, "conjecture", "--tree", "star:4", "--repair", "--trials", "1", "--json"
        )
        assert code == 0
        assert json.loads(out)["config"]["max_attempts"] == 1000

    def test_bad_range_exit_2(self, capsys):
        code, _, err = run(
            capsys, "conjecture", "--tree", "star:4", "--trials", "1", "--range", "10"
        )
        assert code == 2

    def test_negative_keep_exit_2(self, capsys):
        code, out, err = run(
            capsys, "conjecture", "--tree", "star:3", "--trials", "1", "--keep", "-1"
        )
        assert code == 2
        assert out == ""
        assert "--keep" in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, capsys, workers):
        code, out, err = run(
            capsys, "conjecture", "--tree", "star:4", "--trials", "1", "--workers", workers
        )
        assert code == 2
        assert out == ""
        assert "--workers" in err and f"must be 1 or more, got {workers}" in err

    def test_negative_trials_exit_2(self, capsys):
        code, out, err = run(
            capsys, "conjecture", "--tree", "star:3", "--trials", "-2", "--json"
        )
        assert code == 2
        assert out == ""
        assert "trials" in err


class TestReproduce:
    @pytest.mark.parametrize(
        "name", ["star4-example", "star5-counterexample", "pitchfork-counterexample"]
    )
    def test_all_fixtures_pass(self, capsys, name):
        code, out, _ = run(capsys, "reproduce", name)
        assert code == 0, out
        assert "reproduction: PASS" in out
        assert "FAIL" not in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "reproduce", "star4-example", "--json")
        data = json.loads(out)
        assert data["ok"] is True

    def test_unknown_fixture_usage_error(self, capsys):
        code, _, _ = run(capsys, "reproduce", "not-a-fixture")
        assert code == 2


class TestTrees:
    def test_n4_count(self, capsys):
        code, out, _ = run(capsys, "trees", "--n", "4")
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 16
        assert all("-" in l for l in lines)

    def test_out_of_range_exit_2(self, capsys):
        code, _, err = run(capsys, "trees", "--n", "12")
        assert code == 2


class TestUsage:
    def test_no_command_exit_2(self, capsys):
        assert main([]) == 2

    def test_unknown_command_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


# `treetp check` output pinned on failing `random` corpus matrices on star:5
# (and one rational matrix derived from one of them), with and without
# --augmented, as text and as JSON.  The corpus file is only read.
CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.json"
GOLDEN_CHECK = Path(__file__).resolve().parent / "golden_check.json"
CHECK_MATRICES = ("random-2", "random-20", "random-24", "random-30", "random-2-rows-over-i+2")
CHECK_FLAGS = ((), ("--augmented",), ("--json",), ("--augmented", "--json"))


def _check_matrix(name: str) -> ExactMatrix:
    data = json.loads(CORPUS.read_text())
    random = next(c for c in data["categories"] if c["name"] == "random")
    rows = random["matrices"][int(name.split("-")[1])]
    if name.endswith("-rows-over-i+2"):
        rows = [[Fraction(x, i + 2) for x in row] for i, row in enumerate(rows)]
    return ExactMatrix(rows)


def observe_check(capsys, tmp_path, name: str, flags) -> dict:
    """Exit code, stdout and stderr of `treetp check <name> --tree star:5 <flags>`."""
    path = tmp_path / f"{name}.txt"
    path.write_text(matrix_to_text(_check_matrix(name)))
    code, out, err = run(capsys, "check", str(path), "--tree", "star:5", *flags)
    return {"exit": code, "stdout": out, "stderr": err}


class TestCheckGolden:
    @pytest.mark.parametrize("flags", CHECK_FLAGS, ids=lambda f: " ".join(f) or "text")
    @pytest.mark.parametrize("name", CHECK_MATRICES)
    def test_output_is_pinned(self, capsys, tmp_path, name, flags):
        golden = json.loads(GOLDEN_CHECK.read_text())
        key = " ".join((name, *flags))
        assert observe_check(capsys, tmp_path, name, flags) == golden[key]
