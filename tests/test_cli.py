import json

import pytest

from treetp.cli import main
from treetp.exact_linalg import matrix_to_text
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
        code, _, err = run(capsys, "check", "fixture:star4-example", "--tree", "star:5")
        assert code == 2

    def test_bad_tree_spec_exit_2(self, capsys):
        code, _, err = run(capsys, "check", "fixture:star4-example", "--tree", "blob:4")
        assert code == 2

    def test_all_minors_mode(self, capsys):
        code, _, _ = run(
            capsys, "check", "fixture:star4-example", "--tree", "star:4", "--mode", "all-minors"
        )
        assert code == 0


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
