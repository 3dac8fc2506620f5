"""Command-line behavior: exit codes, frozen output formats, seeded
reproducibility, and error reporting for every subcommand."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import makaro_zkp
from makaro_zkp import Transcript
from makaro_zkp.cli import main

from conftest import PUZZLES

EXAMPLE = str(PUZZLES / "example5x5.makaro")
EXAMPLE_SOLUTION = str(PUZZLES / "example5x5_solution.makaro")
QUAD = str(PUZZLES / "quad.makaro")
CROSS = str(PUZZLES / "cross.makaro")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestCheck:
    def test_valid_solution(self, capsys):
        code, out, err = run_cli(capsys, "check", "--puzzle", EXAMPLE,
                                 "--solution", EXAMPLE_SOLUTION)
        assert (code, out, err) == (0, "valid\n", "")

    def test_neighbor_violation_is_described(self, capsys, tmp_path):
        bad = write(tmp_path, "bad.makaro", "makaro 2 2\nA=1 A=2\nB=1 B=2\n")
        code, out, _ = run_cli(capsys, "check", "--puzzle", QUAD, "--solution", bad)
        assert code == 1
        assert out == (
            "neighbor (0,0)-(1,0): equal values across a room border\n"
            "neighbor (0,1)-(1,1): equal values across a room border\n")

    def test_room_violation_is_described(self, capsys, tmp_path):
        bad = write(tmp_path, "bad.makaro", "makaro 2 2\nA=1 A=1\nB=1 B=2\n")
        code, out, _ = run_cli(capsys, "check", "--puzzle", QUAD, "--solution", bad)
        assert code == 1
        assert out.splitlines()[0] == "room A: values are not exactly 1..size"

    def test_violations_listed_in_rule_order(self, capsys, tmp_path):
        # swapping the size-2 room's two values breaks a neighbor pair and
        # leaves the left-pointing arrow facing a tie
        solution = write(tmp_path, "swapped.makaro", (
            "makaro 5 5\n"
            "A=1 B=1 B< C=1 C=2\n"
            "A=3 B=2 B> C=5 C=3\n"
            "A=2 Bv D=2 C=4 Bv\n"
            "E=1 F=3 D=4 D=3 D=5\n"
            "E=2 F=1 F=2 B^ D=1\n"))
        code, out, _ = run_cli(capsys, "check", "--puzzle", EXAMPLE,
                               "--solution", solution)
        assert code == 1
        assert out.splitlines() == [
            "neighbor (0,0)-(0,1): equal values across a room border",
            "arrow (0,2): pointed cell is not the unique maximum",
        ]

    def test_layout_mismatch_is_a_usage_error(self, capsys, tmp_path):
        other = write(tmp_path, "other.makaro", "makaro 1 2\nA=1 A=2\n")
        code, out, err = run_cli(capsys, "check", "--puzzle", QUAD,
                                 "--solution", other)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "layout" in err

    def test_incomplete_solution_names_the_open_cell(self, capsys, tmp_path):
        partial = write(tmp_path, "partial.makaro", "makaro 2 2\nA=1 A\nB=2 B=1\n")
        code, _, err = run_cli(capsys, "check", "--puzzle", QUAD,
                               "--solution", partial)
        assert code == 2
        assert "no value for cell (0,1)" in err

    def test_solution_contradicting_a_clue_is_a_usage_error(
            self, capsys, tmp_path):
        # the puzzle's clue at (0,4) is 2; a file claiming 1 there does not
        # describe a solution of this puzzle, for check and prove alike
        with open(EXAMPLE_SOLUTION, encoding="utf-8") as handle:
            text = handle.read()
        twisted = write(tmp_path, "twisted.makaro",
                        text.replace("C=2", "C=1").replace("D=1", "D=2"))
        for command in ("check", "prove"):
            code, out, err = run_cli(capsys, command, "--puzzle", EXAMPLE,
                                     "--solution", twisted)
            assert code == 2
            assert out == ""
            assert "value 1 at (0,4) contradicts the clue 2" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "check", "--puzzle",
                               str(tmp_path / "nope.makaro"),
                               "--solution", EXAMPLE_SOLUTION)
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_puzzle(self, capsys, tmp_path):
        broken = write(tmp_path, "broken.makaro", "makaro 2 2\nA ?\nB B\n")
        code, _, err = run_cli(capsys, "check", "--puzzle", broken,
                               "--solution", EXAMPLE_SOLUTION)
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("which", ["--puzzle", "--solution"])
    def test_file_that_is_not_utf8_is_an_input_error(self, capsys, tmp_path, which):
        binary = tmp_path / "binary.makaro"
        binary.write_bytes(b"\xff\xfe")
        files = {"--puzzle": EXAMPLE, "--solution": EXAMPLE_SOLUTION, which: str(binary)}
        code, out, err = run_cli(capsys, "check", "--puzzle", files["--puzzle"],
                                 "--solution", files["--solution"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "not UTF-8" in err


class TestSolve:
    def test_quad_lists_both_solutions(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--puzzle", QUAD)
        assert code == 0
        assert out == (
            "2 solutions\n"
            "\n"
            "makaro 2 2\n"
            "A=1 A=2\n"
            "B=2 B=1\n"
            "\n"
            "makaro 2 2\n"
            "A=2 A=1\n"
            "B=1 B=2\n")

    def test_unique_solution_word(self, capsys, tmp_path):
        line3 = str(PUZZLES / "line3.makaro")
        code, out, _ = run_cli(capsys, "solve", "--puzzle", line3)
        assert code == 0
        assert out.splitlines()[0] == "1 solution"

    def test_unsolvable_puzzle(self, capsys, tmp_path):
        dead = write(tmp_path, "dead.makaro", "makaro 1 2\nA B\n")
        code, out, _ = run_cli(capsys, "solve", "--puzzle", dead)
        assert code == 1
        assert out == "0 solutions\n"

    def test_contradictory_clues_report_zero_solutions(self, capsys, tmp_path):
        dead = write(tmp_path, "dead.makaro", "makaro 1 2\nA=1 A=1\n")
        code, out, _ = run_cli(capsys, "solve", "--puzzle", dead)
        assert code == 1
        assert out == "0 solutions\n"

    def test_search_bound(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--puzzle", EXAMPLE, "--bound", "10")
        assert code == 2
        assert err.startswith("error:")
        # the bound counts the 27,648 of the example's 2,073,600 room
        # fillings that keep its clues
        code, out, _ = run_cli(capsys, "solve", "--puzzle", EXAMPLE, "--bound", "27648")
        assert (code, out.splitlines()[0]) == (0, "1 solution")
        code, out, err = run_cli(capsys, "solve", "--puzzle", EXAMPLE, "--bound", "27647")
        assert (code, out) == (2, "")
        assert "27648 candidate fillings exceed the bound of 27647" in err


class TestProve:
    def test_accepts_a_valid_solution(self, capsys):
        code, out, _ = run_cli(capsys, "prove", "--puzzle", EXAMPLE,
                               "--solution", EXAMPLE_SOLUTION,
                               "--seed", "s", "--trials", "5")
        assert code == 0
        assert out == (
            "puzzle: 5x5, 20 white cells, 6 rooms\n"
            "deck budget: 61 cards\n"
            "accepted: 5 of 5\n")

    def test_rejects_and_names_the_first_failure(self, capsys, tmp_path):
        bad = write(tmp_path, "bad.makaro", "makaro 2 2\nA=1 A=2\nB=1 B=2\n")
        code, out, _ = run_cli(capsys, "prove", "--puzzle", QUAD,
                               "--solution", bad, "--seed", "s", "--trials", "3")
        assert code == 1
        lines = out.splitlines()
        assert lines[1] == "deck budget: 18 cards"
        assert lines[2] == "accepted: 0 of 3"
        assert lines[3] == "first failure: neighbor pair (0, 0)-(1, 0)"
        # cross's solution with (0, 2) and (1, 2) swapped keeps every room
        # and neighbor rule and breaks only the arrow at (1, 1)
        swapped = write(tmp_path, "cross_arrow.makaro",
                        "makaro 3 3\nA=1 A=2 B=3\nC=2 B> B=1\nC=1 B=2 B=4\n")
        code, out, _ = run_cli(capsys, "check", "--puzzle", CROSS, "--solution", swapped)
        assert (code, out) == (1, "arrow (1,1): pointed cell is not the unique maximum\n")
        code, out, _ = run_cli(capsys, "prove", "--puzzle", CROSS,
                               "--solution", swapped, "--seed", "s", "--trials", "3")
        assert code == 1
        assert out.splitlines()[2:] == ["accepted: 0 of 3", "first failure: arrow at (1, 1)"]

    def test_transcript_file_round_trips(self, capsys, tmp_path):
        out_path = tmp_path / "run.transcript"
        code, out, _ = run_cli(capsys, "prove", "--puzzle", QUAD,
                               "--solution", write(tmp_path, "good.makaro",
                                                   "makaro 2 2\nA=1 A=2\nB=2 B=1\n"),
                               "--seed", "t", "--transcript-out", str(out_path))
        assert code == 0
        assert f"transcript of trial 0 written to {out_path}" in out
        text = out_path.read_text(encoding="utf-8")
        parsed = Transcript.from_text(text)
        assert parsed.to_text() == text
        ends = [ev for ev in parsed.events if ev[0] == "end"]
        assert ends and all(ev[-1] for ev in ends)

    def test_minimal_puzzle(self, capsys, tmp_path):
        puzzle = write(tmp_path, "one.makaro", "makaro 1 1\nA\n")
        solution = write(tmp_path, "one_sol.makaro", "makaro 1 1\nA=1\n")
        code, out, _ = run_cli(capsys, "prove", "--puzzle", puzzle,
                               "--solution", solution, "--seed", "s")
        assert code == 0
        assert "accepted: 1 of 1" in out

    def test_output_is_reproducible(self, capsys, tmp_path):
        first = run_cli(capsys, "prove", "--puzzle", EXAMPLE,
                        "--solution", EXAMPLE_SOLUTION, "--seed", "r", "--trials", "2")
        second = run_cli(capsys, "prove", "--puzzle", EXAMPLE,
                         "--solution", EXAMPLE_SOLUTION, "--seed", "r", "--trials", "2")
        assert first == second


class TestZkTest:
    def test_passes_on_a_small_puzzle(self, capsys):
        code, out, _ = run_cli(capsys, "zk-test", "--puzzle", QUAD,
                               "--seed", "z", "--trials", "400")
        assert code == 0
        assert out.splitlines()[0] == "protocol vs simulator: PASS"

    def test_json_report(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "zk-test", "--puzzle", QUAD,
                               "--seed", "z", "--trials", "400",
                               "--report-format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["trials_per_side"] == 400
        assert payload["tested_sites"] == 14
        assert len(payload["sites"]) == 16
        assert all(site["passed"] for site in payload["sites"])

    def test_explicit_solution_file(self, capsys, tmp_path):
        good = write(tmp_path, "good.makaro", "makaro 2 2\nA=2 A=1\nB=1 B=2\n")
        code, out, _ = run_cli(capsys, "zk-test", "--puzzle", QUAD,
                               "--solution", good, "--seed", "z", "--trials", "300")
        assert code == 0

    def test_unsolvable_puzzle_is_an_input_error(self, capsys, tmp_path):
        dead = write(tmp_path, "dead.makaro", "makaro 1 2\nA B\n")
        code, _, err = run_cli(capsys, "zk-test", "--puzzle", dead,
                               "--seed", "z", "--trials", "100")
        assert code == 2
        assert "no solution" in err

    def test_too_few_trials_to_test_any_site_is_an_input_error(self, capsys):
        code, out, err = run_cli(capsys, "zk-test", "--puzzle", EXAMPLE,
                                 "--solution", EXAMPLE_SOLUTION, "--trials", "1")
        assert (code, out) == (2, "")
        assert err == ("error: protocol vs simulator: no site could be tested; "
                       "collect more trials\n")

    def test_output_is_reproducible_and_worker_independent(self, capsys):
        base = run_cli(capsys, "zk-test", "--puzzle", QUAD, "--seed", "w",
                       "--trials", "300", "--report-format", "json")
        again = run_cli(capsys, "zk-test", "--puzzle", QUAD, "--seed", "w",
                        "--trials", "300", "--report-format", "json")
        wide = run_cli(capsys, "zk-test", "--puzzle", QUAD, "--seed", "w",
                       "--trials", "300", "--report-format", "json",
                       "--workers", "2")
        assert base == again == wide

    def test_the_default_report_is_worker_independent(self, capsys):
        # the text report: quad has no --solution, so the grid is solved,
        # then sent with its compiled checker to the workers; the example
        # has the largest layout
        for puzzle in (["--puzzle", QUAD],
                       ["--puzzle", EXAMPLE, "--solution", EXAMPLE_SOLUTION]):
            argv = ("zk-test", *puzzle, "--trials", "300")
            one = run_cli(capsys, *argv)
            assert one[0] == 0
            assert run_cli(capsys, *argv, "--workers", "2") == one


class TestStats:
    def test_example_figures(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "--puzzle", EXAMPLE)
        assert code == 0
        assert out == (
            "grid: 5x5\n"
            "white cells: 20\n"
            "largest room: 5\n"
            "rooms: A(3), B(2), C(5), D(5), E(2), F(3)\n"
            "deck: 20 cell + 5 helping + 36 encoding (4 sets of 9) = 61 cards\n"
            "reveal sites tested: 191\n")

    def test_minimal_figures(self, capsys, tmp_path):
        puzzle = write(tmp_path, "one.makaro", "makaro 1 1\nA\n")
        code, out, _ = run_cli(capsys, "stats", "--puzzle", puzzle)
        assert code == 0
        assert "deck: 1 cell + 1 helping + 4 encoding (4 sets of 1) = 6 cards" in out

    def test_puzzle_that_is_not_utf8_is_an_input_error(self, capsys, tmp_path):
        binary = tmp_path / "binary.makaro"
        binary.write_bytes(b"\xff\xfe")
        code, out, err = run_cli(capsys, "stats", "--puzzle", str(binary))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "not UTF-8" in err

    # "²" is a digit to str.isdigit() but not a numeral int() reads
    @pytest.mark.parametrize("text, where", [("makaro ² 1\nA\n", "line 1, column 8"),
                                             ("makaro 1 1\nA=²\n", "line 2, column 1")],
                             ids=["size", "clue"])
    def test_non_decimal_digit_is_an_input_error(self, capsys, tmp_path, text, where):
        puzzle = write(tmp_path, "digit.makaro", text)
        code, out, err = run_cli(capsys, "stats", "--puzzle", puzzle)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and where in err


class TestUsageErrors:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_trials_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["prove", "--puzzle", EXAMPLE, "--solution", EXAMPLE_SOLUTION,
                  "--trials", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("bound", ["0", "-1"])
    def test_search_bound_must_be_positive(self, capsys, bound):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--puzzle", QUAD, "--bound", bound])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --bound: must be at least 1" in err


# Run in a fresh interpreter, so no module another test imported counts.
# Prints the heavy modules loaded after the plain commands, then after
# zk-test, as two JSON lists.
IMPORT_BUDGET_SCRIPT = """
import contextlib, io, json, sys
import makaro_zkp
from makaro_zkp.cli import main

def heavy():
    return sorted(name for name in sys.modules
                  if name.partition(".")[0] in ("scipy", "numpy")
                  or name == "concurrent.futures.process")

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0, argv

puzzle, solution, quad = sys.argv[1:]
run("check", "--puzzle", puzzle, "--solution", solution)
run("solve", "--puzzle", puzzle)
run("prove", "--puzzle", puzzle, "--solution", solution, "--trials", "1")
run("stats", "--puzzle", puzzle)
print(json.dumps(heavy()))
run("zk-test", "--puzzle", quad, "--trials", "300")
print(json.dumps(heavy()))
"""


def run_python(*args):
    """Run a fresh interpreter on the package this module imported."""
    src = Path(makaro_zkp.__file__).resolve().parent.parent
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=300)


def test_only_the_chi_square_tests_load_scipy():
    done = run_python("-c", IMPORT_BUDGET_SCRIPT, EXAMPLE, EXAMPLE_SOLUTION, QUAD)
    assert done.returncode == 0, done.stderr
    plain, after_zk_test = map(json.loads, done.stdout.splitlines())
    assert plain == []
    assert "scipy.special" in after_zk_test
    assert not [name for name in after_zk_test
                if name.startswith("scipy.stats") or name == "concurrent.futures.process"]


def test_the_console_script_exits_with_mains_code(tmp_path):
    # the installed makaro-zkp script calls cli.entry, as python -m does
    bad = write(tmp_path, "bad.makaro", "makaro 2 2\nA=1 A=2\nB=1 B=2\n")
    for puzzle, solution, code in ((EXAMPLE, EXAMPLE_SOLUTION, 0), (QUAD, bad, 1),
                                   (QUAD, EXAMPLE_SOLUTION, 2)):
        done = run_python("-m", "makaro_zkp.cli", "check", "--puzzle", puzzle,
                          "--solution", solution)
        assert done.returncode == code, done.stderr
