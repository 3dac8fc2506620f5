"""Command-line front end.

Subcommands:
  check    validate a solution against a puzzle, listing rule violations
  solve    exhaustively find every solution of a (small) puzzle
  prove    run one interactive proof and report the verdict
  zk-test  compare many real runs against the solution-free simulator
  stats    print size, deck budget, and reveal-site figures for a puzzle

Exit status: 0 for a positive outcome (valid / solutions found / accepted /
distributions match), 1 for the negative counterpart, 2 for usage or input
errors.  Output for a fixed seed is byte-for-byte reproducible.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import InsufficientTrials, site_plan, zk_comparison
from .deck import RandomSource
from .protocol import (
    ENC_LETTERS,
    ProtocolError,
    card_budget,
    make_prover,
    run_full_protocol,
)
from .puzzle import (
    DEFAULT_SEARCH_BOUND,
    Grid,
    PuzzleError,
    assignment_from_grid,
    assignment_text,
    parse_puzzle,
    same_layout,
    solve_brute_force,
    stats,
    violations,
)


def _load_grid(path: str) -> Grid:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise PuzzleError(f"{path}: not UTF-8 text (byte {err.start})") from err
    return parse_puzzle(text)


def _coord(rc) -> str:
    return f"({rc[0]},{rc[1]})"


def _load_solution(grid: Grid, path: str) -> dict:
    solved = _load_grid(path)
    if not same_layout(grid, solved):
        raise PuzzleError(f"{path}: layout does not match the puzzle")
    for rc in solved.white_coords():
        value, clue = solved.cell(rc).clue, grid.cell(rc).clue
        if value is None:
            raise PuzzleError(f"{path}: no value for cell {_coord(rc)}")
        if clue is not None and value != clue:
            raise PuzzleError(f"{path}: value {value} at {_coord(rc)} contradicts the clue {clue}")
    return assignment_from_grid(solved)


def _describe_violation(entry: tuple) -> str:
    kind, subject = entry
    if kind == "room":
        return f"room {subject}: values are not exactly 1..size"
    if kind == "neighbor":
        a, b = subject
        return f"neighbor {_coord(a)}-{_coord(b)}: equal values across a room border"
    return f"arrow {_coord(subject)}: pointed cell is not the unique maximum"


def cmd_check(args: argparse.Namespace) -> int:
    grid = _load_grid(args.puzzle)
    assignment = _load_solution(grid, args.solution)
    found = violations(grid, assignment)
    if not found:
        print("valid")
        return 0
    for entry in found:
        print(_describe_violation(entry))
    return 1


def cmd_solve(args: argparse.Namespace) -> int:
    grid = _load_grid(args.puzzle)
    solutions = solve_brute_force(grid, bound=args.bound)
    word = "solution" if len(solutions) == 1 else "solutions"
    print(f"{len(solutions)} {word}")
    for assignment in solutions:
        print()
        sys.stdout.write(assignment_text(grid, assignment))
    return 0 if solutions else 1


def cmd_prove(args: argparse.Namespace) -> int:
    grid = _load_grid(args.puzzle)
    assignment = _load_solution(grid, args.solution)
    st = stats(grid)
    budget = card_budget(st)
    accepts = 0
    first_failure = None
    for trial in range(args.trials):
        source = RandomSource.for_trial(args.seed, trial)
        # a transcript is written when first read, so only a saved trial 0's is
        verdict, transcript = run_full_protocol(grid, make_prover(assignment, source), source)
        if trial == 0 and args.transcript_out:
            Path(args.transcript_out).write_text(transcript.to_text(), encoding="utf-8")
        if verdict.accepted:
            accepts += 1
        elif first_failure is None:
            first_failure = verdict.failing_check
    print(f"puzzle: {grid.height}x{grid.width}, {st.n} white cells, "
          f"{len(grid.rooms)} rooms")
    print(f"deck budget: {budget.total} cards")
    print(f"accepted: {accepts} of {args.trials}")
    if first_failure is not None:
        print(f"first failure: {first_failure}")
    if args.transcript_out:
        print(f"transcript of trial 0 written to {args.transcript_out}")
    return 0 if accepts == args.trials else 1


def cmd_zk_test(args: argparse.Namespace) -> int:
    grid = _load_grid(args.puzzle)
    if args.solution:
        assignment = _load_solution(grid, args.solution)
    else:
        found = solve_brute_force(grid)
        if not found:
            raise PuzzleError("puzzle has no solution; nothing to prove")
        assignment = found[0]
    report = zk_comparison(grid, assignment, args.seed, args.trials,
                           workers=args.workers)
    sys.stdout.write(report.to_json() if args.report_format == "json" else report.to_text())
    return 0 if report.passed else 1


def cmd_stats(args: argparse.Namespace) -> int:
    grid = _load_grid(args.puzzle)
    st = stats(grid)
    budget = card_budget(st)
    plan = site_plan(grid)
    print(f"grid: {grid.height}x{grid.width}")
    print(f"white cells: {st.n}")
    print(f"largest room: {st.k}")
    rooms = ", ".join(f"{room}({len(cells)})" for room, cells in sorted(grid.rooms.items()))
    print(f"rooms: {rooms}")
    print(f"deck: {budget.cell_cards} cell + {budget.helping_cards} helping + "
          f"{budget.encoding_cards} encoding ({len(ENC_LETTERS)} sets of "
          f"{budget.per_set}) = {budget.total} cards")
    print(f"reveal sites tested: {len(plan)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="makaro-zkp",
        description="Card-based zero-knowledge proofs for Makaro puzzles.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_puzzle(p: argparse.ArgumentParser) -> None:
        p.add_argument("--puzzle", required=True, help="puzzle file")

    def add_solution(p: argparse.ArgumentParser) -> None:
        p.add_argument("--solution", required=True,
                       help="solution file (same layout, every white cell clued)")

    def positive(raw: str) -> int:
        value = int(raw)
        if value < 1:
            raise argparse.ArgumentTypeError("must be at least 1")
        return value

    p = sub.add_parser("check", help="validate a solution against the rules")
    add_puzzle(p)
    add_solution(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("solve", help="find all solutions by exhaustive search")
    add_puzzle(p)
    p.add_argument("--bound", type=positive, default=DEFAULT_SEARCH_BOUND,
                   help="refuse the puzzle up front when its clue-consistent "
                        "candidate fillings, the product over rooms of (size - clued "
                        "cells)!, exceed this (default %(default)s)")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("prove", help="run seeded interactive proofs")
    add_puzzle(p)
    add_solution(p)
    p.add_argument("--seed", default="0", help="randomness seed (default %(default)s)")
    p.add_argument("--trials", type=positive, default=1,
                   help="number of runs (default %(default)s)")
    p.add_argument("--transcript-out", metavar="PATH",
                   help="also write the first run's transcript to this file")
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("zk-test",
                       help="compare real runs against the solution-free simulator")
    add_puzzle(p)
    p.add_argument("--solution",
                   help="solution file (default: solve the puzzle internally)")
    p.add_argument("--seed", default="0", help="randomness seed (default %(default)s)")
    p.add_argument("--trials", type=positive, default=2000,
                   help="runs per side (default %(default)s)")
    p.add_argument("--workers", type=positive, default=1,
                   help="parallel processes (default %(default)s)")
    p.add_argument("--report-format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_zk_test)

    p = sub.add_parser("stats", help="print size, deck, and site figures")
    add_puzzle(p)
    p.set_defaults(fn=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (PuzzleError, ProtocolError, InsufficientTrials, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
