"""Measuring the zero-knowledge property.

A verifier learns nothing about the solution if the reveals they see are
drawn from distributions that do not depend on it.  That claim is testable:
a simulator emits transcripts with the same event structure, drawing every
reveal from its ideal solution-free distribution, and chi-square tests
compare real against simulated reveal patterns site by site.

Run:  python3 demos/04_zero_knowledge.py      (about half a minute)
"""

from pathlib import Path

from makaro_zkp import (
    RandomSource,
    make_prover,
    parse_puzzle,
    run_full_protocol,
    simulate_transcript,
    solution_comparison,
    solve_brute_force,
    zk_comparison,
)

PUZZLES = Path(__file__).resolve().parent.parent / "puzzles"


def main() -> None:
    grid = parse_puzzle((PUZZLES / "quad.makaro").read_text(encoding="utf-8"))
    first, second = solve_brute_force(grid)
    print("The 2x2 puzzle with two horizontal rooms has exactly two")
    print(f"solutions: {first} and {second}.\n")

    source = RandomSource("demo:real")
    _, real = run_full_protocol(grid, make_prover(first, source), source)
    sim = simulate_transcript(grid, RandomSource("demo:sim"))
    print("A real transcript and a simulated one have identical event")
    print("structure; only the revealed cards differ:")
    real_lines = real.to_text().splitlines()
    sim_lines = sim.to_text().splitlines()
    for pair in list(zip(real_lines, sim_lines))[8:13]:
        print(f"  real: {pair[0]:<40} sim: {pair[1]}")
    print()

    trials = 3000
    print(f"Comparing {trials} real runs against {trials} simulated")
    print("transcripts, chi-square per reveal site, familywise 1%:\n")
    report = zk_comparison(grid, first, "demo:zk", trials)
    print(report.to_text())

    print(f"And the two different solutions against each other "
          f"({trials} runs each):\n")
    report = solution_comparison(grid, first, second, "demo:solutions", trials)
    print(report.to_text())
    print("Both comparisons pass: transcripts carry no trace of which")
    print("solution the prover holds — or of anything beyond validity.")


if __name__ == "__main__":
    main()
