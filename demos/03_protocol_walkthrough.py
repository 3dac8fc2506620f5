"""One full proof, card by card.

The prover places one face-down card per white cell (clue cards face up),
then the verifier runs three kinds of checks — room contents, neighbor
inequality, arrow maximality — all built from shuffles and partial reveals.
An honest prover always convinces the verifier; a cheating prover is always
caught, and the verdict names the broken rule.

Run:  python3 demos/03_protocol_walkthrough.py
"""

from pathlib import Path

from makaro_zkp import (
    RandomSource,
    assignment_from_grid,
    card_budget,
    make_prover,
    parse_puzzle,
    reveal_site_plan,
    run_full_protocol_with_table,
    stats,
    violations,
)

PUZZLES = Path(__file__).resolve().parent.parent / "puzzles"


def main() -> None:
    grid = parse_puzzle((PUZZLES / "example5x5.makaro").read_text(encoding="utf-8"))
    solution = assignment_from_grid(parse_puzzle(
        (PUZZLES / "example5x5_solution.makaro").read_text(encoding="utf-8")))

    budget = card_budget(stats(grid))
    print(f"The deck for this 5x5 puzzle: {budget.cell_cards} cell cards + "
          f"{budget.helping_cards} helping cards + {budget.encoding_cards} "
          f"encoding cards = {budget.total} total.\n")

    source = RandomSource("demo:honest")
    verdict, transcript, table = run_full_protocol_with_table(
        grid, make_prover(solution, source), source)
    print(f"Honest run: accepted = {verdict.accepted}")
    print(f"Cards simultaneously in play peaked at {table.peak_cards} "
          f"(never above the {budget.total}-card deck).\n")

    checks = [ev for ev in transcript.events if ev[0] == "begin"]
    reveals = sum(1 for ev in transcript.events if ev[0] == "reveal")
    sites = len(reveal_site_plan(grid))
    print(f"The run performed {len(checks)} checks "
          f"({sum(1 for ev in checks if ev[1] == 'room')} rooms, "
          f"{sum(1 for ev in checks if ev[1] == 'neighbor')} neighbor pairs, "
          f"{sum(1 for ev in checks if ev[1] == 'arrow')} arrows, plus the "
          f"conversions inside them), recorded as {len(transcript.events)} "
          f"events with {reveals} card reveals at {sites} reveal sites.\n")

    print("The transcript is a plain text log.  Its first lines:")
    for line in transcript.to_text().splitlines()[:10]:
        print(f"  {line}")
    print("  ...\n")

    print("Now a cheating prover: swap the size-2 room's two values.  The")
    print("grid then has these rule violations:")
    corrupt = dict(solution)
    corrupt[(0, 1)], corrupt[(1, 1)] = corrupt[(1, 1)], corrupt[(0, 1)]
    for kind, subject in violations(grid, corrupt):
        print(f"  - {kind}: {subject}")
    source = RandomSource("demo:cheat")
    verdict, transcript, _ = run_full_protocol_with_table(
        grid, make_prover(corrupt, source), source)
    print(f"\nCheating run: accepted = {verdict.accepted}")
    print(f"The verifier caught it at: {verdict.failing_check}")
    print("Catching is deterministic — no lucky shuffle lets a cheat through —")
    print("so a single run is already a sound proof.")


if __name__ == "__main__":
    main()
