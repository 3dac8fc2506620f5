"""Acceptance gate: one test per advertised guarantee.

Each test exercises a guarantee end to end at its stated tolerance and
prints a single `acceptance:<name>: PASS/FAIL (...)` line with the measured
figures (visible with `pytest -s`, or in the captured output on failure).

  completeness     1,000 seeded honest runs all accept, in under 10 seconds
  soundness        every single-rule perturbation rejects in 1,000 runs each,
                   naming the violated condition; protocol verdict matches the
                   plain rule checker on every filling of every small grid
  card-budget      the worked example needs exactly 61 cards and no run ever
                   has more in play at once
  arrow-window     the shifted reveal window catches a rival marker exactly
                   when rival >= pointed, for every size, value pair and shift
  zero-knowledge   real transcripts match the solution-free simulator at 1%
                   over 10,000 trials per side, and two different solutions
                   are indistinguishable the same way
  shuffle          pile-shift offsets and pile-scramble permutations are
                   uniform (chi-square at 1%)
  round-trip       cell conversion always restores the room exactly; puzzle
                   files and generated grids reserialize byte-identically
"""

import time
from collections import Counter
from itertools import combinations
from types import SimpleNamespace

import pytest

from makaro_zkp import (
    CardMatrix,
    RandomSource,
    SiteFamily,
    all_value_assignments,
    card_budget,
    check_solution,
    convert_cell,
    encoding_card,
    enumerate_small_grids,
    help_card,
    make_prover,
    parse_puzzle,
    pile_scramble_shuffle,
    pile_shifting_shuffle,
    run_full_protocol,
    run_full_protocol_with_table,
    serialize_puzzle,
    setup_placement,
    solution_comparison,
    solve_brute_force,
    stats,
    uniformity_test,
    violations,
    zk_comparison,
    Transcript,
)

from conftest import PUZZLES, find_in_row, load_grid, load_solution


def report(name: str, ok: bool, detail: str) -> None:
    print(f"acceptance:{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# --- helpers ------------------------------------------------------------------

def single_rule_perturbations(grid, solution):
    """Clue-consistent corruptions of a valid solution that violate exactly
    one rule (room, neighbor, or arrow): every single-cell value change and
    every in-room swap that does so, in deterministic order."""
    clued = {rc for rc in grid.white_coords() if grid.cell(rc).clue is not None}
    candidates = []
    for rc in grid.white_coords():
        if rc in clued:
            continue
        for value in range(1, grid.room_size(grid.room_of(rc)) + 1):
            if value != solution[rc]:
                changed = dict(solution)
                changed[rc] = value
                candidates.append(changed)
    for room in sorted(grid.rooms):
        for a, b in combinations(grid.rooms[room], 2):
            if a in clued or b in clued:
                continue
            swapped = dict(solution)
            swapped[a], swapped[b] = swapped[b], swapped[a]
            candidates.append(swapped)
    kept = []
    for assignment in candidates:
        found = violations(grid, assignment)
        kinds = {kind for kind, _ in found}
        if len(kinds) == 1:
            (kind,) = kinds
            kept.append((kind, {subject for _, subject in found}, assignment))
    return kept


@pytest.fixture(scope="session")
def small_grid_sweep():
    """Protocol verdict vs. plain rule checker over every clue-consistent
    filling of every generated grid (≤ 3x3), with per-run card accounting
    and a full solver cross-check per grid."""
    grids = enumerate_small_grids()
    totals = SimpleNamespace(
        grids=grids, assignments=0, placeable=0, accepted=0,
        verdict_mismatches=[], solver_mismatches=[], budget_breaches=[],
        elapsed=0.0)
    start = time.perf_counter()
    for gi, grid in enumerate(grids):
        budget = card_budget(stats(grid)).total
        valid = set()
        for ai, assignment in enumerate(all_value_assignments(grid)):
            truth = check_solution(grid, assignment)
            source = RandomSource.for_trial(f"sweep:{gi}", ai)
            verdict, _, table = run_full_protocol_with_table(
                grid, make_prover(assignment, source), source)
            totals.assignments += 1
            if table is not None:
                totals.placeable += 1
                if table.peak_cards > budget:
                    totals.budget_breaches.append((gi, ai))
            if verdict.accepted != truth:
                totals.verdict_mismatches.append((gi, ai))
            if truth:
                totals.accepted += 1
                valid.add(frozenset(assignment.items()))
        found = {frozenset(a.items()) for a in solve_brute_force(grid)}
        if found != valid:
            totals.solver_mismatches.append(gi)
    totals.elapsed = time.perf_counter() - start
    return totals


# --- the guarantees -----------------------------------------------------------

def test_completeness(example_grid, example_solution):
    trials = 1000
    start = time.perf_counter()
    accepted = 0
    for trial in range(trials):
        source = RandomSource.for_trial("acceptance:completeness", trial)
        verdict, _ = run_full_protocol(
            example_grid, make_prover(example_solution, source), source)
        accepted += verdict.accepted
    elapsed = time.perf_counter() - start
    report("completeness", accepted == trials and elapsed < 10.0,
           f"{accepted}/{trials} honest runs accepted in {elapsed:.2f}s")


def test_soundness_every_perturbation_rejects(example_grid, example_solution):
    perturbations = single_rule_perturbations(example_grid, example_solution)
    kinds = Counter(kind for kind, _, _ in perturbations)
    assert len(perturbations) >= 20
    assert set(kinds) == {"room", "neighbor", "arrow"}
    trials = 1000
    start = time.perf_counter()
    rejected = 0
    for pi, (kind, subjects, assignment) in enumerate(perturbations):
        for trial in range(trials):
            source = RandomSource.for_trial(f"acceptance:soundness:{pi}", trial)
            verdict, _ = run_full_protocol(
                example_grid, make_prover(assignment, source), source)
            failing = verdict.failing_check
            assert not verdict.accepted, (pi, trial)
            assert failing is not None and failing.kind == kind, (pi, trial)
            assert failing.subject in subjects, (pi, trial)
            rejected += 1
    elapsed = time.perf_counter() - start
    report("soundness", rejected == len(perturbations) * trials,
           f"{rejected} runs over {len(perturbations)} single-rule corruptions "
           f"({kinds['room']} room, {kinds['neighbor']} neighbor, "
           f"{kinds['arrow']} arrow) all rejected, naming the broken rule, "
           f"in {elapsed:.1f}s")


def test_soundness_matches_the_rule_checker_exhaustively(small_grid_sweep):
    s = small_grid_sweep
    ok = not s.verdict_mismatches and not s.solver_mismatches
    report("soundness-exhaustive", ok,
           f"protocol verdict == rule checker on {s.assignments} fillings of "
           f"{len(s.grids)} grids ({s.placeable} placeable, {s.accepted} valid), "
           f"solver agrees on all grids, in {s.elapsed:.1f}s")


def test_card_budget(example_grid, example_solution, small_grid_sweep):
    budget = card_budget(stats(example_grid))
    assert (budget.n, budget.k) == (20, 5)
    assert budget.total == 61
    peaks = set()
    for trial in range(50):
        source = RandomSource.for_trial("acceptance:budget", trial)
        verdict, _, table = run_full_protocol_with_table(
            example_grid, make_prover(example_solution, source), source)
        assert verdict.accepted and table is not None
        peaks.add(table.peak_cards)
    ok = peaks == {61} and not small_grid_sweep.budget_breaches
    report("card-budget", ok,
           f"deck is exactly {budget.total} cards (n=20, k=5); peak in play "
           f"was {max(peaks)} in 50 runs and never exceeded any small grid's "
           f"budget across the exhaustive sweep")


def test_arrow_window_oracle():
    start = time.perf_counter()
    checked = 0
    counterexamples = []
    for m in range(1, 6):
        length = 2 * m - 1
        for x in range(1, m + 1):
            for y in range(1, m + 1):
                for shift in range(length):
                    matrix = CardMatrix(2, length)
                    for letter, row, marker_pos in (("a", 0, x), ("b", 1, y)):
                        rest = iter(range(2, length + 1))
                        for col in range(length):
                            index = 1 if col == marker_pos - 1 else next(rest)
                            matrix.place(row, col, encoding_card(letter, index))
                    matrix.permute_columns(
                        tuple((j - shift) % length for j in range(length)))
                    begin = find_in_row(matrix, 0, encoding_card("a", 1))
                    window = [matrix.card_at(1, (begin + off) % length)
                              for off in range(m)]
                    caught = encoding_card("b", 1) in window
                    checked += 1
                    if caught != (y >= x):
                        counterexamples.append((m, x, y, shift))
    elapsed = time.perf_counter() - start
    report("arrow-window", not counterexamples and elapsed < 1.0,
           f"window holds the rival marker iff rival >= pointed in all "
           f"{checked} (size, values, shift) combinations, in {elapsed:.3f}s")


def test_zero_knowledge_real_vs_simulated(example_grid, example_solution):
    trials = 10_000
    start = time.perf_counter()
    zk = zk_comparison(example_grid, example_solution, "acceptance:zk", trials)
    elapsed = time.perf_counter() - start
    worst = min((s.p_value for s in zk.sites if s.df >= 1), default=1.0)
    report("zero-knowledge", zk.passed,
           f"real vs simulated transcripts agree at every one of "
           f"{zk.tested_sites} testable sites ({trials} trials per side, "
           f"familywise 1%, worst p={worst:.4g}) in {elapsed:.1f}s")


def test_zero_knowledge_between_solutions():
    grid = load_grid("pair.makaro")  # one 1x2 room, two valid solutions
    first, second = solve_brute_force(grid)
    trials = 10_000
    comparison = solution_comparison(grid, first, second,
                                     "acceptance:two-solutions", trials)
    report("two-solutions", comparison.passed,
           f"transcripts under both solutions indistinguishable at "
           f"{comparison.tested_sites} testable sites "
           f"({trials} trials per side, familywise 1%)")


def test_shuffle_uniformity():
    cols, trials = 7, 20_000
    source = RandomSource.from_seed("acceptance:shift")
    shifts = Counter()
    for _ in range(trials):
        matrix = CardMatrix(1, cols)
        for col in range(cols):
            matrix.place(0, col, help_card(col + 1))
        pile_shifting_shuffle(matrix, source)
        shifts[find_in_row(matrix, 0, help_card(1))] += 1
    expected = trials / cols
    shift_stat = sum((shifts[s] - expected) ** 2 / expected for s in range(cols))
    shift_family = SiteFamily("shift/offset", "pick",
                              tuple(help_card(i + 1) for i in range(cols)), 1)
    shift_report = uniformity_test(
        shift_family, Counter({(help_card(s + 1),): shifts[s] for s in range(cols)}))

    scramble_reports = {}
    for size in (2, 3, 4):
        n = 12_000
        src = RandomSource.from_seed(f"acceptance:scramble{size}")
        patterns = Counter()
        for _ in range(n):
            matrix = CardMatrix(1, size)
            for col in range(size):
                matrix.place(0, col, help_card(col + 1))
            pile_scramble_shuffle(matrix, src)
            patterns[tuple(matrix.card_at(0, c) for c in range(size))] += 1
        family = SiteFamily(f"scramble/{size}", "perm",
                            tuple(help_card(i + 1) for i in range(size)), size)
        scramble_reports[size] = uniformity_test(family, patterns)

    ok = shift_report.passed and all(r.passed for r in scramble_reports.values())
    scramble_ps = ", ".join(f"{size}! p={r.p_value:.3f}"
                            for size, r in scramble_reports.items())
    report("shuffle", ok,
           f"pile-shift offsets uniform over {cols} columns "
           f"(chi2={shift_stat:.2f}, p={shift_report.p_value:.3f}, "
           f"{trials} trials); pile-scramble uniform over {scramble_ps} "
           f"(12,000 trials each, 1% level)")


def test_conversion_round_trip(example_grid, example_solution):
    cells = example_grid.white_coords()
    letters = ("a", "b", "c", "d")
    full_length = 2 * stats(example_grid).k - 1
    trials = 0
    start = time.perf_counter()
    for round_ in range(500):
        source = RandomSource.from_seed(f"acceptance:roundtrip:{round_}")
        prover = make_prover(example_solution, source)
        transcript = Transcript()
        table = setup_placement(example_grid, prover, transcript)
        before = dict(table.cell_cards)
        for i, rc in enumerate(cells):
            letter = letters[(round_ + i) % 4]
            room_size = example_grid.room_size(example_grid.room_of(rc))
            length = full_length if (round_ + i) % 2 else room_size
            sequence = convert_cell(table, rc, letter, length, prover, source,
                                    transcript, "cell")
            assert table.cell_cards == before, (round_, rc)
            marker_at = sequence.index(encoding_card(letter, 1))
            assert marker_at == example_solution[rc] - 1, (round_, rc)
            table.return_encoding(letter)
            table.assert_settled()
            trials += 1
    elapsed = time.perf_counter() - start
    report("conversion-round-trip", trials == 10_000,
           f"room cards restored to identical positions in {trials}/10,000 "
           f"randomized conversions in {elapsed:.1f}s")


def test_file_round_trip(puzzles_dir, small_grid_sweep):
    corpus = sorted(puzzles_dir.glob("*.makaro"))
    assert corpus
    for path in corpus:
        text = path.read_text(encoding="utf-8")
        assert serialize_puzzle(parse_puzzle(text)) == text, path.name
    for grid in small_grid_sweep.grids:
        text = serialize_puzzle(grid)
        assert serialize_puzzle(parse_puzzle(text)) == text
    report("file-round-trip", True,
           f"parse/serialize byte-identical on {len(corpus)} bundled files "
           f"and {len(small_grid_sweep.grids)} generated grids")
