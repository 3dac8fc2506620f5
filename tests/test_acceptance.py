"""Acceptance gate: one test per advertised guarantee.

Each test exercises a guarantee end to end at its stated tolerance and
prints a single `acceptance:<name>: PASS/FAIL (...)` line with the measured
figures (visible with `pytest -s`, or in the captured output on failure).

  completeness     1,000 seeded honest runs all accept, in under 10 seconds
  soundness        every single-rule perturbation rejects in 1,000 runs each,
                   naming the violated condition; protocol verdict matches the
                   plain rule checker on every filling of every small grid,
                   and a rejected run fails the checker's first violation
  card-budget      the worked example needs exactly 61 cards and no run ever
                   has more in play at once
  comparison       the compiled comparison, driven with no grid, accepts
                   exactly when x != y ("differ", m <= 4) or every rival < x
                   ("largest", m <= 3 with one rival, m <= 2 with two), on
                   every value vector, hidden order and scramble or shift;
                   every accepted vector shows one view distribution, the
                   simulator's
  arrow-window     the compiled window of the "largest" comparison and a
                   hand-built one agree: both catch a rival marker exactly
                   when rival >= pointed, for every size, value pair and shift
  zero-knowledge   real transcripts match the solution-free simulator at 1%
                   over 10,000 trials per side, and two different solutions
                   are indistinguishable the same way
  shuffle          pile-shift offsets and pile-scramble permutations are
                   uniform (chi-square at 1%)
  round-trip       cell conversion always restores the room exactly; puzzle
                   files and generated grids reserialize byte-identically
"""

import hashlib
import math
import sys
import time
from array import array
from collections import Counter, defaultdict
from itertools import combinations, permutations, product
from types import SimpleNamespace

import pytest

from makaro_zkp import (
    CardMatrix,
    RandomSource,
    SiteFamily,
    all_value_assignments,
    card_budget,
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
    violations,
    zk_comparison,
    Transcript,
)
from makaro_zkp import protocol

from conftest import PUZZLES, find_in_row, load_grid, load_solution, uniformity_test


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
        for value in range(1, len(grid.rooms[grid.room_of(rc)]) + 1):
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


def compile_comparison(rows, length, largest):
    """The cards of `rows` encoding sequences of `length`, marker first, and
    the row-1 reveal and windows of their compiled comparison."""
    sequences = [tuple(encoding_card(letter, i) for i in range(1, length + 1))
                 for letter in "abcd"[:rows]]
    steps = protocol._comparison("cmp", sequences, largest)
    assert steps[0] == protocol._Stack(largest)
    first, *windows = [step for step in steps
                       if type(step) in (protocol._Reveal, protocol._Window)]
    return sequences, first, windows


def comparison_leaves(m, rows, largest):
    """(values, view, accepted) on every leaf of a compiled comparison of
    `rows` numbers in 1..m: every value vector, every hidden order of each
    sequence's other cards, and every scramble ("differ") or shift
    ("largest") of the stacked columns.  The view is the row-1 pattern, then
    each window's, read from the columns the holes name; `accepted` is
    their predicates' verdict."""
    length = 2 * m - 1 if largest else m
    sequences, first, windows = compile_comparison(rows, length, largest)
    if largest:
        shuffles = [tuple((j - shift) % length for j in range(length)) for shift in range(length)]
    else:
        shuffles = list(permutations(range(length)))
    for values in product(range(1, m + 1), repeat=rows):
        for orders in product(*(permutations(cards[1:]) for cards in sequences)):
            encoded = [[*order[:value - 1], cards[0], *order[value - 1:]]
                       for cards, order, value in zip(sequences, orders, values)]
            for shuffle in shuffles:
                matrix = CardMatrix.from_rows(encoded)
                matrix.permute_columns(shuffle)
                shown = tuple(matrix.card_at(first.row, col) for col in first.cols)
                begin = shown.index(first.site.support[0])
                patterns = [tuple(matrix.card_at(window.row, col)
                                  for col in window.cols_from[begin]) for window in windows]
                yield values, (shown, *patterns), all(
                    window.accepts(pattern) for window, pattern in zip(windows, patterns))


@pytest.fixture(scope="session")
def small_grid_sweep():
    """Protocol verdict vs. plain rule checker over every clue-consistent
    filling of every generated grid (≤ 3x3), with per-run card accounting,
    the failing check of every rejection set against the checker's
    violations, and a full solver cross-check per grid.  `accounting` is a
    sha256 over every run's verdict and peak card count, in sweep order;
    `transcripts` one over the events of every run that passes setup, each
    run as its length and its events' codes, then every event in code order."""
    grids = enumerate_small_grids()
    accounting, transcripts = hashlib.sha256(), hashlib.sha256()
    # each distinct event takes the next code when first seen: a dict lookup
    # per event keeps the 6.9 million events of the sweep to about a second.
    # Codes go in as little-endian 4-byte words on every host.
    assert array("I").itemsize == 4
    codes = defaultdict()
    codes.default_factory = codes.__len__
    totals = SimpleNamespace(
        grids=grids, assignments=0, placeable=0, accepted=0,
        setup_rejects=0, check_rejects=0,
        verdict_mismatches=[], solver_mismatches=[], budget_breaches=[],
        setup_mismatches=[], order_mismatches=[], elapsed=0.0)
    start = time.perf_counter()
    for gi, grid in enumerate(grids):
        budget = card_budget(stats(grid)).total
        valid = set()
        for ai, assignment in enumerate(all_value_assignments(grid)):
            found = violations(grid, assignment)
            truth = not found
            source = RandomSource.for_trial(f"sweep:{gi}", ai)
            verdict, transcript, table = run_full_protocol_with_table(
                grid, make_prover(assignment, source), source)
            totals.assignments += 1
            peak = table.peak_cards if table is not None else None
            accounting.update(repr((verdict, peak)).encode())
            if table is not None:
                totals.placeable += 1
                run = array("I", [len(transcript.events)])
                run.extend(map(codes.__getitem__, transcript.events))
                if sys.byteorder == "big":
                    run.byteswap()
                transcripts.update(run)
                if table.peak_cards > budget:
                    totals.budget_breaches.append((gi, ai))
            if verdict.accepted != truth:
                totals.verdict_mismatches.append((gi, ai))
            failed = verdict.failing_check
            if failed is not None and failed.at_setup:
                # setup can only fail a room, and only one the checker finds broken
                totals.setup_rejects += 1
                if ("room", failed.subject) not in found:
                    totals.setup_mismatches.append((gi, ai))
            elif failed is not None:
                # the checks run in the checker's order: the first one broken fails
                totals.check_rejects += 1
                if found[:1] != [(failed.kind, failed.subject)]:
                    totals.order_mismatches.append((gi, ai))
            if truth:
                totals.accepted += 1
                valid.add(frozenset(assignment.items()))
        found = {frozenset(a.items()) for a in solve_brute_force(grid)}
        if found != valid:
            totals.solver_mismatches.append(gi)
    totals.elapsed = time.perf_counter() - start
    totals.accounting = accounting.hexdigest()
    transcripts.update(repr(list(codes)).encode())
    totals.transcripts = transcripts.hexdigest()
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


def test_soundness_fails_on_the_rule_checkers_first_violation(small_grid_sweep):
    s = small_grid_sweep
    ok = not s.setup_mismatches and not s.order_mismatches and s.check_rejects > 0
    report("soundness-order", ok,
           f"{len(s.order_mismatches)} of {s.check_rejects} rejections after setup "
           f"failed another check than the rule checker's first violation, and "
           f"{len(s.setup_mismatches)} of {s.setup_rejects} rejections at setup "
           f"named a room the checker finds intact")


def test_card_budget(example_grid, example_solution, small_grid_sweep):
    budget = card_budget(stats(example_grid))
    assert (budget.cell_cards, budget.helping_cards) == (20, 5)
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


# every run's verdict and peak card count over the whole sweep, recorded when
# the card plan was still counted at run time: compiling it once per grid must
# leave each run's accounting as it was
SWEEP_ACCOUNTING = "e6071ad86a2a2ff54b2b9a1e40e98075d148dadbd9a7338f2fbf55b146dd457e"


def test_sweep_card_accounting_is_unchanged(small_grid_sweep):
    assert small_grid_sweep.accounting == SWEEP_ACCOUNTING


# every event of every run that passes setup over the whole sweep, recorded
# while a card matrix was still stored column by column: how the deck lays
# out its cards must leave every transcript as it was
SWEEP_TRANSCRIPTS = "8b0efff744de62fd209cfded906be0071c4b3fe89f01e6d2b43e8e7a2965f5c1"


def test_sweep_transcripts_are_unchanged(small_grid_sweep):
    assert small_grid_sweep.transcripts == SWEEP_TRANSCRIPTS


# (function, largest, rival rows, largest m) for every exhaustive comparison
COMPARISONS = (("differ", False, 1, 4), ("largest", True, 1, 3), ("largest", True, 2, 2))


def test_comparison_is_exact():
    start = time.perf_counter()
    leaves = 0
    wrong, leaks = [], []
    for name, largest, rivals, top in COMPARISONS:
        for m in range(1, top + 1):
            views = defaultdict(Counter)
            for values, view, accepted in comparison_leaves(m, 1 + rivals, largest):
                leaves += 1
                x, *others = values
                if accepted != (all(y < x for y in others) if largest else x != others[0]):
                    wrong.append((name, m, values, view))
                if accepted:
                    views[values][view] += 1
            # one distribution for every accepted value vector, and it is the
            # simulator's: each hole uniform over its site family, independently
            _, first, windows = compile_comparison(1 + rivals, 2 * m - 1 if largest else m,
                                                   largest)
            families = [hole.site for hole in (first, *windows)]
            for values, counter in views.items():
                if (len(counter) != math.prod(family.size() for family in families)
                        or len(set(counter.values())) != 1
                        or not all(family.contains(pattern) for view in counter
                                   for family, pattern in zip(families, view))):
                    leaks.append((name, m, rivals, values))
    elapsed = time.perf_counter() - start
    report("comparison", not wrong and not leaks,
           f"the compiled comparison's verdict is the truth on all {leaves} leaves "
           f"(\"differ\" m <= 4, \"largest\" m <= 3 with one rival and m <= 2 "
           f"with two), and every accepted value vector shows the simulator's "
           f"view distribution, in {elapsed:.2f}s")


def test_arrow_window_oracle():
    start = time.perf_counter()
    checked = 0
    counterexamples = []
    for m in range(1, 6):
        length = 2 * m - 1
        _, first, (window,) = compile_comparison(2, length, largest=True)
        for x in range(1, m + 1):
            for y in range(1, m + 1):
                for shift in range(length):
                    rows = []
                    for letter, marker_pos in (("a", x), ("b", y)):
                        rest = iter(range(2, length + 1))
                        rows.append([encoding_card(letter, 1 if col == marker_pos - 1
                                                   else next(rest))
                                     for col in range(length)])
                    matrix = CardMatrix.from_rows(rows)
                    matrix.permute_columns(
                        tuple((j - shift) % length for j in range(length)))
                    # the hand-built window, an oracle independent of the template
                    begin = find_in_row(matrix, 0, encoding_card("a", 1))
                    oracle = tuple((begin + off) % length for off in range(m))
                    caught = encoding_card("b", 1) in [matrix.card_at(1, col) for col in oracle]
                    # the compiled one: the row-1 reveal's start and the window's columns
                    shown = [matrix.card_at(first.row, col) for col in first.cols]
                    cols = window.cols_from[shown.index(first.site.support[0])]
                    accepted = window.accepts(tuple(matrix.card_at(window.row, col)
                                                    for col in cols))
                    checked += 1
                    if caught != (y >= x) or accepted == caught or cols != oracle:
                        counterexamples.append((m, x, y, shift))
    elapsed = time.perf_counter() - start
    report("arrow-window", not counterexamples and elapsed < 1.0,
           f"the compiled and the hand-built window agree, and hold the rival "
           f"marker iff rival >= pointed, in all {checked} (size, values, shift) "
           f"combinations, in {elapsed:.3f}s")


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
    source = RandomSource("acceptance:shift")
    shifts = Counter()
    for _ in range(trials):
        matrix = CardMatrix.from_rows([[help_card(col + 1) for col in range(cols)]])
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
        src = RandomSource(f"acceptance:scramble{size}")
        patterns = Counter()
        for _ in range(n):
            matrix = CardMatrix.from_rows([[help_card(col + 1) for col in range(size)]])
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
        source = RandomSource(f"acceptance:roundtrip:{round_}")
        prover = make_prover(example_solution, source)
        transcript = Transcript()
        table = setup_placement(example_grid, prover, transcript)
        before = dict(table.cell_cards)
        for i, rc in enumerate(cells):
            letter = letters[(round_ + i) % 4]
            room_size = len(example_grid.rooms[example_grid.room_of(rc)])
            length = full_length if (round_ + i) % 2 else room_size
            sequence = convert_cell(table, rc, letter, length, prover, source,
                                    transcript, "cell")
            assert table.cell_cards == before, (round_, rc)
            marker_at = sequence.index(encoding_card(letter, 1))
            assert marker_at == example_solution[rc] - 1, (round_, rc)
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
