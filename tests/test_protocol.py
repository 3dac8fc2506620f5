"""Card-protocol checks: setup placement, value encodings, cell conversion,
the room/neighbor/arrow verifications, full runs, and the transcript
simulator that mirrors them without the solution."""

import ast
import random
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest

from makaro_zkp import (
    FailedCheck,
    ProtocolError,
    RandomSource,
    SetupError,
    SiteHistograms,
    TableState,
    Transcript,
    Verdict,
    all_value_assignments,
    card_budget,
    cell_card,
    check_solution,
    encoding_card,
    help_card,
    make_encoding,
    make_prover,
    parse_puzzle,
    read_view,
    reveal_site_plan,
    run_full_protocol,
    run_full_protocol_with_table,
    run_layout,
    serialize_puzzle,
    setup_placement,
    simulate_transcript,
    simulate_view,
    solve_brute_force,
    stats,
    violations,
)
import makaro_zkp
from makaro_zkp import protocol, puzzle
from makaro_zkp.analysis import MARGINAL_THRESHOLD
from makaro_zkp.deck import _EVENT_FIELDS
from makaro_zkp.protocol import convert_cell, verify_arrow, verify_neighbor, verify_room

from conftest import PUZZLES, load_grid, load_solution, site_patterns

BUNDLED = sorted(p.stem for p in PUZZLES.glob("*.makaro") if not p.stem.endswith("_solution"))

# 2x3 grid whose arrow check has m=2 (window length 3): the black cell points
# up at a size-2 room and its rivals sit in a size-2 and a size-1 room.
ARROW_M2 = "makaro 2 3\nA A B\nC B^ B\n"


def arrow_m2_assignment(x: int, y: int) -> dict:
    """Room-consistent placement with pointed cell x and size-2-room rival y."""
    return {(0, 0): 3 - x, (0, 1): x, (0, 2): 3 - y, (1, 2): y, (1, 0): 1}


def fresh_table(grid, assignment, seed):
    """Setup already performed: (source, prover, transcript, table)."""
    source = RandomSource(seed)
    prover = make_prover(assignment, source)
    transcript = Transcript()
    table = setup_placement(grid, prover, transcript)
    return source, prover, transcript, table


def patterns_by_site(transcript):
    return dict(site_patterns(transcript.events))


def rule_cells(grid, kind, subject) -> list:
    """The cells a rule of the grid reads, in check order."""
    return next(list(rule.cells) for rule in grid.rules if rule[:2] == (kind, subject))


def sequence_length(grid, check_key) -> int:
    """The length of a window check's sequences: its row1 site reveals one
    whole sequence."""
    return next(take for site, _, _, take in reveal_site_plan(grid)
                if site == f"{check_key}/row1")


class TestSetup:
    def test_clue_cards_placed_publicly_first(self, example_grid, example_solution):
        _, _, transcript, table = fresh_table(example_grid, example_solution, "setup")
        kinds = [ev[0] for ev in transcript.events]
        assert kinds == ["place"] * 3 + ["place-hidden"] * 17
        placed = {ev[1]: ev[2] for ev in transcript.events if ev[0] == "place"}
        assert placed == {
            (0, 4): cell_card("C", 2),
            (1, 0): cell_card("A", 3),
            (4, 4): cell_card("D", 1),
        }
        assert sum(1 for c in table.cell_cards.values() if c is not None) == 20

    def test_clueless_single_cell_is_hidden(self):
        grid = parse_puzzle("makaro 1 1\nA\n")
        _, _, transcript, _ = fresh_table(grid, {(0, 0): 1}, "s")
        assert [ev[0] for ev in transcript.events] == ["place-hidden"]

    def test_clued_single_cell_is_public(self):
        grid = parse_puzzle("makaro 1 1\nA=1\n")
        _, _, transcript, _ = fresh_table(grid, {(0, 0): 1}, "s")
        assert transcript.events == [("place", (0, 0), cell_card("A", 1))]

    def test_rule_breaking_but_room_consistent_values_still_place(
            self, example_grid, example_solution):
        dishonest = dict(example_solution)
        dishonest[(0, 1)], dishonest[(1, 1)] = dishonest[(1, 1)], dishonest[(0, 1)]
        assert violations(example_grid, dishonest)  # breaks neighbor + arrow rules
        _, _, _, table = fresh_table(example_grid, dishonest, "s")
        assert sum(1 for c in table.cell_cards.values() if c is not None) == 20

    def test_value_above_room_size_fails_at_setup(self, example_grid, example_solution):
        bad = dict(example_solution)
        bad[(0, 0)] = 7  # room A only has cards 1..3
        with pytest.raises(SetupError) as err:
            fresh_table(example_grid, bad, "s")
        assert err.value.room == "A"

    def test_duplicate_value_in_room_fails_at_setup(self, example_grid, example_solution):
        bad = dict(example_solution)
        bad[(2, 0)] = bad[(0, 0)]  # two cells of room A claim the same card
        with pytest.raises(SetupError) as err:
            fresh_table(example_grid, bad, "s")
        assert err.value.room == "A"

    def test_duplicate_against_a_clue_card_fails_at_setup(self, example_grid,
                                                          example_solution):
        bad = dict(example_solution)
        bad[(0, 0)] = 3  # the clue at (1,0) already holds room A's 3-card
        with pytest.raises(SetupError) as err:
            fresh_table(example_grid, bad, "s")
        assert err.value.room == "A"

    def test_clue_contradiction_is_rejected_before_any_placement(
            self, example_grid, example_solution):
        bad = dict(example_solution)
        bad[(1, 0)] = 1  # the grid publicly says 3 here
        with pytest.raises(ValueError):
            fresh_table(example_grid, bad, "s")

    def test_assignment_must_cover_exactly_the_white_cells(self, example_grid,
                                                           example_solution):
        short = dict(example_solution)
        short.pop((0, 0))
        with pytest.raises(ValueError):
            fresh_table(example_grid, short, "s")

    @pytest.mark.parametrize("value", [0, -1])
    def test_value_below_one_is_rejected(self, value):
        # no card exists for it; a one-cell room's last card must not stand in
        grid = parse_puzzle("makaro 1 1\nA\n")
        source = RandomSource("low")
        verdict, _ = run_full_protocol(grid, make_prover({(0, 0): value}, source), source)
        assert not verdict.accepted
        assert verdict.failing_check.kind == "room"
        assert verdict.failing_check.at_setup
        with pytest.raises(SetupError, match=f"no card of value {value} in room 'A'"):
            fresh_table(grid, {(0, 0): value}, "low")

    @pytest.mark.parametrize("value", [1.0, "1", None, 2.5])
    def test_a_value_that_is_not_an_integer_is_an_error(self, value):
        # as in check_solution, and as for wrong keys or a contradicted clue
        grid = parse_puzzle("makaro 1 2\nA A\n")
        assignment = {(0, 0): value, (0, 1): 2}
        with pytest.raises(ValueError):
            check_solution(grid, assignment)
        source = RandomSource("typed")
        with pytest.raises(ValueError, match=r"prover value at \(0, 0\) must be an integer"):
            run_full_protocol(grid, make_prover(assignment, source), source)

    def test_a_bool_value_counts_as_an_integer(self):
        # intended, as README states: True is the integer 1 to setup and to the
        # rule checker alike, and False is below 1; only assignment_text
        # refuses True, since it cannot write A=True
        grid = parse_puzzle("makaro 1 2\nA A\n")
        source = RandomSource("typed")
        verdict, _ = run_full_protocol(grid, make_prover({(0, 0): True, (0, 1): 2}, source),
                                       source)
        assert verdict.accepted
        assert check_solution(grid, {(0, 0): True, (0, 1): 2})
        assert violations(grid, {(0, 0): True, (0, 1): 2}) == []
        with pytest.raises(ValueError, match=r"value at \(0, 0\) must be a positive integer"):
            check_solution(grid, {(0, 0): False, (0, 1): 2})

    def test_setup_reads_the_compiled_placement_plan(self, monkeypatch, example_solution):
        grid = load_grid("example5x5.makaro")  # a fresh grid: nothing cached
        fresh_table(grid, example_solution, "first")
        calls = []
        original = puzzle.Grid.white_coords
        monkeypatch.setattr(puzzle.Grid, "white_coords",
                            lambda self: calls.append(self) or original(self))
        for seed in ("again", "and again"):
            _, _, transcript, _ = fresh_table(grid, example_solution, seed)
            assert len(transcript) == 20
        bad = dict(example_solution)
        bad[(2, 0)] = bad[(0, 0)]
        with pytest.raises(SetupError):
            fresh_table(grid, bad, "bad")
        assert calls == []


def encoding_set(letter: str, length: int) -> tuple:
    """The first `length` cards of an encoding set, marker first."""
    return tuple(encoding_card(letter, i) for i in range(1, length + 1))


class TestEncoding:
    def test_marker_sits_at_the_encoded_position(self):
        source = RandomSource("enc")
        prover = make_prover({}, source)
        for value in range(1, 5):
            seq = make_encoding(encoding_set("a", 4), value, prover)
            assert seq[value - 1] == encoding_card("a", 1)
            assert sorted(seq) == [encoding_card("a", i) for i in range(1, 5)]

    def test_single_card_sequence(self):
        prover = make_prover({}, RandomSource("enc"))
        seq = make_encoding(encoding_set("b", 1), 1, prover)
        assert seq == [encoding_card("b", 1)]

    def test_value_outside_sequence_is_an_error(self):
        prover = make_prover({}, RandomSource("enc"))
        with pytest.raises(ProtocolError):
            make_encoding(encoding_set("a", 4), 5, prover)
        with pytest.raises(ProtocolError):
            make_encoding(encoding_set("a", 4), 0, prover)

    def test_non_marker_order_is_uniform(self):
        # value fixed at 2 in a length-4 sequence: the other three cards land
        # in positions (0, 2, 3) in one of 3! secret orders, each equally often
        prover = make_prover({}, RandomSource("enc-orders"))
        trials = 6000
        orders = Counter()
        for _ in range(trials):
            seq = make_encoding(encoding_set("a", 4), 2, prover)
            orders[(seq[0], seq[2], seq[3])] += 1
        assert len(orders) == 6
        for count in orders.values():
            assert abs(count / trials - 1 / 6) < 0.03


class TestCardPlan:
    """Which cards a schedule lays, which helping and encoding cards a check
    lifts, and its peak, are compiled once per grid."""

    def test_every_check_lifts_what_the_deck_holds_and_peaks_as_counted(self, small_grids):
        bundled = [(name, load_grid(f"{name}.makaro")) for name in BUNDLED]
        for name, grid in bundled + list(enumerate(small_grids)):
            n, k = stats(grid)
            schedule = protocol._schedule(grid)
            # the standard deck: every card the schedule lays is a different
            # one, and there are exactly as many as the budget counts
            laid = [*chain(*schedule.room_cards.values()), *schedule.helps,
                    *chain(*schedule.enc.values())]
            assert len(set(laid)) == len(laid) == card_budget(stats(grid)).total, name
            for (kind, subject), check in schedule.checks.items():
                takes = [step for step in check.steps if type(step) is protocol._Take]
                for take in takes:
                    assert take.helps == tuple(help_card(i) for i in range(1, len(take.cells) + 1))
                    assert len(take.helps) <= k, (name, kind, subject)
                    assert len(take.encoding) <= 2 * k - 1, (name, kind, subject)
                sets = [take.encoding[0].set for take in takes if take.encoding]
                assert len(set(sets)) == len(sets), (name, kind, subject)
                if kind == "room":
                    assert check.peak == n + len(grid.rooms[subject]), (name, subject)
                    continue
                cells = rule_cells(grid, kind, subject)
                length = len(takes[0].encoding)
                assert all(len(take.encoding) == length for take in takes)
                last_room = len(grid.rooms[grid.room_of(cells[-1])])
                assert check.peak == n + len(cells) * length + last_room, (name, kind, subject)

    def test_a_compiled_check_is_keyed_by_its_rule(self, example_grid):
        # the key names the rule, so the check holds only what a run needs:
        # the steps the live run makes and the table the writer fills
        assert protocol._Check._fields == ("steps", "rejected", "peak",
                                           "events", "positions", "holes", "start")
        checks = protocol._schedule(example_grid).checks
        assert list(checks) == [(kind, subject) for kind, subject, _ in example_grid.rules]


class TestConvertCell:
    def test_marker_encodes_the_hidden_value(self, example_grid, example_solution):
        source, prover, transcript, table = fresh_table(
            example_grid, example_solution, "conv")
        seq = convert_cell(table, (0, 1), "b", 3, prover, source, transcript, "cell")
        assert len(seq) == 3
        assert seq[example_solution[(0, 1)] - 1] == encoding_card("b", 1)
        assert sorted(seq) == [encoding_card("b", i) for i in range(1, 4)]

    def test_room_returns_to_the_grid_untouched(self, example_grid, example_solution):
        source, prover, transcript, table = fresh_table(
            example_grid, example_solution, "conv2")
        before = dict(table.cell_cards)
        seq = convert_cell(table, (2, 3), "c", 5, prover, source, transcript, "cell")
        assert seq[example_solution[(2, 3)] - 1] == encoding_card("c", 1)
        assert table.cell_cards == before
        table.assert_settled()

    def test_single_cell_room_converts(self):
        grid = parse_puzzle("makaro 1 2\nA B\n")
        source, prover, transcript, table = fresh_table(
            grid, {(0, 0): 1, (0, 1): 1}, "conv1")
        seq = convert_cell(table, (0, 0), "a", 1, prover, source, transcript, "cell")
        assert seq == [encoding_card("a", 1)]

    def test_foreign_card_in_the_room_is_an_error(self, quad_grid):
        # a card of another room fails the conversion's cell reveal, as it
        # fails a room check, before any sort is attempted
        for seed in range(30):
            source, prover, transcript, table = fresh_table(
                quad_grid, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 1}, f"cvf{seed}")
            a_card, b_card = table.take_cells([(0, 0), (1, 0)])
            table.put_cells([(0, 0), (1, 0)], [b_card, a_card])
            with pytest.raises(ProtocolError):
                convert_cell(table, (0, 0), "a", 2, prover, source, transcript, "cell")

    def test_sequence_shorter_than_the_room_is_an_error(self, example_grid,
                                                        example_solution):
        source, prover, transcript, table = fresh_table(
            example_grid, example_solution, "conv3")
        with pytest.raises(ProtocolError):
            convert_cell(table, (2, 3), "a", 4, prover, source, transcript, "cell")

    def test_sequence_longer_than_an_encoding_set_is_an_error(self, example_grid,
                                                             example_solution):
        # k = 5, so each encoding set holds 2k-1 = 9 cards
        source, prover, transcript, table = fresh_table(
            example_grid, example_solution, "conv4")
        with pytest.raises(ProtocolError):
            convert_cell(table, (2, 3), "a", 10, prover, source, transcript, "cell")
        assert len(convert_cell(table, (2, 3), "a", 9, prover, source, transcript, "cell")) == 9

    def test_every_cell_converts_to_its_value(self, example_grid, example_solution):
        length = 2 * stats(example_grid).k - 1
        for seed in ("s1", "s2", "s3"):
            source, prover, transcript, table = fresh_table(
                example_grid, example_solution, seed)
            before = dict(table.cell_cards)
            for rc in example_grid.white_coords():
                seq = convert_cell(table, rc, "d", length, prover, source, transcript, "cell")
                assert seq.index(encoding_card("d", 1)) == example_solution[rc] - 1
                assert table.cell_cards == before
                table.assert_settled()


class TestVerifyRoom:
    def test_honest_room_passes_and_is_restored(self, example_grid, example_solution):
        source, _, transcript, table = fresh_table(example_grid, example_solution, "vr")
        before = dict(table.cell_cards)
        assert verify_room(table, "C", source, transcript)
        assert table.cell_cards == before
        table.assert_settled()
        assert transcript.events[-1] == ("end", "room", "C", True)

    def test_single_cell_room_passes(self):
        grid = parse_puzzle("makaro 1 2\nA B\n")
        source, _, transcript, table = fresh_table(grid, {(0, 0): 1, (0, 1): 1}, "vr1")
        assert verify_room(table, "A", source, transcript)
        assert verify_room(table, "B", source, transcript)

    def test_foreign_card_in_the_room_is_caught(self, quad_grid):
        # cards swapped across rooms behind the verifier's back: the reveal
        # shows a card set that is not the room's own, in every shuffle
        for seed in range(30):
            source, _, transcript, table = fresh_table(
                quad_grid, {(0, 0): 1, (0, 1): 2, (1, 0): 1, (1, 1): 2}, f"vrf{seed}")
            a_card, b_card = table.take_cells([(0, 0), (1, 0)])
            table.put_cells([(0, 0), (1, 0)], [b_card, a_card])
            assert not verify_room(table, "A", source, transcript)
            assert transcript.events[-1] == ("end", "room", "A", False)


class TestVerifyNeighbor:
    def test_example_pair_with_distinct_values_passes(self, example_grid,
                                                      example_solution):
        a, b = (2, 0), (3, 0)
        assert example_solution[a] != example_solution[b]
        assert sequence_length(example_grid, "neighbor/2.0-3.0") == 3
        source, prover, transcript, table = fresh_table(
            example_grid, example_solution, "vn")
        before = dict(table.cell_cards)
        assert verify_neighbor(table, a, b, prover, source, transcript)
        assert table.cell_cards == before
        table.assert_settled()

    def test_foreign_card_in_a_converted_room_fails_the_check(self, quad_grid):
        # the values differ, but (0,0) and (1,0) hold each other's cards: the
        # first conversion's cell reveal rejects the check
        for seed in range(30):
            source, prover, transcript, table = fresh_table(
                quad_grid, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 1}, f"vnf{seed}")
            a_card, b_card = table.take_cells([(0, 0), (1, 0)])
            table.put_cells([(0, 0), (1, 0)], [b_card, a_card])
            assert not verify_neighbor(table, (0, 0), (1, 0), prover, source, transcript)
            assert transcript.events[-1] == ("end", "neighbor", "neighbor/0.0-1.0", False)

    def test_equal_values_fail_in_every_shuffle(self, quad_grid):
        # both cells hold 1: the probe under the marker is the other marker,
        # whatever the column scramble did
        bad = {(0, 0): 1, (0, 1): 2, (1, 0): 1, (1, 1): 2}
        marker_cols = set()
        for seed in range(200):
            source, prover, transcript, table = fresh_table(quad_grid, bad, f"eq{seed}")
            assert not verify_neighbor(table, (0, 0), (1, 0), prover, source, transcript)
            pats = patterns_by_site(transcript)
            assert pats["neighbor/0.0-1.0/probe"] == (encoding_card("b", 1),)
            marker_cols.add(pats["neighbor/0.0-1.0/row1"].index(encoding_card("a", 1)))
        assert marker_cols == {0, 1}  # both scramble outcomes exercised

    def test_distinct_values_pass_in_every_shuffle(self, quad_grid):
        good = {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 1}
        marker_cols = set()
        for seed in range(200):
            source, prover, transcript, table = fresh_table(quad_grid, good, f"ne{seed}")
            assert verify_neighbor(table, (0, 0), (1, 0), prover, source, transcript)
            pats = patterns_by_site(transcript)
            assert pats["neighbor/0.0-1.0/probe"] == (encoding_card("b", 2),)
            marker_cols.add(pats["neighbor/0.0-1.0/row1"].index(encoding_card("a", 1)))
            table.assert_settled()
        assert marker_cols == {0, 1}

    def test_rooms_of_unequal_size_use_the_larger_length(self, example_grid):
        # (2,2) in a 5-room beside (3,2): both sequences padded to length 5
        assert sequence_length(example_grid, "neighbor/2.2-2.3") == 5
        assert sequence_length(example_grid, "neighbor/4.0-4.1") == 3


class TestVerifyArrow:
    def test_example_arrow_passes(self, example_grid, example_solution):
        black = (4, 3)
        assert rule_cells(example_grid, "arrow", black) == [(3, 3), (4, 4), (4, 2)]
        assert sequence_length(example_grid, "arrow/4.3") == 2 * 5 - 1
        source, prover, transcript, table = fresh_table(
            example_grid, example_solution, "va")
        before = dict(table.cell_cards)
        assert verify_arrow(table, black, prover, source, transcript)
        assert table.cell_cards == before
        table.assert_settled()

    def test_strict_maximum_accepted_under_every_shift(self):
        grid = parse_puzzle(ARROW_M2)
        starts = set()
        for seed in range(60):
            source, prover, transcript, table = fresh_table(
                grid, arrow_m2_assignment(2, 1), f"max{seed}")
            assert verify_arrow(table, (1, 1), prover, source, transcript)
            pattern = patterns_by_site(transcript)["arrow/1.1/row1"]
            starts.add(pattern.index(encoding_card("a", 1)))
        assert starts == {0, 1, 2}  # every cyclic shift of the window seen

    def test_larger_rival_rejected_under_every_shift(self):
        grid = parse_puzzle(ARROW_M2)
        for seed in range(40):
            source, prover, transcript, table = fresh_table(
                grid, arrow_m2_assignment(1, 2), f"big{seed}")
            assert not verify_arrow(table, (1, 1), prover, source, transcript)

    def test_tie_rejected_under_every_shift(self):
        grid = parse_puzzle(ARROW_M2)
        for seed in range(40):
            source, prover, transcript, table = fresh_table(
                grid, arrow_m2_assignment(2, 2), f"tie{seed}")
            assert not verify_arrow(table, (1, 1), prover, source, transcript)

    def test_accepts_exactly_when_pointed_cell_is_strict_maximum(self):
        grid = parse_puzzle(ARROW_M2)
        for x in (1, 2):
            for y in (1, 2):
                expected = x == 2 and y == 1  # the size-1 rival always holds 1
                for seed in range(10):
                    source, prover, transcript, table = fresh_table(
                        grid, arrow_m2_assignment(x, y), f"xy{x}{y}.{seed}")
                    got = verify_arrow(table, (1, 1), prover, source, transcript)
                    assert got == expected, (x, y, seed)

    def test_black_cell_with_four_rivals(self, cross_grid, cross_solution):
        black = (1, 1)
        assert rule_cells(cross_grid, "arrow", black) == [(1, 2), (2, 1), (1, 0), (0, 1)]
        assert sequence_length(cross_grid, "arrow/1.1") == 2 * 4 - 1
        source, prover, transcript, table = fresh_table(
            cross_grid, cross_solution, "cross")
        assert verify_arrow(table, black, prover, source, transcript)
        table.assert_settled()


def unfilled(table) -> int:
    """The white cells that hold no card, counted from the cells."""
    return sum(table.cell_cards.get(rc) is None for rc in table.grid.white_set)


class TestTableBalance:
    """A table counts its white cells that hold no card (empty_cells), so
    assert_settled reads one number; the count matches the cells after any
    move, made or refused."""

    def test_the_count_follows_an_honest_run_check_by_check(self, example_grid,
                                                              example_solution):
        assert TableState(example_grid).empty_cells == 20 == unfilled(TableState(example_grid))
        source, prover, transcript, table = fresh_table(example_grid, example_solution, "bal")
        assert table.empty_cells == unfilled(table) == 0
        for kind, subject in protocol._schedule(example_grid).checks:
            if kind == "room":
                ok = verify_room(table, subject, source, transcript)
            elif kind == "neighbor":
                ok = verify_neighbor(table, *subject, prover, source, transcript)
            else:
                ok = verify_arrow(table, subject, prover, source, transcript)
            assert ok and table.empty_cells == unfilled(table) == 0, (kind, subject)
            table.assert_settled()

    def test_a_check_rejected_at_a_row_keeps_the_room_off_the_table(self, quad_grid):
        # the foreign card fails the cell reveal, which ends the check with
        # the room's cards still in the matrix
        source, _, transcript, table = fresh_table(
            quad_grid, {(0, 0): 1, (0, 1): 2, (1, 0): 1, (1, 1): 2}, "balrow")
        a_card, b_card = table.take_cells([(0, 0), (1, 0)])
        table.put_cells([(0, 0), (1, 0)], [b_card, a_card])
        assert table.empty_cells == unfilled(table) == 0
        assert not verify_room(table, "A", source, transcript)
        assert table.empty_cells == unfilled(table) == 2
        with pytest.raises(ProtocolError, match="table out of balance between checks"):
            table.assert_settled()

    def test_a_check_rejected_at_a_window_settles(self, quad_grid):
        # equal values: the probe shows the other marker after both rooms
        # are back on the grid
        source, prover, transcript, table = fresh_table(
            quad_grid, {(0, 0): 1, (0, 1): 2, (1, 0): 1, (1, 1): 2}, "balwin")
        assert not verify_neighbor(table, (0, 0), (1, 0), prover, source, transcript)
        assert table.empty_cells == unfilled(table) == 0
        table.assert_settled()

    def test_rejected_runs_leave_the_count_true(self, small_grids):
        runs = 0
        for grid in small_grids[:400:20]:
            for i, filling in enumerate(all_value_assignments(grid)):
                source = RandomSource.for_trial("bal", i)
                verdict, _, table = run_full_protocol_with_table(
                    grid, make_prover(filling, source), source)
                if table is not None:
                    runs += 1
                    assert table.empty_cells == unfilled(table), (grid, filling)
        assert runs > 20

    def test_a_lift_not_put_back_unsettles_the_table(self, quad_grid):
        _, _, _, table = fresh_table(quad_grid, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 1},
                                     "lift")
        cards = table.take_cells([(1, 1)])
        assert table.empty_cells == unfilled(table) == 1
        with pytest.raises(ProtocolError, match="table out of balance between checks"):
            table.assert_settled()
        table.put_cells([(1, 1)], cards)
        assert table.empty_cells == unfilled(table) == 0
        table.assert_settled()

    def test_a_refused_move_changes_nothing(self, quad_grid):
        _, _, _, table = fresh_table(quad_grid, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 1},
                                     "refuse")
        (card,) = table.take_cells([(0, 0)])
        moves = [(table.put_cells, ([(0, 0), (0, 1)], [card, card]), r"cell \(0, 1\) already"),
                 (table.put_cells, ([(1, 1)], [card]), r"cell \(1, 1\) already"),
                 (table.take_cells, ([(0, 1), (0, 0)],), r"no card on cell \(0, 0\)"),
                 (table.take_cells, ([(0, 0)],), r"no card on cell \(0, 0\)")]
        for move, args, message in moves:
            self.assert_refused(table, move, args, message)
        assert table.empty_cells == 1

    @staticmethod
    def assert_refused(table, move, args, message):
        before = dict(table.cell_cards), table.empty_cells
        with pytest.raises(ProtocolError, match=message):
            move(*args)
        assert (table.cell_cards, table.empty_cells) == before
        assert table.empty_cells == unfilled(table)

    def test_a_lift_naming_a_cell_twice_is_refused(self, quad_grid):
        # the second lift finds the cell its first lift emptied, so one card
        # cannot come back as two
        _, _, _, table = fresh_table(quad_grid, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 1},
                                     "twice")
        self.assert_refused(table, table.take_cells, ([(0, 0), (0, 0)],),
                            r"no card on cell \(0, 0\)")
        self.assert_refused(table, table.take_cells, ([(0, 1), (1, 1), (0, 1)],),
                            r"no card on cell \(0, 1\)")

    def test_a_lay_naming_a_cell_twice_is_refused(self, quad_grid):
        _, _, _, table = fresh_table(quad_grid, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 1},
                                     "lay twice")
        cards = table.take_cells([(0, 0), (0, 1)])
        self.assert_refused(table, table.put_cells, ([(0, 0), (0, 0)], cards),
                            r"cell \(0, 0\) already holds a card")

    def test_a_lay_of_no_card_is_refused(self, quad_grid):
        # a None card would leave its cell empty while the count calls it
        # filled, so assert_settled would pass on an unsettled table
        _, _, _, table = fresh_table(quad_grid, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 1},
                                     "no card")
        cards = table.take_cells([(0, 0), (0, 1)])
        self.assert_refused(table, table.put_cells, ([(0, 0)], [None]),
                            r"no card to lay on cell \(0, 0\)")
        self.assert_refused(table, table.put_cells, ([(0, 0), (0, 1)], [cards[0], None]),
                            r"no card to lay on cell \(0, 1\)")

    def test_a_lay_on_a_cell_that_is_not_white_is_refused(self, example_grid, example_solution):
        _, _, _, table = fresh_table(example_grid, example_solution, "black")
        cards = table.take_cells([(0, 0), (0, 1)])
        # (0, 2) holds an arrow and (5, 0) lies off the grid; (0, 0) is laid
        # first, then lifted again
        for cell in ((0, 2), (5, 0)):
            self.assert_refused(table, table.put_cells, ([(0, 0), cell], cards),
                                rf"cell \({cell[0]}, {cell[1]}\) is not a white cell")
        table.put_cells([(0, 0), (0, 1)], cards)
        table.assert_settled()

    def test_a_lay_of_more_or_fewer_cards_than_cells_is_refused(self, quad_grid):
        _, _, _, table = fresh_table(quad_grid, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 1},
                                     "count")
        cards = table.take_cells([(0, 0), (0, 1)])
        self.assert_refused(table, table.put_cells, ([(0, 0), (0, 1)], cards[:1]),
                            "cell count 2 differs from card count 1")
        self.assert_refused(table, table.put_cells, ([(0, 0)], cards),
                            "cell count 1 differs from card count 2")


class TestFullProtocol:
    def test_honest_example_accepted(self, example_grid, example_solution):
        for seed in range(25):
            prover = make_prover(example_solution, RandomSource(f"ok{seed}"))
            verdict, transcript = run_full_protocol(
                example_grid, prover, RandomSource(f"ok{seed}"))
            assert verdict.accepted
            assert verdict.failing_check is None
            ends = [ev for ev in transcript.events if ev[0] == "end"]
            assert ends and all(ev[-1] for ev in ends)

    def test_first_broken_rule_is_reported(self, example_grid, example_solution):
        dishonest = dict(example_solution)
        dishonest[(0, 1)], dishonest[(1, 1)] = dishonest[(1, 1)], dishonest[(0, 1)]
        kind, subject = violations(example_grid, dishonest)[0]
        for seed in range(10):
            prover = make_prover(dishonest, RandomSource(f"swap{seed}"))
            verdict, _ = run_full_protocol(
                example_grid, prover, RandomSource(f"swap{seed}"))
            assert not verdict.accepted
            assert verdict.failing_check == FailedCheck(kind, subject)

    def test_bad_room_surfaces_at_setup(self, example_grid, example_solution):
        bad = dict(example_solution)
        bad[(2, 0)] = bad[(0, 0)]  # room A then needs two 1-cards... no such deck
        assert violations(example_grid, bad)[0][0] == "room"
        verdict, transcript = run_full_protocol(
            example_grid, make_prover(bad, RandomSource("dup")),
            RandomSource("dup"))
        assert not verdict.accepted
        assert verdict.failing_check is not None
        assert verdict.failing_check.kind == "room"
        assert verdict.failing_check.at_setup
        assert all(ev[0] in ("place", "place-hidden") for ev in transcript.events)

    def test_minimal_grid_runs_only_its_room_check(self):
        grid = parse_puzzle("makaro 1 1\nA\n")
        prover = make_prover({(0, 0): 1}, RandomSource("one"))
        verdict, transcript = run_full_protocol(grid, prover,
                                                RandomSource("one"))
        assert verdict.accepted
        begins = [ev[1] for ev in transcript.events if ev[0] == "begin"]
        assert begins == ["room"]

    def test_same_seeds_reproduce_the_transcript(self, example_grid, example_solution):
        runs = []
        for _ in range(2):
            prover = make_prover(example_solution, RandomSource("det"))
            _, transcript = run_full_protocol(example_grid, prover,
                                              RandomSource("det"))
            runs.append(transcript)
        assert runs[0] == runs[1]
        prover = make_prover(example_solution, RandomSource("det2"))
        _, other = run_full_protocol(example_grid, prover,
                                     RandomSource("det2"))
        assert other != runs[0]

    def test_peak_cards_equal_the_deck_budget(self, example_grid, example_solution):
        budget = card_budget(stats(example_grid))
        for seed in range(5):
            prover = make_prover(example_solution, RandomSource(f"pk{seed}"))
            verdict, _, table = run_full_protocol_with_table(
                example_grid, prover, RandomSource(f"pk{seed}"))
            assert verdict.accepted
            assert table is not None
            assert table.peak_cards == budget.total == 61

    def test_grid_sizes_are_computed_once_per_grid(self, monkeypatch, quad_grid):
        grid = parse_puzzle(serialize_puzzle(quad_grid))  # a fresh grid: nothing cached
        calls = []
        monkeypatch.setattr(protocol, "stats", lambda g: calls.append(g) or stats(g))
        for seed in ("once", "twice"):
            prover = make_prover({(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 1},
                                 RandomSource(seed))
            verdict, _ = run_full_protocol(grid, prover, RandomSource(seed))
            assert verdict.accepted
        assert len(calls) <= 1

    def test_random_streams_are_seeded_on_first_draw(self, monkeypatch, example_grid,
                                                     example_solution):
        seeded = []

        class Counted(random.Random):
            def __init__(self, *args):
                seeded.append(args)
                super().__init__(*args)

        monkeypatch.setattr(random, "Random", Counted)
        bad = dict(example_solution)
        bad[(2, 0)] = bad[(0, 0)]  # rejected at setup: nothing to draw
        source = RandomSource.for_trial("lazy", 0)
        verdict, _ = run_full_protocol(example_grid, make_prover(bad, source), source)
        assert verdict.failing_check == FailedCheck("room", "A", at_setup=True)
        assert seeded == []
        source = RandomSource.for_trial("lazy", 1)
        verdict, _ = run_full_protocol(example_grid, make_prover(example_solution, source),
                                       source)
        assert verdict.accepted
        assert sorted(seeded) == [("lazy:1/prover",), ("lazy:1/shuffle",)]

    def test_rules_are_compiled_once_per_grid(self, monkeypatch, example_solution):
        grid = load_grid("example5x5.makaro")  # a fresh grid: nothing cached
        calls = Counter()
        for name in ("white_neighbor_pairs", "arrow_check_cells"):
            def counted(*args, _name=name, _original=getattr(puzzle, name)):
                calls[(_name, *args[1:])] += 1
                return _original(*args)
            monkeypatch.setattr(puzzle, name, counted)
        for _ in range(100):
            assert check_solution(grid, example_solution)
        assert solve_brute_force(grid) == [example_solution]
        source = RandomSource("once")
        assert run_full_protocol(grid, make_prover(example_solution, source), source)[0].accepted
        simulate_transcript(grid, RandomSource("once"))
        reveal_site_plan(grid)
        # the pairs once per grid, the cells around each of the 5 arrows once
        assert calls[("white_neighbor_pairs",)] == 1
        assert sorted(n for n, *_ in calls) == ["arrow_check_cells"] * 5 + ["white_neighbor_pairs"]
        assert set(calls.values()) == {1}


class TestSimulator:
    def test_mirrors_the_real_event_structure(self, example_grid, example_solution):
        prover = make_prover(example_solution, RandomSource("real"))
        _, real = run_full_protocol(example_grid, prover,
                                    RandomSource("real"))
        sim = simulate_transcript(example_grid, RandomSource("sim"))
        assert len(real.events) == len(sim.events)
        for real_ev, sim_ev in zip(real.events, sim.events):
            assert real_ev[0] == sim_ev[0]
            if real_ev[0] not in ("reveal", "rearrange"):
                assert real_ev == sim_ev  # only card draws and orders differ
        assert [s for s, _ in site_patterns(real.events)] == \
            [s for s, _ in site_patterns(sim.events)]

    def test_same_seed_reproduces_the_simulation(self, example_grid):
        a = simulate_transcript(example_grid, RandomSource("simdet"))
        b = simulate_transcript(example_grid, RandomSource("simdet"))
        assert a == b

    def test_room_reveal_orders_are_uniform(self):
        grid = parse_puzzle("makaro 1 3\nA A A\n")
        trials = 6000
        orders = Counter()
        for i in range(trials):
            sim = simulate_transcript(grid, RandomSource.for_trial("simroom", i))
            orders[patterns_by_site(sim)["room/A/cells"]] += 1
        assert len(orders) == 6
        for count in orders.values():
            assert abs(count / trials - 1 / 6) < 0.03

    def test_probe_draws_avoid_only_the_marker(self):
        # size-3 rooms: the probed card is uniform over the set's values 2..3
        grid = parse_puzzle("makaro 2 3\nA A A\nB B B\n")
        pairs = [((0, c), (1, c)) for c in range(3)]
        draws = Counter()
        for i in range(4000):
            sim = simulate_transcript(grid, RandomSource.for_trial("probe", i))
            pats = patterns_by_site(sim)
            for a, b in pairs:
                (card,) = pats[f"neighbor/{a[0]}.{a[1]}-{b[0]}.{b[1]}/probe"]
                draws[card] += 1
        assert set(draws) == {encoding_card("b", 2), encoding_card("b", 3)}
        total = sum(draws.values())
        for count in draws.values():
            assert abs(count / total - 0.5) < 0.03

    def test_single_card_sites_are_deterministic(self):
        grid = parse_puzzle("makaro 1 2\nA B\n")
        for i in range(50):
            sim = simulate_transcript(grid, RandomSource.for_trial("tiny", i))
            pats = patterns_by_site(sim)
            assert pats["neighbor/0.0-0.1/row1"] == (encoding_card("a", 1),)
            assert pats["neighbor/0.0-0.1/probe"] == (encoding_card("b", 1),)


class TestSitePlan:
    def test_plan_matches_a_real_run_in_order(self, example_grid, example_solution):
        plan = reveal_site_plan(example_grid)
        prover = make_prover(example_solution, RandomSource("plan"))
        _, transcript = run_full_protocol(example_grid, prover,
                                          RandomSource("plan"))
        assert [site for site, _, _, _ in plan] == [s for s, _ in site_patterns(transcript.events)]

    def test_observed_patterns_stay_inside_their_families(self, example_grid,
                                                          example_solution):
        plan = {site: (kind, support, take)
                for site, kind, support, take in reveal_site_plan(example_grid)}
        for seed in range(5):
            prover = make_prover(example_solution, RandomSource(f"fam{seed}"))
            _, transcript = run_full_protocol(example_grid, prover,
                                              RandomSource(f"fam{seed}"))
            for site, pattern in site_patterns(transcript.events):
                kind, support, take = plan[site]
                assert len(pattern) == take
                assert len(set(pattern)) == take
                assert set(pattern) <= set(support)
                if kind == "perm":
                    assert take == len(support)
                elif kind == "pick":
                    assert take == 1

    def test_simulated_patterns_stay_inside_the_same_families(self, example_grid):
        plan = {site: (kind, support, take)
                for site, kind, support, take in reveal_site_plan(example_grid)}
        sim = simulate_transcript(example_grid, RandomSource("famsim"))
        for site, pattern in site_patterns(sim.events):
            kind, support, take = plan[site]
            assert len(pattern) == take
            assert set(pattern) <= set(support)


def revealed_cards(transcript) -> tuple:
    """The cards a transcript's reveal events show, in order."""
    return tuple(ev[2] for ev in transcript.events if ev[0] == "reveal")


def bundled_solution(name, grid):
    path = PUZZLES / f"{name}_solution.makaro"
    return load_solution(path.name) if path.exists() else solve_brute_force(grid)[0]


class TestTemplates:
    """The live run and the simulator fill one compiled template per check."""

    @pytest.mark.parametrize("name", BUNDLED)
    def test_live_and_simulated_runs_differ_only_in_holes(self, name):
        grid = load_grid(f"{name}.makaro")
        solution = bundled_solution(name, grid)
        for seed in (0, 1, "demo"):
            source = RandomSource.for_trial(seed, 0)
            verdict, real = run_full_protocol(grid, make_prover(solution, source), source)
            sim = simulate_transcript(grid, RandomSource.for_trial(seed, 0))
            assert verdict.accepted
            assert len(real) == len(sim)
            for real_ev, sim_ev in zip(real.events, sim.events):
                assert real_ev[0] == sim_ev[0]
                if real_ev[0] not in ("reveal", "rearrange"):
                    assert real_ev == sim_ev

    @pytest.mark.parametrize("name", BUNDLED)
    def test_site_slots_read_what_the_events_group(self, name):
        grid = load_grid(f"{name}.makaro")
        solution = bundled_solution(name, grid)
        layout = run_layout(grid)
        # an accepting run is setup's placements, then every check's table
        schedule = protocol._schedule(grid)
        checks = list(schedule.checks.values())
        length = len(schedule.placements) + sum(len(check.events) for check in checks)
        closing = checks[-1].events[-1]
        for seed in (0, 1, "demo"):
            source = RandomSource.for_trial(seed, 0)
            _, real = run_full_protocol(grid, make_prover(solution, source), source)
            sim = simulate_transcript(grid, RandomSource.for_trial(seed, 0))
            for transcript in (real, sim):
                events = transcript.events
                assert len(events) == length and events[-1] == closing
                assert all(events[at] == ("site", family.key) for at, family in layout)
                read = [(family.key, tuple(ev[2] for ev in events[at + 1:at + 1 + family.take]))
                        for at, family in layout]
                assert read == site_patterns(events)
                # the histograms count the same cards, from the same slots,
                # one position at a time where the plan splits a site
                split = []
                for (key, pattern), (_, family) in zip(read, layout):
                    if family.size() > MARGINAL_THRESHOLD:
                        split += [(f"{key}/pos{pos}", (card,))
                                  for pos, card in enumerate(pattern, start=1)]
                    else:
                        split.append((key, pattern))
                hist = SiteHistograms(grid)
                hist.add_transcript(transcript)
                assert [(key, pattern) for key, counter in hist.counts.items()
                        for pattern in counter] == split

    @pytest.mark.parametrize("name", BUNDLED)
    def test_fixed_events_are_built_once_per_grid(self, name):
        grid = load_grid(f"{name}.makaro")
        solution = bundled_solution(name, grid)
        runs = []
        for seed in ("once", "twice"):
            source = RandomSource(seed)
            runs.append(run_full_protocol(grid, make_prover(solution, source), source)[1])
        first, second = runs
        assert len(first) == len(second)
        fixed = [(a, b) for a, b in zip(first.events, second.events)
                 if a[0] not in ("reveal", "rearrange")]
        assert fixed
        assert all(a is b for a, b in fixed)

    def test_each_event_kind_is_written_once(self):
        tree = ast.parse(Path(protocol.__file__).read_text(encoding="utf-8"))
        kinds = Counter(node.value for node in ast.walk(tree)
                        if isinstance(node, ast.Constant) and node.value in _EVENT_FIELDS)
        assert kinds == Counter(dict.fromkeys(_EVENT_FIELDS, 1))
        # one live loop walks the compiled steps: no per-check glue is left,
        # and nothing unpacks steps by position
        for gone in ("_sim_collection", "_sim_reveal", "_Conversion", "_verify_windows",
                     "_return_room", "_collect_room", "_reveal_site", "_sort_columns",
                     "_Sort", "_Start", "_Slots", "_slots", "_hole"):
            assert not hasattr(protocol, gone), gone
        # a check compiles once, its table with it: no second table per
        # check is kept beside it, and no hole holds a prebuilt site event
        assert not hasattr(protocol._Schedule, "tables")
        assert "site_event" not in ast.unparse(tree)
        # the card plan is compiled: the table counts no pool cards
        for gone in ("take_helps", "return_helps", "take_encoding", "return_encoding",
                     "_bump", "_in_play", "_help_out", "_enc_out"):
            assert gone not in ast.unparse(tree), gone
        assert not hasattr(protocol, "CardsUnavailable")
        assert "CardsUnavailable" not in makaro_zkp.__all__
        assert not [node for node in ast.walk(tree)
                    if isinstance(node, ast.Starred) and isinstance(node.ctx, ast.Store)]

    def test_a_simulated_transcript_reveals_its_view(self, small_grids):
        # one draw path: the walk feeds each site its cards from the view, in
        # the layout's site order, and draws nothing itself; read_view is its
        # inverse
        bundled = [load_grid(f"{name}.makaro") for name in BUNDLED]
        for grid in [*bundled, *small_grids[::40]]:
            for seed in (0, 1, "demo"):
                transcript = simulate_transcript(grid, RandomSource.for_trial(seed, 3))
                view = simulate_view(grid, RandomSource.for_trial(seed, 3))
                assert read_view(grid, transcript) == revealed_cards(transcript) == view

    def test_an_honest_runs_view_is_what_its_reveals_show(self, small_grids):
        # and the private run entry, which writes no transcript, gives that
        # view and the verdict run_full_protocol gives
        bundled = [(grid, bundled_solution(name, grid))
                   for name in BUNDLED for grid in [load_grid(f"{name}.makaro")]]
        solved = [(grid, solutions[0]) for grid in small_grids[::40]
                  for solutions in [solve_brute_force(grid)] if solutions]
        assert solved  # most corpus grids have no solution
        for grid, solution in [*bundled, *solved]:
            for seed in (0, 1, "demo"):
                source = RandomSource.for_trial(seed, 3)
                verdict, transcript = run_full_protocol(grid, make_prover(solution, source),
                                                        source)
                assert verdict.accepted
                assert read_view(grid, transcript) == revealed_cards(transcript)
                source = RandomSource.for_trial(seed, 3)
                live, view, _ = protocol._run(grid, make_prover(solution, source), source)
                assert live == verdict and tuple(view) == read_view(grid, transcript)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_the_writer_rebuilds_a_run_from_its_reveals(self, name):
        # the writer fed the cards a transcript reveals, after setup's
        # events, writes that transcript back, live or simulated
        grid = load_grid(f"{name}.makaro")
        solution = bundled_solution(name, grid)
        schedule = protocol._schedule(grid)
        for seed in (0, 1, "demo"):
            source = RandomSource.for_trial(seed, 0)
            verdict, real = run_full_protocol(grid, make_prover(solution, source), source)
            sim = simulate_transcript(grid, RandomSource.for_trial(seed, 0))
            assert verdict.accepted
            for transcript in (real, sim):
                events = list(schedule.placements)
                schedule.write(events, revealed_cards(transcript), True)
                assert events == transcript.events, seed

    @pytest.mark.parametrize("name", BUNDLED)
    def test_the_one_check_entries_write_the_runs_transcript(self, name):
        # the one-check entries, run in schedule order after setup, write
        # exactly the run's transcript: each fills the compiled check that
        # the run's writer fills
        grid = load_grid(f"{name}.makaro")
        solution = bundled_solution(name, grid)
        for seed in (0, 1, "demo"):
            source = RandomSource.for_trial(seed, 0)
            verdict, run = run_full_protocol(grid, make_prover(solution, source), source)
            assert verdict.accepted
            source = RandomSource.for_trial(seed, 0)
            prover, transcript = make_prover(solution, source), Transcript()
            table = setup_placement(grid, prover, transcript)
            for kind, subject in protocol._schedule(grid).checks:
                if kind == "room":
                    assert verify_room(table, subject, source, transcript)
                elif kind == "neighbor":
                    assert verify_neighbor(table, *subject, prover, source, transcript)
                else:
                    assert verify_arrow(table, subject, prover, source, transcript)
            assert transcript.events == run.events, seed

    def test_a_sorted_row_ends_in_its_sites_order(self, small_grids):
        # the rearrangement sorts a row's cards, which puts them in the
        # order its site lists them
        sorted_rows = 0
        for grid in [*(load_grid(f"{name}.makaro") for name in BUNDLED), *small_grids[::40]]:
            for check in protocol._schedule(grid).checks.values():
                for step in check.steps:
                    if type(step) is protocol._Reveal and step.sorts:
                        support = step.site.support
                        for shown in (support[::-1], support[1:] + support[:1]):
                            _, order = protocol._rearrange(shown)
                            assert tuple(shown[i] for i in order) == support
                        sorted_rows += 1
        assert sorted_rows > 1000

    def test_one_writer_writes_every_run(self):
        # every run's check events, live or simulated, accepting or not,
        # come from _write filling a compiled check's table: only the live
        # run reads a compiled check's steps, and it writes no event; the
        # only loops over steps are its and _check's, which compiles them
        # with the table in one pass; no slot is counted from a site's take
        tree = ast.parse(Path(protocol.__file__).read_text(encoding="utf-8"))
        funcs = {func.name: func for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)}
        reads = Counter((name, ast.unparse(node)) for name, func in funcs.items()
                        for node in ast.walk(func)
                        if isinstance(node, ast.Attribute) and node.attr == "steps")
        assert reads == Counter({("_live", "check.steps"): 1})
        assert sum(isinstance(node, ast.Attribute) and node.attr == "steps"
                   for node in ast.walk(tree)) == 1
        walks = Counter((name, ast.unparse(node.iter)) for name, func in funcs.items()
                        for node in ast.walk(func)
                        if isinstance(node, (ast.For, ast.comprehension))
                        and "steps" in ast.unparse(node.iter))
        assert walks == Counter({("_check", "steps"): 1, ("_live", "check.steps"): 1})

        def users(name):
            return {func_name for func_name, func in funcs.items()
                    if any(isinstance(node, ast.Name) and node.id == name
                           for node in ast.walk(func))}

        # a reveal event is built in _write alone, which read_view reads
        # through, and so is a rearrangement: the live run takes only its
        # column order
        assert users("_REVEAL") == {"_write"}
        assert users("_rearrange") == {"_write", "_live"}
        # runs and the one-check entries write through the schedule's
        # writer or _write; the live run reaches no transcript or event
        assert users("_write") == {"write", "_entry"}
        live = {node.id for node in ast.walk(funcs["_live"]) if isinstance(node, ast.Name)}
        assert not live & {"Transcript", "transcript", "events", "_write", "_slots"}
        assert [arg.arg for arg in funcs["_live"].args.args] == \
            ["table", "check", "prover", "source", "view"]
        for gone in ("walk", "view_getters"):
            assert not hasattr(protocol._Schedule, gone), gone
        assert not hasattr(protocol, "RunLayout")
        assert not [node for node in ast.walk(tree)
                    if isinstance(node, (ast.BinOp, ast.AugAssign))
                    and any(isinstance(part, ast.Attribute) and part.attr == "take"
                            for part in ast.walk(node))]

    def test_a_run_hands_each_compiled_check_to_the_live_run(self, example_grid,
                                                              example_solution, monkeypatch):
        # setup and the run each look the schedule up once, and the run
        # gives _live every check as compiled, with no lookup of its own,
        # whether it writes its transcript or only takes its view
        lookups, run = [], []
        schedule, live = protocol._schedule, protocol._live
        monkeypatch.setattr(protocol, "_schedule",
                            lambda grid: lookups.append(grid) or schedule(grid))
        monkeypatch.setattr(protocol, "_live",
                            lambda table, check, *args: run.append(check) or live(table, check, *args))
        for entry in (lambda prover, source: run_full_protocol(example_grid, prover, source),
                      lambda prover, source: protocol._run(example_grid, prover, source)):
            lookups.clear()
            run.clear()
            source = RandomSource.for_trial(0, 0)
            verdict = entry(make_prover(example_solution, source), source)[0]
            assert verdict.accepted
            assert lookups == [example_grid] * 2
            assert run == list(schedule(example_grid).checks.values())
            assert len(run) == 20

    def test_the_writers_end_event_is_the_live_verdict(self, small_grids):
        # on every run of the sweep slice that passes setup, rejected ones
        # included, the transcript ends with the end event of the live
        # verdict, and the writer fed its reveals writes it back
        past_setup = Counter()
        for index, grid in enumerate(small_grids[::40]):
            schedule = protocol._schedule(grid)
            closing = list(schedule.checks.values())[-1].events[-1]
            for trial, filling in enumerate(all_value_assignments(grid)):
                source = RandomSource.for_trial(f"ends/{index}", trial)
                verdict, view, table = protocol._run(grid, make_prover(filling, source), source)
                source = RandomSource.for_trial(f"ends/{index}", trial)
                written, transcript, _ = run_full_protocol_with_table(
                    grid, make_prover(filling, source), source)
                assert written == verdict
                if table is None:
                    continue
                failed = verdict.failing_check
                end = (closing,) if failed is None else \
                    schedule.checks[failed.kind, failed.subject].rejected
                assert tuple(transcript.events[-1:]) == end
                assert end[0][0] == "end" and end[0][3] is verdict.accepted
                assert revealed_cards(transcript) == tuple(view)
                events = list(schedule.placements)
                schedule.write(events, view, verdict.accepted)
                assert events == transcript.events
                past_setup[verdict.accepted] += 1
        assert sum(past_setup.values()) == 1022 and set(past_setup) == {True, False}

    def test_each_returned_verdict_equals_a_fresh_one(self, small_grids):
        # a grid's runs share one verdict per outcome, built with its
        # schedule: each equals the verdict built afresh from the rules
        def perturbed(grid, solution):
            yield solution
            free = [rc for rc in grid.white_coords() if grid.cell(rc).clue is None]
            for rc in free:
                for value in range(1, len(grid.rooms[grid.room_of(rc)]) + 1):
                    if value != solution[rc]:
                        yield {**solution, rc: value}
            for a in free:
                for b in free:
                    if a < b and grid.room_of(a) == grid.room_of(b):
                        yield {**solution, a: solution[b], b: solution[a]}

        def setup_room(grid, filling):
            # setup lays the clued cells first, then the others, each row-major
            used = set()
            for rc in sorted(grid.white_coords(), key=lambda rc: grid.cell(rc).clue is None):
                if (grid.room_of(rc), filling[rc]) in used:
                    return grid.room_of(rc)
                used.add((grid.room_of(rc), filling[rc]))
            return None

        runs = [(grid, all_value_assignments(grid)) for grid in small_grids[::40]]
        for name in BUNDLED:
            grid = load_grid(f"{name}.makaro")
            runs.append((grid, perturbed(grid, bundled_solution(name, grid))))
        outcomes = Counter()
        for grid, fillings in runs:
            shared = {}
            for trial, filling in enumerate(fillings):
                source = RandomSource.for_trial("verdicts", trial)
                verdict, _, _ = run_full_protocol_with_table(
                    grid, make_prover(filling, source), source)
                room, broken = setup_room(grid, filling), violations(grid, filling)
                if room is not None:
                    fresh = Verdict(False, FailedCheck("room", room, at_setup=True))
                elif broken:
                    fresh = Verdict(False, FailedCheck(*broken[0]))
                else:
                    fresh = Verdict(True, None)
                assert type(verdict) is Verdict and verdict == fresh, (grid, filling)
                assert shared.setdefault(fresh, verdict) is verdict
                outcomes[fresh.failing_check and fresh.failing_check.at_setup] += 1
        # accepting runs, and rejections at setup and at a check
        assert set(outcomes) == {None, True, False}

    def test_the_schedule_leaves_comparisons_to_their_fragment(self):
        # `_Schedule.__init__` picks each check's key, letters and length;
        # the sites, windows, stacking and shuffle of a neighbor or arrow
        # check are built by `_comparison` alone
        tree = ast.parse(Path(protocol.__file__).read_text(encoding="utf-8"))
        schedule = next(node for node in tree.body
                        if isinstance(node, ast.ClassDef) and node.name == "_Schedule")
        init = next(node for node in schedule.body
                    if isinstance(node, ast.FunctionDef) and node.name == "__init__")
        named = {node.id for node in ast.walk(init) if isinstance(node, ast.Name)}
        assert "_comparison" in named
        assert not named & {"SiteFamily", "_Window", "_Stack", "_hole", "_SHIFT", "_SCRAMBLE"}
        assert "_shuffled" not in ast.unparse(tree)

    def test_the_verdict_lives_in_the_template(self):
        # the holes' predicates are the only acceptance rules: with each one
        # swapped for one that accepts, fillings that a neighbor check and an
        # arrow check reject run to acceptance
        grid = load_grid("cross.makaro")
        fillings = list(all_value_assignments(grid))
        rejected = {270: FailedCheck("neighbor", ((0, 0), (1, 0))),
                    298: FailedCheck("arrow", (1, 1))}

        def verdicts():
            for filling in rejected:
                for seed in (0, 1, "demo"):
                    source = RandomSource.for_trial(seed, 0)
                    prover = make_prover(fillings[filling], source)
                    yield filling, run_full_protocol(grid, prover, source)[0]

        assert all(verdict.failing_check == rejected[filling]
                   for filling, verdict in verdicts())
        schedule = protocol._schedule(grid)
        holes = (protocol._Reveal, protocol._Window)
        try:
            for key, check in schedule.checks.items():
                schedule.checks[key] = check._replace(steps=tuple(
                    step._replace(accepts=lambda shown: True) if type(step) in holes else step
                    for step in check.steps))
            assert all(verdict == Verdict(True) for _, verdict in verdicts())
        finally:
            protocol._last_schedule[0] = (None, None)
        assert all(verdict.failing_check == rejected[filling]
                   for filling, verdict in verdicts())
