"""Card-protocol checks: setup placement, value encodings, cell conversion,
the room/neighbor/arrow verifications, full runs, and the transcript
simulator that mirrors them without the solution."""

import random
from collections import Counter

import pytest

from makaro_zkp import (
    CardsUnavailable,
    FailedCheck,
    ProtocolError,
    RandomSource,
    SetupError,
    TableState,
    Transcript,
    card_budget,
    cell_card,
    check_solution,
    convert_cell,
    encoding_card,
    make_encoding,
    make_prover,
    parse_puzzle,
    reveal_site_plan,
    run_full_protocol,
    run_full_protocol_with_table,
    serialize_puzzle,
    setup_placement,
    simulate_transcript,
    solve_brute_force,
    stats,
    verify_arrow,
    verify_neighbor,
    verify_room,
    violations,
)
from makaro_zkp import protocol, puzzle

from conftest import load_grid

# 2x3 grid whose arrow check has m=2 (window length 3): the black cell points
# up at a size-2 room and its rivals sit in a size-2 and a size-1 room.
ARROW_M2 = "makaro 2 3\nA A B\nC B^ B\n"


def arrow_m2_assignment(x: int, y: int) -> dict:
    """Room-consistent placement with pointed cell x and size-2-room rival y."""
    return {(0, 0): 3 - x, (0, 1): x, (0, 2): 3 - y, (1, 2): y, (1, 0): 1}


def fresh_table(grid, assignment, seed):
    """Setup already performed: (source, prover, transcript, table)."""
    source = RandomSource.from_seed(seed)
    prover = make_prover(assignment, source)
    transcript = Transcript()
    table = setup_placement(grid, prover, transcript)
    return source, prover, transcript, table


def patterns_by_site(transcript):
    return dict(transcript.site_patterns)


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
        source = RandomSource.from_seed("low")
        verdict, _ = run_full_protocol(grid, make_prover({(0, 0): value}, source), source)
        assert not verdict.accepted
        assert verdict.failing_check.kind == "room"

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


class TestEncoding:
    # the example's largest room has 5 cells, so each encoding set holds 9 cards

    def test_marker_sits_at_the_encoded_position(self, example_grid):
        table = TableState(example_grid)
        source = RandomSource.from_seed("enc")
        prover = make_prover({}, source)
        for value in range(1, 5):
            seq = make_encoding("a", 4, value, prover, table)
            table.return_encoding("a")
            assert seq[value - 1] == encoding_card("a", 1)
            assert sorted(seq) == [encoding_card("a", i) for i in range(1, 5)]

    def test_single_card_sequence(self, example_grid):
        prover = make_prover({}, RandomSource.from_seed("enc"))
        seq = make_encoding("b", 1, 1, prover, TableState(example_grid))
        assert seq == [encoding_card("b", 1)]

    def test_value_outside_sequence_is_an_error(self, example_grid):
        table = TableState(example_grid)
        prover = make_prover({}, RandomSource.from_seed("enc"))
        with pytest.raises(ProtocolError):
            make_encoding("a", 4, 5, prover, table)
        with pytest.raises(ProtocolError):
            make_encoding("a", 4, 0, prover, table)

    def test_non_marker_order_is_uniform(self, example_grid):
        # value fixed at 2 in a length-4 sequence: the other three cards land
        # in positions (0, 2, 3) in one of 3! secret orders, each equally often
        table = TableState(example_grid)
        prover = make_prover({}, RandomSource.from_seed("enc-orders"))
        trials = 6000
        orders = Counter()
        for _ in range(trials):
            seq = make_encoding("a", 4, 2, prover, table)
            table.return_encoding("a")
            orders[(seq[0], seq[2], seq[3])] += 1
        assert len(orders) == 6
        for count in orders.values():
            assert abs(count / trials - 1 / 6) < 0.03

    def test_table_tracks_encoding_sets_in_use(self, quad_grid):
        table = TableState(quad_grid)
        prover = make_prover({}, RandomSource.from_seed("enc"))
        make_encoding("a", 3, 1, prover, table)
        with pytest.raises(CardsUnavailable):
            make_encoding("a", 2, 1, prover, table)
        make_encoding("b", 3, 2, prover, table)  # a different set is fine
        table.return_encoding("a")
        make_encoding("a", 3, 3, prover, table)

    def test_table_refuses_more_cards_than_a_set_holds(self, quad_grid):
        table = TableState(quad_grid)  # k=2, so sets hold 2k-1 = 3 cards
        prover = make_prover({}, RandomSource.from_seed("enc"))
        with pytest.raises(CardsUnavailable):
            make_encoding("a", 4, 1, prover, table)

    def test_helping_cards_are_a_single_shared_pool(self, quad_grid):
        table = TableState(quad_grid)
        table.take_helps(2)
        with pytest.raises(CardsUnavailable):
            table.take_helps(1)
        table.return_helps()
        table.take_helps(1)
        with pytest.raises(CardsUnavailable):
            TableState(quad_grid).take_helps(3)  # only k=2 exist


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
        table.return_encoding("c")
        table.assert_settled()

    def test_single_cell_room_converts(self):
        grid = parse_puzzle("makaro 1 2\nA B\n")
        source, prover, transcript, table = fresh_table(
            grid, {(0, 0): 1, (0, 1): 1}, "conv1")
        seq = convert_cell(table, (0, 0), "a", 1, prover, source, transcript, "cell")
        assert seq == [encoding_card("a", 1)]

    def test_sequence_shorter_than_the_room_is_an_error(self, example_grid,
                                                        example_solution):
        source, prover, transcript, table = fresh_table(
            example_grid, example_solution, "conv3")
        with pytest.raises(ProtocolError):
            convert_cell(table, (2, 3), "a", 4, prover, source, transcript, "cell")

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
                table.return_encoding("d")
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
            a_card = table.remove_cell((0, 0))
            b_card = table.remove_cell((1, 0))
            table.put_cell((0, 0), b_card)
            table.put_cell((1, 0), a_card)
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


class TestFullProtocol:
    def test_honest_example_accepted(self, example_grid, example_solution):
        for seed in range(25):
            prover = make_prover(example_solution, RandomSource.from_seed(f"ok{seed}"))
            verdict, transcript = run_full_protocol(
                example_grid, prover, RandomSource.from_seed(f"ok{seed}"))
            assert verdict.accepted
            assert verdict.failing_check is None
            ends = [ev for ev in transcript.events if ev[0] == "end"]
            assert ends and all(ev[-1] for ev in ends)

    def test_first_broken_rule_is_reported(self, example_grid, example_solution):
        dishonest = dict(example_solution)
        dishonest[(0, 1)], dishonest[(1, 1)] = dishonest[(1, 1)], dishonest[(0, 1)]
        kind, subject = violations(example_grid, dishonest)[0]
        for seed in range(10):
            prover = make_prover(dishonest, RandomSource.from_seed(f"swap{seed}"))
            verdict, _ = run_full_protocol(
                example_grid, prover, RandomSource.from_seed(f"swap{seed}"))
            assert not verdict.accepted
            assert verdict.failing_check == FailedCheck(kind, subject)

    def test_bad_room_surfaces_at_setup(self, example_grid, example_solution):
        bad = dict(example_solution)
        bad[(2, 0)] = bad[(0, 0)]  # room A then needs two 1-cards... no such deck
        assert violations(example_grid, bad)[0][0] == "room"
        verdict, transcript = run_full_protocol(
            example_grid, make_prover(bad, RandomSource.from_seed("dup")),
            RandomSource.from_seed("dup"))
        assert not verdict.accepted
        assert verdict.failing_check is not None
        assert verdict.failing_check.kind == "room"
        assert verdict.failing_check.at_setup
        assert all(ev[0] in ("place", "place-hidden") for ev in transcript.events)

    def test_minimal_grid_runs_only_its_room_check(self):
        grid = parse_puzzle("makaro 1 1\nA\n")
        prover = make_prover({(0, 0): 1}, RandomSource.from_seed("one"))
        verdict, transcript = run_full_protocol(grid, prover,
                                                RandomSource.from_seed("one"))
        assert verdict.accepted
        begins = [ev[1] for ev in transcript.events if ev[0] == "begin"]
        assert begins == ["room"]

    def test_same_seeds_reproduce_the_transcript(self, example_grid, example_solution):
        runs = []
        for _ in range(2):
            prover = make_prover(example_solution, RandomSource.from_seed("det"))
            _, transcript = run_full_protocol(example_grid, prover,
                                              RandomSource.from_seed("det"))
            runs.append(transcript)
        assert runs[0] == runs[1]
        prover = make_prover(example_solution, RandomSource.from_seed("det2"))
        _, other = run_full_protocol(example_grid, prover,
                                     RandomSource.from_seed("det2"))
        assert other != runs[0]

    def test_peak_cards_equal_the_deck_budget(self, example_grid, example_solution):
        budget = card_budget(stats(example_grid))
        for seed in range(5):
            prover = make_prover(example_solution, RandomSource.from_seed(f"pk{seed}"))
            verdict, _, table = run_full_protocol_with_table(
                example_grid, prover, RandomSource.from_seed(f"pk{seed}"))
            assert verdict.accepted
            assert table is not None
            assert table.peak_cards == budget.total == 61

    def test_grid_sizes_are_computed_once_per_grid(self, monkeypatch, quad_grid):
        grid = parse_puzzle(serialize_puzzle(quad_grid))  # a fresh grid: nothing cached
        calls = []
        monkeypatch.setattr(protocol, "stats", lambda g: calls.append(g) or stats(g))
        for seed in ("once", "twice"):
            prover = make_prover({(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 1},
                                 RandomSource.from_seed(seed))
            verdict, _ = run_full_protocol(grid, prover, RandomSource.from_seed(seed))
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
        source = RandomSource.from_seed("once")
        assert run_full_protocol(grid, make_prover(example_solution, source), source)[0].accepted
        simulate_transcript(grid, RandomSource.from_seed("once"))
        reveal_site_plan(grid)
        # the pairs once per grid, the cells around each of the 5 arrows once
        assert calls[("white_neighbor_pairs",)] == 1
        assert sorted(n for n, *_ in calls) == ["arrow_check_cells"] * 5 + ["white_neighbor_pairs"]
        assert set(calls.values()) == {1}


class TestSimulator:
    def test_mirrors_the_real_event_structure(self, example_grid, example_solution):
        prover = make_prover(example_solution, RandomSource.from_seed("real"))
        _, real = run_full_protocol(example_grid, prover,
                                    RandomSource.from_seed("real"))
        sim = simulate_transcript(example_grid, RandomSource.from_seed("sim"))
        assert len(real.events) == len(sim.events)
        for real_ev, sim_ev in zip(real.events, sim.events):
            assert real_ev[0] == sim_ev[0]
            if real_ev[0] not in ("reveal", "rearrange"):
                assert real_ev == sim_ev  # only card draws and orders differ
        assert [s for s, _ in real.site_patterns] == [s for s, _ in sim.site_patterns]

    def test_same_seed_reproduces_the_simulation(self, example_grid):
        a = simulate_transcript(example_grid, RandomSource.from_seed("simdet"))
        b = simulate_transcript(example_grid, RandomSource.from_seed("simdet"))
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
        prover = make_prover(example_solution, RandomSource.from_seed("plan"))
        _, transcript = run_full_protocol(example_grid, prover,
                                          RandomSource.from_seed("plan"))
        assert [site for site, _, _, _ in plan] == [s for s, _ in transcript.site_patterns]

    def test_observed_patterns_stay_inside_their_families(self, example_grid,
                                                          example_solution):
        plan = {site: (kind, support, take)
                for site, kind, support, take in reveal_site_plan(example_grid)}
        for seed in range(5):
            prover = make_prover(example_solution, RandomSource.from_seed(f"fam{seed}"))
            _, transcript = run_full_protocol(example_grid, prover,
                                              RandomSource.from_seed(f"fam{seed}"))
            for site, pattern in transcript.site_patterns:
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
        sim = simulate_transcript(example_grid, RandomSource.from_seed("famsim"))
        for site, pattern in sim.site_patterns:
            kind, support, take = plan[site]
            assert len(pattern) == take
            assert set(pattern) <= set(support)
