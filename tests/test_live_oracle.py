"""The live run's fragment kernels against card physics: a test-side
interpreter plays each compiled check's steps on a real CardMatrix, laid
per fragment, shuffled, revealed, sorted and taken apart as the physical
protocol does, lifting each room off a physical table and laying it back,
and every check the live run makes must match it.  The live run reads the
rooms' cards in place, so the physical table is what shows the round trip."""

from collections.abc import Sequence

import pytest

from makaro_zkp import (
    CardId,
    CardMatrix,
    ProtocolError,
    RandomSource,
    all_value_assignments,
    make_encoding,
    make_prover,
    pile_scramble_shuffle,
    pile_shifting_shuffle,
)
from makaro_zkp import protocol
from makaro_zkp.deck import reveal_row, turn_all_down

from conftest import load_grid
from test_protocol import BUNDLED, bundled_solution, fresh_table, room_swaps


class PhysicalTable:
    """The grid zone: each white cell's card, or None while a check holds it.
    empty_cells counts the white cells that hold no card, so the table is
    settled when it is 0.  put_cells and take_cells move one cell at a time
    and undo a refused move whole."""

    def __init__(self, grid):
        self.grid = grid
        self.cell_cards: dict = dict.fromkeys(grid.white_set)
        self.empty_cells = len(grid.white_set)

    def put_cells(self, cells: Sequence, cards: Sequence[CardId]) -> None:
        """Lay one card on each empty white cell, in order."""
        if len(cells) != len(cards):
            raise ProtocolError(f"cell count {len(cells)} differs from card count {len(cards)}")
        cell_cards = self.cell_cards
        for laid, (rc, card) in enumerate(zip(cells, cards)):
            if card is None or rc not in cell_cards or cell_cards[rc] is not None:
                cell_cards.update(dict.fromkeys(cells[:laid]))
                raise ProtocolError(f"no card to lay on cell {rc}" if card is None
                                    else f"cell {rc} already holds a card" if rc in cell_cards
                                    else f"cell {rc} is not a white cell")
            cell_cards[rc] = card
        self.empty_cells -= len(cells)

    def take_cells(self, cells: Sequence) -> list[CardId]:
        """Lift the cards off the given cells, in order."""
        cell_cards, cards = self.cell_cards, []
        for rc in cells:
            card = cell_cards.get(rc)
            if card is None:
                cell_cards.update(zip(cells, cards))
                raise ProtocolError(f"no card on cell {rc}")
            cell_cards[rc] = None
            cards.append(card)
        self.empty_cells += len(cells)
        return cards

    def assert_settled(self) -> None:
        # between checks every white cell holds a card again
        if self.empty_cells:
            raise ProtocolError("table out of balance between checks")


def laid(table) -> PhysicalTable:
    """A physical table holding the cards of a live run's table."""
    held = PhysicalTable(table.grid)
    held.put_cells(list(table.cell_cards), list(table.cell_cards.values()))
    return held


def unfilled(table) -> int:
    """The white cells that hold no card, counted from the cells."""
    return sum(table.cell_cards.get(rc) is None for rc in table.grid.white_set)


def play_on_matrix(table, check, prover, source, view):
    """The check's steps played on a card matrix per fragment, lifting each
    room off a PhysicalTable: what the live run returns (the sequences
    extracted, or None) and its view, and the cards left on the table, from
    card physics alone."""
    sequences, ok = [], True
    for step in check.steps:
        kind = type(step)
        if kind is tuple:
            continue  # events, which the check's table writes
        if kind is protocol._Window:
            shown = reveal_row(matrix, step.row, step.cols_from[start])
            view.extend(shown)
            ok = step.accepts(shown) and ok
        elif kind is protocol._Reveal:
            shown = reveal_row(matrix, step.row, step.cols)
            view.extend(shown)
            if step.accepts is not None and not step.accepts(shown):
                return None
            if step.sorts:
                matrix.permute_columns(protocol._rearrange(shown)[1])
            else:
                start = shown.index(step.site.support[0])
        elif kind is protocol._Take:
            p = len(step.cells)
            rows = [table.take_cells(step.cells), step.helps]
            extract = bool(step.encoding)
            if extract:
                encoding = make_encoding(step.encoding, step.column + 1, prover)
                rows.append(encoding[:p])
                tail = encoding[p:]
            matrix = CardMatrix.from_rows(rows)
            pile_scramble_shuffle(matrix, source)
        elif kind is protocol._Hide:
            # a collection extracts the encoding its take carries, if any
            if extract:
                sequences.append(matrix.take_row(2) + tail)
            turn_all_down(matrix)
            pile_scramble_shuffle(matrix, source)
        elif kind is protocol._Stack:
            matrix = CardMatrix.from_rows(sequences)
            (pile_shifting_shuffle if step.shift else pile_scramble_shuffle)(matrix, source)
        else:
            table.put_cells(step.cells, matrix.take_row(0))
    return sequences if ok else None


def runs(small_grids):
    """(grid, filling, seed, swap): every bundled puzzle's solution with
    three seeds, every filling of the sweep slice, and the bundled puzzles'
    room swaps, each with swap None; then each bundled solution once per
    check, with swap (key, a, b): before the check keyed `key`, the cards
    on cells a and b change places, a cell of the check's first collection
    and a cell of another room, so that collection shows a foreign card."""
    bundled = [(load_grid(f"{name}.makaro"), name) for name in BUNDLED]
    for grid, name in bundled:
        for seed in (0, 1, "demo"):
            yield grid, bundled_solution(name, grid), seed, None
    for index, grid in enumerate(small_grids[::40]):
        for trial, filling in enumerate(all_value_assignments(grid)):
            yield grid, filling, f"sweep/{index}:{trial}", None
    for grid, name in bundled:
        for trial, filling in enumerate(room_swaps(grid, bundled_solution(name, grid))):
            yield grid, filling, f"swap/{name}:{trial}", None
    for grid, name in bundled:
        for key, check in protocol._schedule(grid).checks.items():
            a = check.fragments[0][0].cells[0]
            others = [rc for rc in grid.white_coords() if grid.room_of(rc) != grid.room_of(a)]
            if others:
                swap = key, a, others[0]
                yield grid, bundled_solution(name, grid), f"foreign/{name}:{key}", swap


def held_off(schedule, check, cards):
    """The cells a check leaves empty when the table held `cards`: those of
    its first collection whose cells hold other cards than its room's, since
    its cells row rejects the check before the room goes back; none if no
    collection does."""
    for step in check.steps:
        if type(step) is protocol._Take:
            room = schedule.room_cards[schedule.grid.room_of(step.cells[0])]
            if sorted(cards[rc] for rc in step.cells) != sorted(room):
                return set(step.cells)
    return set()


def test_the_kernels_make_the_matrix_moves(small_grids):
    # each check, from the same cards and streams: the same view, the same
    # sequences or rejection and the same draws from both streams.  The live
    # run's table keeps setup's cards (those the test swapped, once it has);
    # the physical table lays every room back, after a pass or a rejected
    # window, and keeps off the table exactly the cells of a collection
    # whose cells row rejected
    checks, outcomes = 0, set()
    for grid, filling, seed, swap in runs(small_grids):
        schedule = protocol._schedule(grid)
        placed, room = protocol._place(schedule, filling)
        if room is not None:
            continue
        table = protocol._lay(schedule, placed)
        held, cards = laid(table), dict(table.cell_cards)
        sides = []
        for run, on in ((protocol._live, table), (play_on_matrix, held)):
            source = RandomSource(seed)
            sides.append((run, on, make_prover(filling, source), source))
        for key in schedule.rules:
            if swap is not None and swap[0] == key:
                _, a, b = swap
                for on in (table, held):
                    on.cell_cards[a], on.cell_cards[b] = on.cell_cards[b], on.cell_cards[a]
                cards = dict(table.cell_cards)
            check = schedule.check(key)
            results = []
            for run, on, prover, source in sides:
                view = []
                returned = run(on, check, prover, source, view)
                results.append((view, returned, source.shuffle_stream.getstate(),
                                source.prover_stream.getstate()))
            live, played = results
            assert live == played, (seed, key)
            assert table.cell_cards == cards, (seed, key)
            off = held_off(schedule, check, cards)
            assert held.cell_cards == {rc: None if rc in off else card
                                       for rc, card in cards.items()}, (seed, key)
            assert held.empty_cells == unfilled(held) == len(off), (seed, key)
            checks += 1
            outcomes.add("pass" if live[1] is not None else "row" if off else "window")
            if live[1] is None:
                break
    assert checks > 7000 and outcomes == {"pass", "row", "window"}


def test_each_fragment_is_built_from_its_checks_own_steps(small_grids):
    # a fragment holds the check's step objects themselves, no copy of
    # their fields, one fragment per take or stack, in run order; the
    # collection kernel judges only the cells row, which holds because no
    # helping row rests on a rule and every cells row does
    grids = [*(load_grid(f"{name}.makaro") for name in BUNDLED), *small_grids[::40]]
    checks = 0
    for grid in grids:
        for check in protocol._Schedule(grid).checks.values():
            steps = {id(step) for step in check.steps}
            opened = [id(step) for step in check.steps
                      if type(step) in (protocol._Take, protocol._Stack)]
            assert [id(fragment[0]) for fragment in check.fragments] == opened
            for fragment in check.fragments:
                first, *rest = fragment
                if type(first) is protocol._Take:
                    (hole,) = rest
                    assert type(hole) is protocol._Reveal and hole.row == 0 and hole.sorts
                    held = [hole]
                else:
                    hole, windows = rest
                    assert type(hole) is protocol._Reveal and not hole.sorts
                    assert all(type(window) is protocol._Window for window in windows)
                    held = [hole, *windows]
                assert all(id(step) in steps for step in held)
            for step in check.steps:
                if type(step) is protocol._Reveal and step.sorts:
                    assert (step.accepts is None) == (step.row == 1), step.site.key
            checks += 1
    assert checks > 1000


def test_every_take_lays_its_helping_cards_in_increasing_order(small_grids):
    # sorting a collection's helping row then lays its room back in cell
    # order, which is why the live run reads the room's cards in place
    grids = [*(load_grid(f"{name}.makaro") for name in BUNDLED), *small_grids[::40]]
    takes = 0
    for grid in grids:
        for check in protocol._Schedule(grid).checks.values():
            for step in check.steps:
                if type(step) is protocol._Take:
                    assert all(a < b for a, b in zip(step.helps, step.helps[1:])), step
                    assert len(step.helps) == len(step.cells)
                    takes += 1
    assert takes > 1000


def neighbor(grid, a, b):
    return protocol._schedule(grid).check(("neighbor", (a, b)))


class TestTableBalance:
    """A physical table counts its white cells that hold no card
    (empty_cells), so assert_settled reads one number; the count matches
    the cells after any move, made or refused."""

    def test_the_count_follows_an_honest_run_check_by_check(self, example_grid,
                                                              example_solution):
        assert PhysicalTable(example_grid).empty_cells == 20 == unfilled(PhysicalTable(example_grid))
        source, prover, _, table = fresh_table(example_grid, example_solution, "bal")
        held = laid(table)
        assert held.empty_cells == unfilled(held) == 0
        for key, check in protocol._schedule(example_grid).checks.items():
            assert play_on_matrix(held, check, prover, source, []) is not None, key
            assert held.empty_cells == unfilled(held) == 0, key
            held.assert_settled()

    def test_a_check_rejected_at_a_row_keeps_the_room_off_the_table(self, quad_grid):
        # the foreign card fails the cell reveal, which ends the check with
        # the room's cards still in the matrix
        source, prover, _, table = fresh_table(
            quad_grid, {(0, 0): 1, (0, 1): 2, (1, 0): 1, (1, 1): 2}, "balrow")
        cards = table.cell_cards
        cards[(0, 0)], cards[(1, 0)] = cards[(1, 0)], cards[(0, 0)]
        held = laid(table)
        assert held.empty_cells == unfilled(held) == 0
        check = protocol._schedule(quad_grid).check(("room", "A"))
        assert play_on_matrix(held, check, prover, source, []) is None
        assert held.empty_cells == unfilled(held) == 2
        with pytest.raises(ProtocolError, match="table out of balance between checks"):
            held.assert_settled()

    def test_a_check_rejected_at_a_window_settles(self, quad_grid):
        # equal values: the probe shows the other marker after both rooms
        # are back on the grid
        source, prover, _, table = fresh_table(
            quad_grid, {(0, 0): 1, (0, 1): 2, (1, 0): 1, (1, 1): 2}, "balwin")
        held = laid(table)
        check = neighbor(quad_grid, (0, 0), (1, 0))
        assert play_on_matrix(held, check, prover, source, []) is None
        assert held.empty_cells == unfilled(held) == 0
        held.assert_settled()

    def test_a_lift_not_put_back_unsettles_the_table(self, quad_grid):
        held = self.quad_table(quad_grid, "lift")
        cards = held.take_cells([(1, 1)])
        assert held.empty_cells == unfilled(held) == 1
        with pytest.raises(ProtocolError, match="table out of balance between checks"):
            held.assert_settled()
        held.put_cells([(1, 1)], cards)
        assert held.empty_cells == unfilled(held) == 0
        held.assert_settled()

    def test_a_refused_move_changes_nothing(self, quad_grid):
        held = self.quad_table(quad_grid, "refuse")
        (card,) = held.take_cells([(0, 0)])
        moves = [(held.put_cells, ([(0, 0), (0, 1)], [card, card]), r"cell \(0, 1\) already"),
                 (held.put_cells, ([(1, 1)], [card]), r"cell \(1, 1\) already"),
                 (held.take_cells, ([(0, 1), (0, 0)],), r"no card on cell \(0, 0\)"),
                 (held.take_cells, ([(0, 0)],), r"no card on cell \(0, 0\)")]
        for move, args, message in moves:
            self.assert_refused(held, move, args, message)
        assert held.empty_cells == 1

    @staticmethod
    def quad_table(quad_grid, seed) -> PhysicalTable:
        return laid(fresh_table(quad_grid, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 1},
                                seed)[3])

    @staticmethod
    def assert_refused(held, move, args, message):
        before = dict(held.cell_cards), held.empty_cells
        with pytest.raises(ProtocolError, match=message):
            move(*args)
        assert (held.cell_cards, held.empty_cells) == before
        assert held.empty_cells == unfilled(held)

    def test_a_lift_naming_a_cell_twice_is_refused(self, quad_grid):
        # the second lift finds the cell its first lift emptied, so one card
        # cannot come back as two
        held = self.quad_table(quad_grid, "twice")
        self.assert_refused(held, held.take_cells, ([(0, 0), (0, 0)],),
                            r"no card on cell \(0, 0\)")
        self.assert_refused(held, held.take_cells, ([(0, 1), (1, 1), (0, 1)],),
                            r"no card on cell \(0, 1\)")

    def test_a_lay_naming_a_cell_twice_is_refused(self, quad_grid):
        held = self.quad_table(quad_grid, "lay twice")
        cards = held.take_cells([(0, 0), (0, 1)])
        self.assert_refused(held, held.put_cells, ([(0, 0), (0, 0)], cards),
                            r"cell \(0, 0\) already holds a card")

    def test_a_lay_of_no_card_is_refused(self, quad_grid):
        # a None card would leave its cell empty while the count calls it
        # filled, so assert_settled would pass on an unsettled table
        held = self.quad_table(quad_grid, "no card")
        cards = held.take_cells([(0, 0), (0, 1)])
        self.assert_refused(held, held.put_cells, ([(0, 0)], [None]),
                            r"no card to lay on cell \(0, 0\)")
        self.assert_refused(held, held.put_cells, ([(0, 0), (0, 1)], [cards[0], None]),
                            r"no card to lay on cell \(0, 1\)")

    def test_a_lay_on_a_cell_that_is_not_white_is_refused(self, example_grid, example_solution):
        held = laid(fresh_table(example_grid, example_solution, "black")[3])
        cards = held.take_cells([(0, 0), (0, 1)])
        # (0, 2) holds an arrow and (5, 0) lies off the grid; (0, 0) is laid
        # first, then lifted again
        for cell in ((0, 2), (5, 0)):
            self.assert_refused(held, held.put_cells, ([(0, 0), cell], cards),
                                rf"cell \({cell[0]}, {cell[1]}\) is not a white cell")
        held.put_cells([(0, 0), (0, 1)], cards)
        held.assert_settled()

    def test_a_lay_of_more_or_fewer_cards_than_cells_is_refused(self, quad_grid):
        held = self.quad_table(quad_grid, "count")
        cards = held.take_cells([(0, 0), (0, 1)])
        self.assert_refused(held, held.put_cells, ([(0, 0), (0, 1)], cards[:1]),
                            "cell count 2 differs from card count 1")
        self.assert_refused(held, held.put_cells, ([(0, 0)], cards),
                            "cell count 1 differs from card count 2")
