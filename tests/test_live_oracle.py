"""The live run's fragment kernels against card physics: a test-side
interpreter plays each compiled check's steps on a real CardMatrix, laid
per fragment, shuffled, revealed, sorted and taken apart as the physical
protocol does, and every check the live run makes must match it."""

from makaro_zkp import (
    CardMatrix,
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
from test_protocol import BUNDLED, bundled_solution, room_swaps


def play_on_matrix(table, check, prover, source, view):
    """The check's steps played on a card matrix per fragment: what the
    live run returns (the sequences extracted, or None), its view and the
    cards it leaves on the table, from card physics alone."""
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
    """(grid, filling, seed): every bundled puzzle's solution with three
    seeds, every filling of the sweep slice, and the bundled puzzles' room
    swaps."""
    bundled = [(load_grid(f"{name}.makaro"), name) for name in BUNDLED]
    for grid, name in bundled:
        for seed in (0, 1, "demo"):
            yield grid, bundled_solution(name, grid), seed
    for index, grid in enumerate(small_grids[::40]):
        for trial, filling in enumerate(all_value_assignments(grid)):
            yield grid, filling, f"sweep/{index}:{trial}"
    for grid, name in bundled:
        for trial, filling in enumerate(room_swaps(grid, bundled_solution(name, grid))):
            yield grid, filling, f"swap/{name}:{trial}"


def test_the_kernels_make_the_matrix_moves(small_grids):
    # each check, from the same table and streams: the same view, the same
    # sequences or rejection, the same cards left on the table and the same
    # draws from both streams
    checks, outcomes = 0, set()
    for grid, filling, seed in runs(small_grids):
        schedule = protocol._schedule(grid)
        placed, room = protocol._place(schedule, filling)
        if room is not None:
            continue
        sides = []
        for run in (protocol._live, play_on_matrix):
            source = RandomSource(seed)
            sides.append((run, protocol._lay(schedule, placed), make_prover(filling, source),
                          source))
        for key in schedule.rules:
            check = schedule.check(key)
            results = []
            for run, table, prover, source in sides:
                view = []
                returned = run(table, check, prover, source, view)
                results.append((view, returned, table.cell_cards,
                                source.shuffle_stream.getstate(),
                                source.prover_stream.getstate()))
            live, played = results
            assert live == played, (seed, key)
            checks += 1
            outcomes.add(live[1] is None)
            if live[1] is None:
                break
    assert checks > 7000 and outcomes == {True, False}


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
