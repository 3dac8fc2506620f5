"""Grid model, file format, rule checking, and the exhaustive solver."""

import pickle
import sys
from functools import partial
from itertools import chain, permutations, product

import pytest

from makaro_zkp import (
    PuzzleError,
    PuzzleSemanticError,
    PuzzleSyntaxError,
    SearchBoundExceeded,
    all_value_assignments,
    arrow_check_cells,
    assignment_from_grid,
    assignment_text,
    build_grid,
    check_solution,
    parse_puzzle,
    same_layout,
    serialize_puzzle,
    solve_brute_force,
    stats,
    violations,
    white_neighbor_pairs,
)
from makaro_zkp import puzzle
from makaro_zkp.puzzle import Black, White

from conftest import PUZZLES, load_grid, load_solution

EXAMPLE_TEXT = """makaro 5 5
A B B< C C=2
A=3 B B> C C
A Bv D C Bv
E F D D D
E F F B^ D=1
"""

EXAMPLE_SOLUTION_ROWS = [
    [1, 2, None, 1, 2],
    [3, 1, None, 5, 3],
    [2, None, 2, 4, None],
    [1, 3, 4, 3, 5],
    [2, 1, 2, None, 1],
]


def clues(grid):
    return {rc: grid.cell(rc).clue for rc in grid.white_coords()
            if grid.cell(rc).clue is not None}


# grids whose rooms or arrows read one cell: a one-cell room, an arrow with
# no rival, and a one-cell room next to an arrow with one rival
ONE_CELL_RULES = ["makaro 1 1\nA\n", "makaro 1 2\nB> A\n", "makaro 2 2\nA B\nB> C\n"]


def oracle_violations(grid, assignment):
    """The rule checker's reference: a per-rule loop over grid.rules that
    builds each rule's value list."""
    found = []
    for kind, subject, cells in grid.rules:
        values = [assignment[rc] for rc in cells]
        if kind == "room":
            broken = sorted(values) != list(range(1, len(values) + 1))
        elif kind == "neighbor":
            broken = values[0] == values[1]
        else:
            broken = max(values[1:], default=0) >= values[0]
        if broken:
            found.append((kind, subject))
    return found


def example_assignment():
    return {(r, c): v
            for r, row in enumerate(EXAMPLE_SOLUTION_ROWS)
            for c, v in enumerate(row) if v is not None}


class TestParsing:
    def test_example_grid_shape(self, example_grid):
        g = example_grid
        assert (g.height, g.width) == (5, 5)
        assert len(g.white_coords()) == 20
        arrows = [rule.subject for rule in g.rules if rule.kind == "arrow"]
        assert len(arrows) == 5
        assert sorted((room, len(cells)) for room, cells in g.rooms.items()) == [
            ("A", 3), ("B", 2), ("C", 5), ("D", 5), ("E", 2), ("F", 3)]
        assert clues(g) == {(0, 4): 2, (1, 0): 3, (4, 4): 1}
        assert [g.cell(rc).arrow for rc in arrows] == ["<", ">", "v", "v", "^"]

    def test_bundled_example_matches_frozen_text(self, puzzles_dir):
        assert (puzzles_dir / "example5x5.makaro").read_text() == EXAMPLE_TEXT

    def test_minimal_grid(self):
        g = parse_puzzle("makaro 1 1\nA\n")
        assert stats(g) == (1, 1)
        assert clues(g) == {}

    def test_arrow_off_grid_rejected(self):
        with pytest.raises(PuzzleSemanticError) as e:
            parse_puzzle("makaro 1 2\nB< A\n")
        assert e.value.cell == (0, 0)

    def test_arrow_into_black_rejected(self):
        with pytest.raises(PuzzleSemanticError):
            parse_puzzle("makaro 1 3\nB> B< A\n")

    def test_disconnected_room_rejected(self):
        with pytest.raises(PuzzleSemanticError):
            parse_puzzle("makaro 1 3\nA B A\n")

    def test_clue_out_of_range_rejected(self):
        with pytest.raises(PuzzleSemanticError):
            parse_puzzle("makaro 1 2\nA=3 A\n")

    def test_syntax_errors_carry_position(self):
        with pytest.raises(PuzzleSyntaxError) as e:
            parse_puzzle("makaro 2 2\nA A\nA ?\n")
        assert (e.value.line, e.value.column) == (3, 3)
        with pytest.raises(PuzzleSyntaxError):
            parse_puzzle("hello 1 1\nA\n")
        with pytest.raises(PuzzleSyntaxError):
            parse_puzzle("makaro 1 2\nA\n")
        with pytest.raises(PuzzleSyntaxError):
            parse_puzzle("makaro 0 2\nA A\n")
        with pytest.raises(PuzzleSyntaxError):
            parse_puzzle("makaro 1 1\nA=0\n")
        # a header of the wrong arity, content past the last row, and a
        # numeral longer than int() converts, as a dimension or as a clue
        # (a limit of 0, set by PYTHONINTMAXSTRDIGITS=0, converts any length)
        cases = [("makaro 1\nA\n", "header must read 'makaro <height> <width>'", 1, 1),
                 ("makaro 1 1 1\nA\n", "header must read 'makaro <height> <width>'", 1, 1),
                 ("makaro 1 1\nA\nB\n", "unexpected content after grid rows", 3, 1)]
        if limit := sys.get_int_max_str_digits():
            long = "1" * (limit + 1)
            cases += [(f"makaro {long} 1\nA\n", "bad dimension", 1, 8),
                      (f"makaro 1 1\nA={long}\n", "bad clue", 2, 1)]
        for text, message, line, column in cases:
            with pytest.raises(PuzzleSyntaxError, match=message) as e:
                parse_puzzle(text)
            assert (e.value.line, e.value.column) == (line, column), text[:20]
        # a grid of no cells or of ragged rows names the cell at fault
        for cells, message, cell in [
                ([], "grid has no cells", (0, 0)),
                ([[White("A")], [White("A"), White("A")]], "ragged grid row", (1, 0))]:
            with pytest.raises(PuzzleSemanticError, match=message) as e:
                build_grid(cells)
            assert e.value.cell == cell
        # a black cell has no room, and an unfilled cell is no solution
        with pytest.raises(ValueError, match=r"^cell \(0, 1\) is not white$"):
            parse_puzzle("makaro 1 3\nA B< B\n").room_of((0, 1))
        with pytest.raises(ValueError, match=r"^solution leaves cell \(0, 0\) unfilled$"):
            assignment_from_grid(parse_puzzle("makaro 1 2\nA A=1\n"))

    @pytest.mark.parametrize("text, line, column", [
        ("makaro \u0661 \uff12\nA A\n", 1, 8),  # Arabic-Indic 1, fullwidth 2
        ("makaro 1 2\nA A=01\n", 2, 3),
        ("makaro 1 2\nA A=\u0661\n", 2, 3),
    ])
    def test_numbers_are_ascii_digits_without_leading_zero(self, text, line, column):
        # serialize_puzzle writes no other numeral, so no other reads back
        with pytest.raises(PuzzleSyntaxError) as e:
            parse_puzzle(text)
        assert (e.value.line, e.value.column) == (line, column)

    def test_roundtrip_is_byte_identical_on_corpus(self, puzzles_dir):
        for path in sorted(puzzles_dir.glob("*.makaro")):
            text = path.read_text(encoding="utf-8")
            grid = parse_puzzle(text)
            assert serialize_puzzle(grid) == text, path.name
            assert parse_puzzle(serialize_puzzle(grid)) == grid, path.name

    @pytest.mark.parametrize("cells, error", [
        # the token A=1 reads back as room A clued 1, and B^ as an arrow
        ([[White("A=1")], [White("A")]], "another grid"),
        ([[White("A")], [White("B^")]], "another grid"),
        ([[White("a b")]], "expected 1 cells, found 2"),
        ([[White("A", True)]], "bad clue"),
        ([[White("A", 1.0)]], "bad clue"),
    ])
    def test_a_grid_that_would_not_read_back_is_not_written(self, cells, error):
        with pytest.raises(PuzzleError, match=error):
            serialize_puzzle(build_grid(cells))


class TestSharedParts:
    """The small-grid corpus shares its cells and coordinates; a grid larger
    than the coordinate table builds its own."""

    def test_the_corpus_shares_its_cells_and_coordinates(self, small_grids):
        cells = {id(cell): cell for grid in small_grids for row in grid.cells for cell in row}
        kinds = [type(cell) for cell in cells.values()]
        assert kinds.count(White) <= 26 and kinds.count(Black) <= 4
        table = puzzle._COORDS
        assert all(rc is table[rc[0]][rc[1]] for grid in small_grids
                   for rc in chain(*grid.rooms.values(), grid.white_coords()))

    @pytest.mark.parametrize("height, width", [(1, puzzle._COORD_SIDE + 1),
                                               (puzzle._COORD_SIDE + 1, 1)])
    def test_a_grid_past_the_table_builds_its_own_coordinates(self, height, width):
        text = f"makaro {height} {width}\n" + height * f"{' A' * width}\n"
        table = [rc for row in puzzle._COORDS for rc in row]

        def module_state():
            return {name: (len(value), sys.getsizeof(value))
                    for name, value in vars(puzzle).items()
                    if isinstance(value, (dict, list, set, tuple)) and not name.startswith("__")}

        before = module_state()
        grid = parse_puzzle(text)
        coords = [*grid.rooms["A"], *grid.white_coords()]
        assert coords == 2 * [(r, c) for r in range(height) for c in range(width)]
        assert set(map(id, coords)).isdisjoint(map(id, table))
        assert module_state() == before


class TestRules:
    def test_example_solution_is_valid(self, example_grid):
        assert check_solution(example_grid, example_assignment())
        assert violations(example_grid, example_assignment()) == []

    def test_swapping_top_center_room_breaks_two_rules(self, example_grid):
        # swapping the size-2 room's cells makes its left-arrow black
        # neighbor point at a tie and equalizes a cross-room pair
        a = example_assignment()
        a[(0, 1)], a[(1, 1)] = a[(1, 1)], a[(0, 1)]
        assert not check_solution(example_grid, a)
        assert violations(example_grid, a) == [
            ("neighbor", ((0, 0), (0, 1))),
            ("arrow", (0, 2)),
        ]

    def test_minimal_grid_value_one_is_valid(self):
        g = parse_puzzle("makaro 1 1\nA\n")
        assert check_solution(g, {(0, 0): 1})
        assert not check_solution(g, {(0, 0): 2})

    def test_room_values_must_be_one_to_size(self, quad_grid):
        assert not check_solution(quad_grid, {(0, 0): 1, (0, 1): 1,
                                              (1, 0): 2, (1, 1): 1})

    def test_arrow_tie_for_maximum_fails(self):
        g = parse_puzzle("makaro 1 3\nA B> C\n")
        assert not check_solution(g, {(0, 0): 1, (0, 2): 1})

    def test_single_neighbor_arrow_is_vacuously_satisfied(self):
        g = parse_puzzle("makaro 1 2\nB> A\n")
        assert check_solution(g, {(0, 1): 1})

    def test_assignment_domain_must_match(self, quad_grid):
        with pytest.raises(ValueError):
            check_solution(quad_grid, {(0, 0): 1})

    @pytest.mark.parametrize("bad", [1.0, "1", None, 2.5, 0, -3, False, -10**100])
    @pytest.mark.parametrize("at", [0, 10, 19], ids=["first", "middle", "last"])
    def test_every_entry_names_the_first_bad_value_as_the_cell_loop_does(
            self, example_grid, bad, at):
        # the first bad value in the assignment's order is named, whatever
        # follows it
        assignment = example_assignment()
        cells = list(assignment)
        assignment[cells[at]] = bad
        assignment[cells[-1 - at]] = 10**100  # a positive integer, however large, is in the domain
        first_bad = next(rc for rc, v in assignment.items()
                         if not isinstance(v, int) or v < 1)
        assert first_bad == cells[at]
        message = rf"^assignment value at \({first_bad[0]}, {first_bad[1]}\) must be a positive integer$"
        for entry in (check_solution, violations, assignment_text):
            with pytest.raises(ValueError, match=message):
                entry(example_grid, assignment)

    def test_a_huge_or_bool_value_is_in_the_domain(self, example_grid):
        assignment = example_assignment()
        assignment[(0, 0)] = True  # the integer 1, as it already is
        assert check_solution(example_grid, assignment)
        assert violations(example_grid, assignment) == []
        assignment[(0, 0)] = 10**100
        assert not check_solution(example_grid, assignment)
        assert violations(example_grid, assignment) == [("room", "A")]

    def test_the_compiled_checker_matches_the_per_rule_oracle(self, puzzles_dir, small_grids):
        cases = [(grid, a) for grid in small_grids[::40]
                 for a in all_value_assignments(grid)]
        for text in ONE_CELL_RULES:
            grid = parse_puzzle(text)
            cells = grid.white_coords()
            cases += [(grid, dict(zip(cells, values)))
                      for values in product(range(1, 4), repeat=len(cells))]
        for path in sorted(puzzles_dir.glob("*.makaro")):
            if path.stem.endswith("_solution"):
                continue
            grid = parse_puzzle(path.read_text(encoding="utf-8"))
            solution = solve_brute_force(grid)[0]
            cases.append((grid, solution))
            for rc, value in solution.items():  # each cell moved to the next value
                corrupted = dict(solution)
                corrupted[rc] = value % len(grid.rooms[grid.room_of(rc)]) + 1
                cases.append((grid, corrupted))
        assert len(cases) == 8_966 + 33 + 49
        for grid, assignment in cases:
            expected = oracle_violations(grid, assignment)
            assert violations(grid, assignment) == expected, (grid, assignment)
            assert check_solution(grid, assignment) == (expected == []), (grid, assignment)

    def test_violation_order_rooms_then_neighbors_then_arrows(self, example_grid):
        a = example_assignment()
        a[(0, 0)] = 7   # breaks room A; any later findings come after it
        found = violations(example_grid, a)
        assert found[0] == ("room", "A")


class TestNeighborPairs:
    def test_example_cross_room_pairs(self, example_grid):
        assert white_neighbor_pairs(example_grid) == [
            ((0, 0), (0, 1)), ((1, 0), (1, 1)), ((2, 0), (3, 0)),
            ((2, 2), (2, 3)), ((2, 3), (3, 3)), ((3, 0), (3, 1)),
            ((3, 1), (3, 2)), ((3, 2), (4, 2)), ((4, 0), (4, 1)),
        ]

    def test_same_room_pairs_excluded(self):
        g = parse_puzzle("makaro 2 2\nA A\nA A\n")
        assert white_neighbor_pairs(g) == []


class TestRuleList:
    def test_example_rules_in_check_order(self, example_grid):
        rules = example_grid.rules
        assert [rule.kind for rule in rules] == ["room"] * 6 + ["neighbor"] * 9 + ["arrow"] * 5
        assert rules[0] == ("room", "A", ((0, 0), (1, 0), (2, 0)))
        assert [rule.subject for rule in rules[:6]] == sorted(example_grid.rooms)
        assert [rule.subject for rule in rules[6:15]] == white_neighbor_pairs(example_grid)
        assert all(rule.cells == rule.subject for rule in rules[6:15])
        # the target first, then the rest clockwise; arrows row-major
        assert [rule[1:] for rule in rules[15:]] == [
            ((0, 2), ((0, 1), (0, 3))),
            ((1, 2), ((1, 3), (2, 2), (1, 1))),
            ((2, 1), ((3, 1), (2, 0), (1, 1), (2, 2))),
            ((2, 4), ((3, 4), (2, 3), (1, 4))),
            ((4, 3), ((3, 3), (4, 4), (4, 2))),
        ]

    def test_only_a_black_cell_has_arrow_cells(self, example_grid):
        # the rule list and the arrow's target read the arrow through one guard
        for rc in ((0, 0), (2, 2)):
            for read in (example_grid.arrow_target, partial(arrow_check_cells, example_grid)):
                with pytest.raises(ValueError, match=rf"cell \({rc[0]}, {rc[1]}\) is not black"):
                    read(rc)

    def test_rules_survive_pickling(self, example_grid):
        # worker processes receive the grid with its compiled rules
        clone = pickle.loads(pickle.dumps(example_grid))
        assert clone == example_grid
        assert clone.rules == example_grid.rules
        assert clone.white_set == example_grid.white_set == set(example_grid.white_coords())

    @pytest.mark.parametrize("text", [*ONE_CELL_RULES, (PUZZLES / "cross.makaro").read_text()],
                             ids=["one-cell-room", "no-rival", "one-rival", "cross"])
    def test_a_solved_grid_survives_pickling(self, text):
        # zk-test without --solution solves first, then sends the grid, with
        # its compiled checker cached in it, to worker processes
        grid = parse_puzzle(text)  # a fresh grid: nothing cached
        found = solve_brute_force(grid)
        assert "compiled_rules" in vars(grid)
        clone = pickle.loads(pickle.dumps(grid))
        assert clone == grid
        assert "compiled_rules" in vars(clone)
        for assignment in all_value_assignments(grid):
            assert violations(clone, assignment) == violations(grid, assignment)
        assert solve_brute_force(clone) == found


class TestSolver:
    def test_example_has_unique_solution(self, example_grid):
        sols = solve_brute_force(example_grid)
        assert sols == [example_assignment()]

    def test_minimal_grid(self):
        g = parse_puzzle("makaro 1 1\nA\n")
        assert solve_brute_force(g) == [{(0, 0): 1}]

    def test_two_cell_room_has_both_orders(self):
        g = parse_puzzle("makaro 1 2\nA A\n")
        assert solve_brute_force(g) == [
            {(0, 0): 1, (0, 1): 2},
            {(0, 0): 2, (0, 1): 1},
        ]

    def test_solutions_satisfy_checker_and_order_is_stable(self, quad_grid):
        sols = solve_brute_force(quad_grid)
        assert len(sols) == 2
        assert all(check_solution(quad_grid, s) for s in sols)
        assert sols == solve_brute_force(quad_grid)

    def test_search_bound(self, example_grid):
        with pytest.raises(SearchBoundExceeded):
            solve_brute_force(example_grid, bound=10)

    def test_the_bound_counts_the_clue_consistent_candidates(self, example_grid):
        # the example's rooms allow 2,073,600 fillings; its clues leave 27,648
        assert solve_brute_force(example_grid, bound=27_648) == [example_assignment()]
        with pytest.raises(SearchBoundExceeded,
                           match="^27648 candidate fillings exceed the bound of 27647$"):
            solve_brute_force(example_grid, bound=27_647)

    def test_a_clued_large_room_is_searched_over_its_unclued_cells(self):
        # 12! fillings of the room, but nine clues leave 3! candidates
        grid = parse_puzzle("makaro 3 4\nA=1 A=2 A=3 A=4\nA=5 A=6 A=7 A=8\nA=9 A A A\n")
        found = solve_brute_force(grid, bound=6)
        assert [[s[rc] for rc in ((2, 1), (2, 2), (2, 3))] for s in found] == [
            list(p) for p in permutations((10, 11, 12))]
        with pytest.raises(SearchBoundExceeded, match="^6 candidate"):
            solve_brute_force(grid, bound=5)

    def test_a_room_that_repeats_a_clue_has_no_candidates(self, monkeypatch):
        # nothing is enumerated, not even the twelve-cell room
        monkeypatch.setattr(puzzle, "permutations", None)
        monkeypatch.setattr(puzzle, "check_solution", None)
        grid = parse_puzzle("makaro 1 14\nA=1 A=1" + " B" * 12 + "\n")
        assert solve_brute_force(grid, bound=1) == []

    def test_a_twelve_cell_room_is_refused_before_any_enumeration(self, monkeypatch):
        monkeypatch.setattr(puzzle, "permutations", None)
        grid = parse_puzzle("makaro 3 4\nA A A A\nA A A A\nA A A A\n")
        with pytest.raises(SearchBoundExceeded,
                           match="^479001600 candidate fillings exceed the bound of 10000000$"):
            solve_brute_force(grid)

    def test_one_rule_check_per_clue_consistent_candidate(self, monkeypatch, example_grid,
                                                          quad_grid, cross_grid, small_grids):
        # every candidate is checked, once: the benchmark counts these calls
        # as the solver's candidates
        calls = []
        check = puzzle.check_solution
        monkeypatch.setattr(puzzle, "check_solution",
                            lambda grid, assignment: calls.append(1) or check(grid, assignment))

        def candidates(grid):  # per room, its permutations that keep its clues
            count = 1
            for cells in grid.rooms.values():
                clued = [grid.cell(rc).clue for rc in cells]
                count *= sum(all(clue in (None, v) for v, clue in zip(p, clued))
                             for p in permutations(range(1, len(cells) + 1)))
            return count

        # the corpus has no clues; the cross and the last two grids do.  The
        # last grid's twelve-cell room is too large to count by enumeration:
        # nine clues leave 3! candidates
        grids = [example_grid, quad_grid, *small_grids[::40], cross_grid,
                 parse_puzzle("makaro 2 2\nA=1 A=1\nB B\n"),
                 parse_puzzle("makaro 3 4\nA=1 A=2 A=3 A=4\nA=5 A=6 A=7 A=8\nA=9 A A A\n")]
        expected = [*map(candidates, grids[:-1]), 6]
        assert expected[:2] == [27_648, 4] and expected[-2:] == [0, 6]
        for grid, count in zip(grids, expected):
            calls.clear()
            found = solve_brute_force(grid)
            assert len(calls) == count, grid
            order = [rc for room in sorted(grid.rooms) for rc in grid.rooms[room]]
            assert all(list(s) == order for s in found)
            assert len({id(s) for s in found}) == len(found)

        first, second = solve_brute_force(quad_grid)
        kept = dict(first)
        first[(0, 0)] = second[(0, 0)] = 9
        assert solve_brute_force(quad_grid)[0] == kept

    def test_clues_prune_solutions(self, cross_grid):
        sols = solve_brute_force(cross_grid)
        assert len(sols) == 1
        assert sols[0] == load_solution("cross_solution.makaro")

    def test_contradictory_clues_yield_no_solutions(self):
        # both cells of a size-2 room clued 1: no permutation fits, and the
        # search must backtrack cleanly past the empty room
        grid = parse_puzzle("makaro 1 2\nA=1 A=1\n")
        assert solve_brute_force(grid) == []
        grid = parse_puzzle("makaro 2 2\nA=1 A=1\nB B\n")
        assert solve_brute_force(grid) == []


class TestStats:
    def test_example(self, example_grid):
        assert stats(example_grid) == (20, 5)

    def test_minimal(self):
        assert stats(parse_puzzle("makaro 1 1\nA\n")) == (1, 1)

    def test_single_room_square(self):
        assert stats(parse_puzzle("makaro 2 2\nA A\nA A\n")) == (4, 4)


class TestSolutionFiles:
    def test_assignment_text_roundtrip(self, example_grid):
        text = assignment_text(example_grid, example_assignment())
        solved = parse_puzzle(text)
        assert same_layout(example_grid, solved)
        assert assignment_from_grid(solved) == example_assignment()

    def test_assignment_text_refuses_a_value_that_would_not_read_back(self):
        grid = parse_puzzle("makaro 1 2\nA A\n")
        with pytest.raises(PuzzleSyntaxError, match="bad clue"):
            assignment_text(grid, {(0, 0): True, (0, 1): 2})

    def test_assignment_text_rejects_a_value_outside_its_room(self, example_grid):
        assignment = example_assignment()
        assignment[(0, 1)] = 3
        with pytest.raises(PuzzleSemanticError) as e:
            assignment_text(example_grid, assignment)
        assert e.value.cell == (0, 1)
        assert "clue 3 outside 1..2 for room 'B'" in str(e.value)

    def test_same_layout_rejects_different_grid(self, example_grid, quad_grid):
        assert not same_layout(example_grid, quad_grid)

    def test_bundled_solution_matches_solver(self, puzzles_dir, example_grid):
        text = (PUZZLES / "example5x5_solution.makaro").read_text()
        assert assignment_from_grid(parse_puzzle(text)) == example_assignment()
