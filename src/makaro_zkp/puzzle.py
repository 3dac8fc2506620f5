"""Makaro puzzle model: file format, rule checking, brute-force solving.

The puzzle lives on a rectangular grid of white and black cells.  White cells
are grouped into rooms (edge-connected polyominoes) and may carry a clue;
every black cell carries an arrow aimed at an orthogonally adjacent white
cell.  A filled grid is a solution when

1. each room of size p holds every value 1..p exactly once,
2. orthogonally adjacent white cells of different rooms hold different
   values, and
3. the white cell each arrow points at holds a strictly larger value than
   every other white cell around that black cell.

Coordinates are (row, col), 0-based, row 0 at the top.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import chain, permutations, product
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

Coord = tuple[int, int]
Assignment = dict[Coord, int]

ARROW_DELTAS = {"^": (-1, 0), "v": (1, 0), "<": (0, -1), ">": (0, 1)}
_CLOCKWISE = ("^", ">", "v", "<")
_ROOM_ID_RE = re.compile(r"[A-Za-z0-9]+\Z")
_TOKEN_RE = re.compile(r"\S+")
_NATURAL_RE = re.compile("[1-9][0-9]*")

DEFAULT_SEARCH_BOUND = 10_000_000


class PuzzleError(Exception):
    """Base class for puzzle format and search errors."""


class PuzzleSyntaxError(PuzzleError):
    """Malformed puzzle text; carries 1-based line and column of the offender."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class PuzzleSemanticError(PuzzleError):
    """Well-formed text describing an impossible grid; names the offending cell."""

    def __init__(self, message: str, cell: Coord):
        super().__init__(f"cell {cell}: {message}")
        self.cell = cell


class SearchBoundExceeded(PuzzleError):
    """The brute-force candidate space exceeds the configured bound."""


@dataclass(frozen=True)
class White:
    room: str
    clue: int | None = None


@dataclass(frozen=True)
class Black:
    arrow: str  # one of ^ v < >


Cell = White | Black


class Rule(NamedTuple):
    """One rule a filled grid must keep, and the cells it reads: a room's
    cells, a neighbor pair (a, b), or an arrow's target and then the other
    white cells around its black cell, clockwise (see arrow_check_cells)."""

    kind: str
    subject: object
    cells: tuple[Coord, ...]


class _CompiledRule(NamedTuple):
    """A rule as the rule checker reads it: a getter of its cells' values,
    as a tuple in the order of Rule.cells, and for a room the values 1..size
    that its sorted values must equal (None for the other kinds)."""

    kind: str
    subject: object
    values: Callable[[Assignment], tuple[int, ...]]
    room: list[int] | None


@dataclass(frozen=True)
class Grid:
    """A validated puzzle grid.

    rooms maps room id to its cells in canonical order: top to bottom, then
    left to right.  Build instances through parse_puzzle or build_grid so the
    structural invariants have been checked.
    """

    height: int
    width: int
    cells: tuple[tuple[Cell, ...], ...]
    rooms: dict[str, tuple[Coord, ...]]

    def cell(self, rc: Coord) -> Cell:
        return self.cells[rc[0]][rc[1]]

    def room_of(self, rc: Coord) -> str:
        cell = self.cell(rc)
        if not isinstance(cell, White):
            raise ValueError(f"cell {rc} is not white")
        return cell.room

    def white_coords(self) -> list[Coord]:
        return [(r, c) for r in range(self.height) for c in range(self.width)
                if isinstance(self.cells[r][c], White)]

    @cached_property
    def white_set(self) -> frozenset[Coord]:
        return frozenset(self.white_coords())

    def _arrow(self, rc: Coord) -> str:
        cell = self.cell(rc)
        if not isinstance(cell, Black):
            raise ValueError(f"cell {rc} is not black")
        return cell.arrow

    def arrow_target(self, rc: Coord) -> Coord:
        dr, dc = ARROW_DELTAS[self._arrow(rc)]
        return (rc[0] + dr, rc[1] + dc)

    @cached_property
    def rules(self) -> tuple[Rule, ...]:
        """Every rule of the grid, in the canonical check order: rooms by
        sorted id, then neighbor pairs and arrows row-major.  The rule
        checker, the solver and the card protocol's check schedule all read
        this list, so they check the same rules: violations and the protocol
        in the same order, check_solution with the rooms last."""
        arrows = [(r, c) for r in range(self.height) for c in range(self.width)
                  if isinstance(self.cells[r][c], Black)]
        return (*(Rule("room", room, self.rooms[room]) for room in sorted(self.rooms)),
                *(Rule("neighbor", pair, pair) for pair in white_neighbor_pairs(self)),
                *(Rule("arrow", rc, tuple(arrow_check_cells(self, rc))) for rc in arrows))

    @cached_property
    def compiled_rules(self) -> tuple[_CompiledRule, ...]:
        """rules, compiled once for the rule checker: the same rules in the
        same order, each with its getter built.  It is cached with the grid
        and pickled with it, so it holds no lambda or closure."""
        return tuple(_CompiledRule(kind, subject, _values_getter(cells),
                                   list(range(1, len(cells) + 1)) if kind == "room" else None)
                     for kind, subject, cells in self.rules)


def build_grid(cells: list[list[Cell]]) -> Grid:
    """Assemble and validate a Grid from a rectangular cell matrix."""
    height = len(cells)
    width = len(cells[0]) if height else 0
    if height == 0 or width == 0:
        raise PuzzleSemanticError("grid has no cells", (0, 0))
    rooms: dict[str, list[Coord]] = {}
    for r in range(height):
        if len(cells[r]) != width:
            raise PuzzleSemanticError("ragged grid row", (r, 0))
        for c in range(width):
            cell = cells[r][c]
            if isinstance(cell, White):
                rooms.setdefault(cell.room, []).append((r, c))
    grid = Grid(height, width, tuple(tuple(row) for row in cells),
                {room: tuple(coords) for room, coords in rooms.items()})
    _validate(grid)
    return grid


def _validate(grid: Grid) -> None:
    for room, coords in grid.rooms.items():
        member = set(coords)
        # BFS from the first cell; every room must be edge-connected
        seen = {coords[0]}
        frontier = [coords[0]]
        while frontier:
            cur = frontier.pop()
            for dr, dc in ARROW_DELTAS.values():
                nb = (cur[0] + dr, cur[1] + dc)
                if nb in member and nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        if len(seen) != len(member):
            stray = min(member - seen)
            raise PuzzleSemanticError(f"room {room!r} is not connected", stray)
        for rc in coords:
            cell = grid.cell(rc)
            if cell.clue is not None and not (1 <= cell.clue <= len(coords)):
                raise PuzzleSemanticError(
                    f"clue {cell.clue} outside 1..{len(coords)} for room {room!r}", rc)
    for r in range(grid.height):
        for c in range(grid.width):
            cell = grid.cells[r][c]
            if isinstance(cell, Black):
                target = grid.arrow_target((r, c))
                if not (0 <= target[0] < grid.height and 0 <= target[1] < grid.width):
                    raise PuzzleSemanticError("arrow points off the grid", (r, c))
                if not isinstance(grid.cell(target), White):
                    raise PuzzleSemanticError("arrow points at a black cell", (r, c))


def parse_puzzle(text: str) -> Grid:
    """Parse puzzle text: header 'makaro <height> <width>', then one line per row."""
    lines = text.split("\n")
    tokens_by_line = [
        [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(line)]
        for line in lines
    ]
    if not tokens_by_line[0]:
        raise PuzzleSyntaxError("missing header", 1, 1)
    header = tokens_by_line[0]
    if header[0][0] != "makaro":
        raise PuzzleSyntaxError("header must start with 'makaro'", 1, header[0][1])
    if len(header) != 3:
        raise PuzzleSyntaxError("header must read 'makaro <height> <width>'", 1, header[0][1])
    dims = []
    for tok, col in header[1:]:
        if (size := _natural(tok)) < 1:
            raise PuzzleSyntaxError(f"bad dimension {tok!r}", 1, col)
        dims.append(size)
    height, width = dims

    if len(tokens_by_line) < height + 1:
        raise PuzzleSyntaxError(f"expected {height} grid rows", len(lines), 1)
    cells: list[list[Cell]] = []
    for r in range(height):
        lineno = r + 2
        row_tokens = tokens_by_line[r + 1]
        if len(row_tokens) != width:
            raise PuzzleSyntaxError(
                f"expected {width} cells, found {len(row_tokens)}", lineno, 1)
        row: list[Cell] = []
        for tok, col in row_tokens:
            row.append(_parse_token(tok, lineno, col))
        cells.append(row)
    for extra in range(height + 1, len(tokens_by_line)):
        if tokens_by_line[extra]:
            raise PuzzleSyntaxError("unexpected content after grid rows",
                                    extra + 1, tokens_by_line[extra][0][1])
    return build_grid(cells)


def _parse_token(tok: str, line: int, col: int) -> Cell:
    if tok in ("B^", "Bv", "B<", "B>"):
        return Black(tok[1])
    room, eq, clue = tok.partition("=")
    if not _ROOM_ID_RE.match(room):
        raise PuzzleSyntaxError(f"bad cell token {tok!r}", line, col)
    if not eq:
        return White(room)
    if (value := _natural(clue)) < 1:
        raise PuzzleSyntaxError(f"bad clue in token {tok!r}", line, col)
    return White(room, value)


def _natural(tok: str) -> int:
    """The value of a token as serialize_puzzle writes a number, ASCII digits
    with no leading zero, or 0 for any other token."""
    try:
        return int(tok) if _NATURAL_RE.fullmatch(tok) else 0
    except ValueError:  # more digits than int() converts
        return 0


def serialize_puzzle(grid: Grid) -> str:
    """Canonical text form: single spaces, trailing newline.  parse_puzzle
    is the format's grammar: the text is returned only if it reads back as
    the same grid; parse errors propagate, and another grid raises PuzzleError."""
    def token(cell: Cell) -> str:
        if isinstance(cell, Black):
            return "B" + cell.arrow
        return cell.room if cell.clue is None else f"{cell.room}={cell.clue}"
    rows = (" ".join(map(token, row)) for row in grid.cells)
    text = "\n".join([f"makaro {grid.height} {grid.width}", *rows]) + "\n"
    if parse_puzzle(text) != grid:
        raise PuzzleError(f"the grid's text reads back as another grid: {text!r}")
    return text


def white_neighbor_pairs(grid: Grid) -> list[tuple[Coord, Coord]]:
    """Adjacent white pairs in different rooms, scanned row-major (right, then down).

    This is the canonical order in which the pair condition is checked.
    """
    return [(rc, nb) for rc in grid.white_coords()
            for nb in ((rc[0], rc[1] + 1), (rc[0] + 1, rc[1]))
            if nb in grid.white_set and grid.room_of(nb) != grid.room_of(rc)]


def arrow_check_cells(grid: Grid, black_rc: Coord) -> list[Coord]:
    """White neighbors of a black cell (ValueError for any other cell): the
    arrow's target first, then the rest clockwise from it."""
    turn = _CLOCKWISE.index(grid._arrow(black_rc))
    around = [ARROW_DELTAS[arrow] for arrow in _CLOCKWISE[turn:] + _CLOCKWISE[:turn]]
    return [nb for nb in ((black_rc[0] + dr, black_rc[1] + dc) for dr, dc in around)
            if nb in grid.white_set]


def _values_getter(cells: tuple[Coord, ...]) -> Callable[[Assignment], tuple[int, ...]]:
    """A picklable getter of the cells' values as a tuple.  itemgetter of one
    key returns the bare value, so one cell gets its own getter."""
    return itemgetter(*cells) if len(cells) > 1 else partial(_one_value, cells[0])


def _one_value(rc: Coord, assignment: Assignment) -> tuple[int]:
    return (assignment[rc],)


def _require_domain(grid: Grid, assignment: Assignment) -> None:
    if assignment.keys() != grid.white_set:
        raise ValueError("assignment must cover exactly the white cells")
    for rc, v in assignment.items():
        if not isinstance(v, int) or v < 1:
            raise ValueError(f"assignment value at {rc} must be a positive integer")


def _broken_rules(grid: Grid, assignment: Assignment,
                  rules: Iterable[_CompiledRule]) -> Iterator[tuple]:
    """Every broken rule of `rules`, which are grid.compiled_rules in that
    order or another, as (kind, subject): ("room", room_id), ("neighbor",
    (a, b)) or ("arrow", cell)."""
    _require_domain(grid, assignment)
    for kind, subject, get_values, room in rules:
        values = get_values(assignment)
        if kind == "room":
            broken = sorted(values) != room
        elif kind == "neighbor":
            broken = values[0] == values[1]
        else:
            broken = max(values[1:], default=0) >= values[0]
        if broken:
            yield kind, subject


def violations(grid: Grid, assignment: Assignment) -> list[tuple]:
    """Every violated condition, in the canonical check order of grid.rules.
    The card protocol runs its checks in the same order, so the first entry
    is the check a rejecting protocol run fails on."""
    return list(_broken_rules(grid, assignment, grid.compiled_rules))


def check_solution(grid: Grid, assignment: Assignment) -> bool:
    """True when the assignment satisfies all three rules.

    The assignment must cover exactly the white cells; clues are not consulted
    (they constrain search, not validity of a filled grid).  Only the verdict
    is returned, so the room rules, which come first in grid.rules, are read
    last: the solver's candidates keep them by construction, and a room rule
    costs a sort.  It stops at the first broken rule.
    """
    rules = grid.compiled_rules
    rooms = len(grid.rooms)
    return next(_broken_rules(grid, assignment, chain(rules[rooms:], rules[:rooms])),
                None) is None


def solve_brute_force(grid: Grid, bound: int = DEFAULT_SEARCH_BOUND) -> list[Assignment]:
    """All solutions, by exhausting room permutations. Deterministic order.

    Each room contributes the permutations of 1..size consistent with its
    clues; the cross product, in product order, is filtered through
    check_solution, one call per candidate.  Raises SearchBoundExceeded,
    before any room is enumerated, when the number of candidates, the
    product over rooms of (size - clued cells)!, exceeds `bound`.  Each
    solution is its own dict, keyed in the cell order of the rooms by
    sorted id.
    """
    rooms = sorted(grid.rooms)
    clues = [[grid.cell(rc).clue for rc in grid.rooms[room]] for room in rooms]
    # each room's values that no clue takes, sorted; a room whose clues
    # repeat a value has more of them than unclued cells, and no candidates
    free = [sorted(set(range(1, len(c) + 1)).difference(c)) for c in clues]
    if any(len(f) != c.count(None) for c, f in zip(clues, free)):
        return []
    candidates = math.prod(math.factorial(len(f)) for f in free)
    if candidates > bound:
        raise SearchBoundExceeded(
            f"{candidates} candidate fillings exceed the bound of {bound}")
    # the free values permuted over the unclued cells: the room's
    # permutations of 1..size that keep its clues, in the same order
    room_choices = [[tuple(clue or next(fill) for clue in c)
                     for fill in map(iter, permutations(f))]
                    for c, f in zip(clues, free)]

    # the dict is built once per choice of every room but the last, whose
    # cells are then rewritten in place for each of its choices
    head_cells = [rc for room in rooms[:-1] for rc in grid.rooms[room]]
    last_cells = grid.rooms[rooms[-1]]
    *head_choices, last_choices = room_choices
    solutions: list[Assignment] = []
    for head in product(*head_choices):
        assignment = dict(zip(head_cells, chain.from_iterable(head)))
        for values in last_choices:
            assignment.update(zip(last_cells, values))
            if check_solution(grid, assignment):
                solutions.append(dict(assignment))
    return solutions


class PuzzleStats(NamedTuple):
    n: int  # white cells
    k: int  # largest room size


def stats(grid: Grid) -> PuzzleStats:
    """White-cell count and largest room size; these size the card deck."""
    return PuzzleStats(len(grid.white_set), max(map(len, grid.rooms.values())))


def assignment_text(grid: Grid, assignment: Assignment) -> str:
    """The grid serialized with every white cell clued by the assignment.

    A fully-clued puzzle file doubles as the solution file format.
    """
    _require_domain(grid, assignment)
    return serialize_puzzle(replace(grid, cells=tuple(
        tuple(replace(cell, clue=assignment[(r, c)]) if isinstance(cell, White) else cell
              for c, cell in enumerate(row)) for r, row in enumerate(grid.cells))))


def assignment_from_grid(solution: Grid) -> Assignment:
    """Read a fully-clued grid back as an assignment."""
    out: Assignment = {}
    for rc in solution.white_coords():
        cell = solution.cell(rc)
        if cell.clue is None:
            raise ValueError(f"solution leaves cell {rc} unfilled")
        out[rc] = cell.clue
    return out


def same_layout(puzzle: Grid, solution: Grid) -> bool:
    """True when two grids agree on shape, rooms, and arrows (clues aside)."""
    def layout(grid: Grid) -> tuple:
        return tuple(tuple(White(cell.room) if isinstance(cell, White) else cell for cell in row)
                     for row in grid.cells)
    return layout(puzzle) == layout(solution)
