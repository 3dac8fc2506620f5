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
from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, NamedTuple

Coord = tuple[int, int]
Assignment = dict[Coord, int]

ARROW_DELTAS = {"^": (-1, 0), "v": (1, 0), "<": (0, -1), ">": (0, 1)}
_ORTHO = ((-1, 0), (1, 0), (0, -1), (0, 1))
_ROOM_ID_RE = re.compile(r"[A-Za-z0-9]+\Z")
_TOKEN_RE = re.compile(r"\S+")

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

    def is_white(self, rc: Coord) -> bool:
        return isinstance(self.cells[rc[0]][rc[1]], White)

    def in_bounds(self, rc: Coord) -> bool:
        return 0 <= rc[0] < self.height and 0 <= rc[1] < self.width

    def room_of(self, rc: Coord) -> str:
        cell = self.cell(rc)
        if not isinstance(cell, White):
            raise ValueError(f"cell {rc} is not white")
        return cell.room

    def room_size(self, room: str) -> int:
        return len(self.rooms[room])

    def white_coords(self) -> list[Coord]:
        return [(r, c) for r in range(self.height) for c in range(self.width)
                if isinstance(self.cells[r][c], White)]

    def clues(self) -> dict[Coord, int]:
        out = {}
        for rc in self.white_coords():
            cell = self.cells[rc[0]][rc[1]]
            if cell.clue is not None:
                out[rc] = cell.clue
        return out

    def white_neighbors(self, rc: Coord) -> list[Coord]:
        out = []
        for dr, dc in _ORTHO:
            nb = (rc[0] + dr, rc[1] + dc)
            if self.in_bounds(nb) and self.is_white(nb):
                out.append(nb)
        return out

    def arrow_target(self, rc: Coord) -> Coord:
        cell = self.cell(rc)
        if not isinstance(cell, Black):
            raise ValueError(f"cell {rc} is not black")
        dr, dc = ARROW_DELTAS[cell.arrow]
        return (rc[0] + dr, rc[1] + dc)


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
            for dr, dc in _ORTHO:
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
                if not grid.in_bounds(target):
                    raise PuzzleSemanticError("arrow points off the grid", (r, c))
                if not grid.is_white(target):
                    raise PuzzleSemanticError("arrow points at a black cell", (r, c))


def parse_puzzle(text: str) -> Grid:
    """Parse puzzle text: header 'makaro <height> <width>', then one line per row."""
    lines = text.split("\n")
    tokens_by_line = [
        [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(line)]
        for line in lines
    ]
    if not tokens_by_line or not tokens_by_line[0]:
        raise PuzzleSyntaxError("missing header", 1, 1)
    header = tokens_by_line[0]
    if header[0][0] != "makaro":
        raise PuzzleSyntaxError("header must start with 'makaro'", 1, header[0][1])
    if len(header) != 3:
        raise PuzzleSyntaxError("header must read 'makaro <height> <width>'", 1, header[0][1])
    dims = []
    for tok, col in header[1:]:
        if not tok.isdigit() or int(tok) < 1:
            raise PuzzleSyntaxError(f"bad dimension {tok!r}", 1, col)
        dims.append(int(tok))
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
    if not clue.isdigit() or int(clue) < 1:
        raise PuzzleSyntaxError(f"bad clue in token {tok!r}", line, col)
    return White(room, int(clue))


def serialize_puzzle(grid: Grid) -> str:
    """Canonical text form: single spaces, trailing newline. Inverse of parse_puzzle."""
    out = [f"makaro {grid.height} {grid.width}"]
    for row in grid.cells:
        toks = []
        for cell in row:
            if isinstance(cell, Black):
                toks.append("B" + cell.arrow)
            elif cell.clue is None:
                toks.append(cell.room)
            else:
                toks.append(f"{cell.room}={cell.clue}")
        out.append(" ".join(toks))
    return "\n".join(out) + "\n"


def white_neighbor_pairs(grid: Grid) -> list[tuple[Coord, Coord]]:
    """Adjacent white pairs in different rooms, scanned row-major (right, then down).

    This is the canonical order in which the pair condition is checked.
    """
    pairs = []
    for r in range(grid.height):
        for c in range(grid.width):
            if not grid.is_white((r, c)):
                continue
            here = grid.room_of((r, c))
            for nb in ((r, c + 1), (r + 1, c)):
                if grid.in_bounds(nb) and grid.is_white(nb) and grid.room_of(nb) != here:
                    pairs.append(((r, c), nb))
    return pairs


def black_coords(grid: Grid) -> list[Coord]:
    return [(r, c) for r in range(grid.height) for c in range(grid.width)
            if isinstance(grid.cells[r][c], Black)]


def _require_domain(grid: Grid, assignment: Assignment) -> None:
    if set(assignment) != set(grid.white_coords()):
        raise ValueError("assignment must cover exactly the white cells")
    for rc, v in assignment.items():
        if not isinstance(v, int) or v < 1:
            raise ValueError(f"assignment value at {rc} must be a positive integer")


def _broken_rules(grid: Grid, assignment: Assignment) -> Iterator[tuple]:
    """Every broken rule, in the canonical check order.

    Entries are ("room", room_id), ("neighbor", (a, b)), or ("arrow", cell).
    Rooms are scanned in sorted id order, pairs and arrows row-major, matching
    the order the card protocol runs its checks, so the first entry is the
    check a rejecting protocol run fails on.
    """
    _require_domain(grid, assignment)
    for room in sorted(grid.rooms):
        coords = grid.rooms[room]
        if sorted(assignment[rc] for rc in coords) != list(range(1, len(coords) + 1)):
            yield ("room", room)
    for a, b in white_neighbor_pairs(grid):
        if assignment[a] == assignment[b]:
            yield ("neighbor", (a, b))
    for rc in black_coords(grid):
        target = grid.arrow_target(rc)
        tv = assignment[target]
        if any(assignment[nb] >= tv for nb in grid.white_neighbors(rc) if nb != target):
            yield ("arrow", rc)


def violations(grid: Grid, assignment: Assignment) -> list[tuple]:
    """Every violated condition, in the canonical check order (see
    _broken_rules)."""
    return list(_broken_rules(grid, assignment))


def check_solution(grid: Grid, assignment: Assignment) -> bool:
    """True when the assignment satisfies all three rules.

    The assignment must cover exactly the white cells; clues are not consulted
    (they constrain search, not validity of a filled grid).
    """
    return next(_broken_rules(grid, assignment), None) is None


def solve_brute_force(grid: Grid, bound: int = DEFAULT_SEARCH_BOUND) -> list[Assignment]:
    """All solutions, by exhausting room permutations. Deterministic order.

    Each room contributes the permutations of 1..size consistent with its
    clues; the cross product is filtered through check_solution.  Raises
    SearchBoundExceeded when the unfiltered candidate count (product of
    room-size factorials) exceeds `bound`.
    """
    rooms = sorted(grid.rooms)
    candidates = math.prod(math.factorial(len(grid.rooms[r])) for r in rooms)
    if candidates > bound:
        raise SearchBoundExceeded(
            f"{candidates} candidate fillings exceed the bound of {bound}")
    clues = grid.clues()
    room_choices: list[list[tuple[int, ...]]] = []
    for room in rooms:
        coords = grid.rooms[room]
        fixed = [(i, clues[rc]) for i, rc in enumerate(coords) if rc in clues]
        perms = [p for p in permutations(range(1, len(coords) + 1))
                 if all(p[i] == v for i, v in fixed)]
        room_choices.append(perms)

    solutions: list[Assignment] = []
    assignment: Assignment = {}

    def fill(idx: int) -> None:
        if idx == len(rooms):
            if check_solution(grid, assignment):
                solutions.append(dict(assignment))
            return
        coords = grid.rooms[rooms[idx]]
        for perm in room_choices[idx]:
            for rc, v in zip(coords, perm):
                assignment[rc] = v
            fill(idx + 1)
            for rc in coords:
                del assignment[rc]

    fill(0)
    return solutions


class PuzzleStats(NamedTuple):
    n: int  # white cells
    k: int  # largest room size


def stats(grid: Grid) -> PuzzleStats:
    """White-cell count and largest room size; these size the card deck."""
    n = sum(len(coords) for coords in grid.rooms.values())
    k = max(len(coords) for coords in grid.rooms.values())
    return PuzzleStats(n, k)


def assignment_text(grid: Grid, assignment: Assignment) -> str:
    """The grid serialized with every white cell clued by the assignment.

    A fully-clued puzzle file doubles as the solution file format.
    """
    _require_domain(grid, assignment)
    cells: list[list[Cell]] = []
    for r in range(grid.height):
        row: list[Cell] = []
        for c in range(grid.width):
            cell = grid.cells[r][c]
            if isinstance(cell, White):
                row.append(White(cell.room, assignment[(r, c)]))
            else:
                row.append(cell)
        cells.append(row)
    return serialize_puzzle(build_grid(cells))


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
    if (puzzle.height, puzzle.width) != (solution.height, solution.width):
        return False
    for r in range(puzzle.height):
        for c in range(puzzle.width):
            a, b = puzzle.cells[r][c], solution.cells[r][c]
            if isinstance(a, Black) != isinstance(b, Black):
                return False
            if isinstance(a, Black):
                if a.arrow != b.arrow:
                    return False
            elif a.room != b.room:
                return False
    return True
