"""Exhaustive enumeration of small grids, for oracle-based testing.

enumerate_small_grids defines the corpus over which the card protocol is
checked against the plain rule checker: every grid up to MAX_HEIGHT x
MAX_WIDTH, all-white or with exactly one black cell, every edge-connected
partition of the white cells into rooms, every legal arrow direction, no
clues.  Three caps keep the sweep exhaustive yet affordable; they are part
of the corpus definition:

* product of room-size factorials <= MAX_CANDIDATES (bounds full protocol
  runs per grid),
* product of size**size over rooms <= MAX_ASSIGNMENT_SPACE (bounds the
  clue-consistent assignment loop, which includes room-duplicating fillings
  that reject at setup), and
* grids larger than ALL_WHITE_MAX_CELLS appear only with a black cell:
  bigger all-white grids repeat room/neighbor shapes the smaller dimensions
  already cover, while a black cell with up to four white neighbors is what
  the largest dimensions uniquely add.

The corpus shares its cells and coordinates: every grid lays one White per
room id and one Black per arrow (cells are frozen, so sharing is safe), and
build_grid takes each (r, c) from puzzle's table of small coordinates.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterator

from .puzzle import ARROW_DELTAS, Assignment, Black, Coord, Grid, White, build_grid

_WHITES = tuple(map(White, "ABCDEFGHIJKLMNOPQRSTUVWXYZ"))
_BLACKS = {arrow: Black(arrow) for arrow in ARROW_DELTAS}

MAX_HEIGHT = MAX_WIDTH = 3
MAX_CANDIDATES = 36
MAX_ASSIGNMENT_SPACE = 324
ALL_WHITE_MAX_CELLS = 6


def _connected_partitions(cells: frozenset[Coord]) -> Iterator[list[frozenset[Coord]]]:
    """All partitions of `cells` into edge-connected groups."""
    if not cells:
        yield []
        return
    seed = min(cells)
    for part in _connected_subsets(seed, cells):
        for rest in _connected_partitions(cells - part):
            yield [part] + rest


def _connected_subsets(seed: Coord, avail: frozenset[Coord]) -> Iterator[frozenset[Coord]]:
    """All connected subsets of `avail` containing `seed`, each exactly once."""

    def grow(current: frozenset[Coord], banned: frozenset[Coord]) -> Iterator[frozenset[Coord]]:
        yield current
        frontier = set()
        for rc in current:
            for dr, dc in ARROW_DELTAS.values():
                nb = (rc[0] + dr, rc[1] + dc)
                if nb in avail and nb not in current and nb not in banned:
                    frontier.add(nb)
        blocked = banned
        for nb in sorted(frontier):
            yield from grow(current | {nb}, blocked)
            blocked = blocked | {nb}

    yield from grow(frozenset([seed]), frozenset())


def _grids_for_mask(height: int, width: int, black: dict[Coord, str]) -> Iterator[Grid]:
    whites = frozenset((r, c) for r in range(height) for c in range(width)
                       if (r, c) not in black)
    if not whites:
        return
    for partition in _connected_partitions(whites):
        sizes = [len(part) for part in partition]
        if math.prod(math.factorial(s) for s in sizes) > MAX_CANDIDATES:
            continue
        if math.prod(s ** s for s in sizes) > MAX_ASSIGNMENT_SPACE:
            continue
        cell_at = {rc: _BLACKS[arrow] for rc, arrow in black.items()}
        for white, part in zip(_WHITES, sorted(partition, key=min)):
            cell_at.update(dict.fromkeys(part, white))
        yield build_grid([[cell_at[r, c] for c in range(width)] for r in range(height)])


def enumerate_small_grids() -> list[Grid]:
    """The deterministic small-grid corpus described in the module docstring."""
    grids: list[Grid] = []
    for height in range(1, MAX_HEIGHT + 1):
        for width in range(1, MAX_WIDTH + 1):
            coords = [(r, c) for r in range(height) for c in range(width)]
            masks: list[dict[Coord, str]] = [{}] if height * width <= ALL_WHITE_MAX_CELLS else []
            if height * width >= 2:
                for rc in coords:
                    for arrow, (dr, dc) in ARROW_DELTAS.items():
                        target = (rc[0] + dr, rc[1] + dc)
                        if 0 <= target[0] < height and 0 <= target[1] < width:
                            masks.append({rc: arrow})
            for mask in masks:
                grids.extend(_grids_for_mask(height, width, mask))
    return grids


def all_value_assignments(grid: Grid) -> Iterator[Assignment]:
    """Every clue-consistent filling: each white cell ranges over 1..room size.

    Includes fillings that repeat a value inside a room; those are exactly the
    ones a standard deck cannot place (one card per value per room), so the
    protocol rejects them during setup.
    """
    coords = list(grid.white_coords())
    choices = []
    for rc in coords:
        cell = grid.cell(rc)
        size = len(grid.rooms[cell.room])
        choices.append((cell.clue,) if cell.clue is not None else tuple(range(1, size + 1)))
    for values in product(*choices):
        yield dict(zip(coords, values))
