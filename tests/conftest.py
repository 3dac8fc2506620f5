"""Shared fixtures: the bundled puzzle corpus and its worked 5x5 example."""

from pathlib import Path

import pytest

from makaro_zkp import assignment_from_grid, parse_puzzle

PUZZLES = Path(__file__).resolve().parent.parent / "puzzles"


def load_grid(name: str):
    return parse_puzzle((PUZZLES / name).read_text(encoding="utf-8"))


def load_solution(name: str):
    return assignment_from_grid(load_grid(name))


def row_cards(matrix, row: int) -> list:
    """The cards of one matrix row, left to right (None for an empty slot)."""
    return [matrix.card_at(row, col) for col in range(matrix.cols)]


def find_in_row(matrix, row: int, card) -> int:
    """The column holding `card` in one matrix row."""
    return row_cards(matrix, row).index(card)


@pytest.fixture(scope="session")
def puzzles_dir() -> Path:
    return PUZZLES


@pytest.fixture(scope="session")
def example_grid():
    """The worked 5x5 puzzle: 6 rooms, 5 black cells, 3 clues, 1 solution."""
    return load_grid("example5x5.makaro")


@pytest.fixture(scope="session")
def example_solution():
    return load_solution("example5x5_solution.makaro")


@pytest.fixture(scope="session")
def quad_grid():
    """2x2, two horizontal size-2 rooms; exactly two solutions."""
    return load_grid("quad.makaro")


@pytest.fixture(scope="session")
def cross_grid():
    """3x3 with a central black cell pointing right at a room of 4."""
    return load_grid("cross.makaro")


@pytest.fixture(scope="session")
def cross_solution():
    return load_solution("cross_solution.makaro")
