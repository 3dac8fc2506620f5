"""Shared fixtures: the bundled puzzle corpus and its worked 5x5 example,
the generated small-grid corpus, and the helpers several test modules share."""

import math
from pathlib import Path

import pytest

from makaro_zkp import (InsufficientTrials, SiteReport, assignment_from_grid,
                        enumerate_small_grids, parse_puzzle)
from makaro_zkp import analysis

PUZZLES = Path(__file__).resolve().parent.parent / "puzzles"


def load_grid(name: str):
    return parse_puzzle((PUZZLES / name).read_text(encoding="utf-8"))


def load_solution(name: str):
    return assignment_from_grid(load_grid(name))


def row_cards(matrix, row: int) -> list:
    """The cards of one matrix row, left to right."""
    return [matrix.card_at(row, col) for col in range(matrix.cols)]


def find_in_row(matrix, row: int, card) -> int:
    """The column holding `card` in one matrix row."""
    return row_cards(matrix, row).index(card)


def site_patterns(events) -> list:
    """(site key, revealed cards) for every site event, in order: the
    reveals that follow a site event, up to the next other event.  An
    oracle that reads the events alone, independent of the compiled layout."""
    out = []
    site, cards = None, []
    for ev in events:
        kind = ev[0]
        if kind == "reveal" and site is not None:
            cards.append(ev[2])
        else:
            if site is not None:
                out.append((site, tuple(cards)))
                site, cards = None, []
            if kind == "site":
                site = ev[1]
    if site is not None:
        out.append((site, tuple(cards)))
    return out


def uniformity_test(family, counter) -> SiteReport:
    """Goodness-of-fit of observed patterns against the family's uniform
    distribution over its full pattern space (unobserved patterns count as
    zero-observation bins), passed at level ALPHA, with the library's
    chi-square tail."""
    draws = sum(counter.values())
    for pattern in counter:
        if not family.contains(pattern):
            outside = analysis._pattern_text(pattern)
            return SiteReport(family.key, family.kind, family.size(), 0,
                              math.inf, 0.0, False, draws,
                              note=f"pattern outside support: {outside}")
    size = family.size()
    if size == 1:
        return SiteReport(family.key, family.kind, 1, 0, 0.0, 1.0, True, draws,
                          note="single possible pattern")
    if draws == 0:
        raise InsufficientTrials(f"no draws recorded at {family.key}")
    expected = draws / size
    if expected < analysis.MIN_EXPECTED:
        raise InsufficientTrials(
            f"{family.key}: expected count {expected:.2f} per bin is below "
            f"{analysis.MIN_EXPECTED}; need at least "
            f"{math.ceil(analysis.MIN_EXPECTED * size)} draws")
    statistic = sum((count - expected) ** 2 / expected for count in counter.values())
    statistic += (size - len(counter)) * expected
    df = size - 1
    p_value = analysis._chi2_tail(statistic, df)
    return SiteReport(family.key, family.kind, size, df, statistic, p_value,
                      p_value >= analysis.ALPHA, draws)


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


@pytest.fixture(scope="session")
def small_grids() -> tuple:
    """The generated corpus of every grid up to 3x3, built once per session.
    Its grids keep what tests cache on them; a test that needs a grid with
    nothing cached loads its own."""
    return tuple(enumerate_small_grids())
