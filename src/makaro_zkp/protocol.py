"""The interactive proof: a prover convinces a verifier that a hidden Makaro
solution is valid without exposing any cell value.

Setup places one face-down cell card per white cell (card index = hidden
value; each room has its own card set, so a value can only be placed once per
room).  Three check families then run, in a fixed public schedule:

* room checks: a room's cards plus helping cards are column-shuffled and the
  cell cards revealed; any multiset other than the room's full card set would
  expose a bad room, while a valid one reveals only a uniformly random order.
* neighbor checks: both cells are converted into value-encoding sequences (a
  marker card hides at the position equal to the cell value, all other cards
  in secret uniform order); after a column scramble the marker of one row is
  found and the card above/below it revealed.  Equal values would put both
  markers in the same column every time.
* arrow checks: the pointed cell and its rivals become encoding sequences of
  length 2m-1; after a cyclic column shift, a window of m columns starting at
  the pointed marker is revealed in every rival row.  A rival marker can land
  in that window exactly when its value is >= the pointed value.

Conversions return each room's cards to the grid untouched, so checks can run
in any number.  Each reveal shows a distribution that depends only on the
grid, never on the hidden values, which is what simulate_transcript
reproduces without seeing any solution.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .deck import (
    CardId,
    CardMatrix,
    RandomSource,
    Transcript,
    cell_card,
    encoding_card,
    help_card,
    pile_scramble_shuffle,
    pile_shifting_shuffle,
    reveal,
    turn_all_down,
)
# `arrow_check_cells` is unused here but the benchmark's traced run rebinds
# it in this module (tests/test_benchmark_contract.py)
from .puzzle import Assignment, Coord, Grid, arrow_check_cells, stats

ENC_LETTERS = ("a", "b", "c", "d")


class ProtocolError(Exception):
    pass


class SetupError(ProtocolError):
    """The prover's values cannot be placed with the available cards."""

    def __init__(self, message: str, room: str):
        super().__init__(message)
        self.room = room


class CardsUnavailable(ProtocolError):
    pass


@dataclass
class ProverState:
    """The prover's secret assignment and private randomness."""

    secret: Assignment
    rng: random.Random


def make_prover(assignment: Assignment, source: RandomSource) -> ProverState:
    return ProverState(dict(assignment), source.prover_stream)


@dataclass(frozen=True)
class FailedCheck:
    kind: str        # "room" | "neighbor" | "arrow"
    subject: object  # room id, ((r,c),(r,c)), or (r,c)
    at_setup: bool = False

    def __str__(self) -> str:
        if self.kind == "room":
            where = f"room {self.subject}"
        elif self.kind == "neighbor":
            (a, b) = self.subject  # type: ignore[misc]
            where = f"neighbor pair {a}-{b}"
        else:
            where = f"arrow at {self.subject}"
        return where + (" (at setup)" if self.at_setup else "")


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    failing_check: FailedCheck | None = None


class TableState:
    """All cards in play: the grid zone plus the helping/encoding free pools.

    Tracks how many cards are simultaneously on the table; peak_cards is
    checked against the deck budget.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        # the sizes and card sets are public and fixed by the grid: shared by every run
        schedule = _schedule(grid)
        self.n = schedule.n
        self.k = schedule.k
        self.enc_len = 2 * schedule.k - 1
        self.cell_cards: dict[Coord, CardId | None] = {}
        self.room_cards = schedule.room_cards
        self.helps = schedule.helps
        self.enc = schedule.enc
        self._help_out = 0
        self._enc_out = dict.fromkeys(ENC_LETTERS, 0)
        self._in_play = 0
        self.peak_cards = 0

    def _bump(self, count: int) -> None:
        self._in_play += count
        if self._in_play > self.peak_cards:
            self.peak_cards = self._in_play

    def place_cell(self, rc: Coord, card: CardId) -> None:
        if self.cell_cards.get(rc) is not None:
            raise ProtocolError(f"cell {rc} already holds a card")
        self.cell_cards[rc] = card
        self._bump(1)

    def remove_cell(self, rc: Coord) -> CardId:
        card = self.cell_cards.get(rc)
        if card is None:
            raise ProtocolError(f"no card on cell {rc}")
        self.cell_cards[rc] = None
        return card

    def put_cell(self, rc: Coord, card: CardId) -> None:
        if self.cell_cards.get(rc) is not None:
            raise ProtocolError(f"cell {rc} already holds a card")
        self.cell_cards[rc] = card

    def take_helps(self, count: int) -> tuple[CardId, ...]:
        if self._help_out:
            raise CardsUnavailable("helping cards already in use")
        if count > self.k:
            raise CardsUnavailable(f"only {self.k} helping cards exist")
        self._help_out = count
        self._bump(count)
        return self.helps[:count]

    def return_helps(self) -> None:
        self._in_play -= self._help_out
        self._help_out = 0

    def take_encoding(self, letter: str, count: int) -> tuple[CardId, ...]:
        if self._enc_out[letter]:
            raise CardsUnavailable(f"encoding set {letter} already in use")
        if count > self.enc_len:
            raise CardsUnavailable(f"only {self.enc_len} cards in encoding set {letter}")
        self._enc_out[letter] = count
        self._bump(count)
        return self.enc[letter][:count]

    def return_encoding(self, letter: str) -> None:
        self._in_play -= self._enc_out[letter]
        self._enc_out[letter] = 0

    def assert_settled(self) -> None:
        # card conservation between checks: grid full, every pool card home
        placed = sum(1 for card in self.cell_cards.values() if card is not None)
        if placed != self.n or self._help_out or any(self._enc_out.values()):
            raise ProtocolError("table out of balance between checks")
        if self._in_play != self.n:
            raise ProtocolError("card count drifted")


def make_encoding(letter: str, length: int, value: int, prover: ProverState,
                  table: TableState) -> list[CardId]:
    """Encode `value` as a card sequence: marker (index 1) at that position,
    the other length-1 cards in an order only the prover knows.  The set's
    cards 1..length are drawn from (and tracked in) the table's free pool."""
    if not 1 <= value <= length:
        raise ProtocolError(f"cannot encode {value} in a sequence of {length}")
    cards = table.take_encoding(letter, length)
    rest = list(cards[1:])
    prover.rng.shuffle(rest)
    return rest[:value - 1] + [cards[0]] + rest[value - 1:]


def _sort_order(revealed: list[CardId], canonical: tuple[CardId, ...]) -> tuple[int, ...]:
    """Column order that rearranges a revealed row into canonical order."""
    pos = {card: idx for idx, card in enumerate(revealed)}
    return tuple(pos[card] for card in canonical)


# --- the check schedule --------------------------------------------------------
#
# Which checks run, in what order, under which keys, which cells each one
# converts and with which sequence lengths and letters, and what every reveal
# may show: all of it follows from the grid alone.  It is compiled once per
# grid and read by the live run, the simulator and reveal_site_plan, so the
# three cannot drift apart.

class SiteFamily(NamedTuple):
    """One reveal site and the theoretical distribution of its pattern.

    kind "perm": uniform permutation of the support (take == len(support)).
    kind "pick": one uniform card from the support (take == 1).
    kind "arrangement": `take` distinct support cards in uniform order.
    """

    key: str
    kind: str
    support: tuple[CardId, ...]
    take: int

    def size(self) -> int:
        if self.kind == "perm":
            return math.factorial(len(self.support))
        if self.kind == "pick":
            return len(self.support)
        return math.perm(len(self.support), self.take)

    def contains(self, pattern: tuple[CardId, ...]) -> bool:
        if len(pattern) != self.take:
            return False
        members = set(self.support)
        if self.kind == "perm":
            return set(pattern) == members
        if self.kind == "pick":
            return pattern[0] in members
        return len(set(pattern)) == self.take and all(c in members for c in pattern)


class _Conversion(NamedTuple):
    """A cell turned into an encoding sequence inside a check."""

    cell: Coord
    letter: str
    length: int
    key: str
    room: str
    column: int                  # the cell's place in its room: where the marker goes
    sites: tuple[SiteFamily, SiteFamily]  # the room's cards, then the helping cards


class _Check(NamedTuple):
    kind: str                    # "room" | "neighbor" | "arrow"
    subject: object              # as in FailedCheck
    key: str                     # of the begin and end events
    conversions: tuple[_Conversion, ...]
    # rooms: the room's cards, then the helping cards; neighbors and arrows:
    # the first row, whose marker is looked for, then one window per other row
    sites: tuple[SiteFamily, ...]


def _collection_sites(key: str, cards: tuple[CardId, ...],
                      helps: tuple[CardId, ...]) -> tuple[SiteFamily, SiteFamily]:
    """A room's cards, then as many helping cards, each revealed in uniform
    order after a scramble."""
    p = len(cards)
    return (SiteFamily(f"{key}/cells", "perm", cards, p),
            SiteFamily(f"{key}/helps", "perm", helps[:p], p))


class _Schedule:
    """Everything public about the runs on one grid: its white-cell count n
    and largest room size k, the cards of each set, and every check, in run
    order, keyed by (kind, subject)."""

    def __init__(self, grid: Grid):
        self.n, self.k = stats(grid)
        self.grid = grid
        self.room_cards = {
            room: tuple(cell_card(room, v) for v in range(1, len(cells) + 1))
            for room, cells in grid.rooms.items()
        }
        self.helps = tuple(help_card(i) for i in range(1, self.k + 1))
        self.enc = {letter: tuple(encoding_card(letter, i) for i in range(1, 2 * self.k))
                    for letter in ENC_LETTERS}
        self._conversions: dict[tuple, _Conversion] = {}
        self.checks: dict[tuple[str, object], _Check] = {}
        for kind, subject, cells in grid.rules:
            if kind == "room":
                self.checks[kind, subject] = _Check(kind, subject, subject, (), _collection_sites(
                    f"room/{subject}", self.room_cards[subject], self.helps))
                continue
            where = cells if kind == "neighbor" else (subject,)
            key = f"{kind}/" + "-".join(f"{r}.{c}" for r, c in where)
            # every sequence is as long as the largest room among the cells
            # needs: m for a neighbor check, 2m-1 for an arrow
            m = max(len(grid.rooms[grid.room_of(rc)]) for rc in cells)
            length, window = (m, 1) if kind == "neighbor" else (2 * m - 1, m)
            letters = ENC_LETTERS[:len(cells)]
            sites = [SiteFamily(f"{key}/row1", "perm", self.enc["a"][:length], length)]
            for row, letter in enumerate(letters[1:], start=2):
                # a one-card sequence is its marker, so the window can only
                # show it (unsatisfiable grids only)
                support = self.enc[letter][1 if length > 1 else 0:length]
                sites.append(SiteFamily(
                    f"{key}/probe" if kind == "neighbor" else f"{key}/row{row}",
                    "pick" if window == 1 else "arrangement", support, window))
            conversions = tuple(self.conversion(rc, letter, length, key)
                                for letter, rc in zip(letters, cells))
            self.checks[kind, subject] = _Check(kind, subject, key, conversions, tuple(sites))

    def conversion(self, rc: Coord, letter: str, length: int, prefix: str) -> _Conversion:
        """The conversion of a cell inside the check keyed `prefix`, built
        once per grid."""
        conv = self._conversions.get((rc, letter, length, prefix))
        if conv is None:
            room = self.grid.room_of(rc)
            key = f"{prefix}/conv-{letter}"
            conv = _Conversion(rc, letter, length, key, room, self.grid.rooms[room].index(rc),
                               _collection_sites(key, self.room_cards[room], self.helps))
            self._conversions[rc, letter, length, prefix] = conv
        return conv


# Grid holds a dict, so it cannot key a cache; every hot loop runs one grid.
# The entry is one (grid, schedule) tuple swapped inside the list, so a reader
# never pairs a grid with another grid's schedule and the module attribute
# itself never changes (perfbench's traced run checks that it does not).
_last_schedule: list[tuple[Grid | None, _Schedule | None]] = [(None, None)]


def _schedule(grid: Grid) -> _Schedule:
    last_grid, schedule = _last_schedule[0]
    if last_grid is not grid:
        schedule = _Schedule(grid)
        _last_schedule[0] = (grid, schedule)
    return schedule


# --- the live run ---------------------------------------------------------------

def _reveal_row(matrix: CardMatrix, row: int, transcript: Transcript, site: str,
                cols: Iterable[int] | None = None) -> list[CardId]:
    """Reveal a row, or the given columns of it, as one site."""
    transcript.append(("site", site))
    cards = [reveal(matrix, row, col, transcript)
             for col in (range(matrix.cols) if cols is None else cols)]
    transcript.add_pattern(site, tuple(cards))
    return cards


def _sort_columns(matrix: CardMatrix, revealed: list[CardId],
                  canonical: tuple[CardId, ...], transcript: Transcript) -> None:
    order = _sort_order(revealed, canonical)
    matrix.permute_columns(order)
    transcript.append(("rearrange", order))


def _collect_room(table: TableState, matrix: CardMatrix, room: str,
                  transcript: Transcript) -> None:
    """Row 0: the room's cards, taken off the grid; row 1: as many helping
    cards in canonical order."""
    cells = table.grid.rooms[room]
    p = len(cells)
    for col, rc in enumerate(cells):
        matrix.place(0, col, table.remove_cell(rc))
    transcript.append(("collect", f"room:{room}", 0, p))
    for col, card in enumerate(table.take_helps(p)):
        matrix.place(1, col, card)
    transcript.append(("helps", 1, p))


def _return_room(table: TableState, matrix: CardMatrix, room: str,
                 helps_site: SiteFamily, source: RandomSource, transcript: Transcript) -> None:
    """Hide the room's sorted cards behind one more scramble, then sort by
    the helping cards, which puts the room's cards back in cell order."""
    turn_all_down(matrix)
    transcript.append(("turn-down",))
    pile_scramble_shuffle(matrix, source, transcript)
    helped = _reveal_row(matrix, 1, transcript, helps_site.key)
    _sort_columns(matrix, helped, helps_site.support, transcript)
    for col, rc in enumerate(table.grid.rooms[room]):
        table.put_cell(rc, matrix.card_at(0, col))
    transcript.append(("restore", f"room:{room}", helps_site.take))
    table.return_helps()


def setup_placement(grid: Grid, prover: ProverState, transcript: Transcript) -> TableState:
    """Place one face-down cell card per white cell: clue cards publicly,
    the rest hidden.  Raises SetupError when a needed card does not exist or
    was already used, which is how bad rooms surface."""
    secret = prover.secret
    if secret.keys() != grid.white_set:
        raise ValueError("prover assignment must cover exactly the white cells")
    table = TableState(grid)
    seen: dict[str, set[int]] = {room: set() for room in grid.rooms}
    hidden: list[tuple[Coord, str, int]] = []
    for rc in grid.white_coords():
        cell = grid.cell(rc)
        if cell.clue is None:
            hidden.append((rc, cell.room, secret[rc]))
            continue
        if secret[rc] != cell.clue:
            raise ValueError(f"prover value at {rc} contradicts the clue")
        if cell.clue in seen[cell.room]:
            raise SetupError(f"two cards of value {cell.clue} needed in room {cell.room!r}",
                             cell.room)
        seen[cell.room].add(cell.clue)
        card = cell_card(cell.room, cell.clue)
        table.place_cell(rc, card)
        transcript.append(("place", rc, card))
    for rc, room, value in hidden:
        if value > len(grid.rooms[room]):
            raise SetupError(f"no card of value {value} in room {room!r}", room)
        if value in seen[room]:
            raise SetupError(f"two cards of value {value} needed in room {room!r}", room)
        seen[room].add(value)
        table.place_cell(rc, cell_card(room, value))
        transcript.append(("place-hidden", rc))
    return table


def verify_room(table: TableState, room: str, source: RandomSource,
                transcript: Transcript) -> bool:
    """Check that a room's cards are exactly its full set, revealing only a
    shuffled order.  Restores the cards to their cells on success."""
    cells_site, helps_site = _schedule(table.grid).checks["room", room].sites
    transcript.append(("begin", "room", room))
    matrix = CardMatrix(2, cells_site.take)
    _collect_room(table, matrix, room, transcript)
    pile_scramble_shuffle(matrix, source, transcript)
    revealed = _reveal_row(matrix, 0, transcript, cells_site.key)
    ok = set(revealed) == set(cells_site.support)
    if ok:
        _sort_columns(matrix, revealed, cells_site.support, transcript)
        _return_room(table, matrix, room, helps_site, source, transcript)
    transcript.append(("end", "room", room, ok))
    return ok


def convert_cell(table: TableState, rc: Coord, letter: str, length: int,
                 prover: ProverState, source: RandomSource, transcript: Transcript,
                 site_prefix: str) -> list[CardId]:
    """Turn a cell's hidden value into an encoding sequence of the given
    length, leaving the room's cards back on the grid exactly as they were.

    The room's cards and the prepared encoding row ride the same column
    scramble; sorting the revealed room cards into canonical order drags each
    encoding card to the position of its cell's value, so the extracted row
    encodes the target value without anyone seeing it.  The reveal sites
    are keyed under `site_prefix/conv-<letter>`.
    """
    conv = _schedule(table.grid).conversion(rc, letter, length, site_prefix)
    cells_site, helps_site = conv.sites
    p = cells_site.take
    if length < p:
        raise ProtocolError(f"sequence of {length} too short for a room of {p}")
    transcript.append(("begin", "convert", conv.key))

    matrix = CardMatrix(3, p)
    _collect_room(table, matrix, conv.room, transcript)
    # the marker lands in the cell's column of row 2, so the first p cards of
    # the encoding fill that row and the rest wait as its tail
    encoding = make_encoding(letter, length, conv.column + 1, prover, table)
    transcript.append(("marker", encoding[conv.column], 2, conv.column))
    for col, card in enumerate(encoding[:p]):
        matrix.place(2, col, card)
    transcript.append(("hidden-fill", 2, p - 1))

    pile_scramble_shuffle(matrix, source, transcript)
    revealed = _reveal_row(matrix, 0, transcript, cells_site.key)
    _sort_columns(matrix, revealed, cells_site.support, transcript)
    sequence = matrix.take_row(2) + encoding[p:]
    transcript.append(("extract", 2, p))
    transcript.append(("tail", length - p))

    _return_room(table, matrix, conv.room, helps_site, source, transcript)
    transcript.append(("end", "convert", conv.key, True))
    return sequence


def _verify_windows(table: TableState, check: _Check, prover: ProverState,
                    source: RandomSource, transcript: Transcript) -> bool:
    """Convert the check's cells into sequences, stack them as rows, shuffle
    the columns, find the marker of the first row and reveal each other
    row's window starting in that column.  Any marker in a window rejects."""
    transcript.append(("begin", check.kind, check.key))
    sequences = [
        convert_cell(table, conv.cell, conv.letter, conv.length, prover, source, transcript,
                     check.key)
        for conv in check.conversions
    ]
    first, *windows = check.sites
    length = first.take
    matrix = CardMatrix(len(sequences), length)
    for row, (conv, seq) in enumerate(zip(check.conversions, sequences)):
        for col, card in enumerate(seq):
            matrix.place(row, col, card)
        transcript.append(("collect", f"seq:{conv.letter}", row, length))
    shuffle = pile_shifting_shuffle if check.kind == "arrow" else pile_scramble_shuffle
    shuffle(matrix, source, transcript)
    start = _reveal_row(matrix, 0, transcript, first.key).index(first.support[0])
    ok = True
    for row, site in enumerate(windows, start=1):
        cards = _reveal_row(matrix, row, transcript, site.key,
                            [(start + off) % length for off in range(site.take)])
        ok = ok and all(card.index != 1 for card in cards)
    for conv in check.conversions:
        table.return_encoding(conv.letter)
    transcript.append(("end", check.kind, check.key, ok))
    return ok


def verify_neighbor(table: TableState, a: Coord, b: Coord, prover: ProverState,
                    source: RandomSource, transcript: Transcript) -> bool:
    """Check two adjacent cells differ: convert both to sequences of equal
    length, scramble the two rows as columns, find one marker, and look at the
    card sharing its column.  Equal values pair the markers in every shuffle."""
    return _verify_windows(table, _schedule(table.grid).checks["neighbor", (a, b)],
                           prover, source, transcript)


def verify_arrow(table: TableState, black_rc: Coord, prover: ProverState,
                 source: RandomSource, transcript: Transcript) -> bool:
    """Check the pointed cell strictly beats every rival around the arrow.

    All participating cells become sequences of length 2m-1.  After a cyclic
    column shift, the m columns starting at the pointed marker are revealed in
    each rival row; a rival marker lands there exactly when rival >= pointed.
    """
    return _verify_windows(table, _schedule(table.grid).checks["arrow", black_rc],
                           prover, source, transcript)


def run_full_protocol_with_table(
        grid: Grid, prover: ProverState, source: RandomSource,
) -> tuple[Verdict, Transcript, TableState | None]:
    """Like run_full_protocol, but also hands back the table so callers can
    inspect physical accounting (notably peak_cards).  The table is None when
    setup itself failed."""
    transcript = Transcript()
    try:
        table = setup_placement(grid, prover, transcript)
    except SetupError as err:
        return (Verdict(False, FailedCheck("room", err.room, at_setup=True)),
                transcript, None)
    for check in _schedule(grid).checks.values():
        if check.kind == "room":
            ok = verify_room(table, check.subject, source, transcript)
        elif check.kind == "neighbor":
            ok = verify_neighbor(table, *check.subject, prover, source, transcript)
        else:
            ok = verify_arrow(table, check.subject, prover, source, transcript)
        if not ok:
            return Verdict(False, FailedCheck(check.kind, check.subject)), transcript, table
        table.assert_settled()
    return Verdict(True, None), transcript, table


def run_full_protocol(grid: Grid, prover: ProverState,
                      source: RandomSource) -> tuple[Verdict, Transcript]:
    """Run setup and every check in the canonical order, stopping at the
    first failure.  Room problems surface at setup (a standard deck has one
    card per value per room), reported as that room's check failing."""
    verdict, transcript, _ = run_full_protocol_with_table(grid, prover, source)
    return verdict, transcript


# --- transcript simulator ----------------------------------------------------
#
# Emits the exact event structure of an accepting run, drawing every reveal
# from its run-independent distribution.  No assignment is involved, which is
# the zero-knowledge argument made executable: if real transcripts match these
# distributions, they carry no information about the solution.

def _draw(rng: random.Random, site: SiteFamily) -> list[CardId]:
    if site.kind == "perm":
        pattern = list(site.support)
        rng.shuffle(pattern)
        return pattern
    if site.kind == "arrangement":
        return rng.sample(site.support, site.take)
    if site.support[0].index == 1:
        # the window of a one-card sequence can only show its marker
        # (unsatisfiable grids only): nothing to draw
        return list(site.support)
    return [rng.choice(site.support)]


def _sim_reveal(t: Transcript, rng: random.Random, row: int, cols: Iterable[int],
                site: SiteFamily) -> list[CardId]:
    pattern = _draw(rng, site)
    t.append(("site", site.key))
    for col, card in zip(cols, pattern):
        t.append(("reveal", (row, col), card))
    t.add_pattern(site.key, tuple(pattern))
    return pattern


def _sim_collection(t: Transcript, rng: random.Random, room: str,
                    sites: tuple[SiteFamily, SiteFamily],
                    conv: _Conversion | None = None) -> None:
    """A room check's events, or a conversion's when conv is given."""
    cells_site, helps_site = sites
    p = cells_site.take
    t.append(("collect", f"room:{room}", 0, p))
    t.append(("helps", 1, p))
    if conv is not None:
        t.append(("marker", encoding_card(conv.letter, 1), 2, conv.column))
        t.append(("hidden-fill", 2, p - 1))
    t.append(("shuffle", "scramble"))
    revealed = _sim_reveal(t, rng, 0, range(p), cells_site)
    t.append(("rearrange", _sort_order(revealed, cells_site.support)))
    if conv is not None:
        t.append(("extract", 2, p))
        t.append(("tail", conv.length - p))
    t.append(("turn-down",))
    t.append(("shuffle", "scramble"))
    helped = _sim_reveal(t, rng, 1, range(p), helps_site)
    t.append(("rearrange", _sort_order(helped, helps_site.support)))
    t.append(("restore", f"room:{room}", p))


def simulate_transcript(grid: Grid, source: RandomSource) -> Transcript:
    """A transcript with the exact event structure of an accepting run, every
    reveal drawn from its solution-independent distribution.  Needs no
    assignment; meaningful for satisfiable grids."""
    rng = source.shuffle_stream
    t = Transcript()
    for rc in grid.white_coords():
        cell = grid.cell(rc)
        if cell.clue is not None:
            t.append(("place", rc, cell_card(cell.room, cell.clue)))
    for rc in grid.white_coords():
        if grid.cell(rc).clue is None:
            t.append(("place-hidden", rc))
    for check in _schedule(grid).checks.values():
        t.append(("begin", check.kind, check.key))
        if check.kind == "room":
            _sim_collection(t, rng, check.subject, check.sites)
        else:
            for conv in check.conversions:
                t.append(("begin", "convert", conv.key))
                _sim_collection(t, rng, conv.room, conv.sites, conv)
                t.append(("end", "convert", conv.key, True))
            first, *windows = check.sites
            length = first.take
            for row, conv in enumerate(check.conversions):
                t.append(("collect", f"seq:{conv.letter}", row, length))
            t.append(("shuffle", "shift" if check.kind == "arrow" else "scramble"))
            start = _sim_reveal(t, rng, 0, range(length), first).index(first.support[0])
            for row, site in enumerate(windows, start=1):
                _sim_reveal(t, rng, row, [(start + off) % length for off in range(site.take)],
                            site)
        t.append(("end", check.kind, check.key, True))
    return t


def reveal_site_plan(grid: Grid) -> list[tuple[str, str, tuple[CardId, ...], int]]:
    """Every reveal site of an accepting run, in order, with its pattern
    family: (site, kind, support cards, take).

    kind "perm": the pattern is a uniform permutation of the support.
    kind "pick": a single uniform card from the support.
    kind "arrangement": `take` distinct cards from the support, ordered,
    uniform over all such sequences.
    """
    return [tuple(site)
            for check in _schedule(grid).checks.values()
            for sites in (*(conv.sites for conv in check.conversions), check.sites)
            for site in sites]
