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

Sorting a collection's helping row lays the room's cards back on their cells
as they were, so checks can run in any number and the live run reads them
where setup laid them.  Each reveal shows a distribution that depends only
on the grid, never on the hidden values.

Everything but the reveals is fixed by the grid, so each check is compiled
once per grid, when a run first reaches it (a run rejected at setup, which
raises nothing, reaches none), from the paper's two primitives: the room
collection (a room check, or a conversion that encodes a cell's number as
all-different cards) and the grid-free comparison of encoded numbers, where
one card of each kind shows that two numbers differ or that one is the
largest.  Its template holds moves of cards, runs of prebuilt events, and
holes, each with the predicate that judges it: row reveals, each then
sorted or giving the window start, and windows.  A run is its view, the
cards it turns face up in run order: the live run runs each primitive as
one kernel over that primitive's own steps (a collection's take and cells
row; a comparison's stack, start row and windows), revealing each hole's
cards onto the view and judging them.
The same pass lays out the check's table of slots, its prebuilt events
with a place for every reveal and rearrangement, which the one writer
fills from a view: the simulator's, drawn without seeing any solution, or
a live run's, when its transcript is first read.  The layout is the
tables laid end to end; `read_view` takes a view from its reveal slots
and accepts it only if the writer writes that view back as the transcript.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Callable, NamedTuple, Sequence

from .deck import (
    CardId,
    CardMatrix,
    RandomSource,
    Transcript,
    cell_card,
    encoding_card,
    help_card,
    reveal_row,
    turn_all_down,
)
# `arrow_check_cells` is unused here but the benchmark's traced run rebinds
# it in this module (tests/test_benchmark_contract.py)
from .puzzle import Assignment, Coord, Grid, PuzzleStats, arrow_check_cells, stats

ENC_LETTERS = ("a", "b", "c", "d")


@dataclass(frozen=True)
class CardBudget:
    """How many physical cards a puzzle needs, by role."""

    cell_cards: int
    helping_cards: int
    encoding_cards: int
    total: int

    @property
    def per_set(self) -> int:
        """The cards of each encoding set."""
        return self.encoding_cards // len(ENC_LETTERS)


def card_budget(st: PuzzleStats) -> CardBudget:
    """Deck size for a puzzle of n white cells and largest room k: one card
    per white cell, one helping card per value up to k, and an encoding set
    per ENC_LETTERS letter, as long as any check's sequence can be (2k-1).
    A grid's schedule lays exactly these cards, each a different one."""
    encoding = len(ENC_LETTERS) * (2 * st.k - 1)
    return CardBudget(st.n, st.k, encoding, st.n + st.k + encoding)


class ProtocolError(Exception):
    pass


class SetupError(ProtocolError):
    """The prover's values cannot be placed with the available cards."""

    def __init__(self, message: str, room: str):
        super().__init__(message)
        self.room = room


@dataclass
class ProverState:
    """The prover's secret assignment and the source of their private
    randomness, whose stream is seeded on the first draw."""

    secret: Assignment
    source: RandomSource


def make_prover(assignment: Assignment, source: RandomSource) -> ProverState:
    return ProverState(dict(assignment), source)


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


# every accepting run returns this one verdict; each rejecting one returns
# its grid's verdict for the failed check, built once with the schedule
_ACCEPTED = Verdict(True)


class TableState:
    """The grid zone: each white cell's card, as setup laid it.  A check's
    collections put every room back where it was, so the live run reads
    their cards in place and the table never changes.  peak_cards is the
    highest _Check.peak so far, held to the deck budget."""

    def __init__(self, grid: Grid, cell_cards: dict[Coord, CardId]):
        self.grid = grid
        self.cell_cards = cell_cards
        self.peak_cards = len(cell_cards)


def make_encoding(cards: Sequence[CardId], value: int, prover: ProverState) -> list[CardId]:
    """Encode `value` as a sequence of the given cards: the first, the
    marker (index 1), at that position, the others in an order only the
    prover knows."""
    if not 1 <= value <= len(cards):
        raise ProtocolError(f"cannot encode {value} in a sequence of {len(cards)}")
    sequence = list(cards[1:])
    prover.source.permute_hidden(sequence)
    sequence.insert(value - 1, cards[0])
    return sequence


# Rows repeat: the example's rooms and helping-card sets show a few hundred
# orders between them, and a cached order costs a third of its search.
@lru_cache(maxsize=4096)
def _rearrange(revealed: tuple[CardId, ...]) -> tuple:
    """The rearrange event whose column order sorts a revealed row."""
    return ("rearrange", tuple(map(revealed.index, sorted(revealed))))


# --- the check templates -------------------------------------------------------
#
# Which checks run, in what order, under which keys, which cells each one
# converts, which helping and encoding cards it lifts, and what every reveal
# may show: all of it follows from the grid alone.  So does every event of an
# accepting run except the revealed cards, the rearrangements they imply and
# the window start.  So _Schedule.check compiles each check once per grid,
# the first time a run or a reader reaches it, from its steps in run order
# (moves that handle the cards and add no event, runs of prebuilt events,
# and holes for what the run decides, each with its acceptance predicate),
# in one pass that checks the moves on a card matrix: its card plan and
# peak, the fragments the live run runs and the table that _write fills
# from a view, live or simulated.  So the two cannot drift apart.

class SiteFamily(NamedTuple):
    """One reveal site and the theoretical distribution of its pattern:
    `take` distinct support cards in uniform order.  The kind names the
    case: "perm" (take == len(support)), "pick" (take == 1) or
    "arrangement"."""

    key: str
    kind: str
    support: tuple[CardId, ...]
    take: int

    def size(self) -> int:
        return math.perm(len(self.support), self.take)

    def contains(self, pattern: tuple[CardId, ...]) -> bool:
        shown = set(pattern)
        return len(pattern) == self.take == len(shown) and shown.issubset(self.support)


class _Reveal(NamedTuple):
    """Hole: the cards in columns `cols` of one row, after their site's
    event, judged by `accepts` unless the check rests on no rule there
    (None).  If `sorts`, the rearrangement that sorts the row follows, which
    puts it in `site.support` order (a sorted site lists its cards in order);
    if not, the row gives the window start, where it shows `site.support[0]`."""

    site: SiteFamily
    row: int
    cols: tuple[int, ...]
    accepts: Callable[[tuple[CardId, ...]], bool] | None
    sorts: bool


class _Window(NamedTuple):
    """Hole: the cards in columns `cols_from[start]`, a cyclic run from the
    window start, after their site's event, judged by `accepts`."""

    site: SiteFamily
    row: int
    cols_from: tuple[tuple[int, ...], ...]
    accepts: Callable[[tuple[CardId, ...]], bool]


# Moves handle the cards out of sight, so they add no event.
class _Take(NamedTuple):
    """Move: lift the room's cards, as many helping cards (in increasing
    order, so sorting their row lays the room back in cell order) and a
    conversion's encoding, marker in `column`; lay them out and scramble."""

    cells: Sequence[Coord]
    helps: tuple[CardId, ...]
    encoding: tuple[CardId, ...]
    column: int


class _Hide(NamedTuple):
    """Move: extract a conversion's encoding row, turn down and scramble."""


class _Stack(NamedTuple):
    """Move: lay the sequences out as rows, then shift or scramble."""

    shift: bool


class _Return(NamedTuple):
    """Move: the room's cards back on `cells` and the helping cards home."""

    cells: Sequence[Coord]


def _no_marker(shown: tuple[CardId, ...]) -> bool:
    """What a window must show: no marker, so no rival value reaches it."""
    return all(card.index != 1 for card in shown)


# Each event kind is written in one place (tests pin it), so the events that
# several templates share are built by these two.
def _collect(src: str, row: int, count: int) -> tuple:
    return ("collect", src, row, count)


def _bracket(kind: str, key: str) -> tuple[tuple, tuple, tuple]:
    """The begin event, and the end events of a pass and of a fail."""
    end = ("end", kind, key)
    return ("begin", kind, key), (*end, True), (*end, False)


_SCRAMBLE, _SHIFT = (("shuffle", kind) for kind in ("scramble", "shift"))
_REVEAL = "reveal"


def _comparison(key: str, sequences: Sequence[tuple[CardId, ...]], largest: bool) -> tuple:
    """The steps that compare numbers held as encoding sequences, named by
    their cards, marker first, all of one length.  The sequences are stacked
    as rows and scrambled, to show that row 1's number differs from row 2's
    ("differ": m cards, a window of 1), or cyclically shifted, to show that
    it beats every other row's ("largest": 2m-1 cards, a window of m).  Row 1
    is revealed, and its marker starts a window in every other row, which
    must show no marker."""
    length = len(sequences[0])
    window = (length + 1) // 2 if largest else 1
    cycle = tuple(range(length)) * 2
    spans = tuple(cycle[start:start + window] for start in range(length))
    first = SiteFamily(f"{key}/row1", "perm", sequences[0], length)
    # a one-card sequence is its marker, so the window can only show it
    # (unsatisfiable grids only)
    windows = [_Window(SiteFamily(f"{key}/row{row + 1}" if largest else f"{key}/probe",
                              "pick" if window == 1 else "arrangement",
                              sequence[1 if length > 1 else 0:], window),
                       row, spans, accepts=_no_marker)
               for row, sequence in enumerate(sequences[1:], start=1)]
    stacking = (*(_collect("seq:" + sequence[0].set.removeprefix("enc:"), row, length)
                  for row, sequence in enumerate(sequences)), _SHIFT if largest else _SCRAMBLE)
    return (_Stack(largest), stacking,
            _Reveal(first, 0, cycle[:length], accepts=None, sorts=False), *windows)


class _Check(NamedTuple):
    # a collection's, or the begin event, each conversion's and a comparison's
    steps: tuple
    fragments: tuple             # what the live run runs, of the steps: per
                                 # collection its _Take and its cells row's
                                 # _Reveal, then per comparison its _Stack,
                                 # the _Reveal giving the window start and
                                 # its _Windows
    rejected: tuple[tuple]       # the end event of a fail
    peak: int                    # the most cards in play at once, n included
    # the table the check's transcript is written from
    events: tuple                # those of a pass, None in each reveal's and
                                 # rearrangement's slot
    positions: tuple             # per window start, where each card the
                                 # check shows lies, in run order
    holes: tuple                 # per hole: the slot of its first reveal (its
                                 # site event's is the one before), the range
                                 # of its cards among the check's, its family,
                                 # and whether a rearrangement sorts them
    start: tuple | None          # the range of the row that gives the window
                                 # start, and its marker


def _write(events: list, check: _Check, view: tuple[CardId, ...], shown: int,
           passed: bool) -> int:
    """Write a check onto a run's events, its holes showing the view's cards
    from index `shown` on, and return the index past the last card shown.
    A rejected check (not `passed`) ends with the view: after the hole that
    shows its last card come none of the events that hole's cards imply,
    but the end events of a fail."""
    base = len(events)
    events += check.events
    cards = view[shown:shown + len(check.positions[0])]
    start = 0
    if check.start is not None and check.start[1] <= len(cards):
        first, last, marker = check.start
        start = cards.index(marker, first, last) - first
    reveals = [*zip(repeat(_REVEAL), check.positions[start], cards)]
    ends = None if passed else len(view) - shown
    for at, first, last, _, sorts in check.holes:
        at += base
        stop = at + last - first
        events[at:stop] = reveals[first:last]
        if last == ends:
            del events[stop:]
            events += check.rejected
            break
        if sorts:
            events[stop] = _rearrange(cards[first:last])
    return shown + len(cards)


class _Schedule:
    """Everything public about the runs on one grid: its white-cell count n
    and largest room size k, the cards of each set (card_budget's deck), the
    setup placement plan, and every check's template, in run order, keyed
    by (kind, subject), each compiled on its first reach."""

    def __init__(self, grid: Grid):
        self.n, self.k = st = stats(grid)
        budget = card_budget(st)
        self.grid = grid
        self.room_cards = {
            room: tuple(cell_card(room, v) for v in range(1, len(cells) + 1))
            for room, cells in grid.rooms.items()
        }
        # setup places the clued cells publicly, then the hidden cells, each
        # row-major: (rc, room, clue or None), and the event each one shows
        whites = [(rc, grid.cell(rc)) for rc in grid.white_coords()]
        whites.sort(key=lambda white: white[1].clue is None)
        self.setup = tuple((rc, cell.room, cell.clue) for rc, cell in whites)
        self.placements = tuple(("place-hidden", rc) if clue is None
                                else ("place", rc, self.room_cards[room][clue - 1])
                                for rc, room, clue in self.setup)
        self.helps = tuple(help_card(i) for i in range(1, budget.helping_cards + 1))
        self.enc = {letter: tuple(encoding_card(letter, i) for i in range(1, budget.per_set + 1))
                    for letter in ENC_LETTERS}
        # each check's cells, by key, in run order
        self.rules = {(kind, subject): cells for kind, subject, cells in grid.rules}
        self._compiled: dict[tuple[str, object], _Check] = {}
        # what a run rejected at each check, or at setup in each room, returns
        self.rejections = {key: Verdict(False, FailedCheck(*key)) for key in self.rules}
        self.setup_rejections = {room: Verdict(False, FailedCheck("room", room, at_setup=True))
                                 for room in grid.rooms}

    def check(self, key: tuple[str, object]) -> _Check:
        """The check keyed (kind, subject), compiled on its first reach and
        kept, so a grid compiles only the checks its runs reach."""
        check = self._compiled.get(key)
        if check is None:
            check = self._compiled[key] = self._compile(*key)
        return check

    @property
    def checks(self) -> dict[tuple[str, object], _Check]:
        """Every check, in run order, keyed by (kind, subject)."""
        return {key: self.check(key) for key in self.rules}

    def _compile(self, kind: str, subject: object) -> _Check:
        """The steps of one rule's check, compiled."""
        cells, grid = self.rules[kind, subject], self.grid
        if kind == "room":
            begin, passed, failed = _bracket(kind, subject)
            steps = self._collection(subject, f"room/{subject}", begin, ())
        else:
            where = cells if kind == "neighbor" else (subject,)
            key = f"{kind}/" + "-".join(f"{r}.{c}" for r, c in where)
            # every sequence is as long as the largest room among the cells
            # needs: m for a neighbor check, 2m-1 for an arrow
            m = max(len(grid.rooms[grid.room_of(rc)]) for rc in cells)
            length = m if kind == "neighbor" else 2 * m - 1
            letters = ENC_LETTERS[:len(cells)]
            begin, passed, failed = _bracket(kind, key)
            steps = ((begin,), *(step for letter, rc in zip(letters, cells)
                                 for step in self.conversion(rc, letter, length, key)),
                     *_comparison(key, [self.enc[letter][:length] for letter in letters],
                                  largest=kind == "arrow"))
        return self._check(steps, (passed,), (failed,))

    def _check(self, steps: tuple, passed=(), rejected=()) -> _Check:
        """A check, compiled in one pass over its steps.  Its peak is counted
        over its own moves from the n cell cards: each take adds its helping
        and encoding cards, each room put back sends its helping cards home,
        and encodings stay out to the end.  Its table holds its events, each
        hole's site event and a slot for every card the hole shows and for
        the rearrangement that sorts them.  The pass also makes the moves
        on one card matrix per fragment, laid with the check's own cards: no
        draws, each sort by the identity order, each window at every start.
        So a step that breaks a matrix guard raises DeckError here, and the
        live run, which runs the fragments compiled here, lays no matrix."""
        in_play = peak = self.n
        events: list = []
        holes, rows, windows, fragments, start = [], [], [], [], None
        sequences: list[list[CardId]] = []
        shows = 0
        for step in steps:
            kind = type(step)
            if kind is tuple:
                events += step
            elif kind is _Take:
                in_play += len(step.helps) + len(step.encoding)
                peak = max(peak, in_play)
                p, encoding = len(step.cells), step.encoding
                room = self.grid.room_of(step.cells[0])
                laid = (self.room_cards[room], step.helps, encoding[:p])
                matrix = CardMatrix.from_rows(laid if encoding else laid[:2])
                take = step
            elif kind is _Hide:
                if encoding:
                    sequences.append([*matrix.take_row(2), *encoding[p:]])
                turn_all_down(matrix)
            elif kind is _Stack:
                matrix = CardMatrix.from_rows(sequences)
                stack = step
            elif kind is _Return:
                in_play -= len(step.cells)  # one helping card per cell of the room
                matrix.take_row(0)
            elif kind is _Reveal or kind is _Window:
                if kind is _Reveal:
                    width, sorts = len(step.cols), step.sorts
                    reveal_row(matrix, step.row, step.cols)
                    rows += [(step.row, col) for col in step.cols]
                    if sorts:
                        matrix.permute_columns(range(width))
                        if step.row == 0:  # the cells row, which the collection judges
                            fragments.append((take, step))
                    else:
                        start = (shows, shows + width, step.site.support[0])
                        opening = step
                else:
                    width, sorts = len(step.cols_from[0]), False
                    for cols in step.cols_from:
                        reveal_row(matrix, step.row, cols)
                        turn_all_down(matrix)
                    windows.append(step)
                holes.append((len(events) + 1, shows, shows + width, step.site, sorts))
                events += (("site", step.site.key), *[None] * (width + sorts))
                shows += width
        # windows close a check, after every row reveal, and start at any
        # column of the row that gives the start
        starts = range(start[1] - start[0] if start else 1)
        if start:
            fragments.append((stack, opening, tuple(windows)))
        return _Check(steps, tuple(fragments), rejected, peak, (*events, *passed),
                      tuple((*rows, *((window.row, col) for window in windows
                                      for col in window.cols_from[at])) for at in starts),
                      tuple(holes), start)

    def write(self, view: Sequence[CardId], accepted: bool) -> list[tuple]:
        """The events of a run past setup that revealed `view`: setup's
        placements, then each check's in turn, through the one that showed
        the view's last card.  Every check shows a card, so an `accepted`
        run's view runs out at its last check; `accepted` chooses only the end
        events of the last check written, a pass's or a fail's."""
        events, shown, view = list(self.placements), 0, tuple(view)
        for key in self.rules:
            shown = _write(events, self.check(key), view, shown, accepted)
            if shown == len(view):
                break
        return events

    @cached_property
    def layout(self) -> tuple[tuple[int, SiteFamily], ...]:
        """Where an accepting run puts its reveal sites, in run order: after
        setup's placements, the check tables laid end to end, each site's
        slot the index of its site event, and its family."""
        sites, base = [], len(self.placements)
        for check in self.checks.values():
            sites += [(base + at - 1, site) for at, _, _, site, _ in check.holes]
            base += len(check.events)
        return tuple(sites)

    def _collection(self, room: str, sites_key: str, begin: tuple, closing: tuple,
                    encoding: tuple = (), column: int = 0) -> tuple:
        """The steps of a room check, or of a conversion into `encoding`: the
        room's cards and as many helping cards are collected, a conversion's
        encoding marked as row 2, and scrambled; the room's cards are revealed
        (only its full card set is accepted) and sorted; one more scramble,
        after a conversion's row 2 is extracted, and the helping cards are
        revealed and sorted, which puts the room's cards back in cell order."""
        cards = self.room_cards[room]
        p = len(cards)
        take = _Take(self.grid.rooms[room], self.helps[:p], encoding, column)
        marking = extraction = ()
        if encoding:
            # the marker lands in `column` of row 2, so the first p cards of
            # the encoding fill that row and the rest wait as its tail
            marking = (("marker", encoding[0], 2, column), ("hidden-fill", 2, p - 1))
            extraction = (("extract", 2, p), ("tail", len(encoding) - p))
        cols = tuple(range(p))
        src = cards[0].set
        cells = SiteFamily(f"{sites_key}/cells", "perm", cards, p)
        helps = SiteFamily(f"{sites_key}/helps", "perm", self.helps[:p], p)
        return (take, (begin, _collect(src, 0, p), ("helps", 1, p), *marking, _SCRAMBLE),
                _Reveal(cells, 0, cols, accepts=cells.contains, sorts=True),
                _Hide(), (*extraction, ("turn-down",), _SCRAMBLE),
                _Reveal(helps, 1, cols, accepts=None, sorts=True),
                _Return(take.cells), (("restore", src, p), *closing))

    def conversion(self, rc: Coord, letter: str, length: int, prefix: str) -> tuple:
        """Steps that convert a cell into an encoding sequence inside the check
        keyed `prefix`; it ends inside them, or at once on a foreign card."""
        room = self.grid.room_of(rc)
        members = self.grid.rooms[room]
        p = len(members)
        if not p <= length <= len(self.enc[letter]):
            raise ProtocolError(f"no sequence of {length} cards for a room of {p}, k = {self.k}")
        key = f"{prefix}/conv-{letter}"
        begin, passed, _ = _bracket("convert", key)
        return self._collection(room, key, begin, (passed,), self.enc[letter][:length],
                                members.index(rc))


# Grid holds a dict, so it cannot key a cache.  One entry is kept, for memory:
# a schedule of the sweep's 100-grid slice holds about 47 KB with the checks
# the sweep's runs reach (49 KB for a 3x3 grid), 85 KB with every check and
# the layout (94 KB; tracemalloc), so keeping the slice would add about
# 4.7 MB to a 39 MiB process (recompiling costs about a tenth of a pass),
# and the small-grid corpus has 3,973 grids.  The entry is one
# (grid, schedule) tuple swapped inside the list, so a reader never pairs a
# grid with another grid's schedule and the module attribute itself never
# changes (perfbench's traced run checks that it does not).
_last_schedule: list[tuple[Grid | None, _Schedule | None]] = [(None, None)]


def _schedule(grid: Grid) -> _Schedule:
    last_grid, schedule = _last_schedule[0]
    if last_grid is not grid:
        schedule = _Schedule(grid)
        _last_schedule[0] = (grid, schedule)
    return schedule


# --- the live run ---------------------------------------------------------------
#
# The live run produces every revealed card and every column order, since
# soundness rests on them; _write computes each rearrangement from the view
# (_rearrange).  It runs the paper's two primitives as one straight-line
# kernel each, over the check's own steps, on laid rows under one column
# order that scrambles, shifts and sorts (by a row's cards) reorder: a
# collection, its take and cells row, reads the room's cards in place,
# judges and sorts the cells row, extracts the encoding its take carries, if
# any, and reveals the helping row, which no rule judges and whose sort
# only lays the room back as it was; a comparison, its stack,
# start row and windows, reveals row 0, whose marker starts a window in
# every other row.  It adds no event: the check tables write a run's
# transcript from its view when it is first read, so a run whose
# transcript is never read (a zk-test trial, a prove trial after the
# first, a soundness sweep's) writes none.

def _live(table: TableState, check: _Check, prover: ProverState | None,
          source: RandomSource, view: list[CardId]) -> list[list[CardId]] | None:
    """Run a check's fragments on the table's cards, revealing each hole's
    cards onto the view.  Returns the sequences extracted, or None if a hole
    was rejected: a rejected row ends the check at once, since what follows
    sorts it or starts from it; after a rejected window it goes on."""
    sequences: list[list[CardId]] = []
    ok, cell_cards = True, table.cell_cards
    for fragment in check.fragments:
        if type(fragment[0]) is _Take:
            (cells, helps, encoding, column), hole = fragment
            cards = [cell_cards[rc] for rc in cells]
            encoding = encoding and make_encoding(encoding, column + 1, prover)
            order = list(range(len(cards)))
            source.permute(order)
            shown = tuple([cards[col] for col in order])
            view.extend(shown)
            if not hole.accepts(shown):
                return None
            order = sorted(order, key=cards.__getitem__)
            if encoding:
                sequences.append([encoding[col] for col in order] + encoding[len(order):])
            source.permute(order)
            view.extend([helps[col] for col in order])
        else:
            stack, hole, windows = fragment
            order = list(range(len(sequences[0])))
            if stack.shift:
                shift = source.offset(len(order))
                order = order[-shift:] + order[:-shift]
            else:
                source.permute(order)
            shown = tuple([sequences[0][col] for col in order])
            view.extend(shown)
            start = shown.index(hole.site.support[0])
            for _, row, cols_from, accepts in windows:
                shown = tuple([sequences[row][order[col]] for col in cols_from[start]])
                view.extend(shown)
                ok &= accepts(shown)
    return sequences if ok else None


def _place(schedule: _Schedule, secret: Assignment) -> tuple[list[CardId], str | None]:
    """The cell cards setup lays, in setup order, up to the first that does
    not exist or was already used, and that card's room (None if all were
    laid).  Raises ValueError as setup_placement does."""
    if secret.keys() != schedule.grid.white_set:
        raise ValueError("prover assignment must cover exactly the white cells")
    placed: list[CardId] = []
    used: set[CardId] = set()
    for rc, room, clue in schedule.setup:
        value = secret[rc]
        if not isinstance(value, int):
            raise ValueError(f"prover value at {rc} must be an integer")
        if clue is not None and value != clue:
            raise ValueError(f"prover value at {rc} contradicts the clue")
        cards = schedule.room_cards[room]
        card = cards[value - 1] if 1 <= value <= len(cards) else None
        if card is None or card in used:
            return placed, room
        used.add(card)
        placed.append(card)
    return placed, None


def _lay(schedule: _Schedule, placed: list[CardId]) -> TableState:
    """The table once every cell card is known to exist: each on its cell."""
    return TableState(schedule.grid, dict(zip([rc for rc, _, _ in schedule.setup], placed)))


def setup_placement(grid: Grid, prover: ProverState, transcript: Transcript) -> TableState:
    """Place one face-down cell card per white cell: clue cards publicly,
    the rest hidden.  Raises SetupError when a needed card does not exist or
    was already used, which is how bad rooms surface; ValueError when the
    values are not integers on exactly the white cells, or defy a clue."""
    schedule = _schedule(grid)
    placed, room = _place(schedule, prover.secret)
    # the cards already laid stay on record
    transcript.events += schedule.placements[:len(placed)]
    if room is not None:
        value = prover.secret[schedule.setup[len(placed)][0]]
        raise SetupError(f"no card of value {value} in room {room!r}"
                         if not 1 <= value <= len(schedule.room_cards[room])
                         else f"two cards of value {value} needed in room {room!r}", room)
    return _lay(schedule, placed)


# Entries that run one check and write it onto the caller's transcript, for
# the tests and for perfbench/spans.py, which traces them; a run hands its
# checks to _live itself, so none is exported.
def _entry(table: TableState, check: _Check, prover: ProverState | None,
           source: RandomSource, transcript: Transcript) -> list[list[CardId]] | None:
    view: list[CardId] = []
    sequences = _live(table, check, prover, source, view)
    _write(transcript.events, check, tuple(view), 0, sequences is not None)
    return sequences


def verify_room(table: TableState, room: str, source: RandomSource,
                transcript: Transcript) -> bool:
    """Check that a room's cards are exactly its full set, revealing only a
    shuffled order.  The cards stay on their cells."""
    return _entry(table, _schedule(table.grid).check(("room", room)),
                  None, source, transcript) is not None


def convert_cell(table: TableState, rc: Coord, letter: str, length: int,
                 prover: ProverState, source: RandomSource, transcript: Transcript,
                 site_prefix: str) -> list[CardId]:
    """Turn a cell's hidden value into an encoding sequence of the given
    length; the room's cards end on the grid exactly as they were.

    The room's cards and the prepared encoding row ride the same column
    scramble; sorting the revealed room cards into canonical order drags each
    encoding card to the position of its cell's value, so the extracted row
    encodes the target value without anyone seeing it.  The reveal sites
    are keyed under `site_prefix/conv-<letter>`.  Raises ProtocolError if
    the room holds other cards than its own.
    """
    schedule = _schedule(table.grid)
    steps = schedule.conversion(rc, letter, length, site_prefix)
    sequences = _entry(table, schedule._check(steps), prover, source, transcript)
    if sequences is None:
        raise ProtocolError(f"room of cell {rc} does not hold its own cards")
    return sequences[0]


def verify_neighbor(table: TableState, a: Coord, b: Coord, prover: ProverState,
                    source: RandomSource, transcript: Transcript) -> bool:
    """Check two adjacent cells differ: convert both to sequences of equal
    length, scramble the two rows as columns, find one marker, and look at the
    card sharing its column.  Equal values pair the markers in every shuffle."""
    return _entry(table, _schedule(table.grid).check(("neighbor", (a, b))),
                  prover, source, transcript) is not None


def verify_arrow(table: TableState, black_rc: Coord, prover: ProverState,
                 source: RandomSource, transcript: Transcript) -> bool:
    """Check the pointed cell strictly beats every rival around the arrow.

    All participating cells become sequences of length 2m-1.  After a cyclic
    column shift, the m columns starting at the pointed marker are revealed in
    each rival row; a rival marker lands there exactly when rival >= pointed.
    """
    return _entry(table, _schedule(table.grid).check(("arrow", black_rc)),
                  prover, source, transcript) is not None


class _RunTranscript(Transcript):
    """A run's transcript past setup, written when first read.  Until then
    it holds the grid, the run's view and whether the run was accepted, but
    no events: so the first read of them (`len`, `==`, `to_text`, a copy or
    a pickle) lands in __getattr__, which has the grid's schedule write
    them, as the run would have, and drops the three."""

    __slots__ = ("_unwritten",)

    def __init__(self, grid: Grid, view: list[CardId], accepted: bool):
        self._unwritten = grid, view, accepted

    def __getattr__(self, name: str):
        if name != "events":
            raise AttributeError(name)
        grid, view, accepted = self._unwritten
        self.events = events = _schedule(grid).write(view, accepted)
        del self._unwritten
        return events

    def __reduce__(self):
        # a copy or a pickle is a plain transcript of the written events
        return Transcript, (self.events,)


def _run(grid: Grid, prover: ProverState, source: RandomSource,
         ) -> tuple[Verdict, Transcript, TableState | None, list[CardId]]:
    """Run setup and every check in the canonical order, stopping at the
    first that rejects: the verdict, the transcript, the table (None when
    setup failed) and the run's view.  The transcript of a run rejected at
    setup is the placements it laid; past setup, the schedule writes it
    whole from the view on its first read, so a run whose transcript is
    never read writes none."""
    schedule = _schedule(grid)
    placed, room = _place(schedule, prover.secret)
    if room is not None:
        setup = Transcript(schedule.placements[:len(placed)])
        return schedule.setup_rejections[room], setup, None, []
    table, view = _lay(schedule, placed), []
    verdict = _ACCEPTED
    for key in schedule.rules:
        check = schedule.check(key)
        table.peak_cards = max(table.peak_cards, check.peak)
        if _live(table, check, prover, source, view) is None:
            verdict = schedule.rejections[key]
            break
    return verdict, _RunTranscript(grid, view, verdict.accepted), table, view


def run_full_protocol_with_table(
        grid: Grid, prover: ProverState, source: RandomSource,
) -> tuple[Verdict, Transcript, TableState | None]:
    """Like run_full_protocol, but also hands back the table so callers can
    inspect physical accounting (notably peak_cards).  The table is None when
    setup itself failed."""
    return _run(grid, prover, source)[:3]


def run_full_protocol(grid: Grid, prover: ProverState,
                      source: RandomSource) -> tuple[Verdict, Transcript]:
    """Run setup and every check in the canonical order, stopping at the
    first failure.  Room problems surface at setup (a standard deck has one
    card per value per room), reported as that room's check failing.  The
    transcript's check events are written when it is first read."""
    verdict, transcript, _ = run_full_protocol_with_table(grid, prover, source)
    return verdict, transcript


# --- transcript simulator ----------------------------------------------------
#
# Draws every reveal site's cards from its run-independent distribution, in
# the layout's site order: a view, which the check tables that write a live
# run turn into a transcript.  No assignment is involved, which is
# the zero-knowledge argument made executable: if real transcripts match these
# distributions, they carry no information about the solution.

def _draw(source: RandomSource, site: SiteFamily) -> list[CardId]:
    if site.kind == "perm":
        pattern = list(site.support)
        source.permute(pattern)
        return pattern
    if site.support[0].index == 1:
        # the window of a one-card sequence can only show its marker
        # (unsatisfiable grids only): nothing to draw
        return list(site.support)
    # one offset per card, the pool's last card filling each gap: for a pick
    # or t cards of 2t-2, random.Random selects cards with these very draws
    pool, shown = list(site.support), []
    for _ in range(site.take):
        j = source.offset(len(pool))
        pool[j], pool[-1] = pool[-1], pool[j]
        shown.append(pool.pop())
    return shown


def simulate_view(grid: Grid, source: RandomSource) -> tuple[CardId, ...]:
    """A view: the cards that every reveal site of an accepting run shows,
    in run order (`run_layout(grid)`), each site's `take` cards drawn
    from its solution-independent distribution.  Needs no assignment;
    meaningful for satisfiable grids."""
    view: list[CardId] = []
    for _, site in run_layout(grid):
        view += _draw(source, site)
    return tuple(view)


def simulate_transcript(grid: Grid, source: RandomSource) -> Transcript:
    """The accepting run that shows a simulated view: its exact event
    structure, each reveal site fed its cards from `simulate_view`."""
    return Transcript(_schedule(grid).write(simulate_view(grid, source), True))


def read_view(grid: Grid, transcript: Transcript) -> tuple[CardId, ...]:
    """The cards an accepting run of the grid reveals, in run order: the
    inverse of `simulate_transcript`.  The cards in its reveal slots, each
    site's `take` after its slot, are written back as an accepting run;
    unless that rewrite is the transcript, event for event, ValueError is
    raised.  The cards are not checked against their sites' families."""
    schedule, events = _schedule(grid), transcript.events
    try:
        view = tuple(events[at + 1 + i][2] for at, site in schedule.layout
                     for i in range(site.take))
        written = schedule.write(view, True)
    except (LookupError, TypeError, ValueError):
        # a slot with no card, a row that does not sort or shows no marker
        written = None
    if written != events or not all(isinstance(card, CardId) for card in view):
        raise ValueError("transcript is not an accepting run of this grid")
    return view


def reveal_site_plan(grid: Grid) -> list[tuple[str, str, tuple[CardId, ...], int]]:
    """Every reveal site of an accepting run, in order, with its pattern
    family: (site, kind, support cards, take).  A pattern is `take` distinct
    support cards, uniform over all such sequences: kind "perm" takes them
    all, "pick" one and "arrangement" some."""
    return [tuple(family) for _, family in run_layout(grid)]


def run_layout(grid: Grid) -> tuple[tuple[int, SiteFamily], ...]:
    """The layout that every accepting run of the grid shares, computed once
    per grid: each reveal site's slot, the index of its site event, and its
    family, in run order, so a transcript needs nothing but its events."""
    return _schedule(grid).layout
