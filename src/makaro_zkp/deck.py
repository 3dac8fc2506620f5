"""Physical layer of the card protocol: cards, matrices, shuffles, transcripts.

The protocol's cards are all distinct (standard-deck model) but all backs
look alike, so a face-down card reveals nothing.  The protocol lays cards
out in small matrices, each kept as laid with one column order that a
shuffle of whole columns reorders; face-up state is kept per slot, so a
matrix laid with a repeated card still turns one card at a time.  Every
random draw, live or simulated, goes through RandomSource's three methods,
which replay random.Random's draws exactly, so a seed reproduces a run bit
for bit.  A Transcript records what an onlooker
sees: placements, shuffle occurrences, reveals, and rearrangements.
Face-down cards never put their identity into the transcript.
"""

from __future__ import annotations

import random
import re
from functools import cached_property
from typing import Any, Callable, NamedTuple, Sequence


class DeckError(Exception):
    pass


class CardId(NamedTuple):
    """One physical card: a set name plus a 1-based index within the set."""

    set: str
    index: int

    def __str__(self) -> str:
        return f"{self.set}#{self.index}"


def cell_card(room: str, value: int) -> CardId:
    return CardId(f"room:{room}", value)


def help_card(index: int) -> CardId:
    return CardId("help", index)


def encoding_card(letter: str, index: int) -> CardId:
    return CardId(f"enc:{letter}", index)


_CANONICAL_INT = re.compile("0|[1-9][0-9]*")


def _parse_int(text: str) -> int:
    """An integer as the writer emits it: ASCII digits, with no sign,
    underscore or leading zero.  Anything else (`01`, `1_0`, `-0`, a
    non-ASCII digit) raises ValueError, as does a numeral longer than int()
    converts."""
    if not _CANONICAL_INT.fullmatch(text):
        raise ValueError(f"not a canonical integer: {text!r}")
    return int(text)


def parse_card(text: str) -> CardId:
    set_name, sep, index = text.rpartition("#")
    try:
        if sep:
            return CardId(set_name, _parse_int(index))
    except ValueError:
        pass
    raise DeckError(f"bad card {text!r}")


# The shuffle kernel replays random.Random.shuffle step for step, as
# RandomSource.offset replays randrange: for i from n-1 down to 1, it swaps
# item i with item j, the first getrandbits((i+1).bit_length()) draw below
# i+1.  So the results and the stream state left behind equal the standard
# library's.  A length's (i, i+1, bits) steps, and a matrix width's column
# set, are built on first use and kept; the protocol uses only a few of each.
_steps: dict[int, tuple[tuple[int, int, int], ...]] = {}
_widths: dict[int, frozenset[int]] = {}


def _permute(items: list, getrandbits: Callable[[int], int]) -> None:
    try:
        steps = _steps[len(items)]
    except KeyError:
        steps = _steps[len(items)] = tuple((i, i + 1, (i + 1).bit_length())
                                           for i in range(len(items) - 1, 0, -1))
    for i, n, bits in steps:
        j = getrandbits(bits)
        while j >= n:
            j = getrandbits(bits)
        items[i], items[j] = items[j], items[i]


class RandomSource:
    """Two independent streams derived from one seed.

    The public stream drives the shuffles (permute, offset); the prover's
    stream is their private randomness (permute_hidden, for secret card
    orders).  Every draw, live or simulated, goes through these three
    methods, which replay random.Random's shuffle and randrange exactly, so
    an object with them can stand in for a source.  Each stream is seeded on
    its first read, so a run that never draws (one rejected at setup) seeds
    nothing.  Seeding with the same value reproduces a run bit for bit.
    Trial i of a batch uses the derived seed "<seed>:<i>", so results are
    independent of how trials are distributed across workers.
    """

    def __init__(self, seed: int | str):
        self.seed = seed

    def permute(self, items: list) -> None:
        """Shuffle a list in place from the public stream."""
        _permute(items, self.shuffle_stream.getrandbits)

    def permute_hidden(self, items: list) -> None:
        """Shuffle a list in place from the prover's stream."""
        _permute(items, self.prover_stream.getrandbits)

    def offset(self, n: int) -> int:
        """A uniform int in range(n) from the public stream."""
        if n <= 0:
            raise ValueError(f"no offset below {n}")
        getrandbits, bits = self.shuffle_stream.getrandbits, n.bit_length()
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        return r

    @cached_property
    def shuffle_stream(self) -> random.Random:
        return random.Random(f"{self.seed}/shuffle")

    @cached_property
    def prover_stream(self) -> random.Random:
        return random.Random(f"{self.seed}/prover")

    @classmethod
    def for_trial(cls, seed: int | str, trial: int) -> "RandomSource":
        return cls(f"{seed}:{trial}")


class Transcript:
    """Everything the verifier observes, in order: events, tuples whose first
    element is the kind.  Nothing else is kept; which reveals form which site
    follows from the grid (protocol.run_layout)."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def append(self, event: tuple) -> None:
        self.events.append(event)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Transcript) and self.events == other.events

    def __len__(self) -> int:
        return len(self.events)

    def to_text(self) -> str:
        return "".join(_format_event(ev) + "\n" for ev in self.events)

    @classmethod
    def from_text(cls, text: str) -> "Transcript":
        t = cls()
        for line in text.splitlines():
            if line.strip():
                t.append(_parse_event(line))
        return t


class _Field(NamedTuple):
    """How one event field is written and read back; parse is its grammar."""

    name: str
    format: Callable[[Any], str]
    parse: Callable[[str], Any]

    def write(self, value: Any) -> str:
        """The value's text, if it holds no whitespace (the reader splits
        fields there) and parse reads it back as the value."""
        try:
            text = self.format(value)
            if not any(map(str.isspace, text)) and self.parse(text) == value:
                return text
        except (DeckError, LookupError, TypeError, ValueError):
            pass
        raise DeckError(f"cannot write {value!r} as a {self.name}")


def _parse_pos(text: str) -> tuple[int, int]:
    r, c = text.split(",")
    return (_parse_int(r), _parse_int(c))


_TEXT = _Field("text", str, str)
_INT = _Field("int", str, _parse_int)
_POS = _Field("pos", lambda pos: f"{pos[0]},{pos[1]}", _parse_pos)
_CARD = _Field("card", str, parse_card)
_ORDER = _Field("order", lambda order: ",".join(str(i) for i in order),
                lambda text: tuple(_parse_int(i) for i in text.split(",")))
_RESULT = _Field("result", lambda ok: "pass" if ok else "fail",
                 {"pass": True, "fail": False}.__getitem__)

# The text form of each event kind: its fields after the kind, in order.
_EVENT_FIELDS: dict[str, tuple[tuple[str, _Field], ...]] = {
    "place": (("pos", _POS), ("card", _CARD)),
    "place-hidden": (("pos", _POS),),
    "collect": (("src", _TEXT), ("row", _INT), ("count", _INT)),
    "helps": (("row", _INT), ("count", _INT)),
    "marker": (("card", _CARD), ("row", _INT), ("col", _INT)),
    "hidden-fill": (("row", _INT), ("count", _INT)),
    "shuffle": (("kind", _TEXT),),
    "site": (("key", _TEXT),),
    "reveal": (("pos", _POS), ("card", _CARD)),
    "rearrange": (("perm", _ORDER),),
    "turn-down": (),
    "extract": (("row", _INT), ("count", _INT)),
    "tail": (("count", _INT),),
    "restore": (("dst", _TEXT), ("count", _INT)),
    "begin": (("kind", _TEXT), ("key", _TEXT)),
    "end": (("kind", _TEXT), ("key", _TEXT), ("result", _RESULT)),
}


def _format_event(ev: tuple) -> str:
    """The event's line.  An event is a non-empty tuple whose first element
    names its kind, followed by that kind's fields."""
    kind = ev[0] if isinstance(ev, tuple) and ev else None
    spec = _EVENT_FIELDS.get(kind) if isinstance(kind, str) else None
    if spec is None or len(ev) != len(spec) + 1:
        raise DeckError(f"unknown event {ev!r}")
    return " ".join([ev[0], *(f"{name}={field.write(value)}"
                              for (name, field), value in zip(spec, ev[1:]))])


def _parse_event(line: str) -> tuple:
    kind, _, rest = line.partition(" ")
    spec = _EVENT_FIELDS.get(kind)
    items = [item.partition("=") for item in rest.split()]
    if spec is None or [(key, sep) for key, sep, _ in items] != [(name, "=") for name, _ in spec]:
        raise DeckError(f"bad transcript line {line!r}")
    try:
        return (kind, *(field.parse(value) for (_, field), (_, _, value) in zip(spec, items)))
    except (KeyError, ValueError) as exc:
        raise DeckError(f"bad transcript line {line!r}") from exc


class CardMatrix:
    """A rows x cols arrangement of cards, shuffled by whole columns.

    It is laid out whole (from_rows), so every slot holds a card, and kept as
    laid with one column order: column j shows laid-out column order[j].
    Whether a card lies face up belongs to its slot, not to the card, so a
    matrix that repeats a card (as a deviating prover could lay it) turns
    one copy at a time: each laid row keeps one int, bit c set while the
    card in laid-out column c is face up, and a shuffle moves only indices.
    """

    __slots__ = ("rows", "cols", "_laid", "_order", "_up", "_columns")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[CardId]]) -> "CardMatrix":
        """A matrix laid out in one move: the given rows of cards, face down."""
        laid = list(map(tuple, rows))
        width = len(laid[0]) if laid else 0
        for line in laid:
            if len(line) != width:
                width = 0
        if not width:
            raise DeckError("a matrix needs rows of one length, at least one card long")
        if width not in _widths:
            _widths[width] = frozenset(range(width))
        matrix = cls.__new__(cls)
        matrix.rows, matrix.cols, matrix._laid = len(laid), width, laid
        matrix._order, matrix._up, matrix._columns = list(range(width)), [0] * len(laid), _widths[width]
        return matrix

    def card_at(self, row: int, col: int) -> CardId:
        # checked, not indexed: a negative index would wrap to the far end
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise DeckError(f"no slot ({row},{col}) in a {self.rows}x{self.cols} matrix")
        return self._laid[row][self._order[col]]

    def is_face_up(self, row: int, col: int) -> bool:
        self.card_at(row, col)  # the slot check
        return self._up[row] >> self._order[col] & 1 == 1

    def take_row(self, row: int) -> list[CardId]:
        """Remove a row and return it, left to right; the rows below move up
        by one."""
        if not 0 <= row < self.rows:
            raise DeckError(f"no row {row} in a matrix of {self.rows}")
        laid, cards = self._laid.pop(row), []
        for col in self._order:
            cards.append(laid[col])
        del self._up[row]
        self.rows -= 1
        return cards

    def permute_columns(self, order: Sequence[int]) -> None:
        """Reorder columns so that new column j is old column order[j]."""
        order = tuple(order)
        if len(order) != self.cols or self._columns != set(order):
            raise DeckError(f"bad column order {order!r}")
        old, new = self._order, []
        for src in order:
            new.append(old[src])
        self._order = new


def pile_shifting_shuffle(matrix: CardMatrix, source: RandomSource) -> CardMatrix:
    """Cyclically shift the columns by a uniform hidden offset.

    Old column c ends up at position (c + s) % cols.  Every column is a
    full pile, so the shuffle hides which is which.
    """
    s = source.offset(matrix.cols)
    matrix._order = matrix._order[-s:] + matrix._order[:-s]
    return matrix


def pile_scramble_shuffle(matrix: CardMatrix, source: RandomSource) -> CardMatrix:
    """Rearrange the columns by a uniform hidden permutation.  The column
    order is shuffled in place; swaps only permute, so it needs no check."""
    source.permute(matrix._order)
    return matrix


def reveal_row(matrix: CardMatrix, row: int, cols: Sequence[int]) -> tuple[CardId, ...]:
    """Turn face up the face-down cards in the given columns of one row, in
    that order, and return what each shows.  Nothing turns when a slot lies
    outside the matrix or is already face up, or a column repeats."""
    cols = tuple(cols)
    # checked, not indexed: a negative index would wrap to the far end
    if not (0 <= row < matrix.rows and matrix._columns.issuperset(cols)):
        raise DeckError(f"row {row}, columns {cols} reach outside a "
                        f"{matrix.rows}x{matrix.cols} matrix")
    laid, order, up = matrix._laid[row], matrix._order, matrix._up[row]
    cards = []
    for col in cols:
        slot = order[col]
        if up >> slot & 1:
            raise DeckError(f"card at ({row},{col}) is already face up")
        up |= 1 << slot
        cards.append(laid[slot])
    matrix._up[row] = up
    return tuple(cards)


# for the tests and for perfbench/spans.py, which traces it; not exported
def reveal(matrix: CardMatrix, row: int, col: int) -> CardId:
    """Turn one face-down card face up and return it."""
    return reveal_row(matrix, row, (col,))[0]


def turn_all_down(matrix: CardMatrix) -> CardMatrix:
    """Flip every face-up card face down; identities are unchanged."""
    matrix._up = [0] * matrix.rows
    return matrix
