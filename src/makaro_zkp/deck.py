"""Physical layer of the card protocol: cards, matrices, shuffles, transcripts.

Every card is distinct (standard-deck model) but all backs look alike, so a
face-down card reveals nothing.  The protocol arranges cards into small
matrices and shuffles whole columns; both shuffle kinds draw from a seedable
stream so runs are reproducible.  A Transcript records what an onlooker sees:
placements, shuffle occurrences, reveals, and rearrangements.  Face-down
cards never put their identity into the transcript.
"""

from __future__ import annotations

import random
import re
from functools import cached_property
from typing import Any, Callable, Iterable, NamedTuple


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


class RandomSource:
    """Two independent streams derived from one seed.

    shuffle_stream drives the public shuffles; prover_stream is the prover's
    private randomness (secret card orders).  Each stream is seeded on its
    first read, so a run that never draws (one rejected at setup) seeds
    nothing.  Seeding with the same value reproduces a run bit for bit.
    Trial i of a batch uses the derived seed "<seed>:<i>", so results are
    independent of how trials are distributed across workers.
    """

    def __init__(self, seed: int | str):
        self.seed = seed

    @cached_property
    def shuffle_stream(self) -> random.Random:
        return random.Random(f"{self.seed}/shuffle")

    @cached_property
    def prover_stream(self) -> random.Random:
        return random.Random(f"{self.seed}/prover")

    @classmethod
    def from_seed(cls, seed: int | str) -> "RandomSource":
        return cls(seed)

    @classmethod
    def for_trial(cls, seed: int | str, trial: int) -> "RandomSource":
        return cls(f"{seed}:{trial}")


class Transcript:
    """Everything the verifier observes, in order.

    Events are tuples whose first element is the kind.  site_patterns mirrors
    the reveal events grouped by reveal site, which is what the statistics
    consume; it is derived data and is rebuilt when a transcript is parsed
    back from text.
    """

    __slots__ = ("events", "site_patterns")

    def __init__(self) -> None:
        self.events: list[tuple] = []
        self.site_patterns: list[tuple[str, tuple[CardId, ...]]] = []

    def append(self, event: tuple) -> None:
        self.events.append(event)

    def add_pattern(self, site: str, pattern: tuple[CardId, ...]) -> None:
        self.site_patterns.append((site, pattern))

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
        t.site_patterns = collect_site_patterns(t.events)
        return t


def collect_site_patterns(events: Iterable[tuple]) -> list[tuple[str, tuple[CardId, ...]]]:
    """Group consecutive reveals under the preceding site marker."""
    out: list[tuple[str, tuple[CardId, ...]]] = []
    site: str | None = None
    cards: list[CardId] = []
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


class _Field(NamedTuple):
    """How one event field is written and read back."""

    format: Callable[[Any], str]
    parse: Callable[[str], Any]


def _parse_pos(text: str) -> tuple[int, int]:
    r, c = text.split(",")
    return (_parse_int(r), _parse_int(c))


_TEXT = _Field(str, str)
_INT = _Field(str, _parse_int)
_POS = _Field(lambda pos: f"{pos[0]},{pos[1]}", _parse_pos)
_CARD = _Field(str, parse_card)
_ORDER = _Field(lambda order: ",".join(str(i) for i in order),
                lambda text: tuple(_parse_int(i) for i in text.split(",")))
_RESULT = _Field(lambda ok: "pass" if ok else "fail", {"pass": True, "fail": False}.__getitem__)

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
    spec = _EVENT_FIELDS.get(ev[0])
    if spec is None or len(ev) != len(spec) + 1:
        raise DeckError(f"unknown event {ev!r}")
    return " ".join([ev[0], *(f"{name}={field.format(value)}"
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
    """A rows x cols arrangement of card slots, shuffled by whole columns.

    Slots are stored column by column, so a column shuffle reorders one list.
    Every card is distinct, so whether a card lies face up travels with it.
    """

    __slots__ = ("rows", "cols", "_cols", "_up")

    def __init__(self, rows: int, cols: int):
        if rows < 1 or cols < 1:
            raise DeckError("matrix needs at least one row and column")
        self.rows = rows
        self.cols = cols
        self._cols: list[list[CardId | None]] = [[None] * rows for _ in range(cols)]
        self._up: set[CardId] = set()

    def place(self, row: int, col: int, card: CardId) -> None:
        """Lay a card face down in an empty slot."""
        column = self._cols[col]
        if column[row] is not None:
            raise DeckError(f"slot ({row},{col}) already holds a card")
        column[row] = card

    def card_at(self, row: int, col: int) -> CardId | None:
        return self._cols[col][row]

    def is_face_up(self, row: int, col: int) -> bool:
        return self._cols[col][row] in self._up

    def is_full(self) -> bool:
        return all(None not in column for column in self._cols)

    def take_row(self, row: int) -> list[CardId]:
        """Remove a full row and return it, left to right; the rows below
        move up by one."""
        cards = [column[row] for column in self._cols]
        if None in cards:
            raise DeckError(f"row {row} is not fully occupied")
        for column in self._cols:
            del column[row]
        self.rows -= 1
        self._up.difference_update(cards)
        return cards  # type: ignore[return-value]

    def permute_columns(self, order: tuple[int, ...]) -> None:
        """Reorder columns so that new column j is old column order[j]."""
        if sorted(order) != list(range(self.cols)):
            raise DeckError(f"bad column order {order!r}")
        self._cols = [self._cols[src] for src in order]


def pile_shifting_shuffle(matrix: CardMatrix, source: RandomSource,
                          transcript: Transcript | None = None) -> CardMatrix:
    """Cyclically shift the columns by a uniform hidden offset.

    Old column c ends up at position (c + s) % cols.  Requires every slot
    occupied: piles must have equal height for the shuffle to hide anything.
    """
    if not matrix.is_full():
        raise DeckError("pile-shifting shuffle needs a fully occupied matrix")
    s = source.shuffle_stream.randrange(matrix.cols)
    matrix.permute_columns(tuple((j - s) % matrix.cols for j in range(matrix.cols)))
    if transcript is not None:
        transcript.append(("shuffle", "shift"))
    return matrix


def pile_scramble_shuffle(matrix: CardMatrix, source: RandomSource,
                          transcript: Transcript | None = None) -> CardMatrix:
    """Rearrange the columns by a uniform hidden permutation."""
    if not matrix.is_full():
        raise DeckError("pile-scramble shuffle needs a fully occupied matrix")
    order = list(range(matrix.cols))
    source.shuffle_stream.shuffle(order)
    matrix.permute_columns(tuple(order))
    if transcript is not None:
        transcript.append(("shuffle", "scramble"))
    return matrix


def reveal(matrix: CardMatrix, row: int, col: int, transcript: Transcript) -> CardId:
    """Turn one face-down card face up and record what it shows."""
    card = matrix.card_at(row, col)
    if card is None:
        raise DeckError(f"no card at ({row},{col})")
    if matrix.is_face_up(row, col):
        raise DeckError(f"card at ({row},{col}) is already face up")
    matrix._up.add(card)
    transcript.append(("reveal", (row, col), card))
    return card


def turn_all_down(matrix: CardMatrix) -> CardMatrix:
    """Flip every face-up card face down; identities are unchanged."""
    matrix._up.clear()
    return matrix
