"""Cards, matrices, the two shuffles, and transcript serialization."""

import random
from collections import Counter

import pytest
from scipy.stats import chi2

from makaro_zkp import (
    CardId,
    CardMatrix,
    DeckError,
    RandomSource,
    Transcript,
    cell_card,
    encoding_card,
    help_card,
    parse_card,
    pile_scramble_shuffle,
    pile_shifting_shuffle,
    reveal,
    turn_all_down,
)
from makaro_zkp.deck import _EVENT_FIELDS

from conftest import find_in_row, row_cards

# One malformed line per event kind: a field missing, extra, out of order,
# or with a value its kind cannot hold.
MALFORMED_LINES = {
    "place": "place pos=0;1 card=room:A#3",
    "place-hidden": "place-hidden pos=2,2,2",
    "collect": "collect src=room:A row=zero count=3",
    "helps": "helps row=1",
    "marker": "marker card=enc:a row=2 col=1 extra=1",
    "hidden-fill": "hidden-fill count=2 row=2",
    "shuffle": "shuffle",
    "site": "site room/A/cells",
    "reveal": "reveal pos=0,0 card=room:A",
    "rearrange": "rearrange perm=1,,0",
    "turn-down": "turn-down face=up",
    "extract": "extract row=2 count=",
    "tail": "tail count=2.5",
    "restore": "restore src=room:A count=3",
    "begin": "begin kind=room",
    "end": "end kind=room key=A result=maybe",
}

# Lines that int() would read but the writer never emits: an integer field
# takes only ASCII digits without sign, underscore or leading zero, and every
# field needs its "=".
NON_CANONICAL_LINES = [
    "tail count=1_0",
    "rearrange perm=1,-0",
    "reveal pos=+0,1_1 card=help#1",
    "tail count=01",
    "tail count=\u0661",
    "place pos=0,0 card=room:A#01",
    "shuffle kind",
]


def fresh_matrix(rows, cols, prefix="x"):
    m = CardMatrix(rows, cols)
    for r in range(rows):
        for c in range(cols):
            m.place(r, c, CardId(f"{prefix}{r}", c + 1))
    return m


def chi_square_uniform(counts: Counter, bins: int, trials: int) -> float:
    expected = trials / bins
    stat = sum((n - expected) ** 2 / expected for n in counts.values())
    stat += (bins - len(counts)) * expected
    return float(chi2.sf(stat, bins - 1))


class StubSource:
    """RandomSource stand-in whose shuffle stream produces scripted draws."""

    def __init__(self, shifts=(), orders=()):
        outer = self
        self._shifts = list(shifts)
        self._orders = [list(o) for o in orders]

        class _Stream:
            def randrange(self, n):
                return outer._shifts.pop(0)

            def shuffle(self, seq):
                seq[:] = outer._orders.pop(0)

        self.shuffle_stream = _Stream()
        self.prover_stream = random.Random(0)


class TestCardIds:
    def test_construction_and_text(self):
        assert str(cell_card("A", 3)) == "room:A#3"
        assert str(help_card(2)) == "help#2"
        assert str(encoding_card("b", 7)) == "enc:b#7"

    def test_parse_card_roundtrip(self):
        for card in (cell_card("A", 3), help_card(1), encoding_card("d", 9)):
            assert parse_card(str(card)) == card

    def test_parse_card_rejects_garbage(self):
        # "²" and a numeral longer than int() converts are digits, not decimals;
        # a sign, a leading zero or a non-ASCII digit is not canonical
        for bad in ("nohash", "x#", "x#abc", "help#²", "help#" + "1" * 5000,
                    "help#01", "help#+1", "help#\u0661"):
            with pytest.raises(DeckError):
                parse_card(bad)

    def test_all_card_kinds_distinct(self):
        cards = {cell_card("A", 1), cell_card("B", 1), help_card(1),
                 encoding_card("a", 1)}
        assert len(cards) == 4


class TestRandomSource:
    def test_same_seed_reproduces_choices(self):
        a = RandomSource.from_seed("s")
        b = RandomSource.from_seed("s")
        assert [a.shuffle_stream.randrange(100) for _ in range(5)] == \
               [b.shuffle_stream.randrange(100) for _ in range(5)]
        assert [a.prover_stream.randrange(100) for _ in range(5)] == \
               [b.prover_stream.randrange(100) for _ in range(5)]

    def test_streams_are_independent(self):
        src = RandomSource.from_seed("s")
        assert [src.shuffle_stream.randrange(1000) for _ in range(8)] != \
               [src.prover_stream.randrange(1000) for _ in range(8)]

    @pytest.mark.parametrize("seed", ["s", 7, "7:3"])
    def test_streams_draw_as_seeded_from_their_strings(self, seed):
        src = RandomSource.from_seed(seed)
        shuffle, prover = random.Random(f"{seed}/shuffle"), random.Random(f"{seed}/prover")
        assert [src.shuffle_stream.random() for _ in range(5)] == \
               [shuffle.random() for _ in range(5)]
        assert [src.prover_stream.random() for _ in range(5)] == \
               [prover.random() for _ in range(5)]

    def test_trials_get_distinct_seeds(self):
        a = RandomSource.for_trial("s", 0)
        b = RandomSource.for_trial("s", 1)
        assert [a.shuffle_stream.randrange(1000) for _ in range(8)] != \
               [b.shuffle_stream.randrange(1000) for _ in range(8)]


class TestCardMatrix:
    def test_place_and_lookup(self):
        m = CardMatrix(2, 3)
        card = cell_card("A", 1)
        m.place(0, 2, card)
        assert m.card_at(0, 2) == card
        assert not m.is_face_up(0, 2)
        assert not m.is_full()

    def test_place_occupied_slot_rejected(self):
        m = fresh_matrix(1, 2)
        with pytest.raises(DeckError):
            m.place(0, 0, cell_card("A", 9))

    def test_permute_columns_moves_whole_columns(self):
        m = fresh_matrix(2, 3)
        m.permute_columns((2, 0, 1))   # new column j takes old column order[j]
        assert [c.index for c in row_cards(m, 0)] == [3, 1, 2]
        assert [c.index for c in row_cards(m, 1)] == [3, 1, 2]

    def test_take_row_removes_it(self):
        m = fresh_matrix(3, 3)
        t = Transcript()
        reveal(m, 1, 0, t)
        cards = m.take_row(1)
        assert [c.index for c in cards] == [1, 2, 3]
        assert m.rows == 2
        assert row_cards(m, 0) == [CardId("x0", c) for c in (1, 2, 3)]
        assert row_cards(m, 1) == [CardId("x2", c) for c in (1, 2, 3)]  # moved up
        assert not any(m.is_face_up(r, c) for r in range(2) for c in range(3))

    def test_take_row_needs_a_full_row(self):
        m = CardMatrix(2, 2)
        m.place(0, 0, cell_card("A", 1))
        with pytest.raises(DeckError):
            m.take_row(0)


class TestReveal:
    def test_reveal_records_event(self):
        m = CardMatrix(2, 4)
        m.place(1, 2, help_card(3))
        t = Transcript()
        assert reveal(m, 1, 2, t) == help_card(3)
        assert m.is_face_up(1, 2)
        assert t.events == [("reveal", (1, 2), help_card(3))]

    def test_double_reveal_rejected(self):
        m = fresh_matrix(1, 1)
        t = Transcript()
        reveal(m, 0, 0, t)
        with pytest.raises(DeckError):
            reveal(m, 0, 0, t)

    def test_reveal_empty_slot_rejected(self):
        with pytest.raises(DeckError):
            reveal(CardMatrix(1, 1), 0, 0, Transcript())

    def test_turn_all_down(self):
        m = fresh_matrix(2, 2)
        t = Transcript()
        reveal(m, 0, 0, t)
        reveal(m, 1, 1, t)
        turn_all_down(m)
        assert not any(m.is_face_up(r, c) for r in range(2) for c in range(2))
        assert m.card_at(0, 0) == CardId("x0", 1)

    def test_turn_all_down_on_empty_matrix(self):
        m = CardMatrix(2, 2)
        turn_all_down(m)
        assert m.card_at(0, 0) is None


class TestShifting:
    def test_single_column_is_identity(self):
        m = fresh_matrix(2, 1)
        pile_shifting_shuffle(m, RandomSource.from_seed("x"))
        assert m.card_at(0, 0) == CardId("x0", 1)

    def test_shift_of_one_rotates_right(self):
        m = fresh_matrix(1, 3)
        pile_shifting_shuffle(m, StubSource(shifts=[1]))
        assert [c.index for c in row_cards(m, 0)] == [3, 1, 2]

    def test_partial_matrix_rejected(self):
        m = CardMatrix(1, 2)
        m.place(0, 0, cell_card("A", 1))
        with pytest.raises(DeckError):
            pile_shifting_shuffle(m, RandomSource.from_seed("x"))

    def test_rows_ride_together_and_cards_conserved(self):
        src = RandomSource.from_seed("conserve")
        m = fresh_matrix(3, 5)
        before = {tuple(m.card_at(r, c) for r in range(3)) for c in range(5)}
        for _ in range(20):
            pile_shifting_shuffle(m, src)
            after = {tuple(m.card_at(r, c) for r in range(3)) for c in range(5)}
            assert after == before   # columns stay intact as units

    def test_shift_values_uniform(self):
        # 5 columns, 30,000 trials: each shift lands within 1/5 +/- 2%
        trials = 30_000
        src = RandomSource.from_seed("shift-uniformity")
        counts = Counter()
        for _ in range(trials):
            m = fresh_matrix(1, 5)
            pile_shifting_shuffle(m, src)
            counts[find_in_row(m, 0, CardId("x0", 1))] += 1
        assert set(counts) <= set(range(5))
        for col in range(5):
            assert abs(counts[col] / trials - 0.2) <= 0.02
        assert chi_square_uniform(counts, 5, trials) >= 0.01


class TestScramble:
    def test_single_column_is_identity(self):
        m = fresh_matrix(2, 1)
        pile_scramble_shuffle(m, RandomSource.from_seed("x"))
        assert m.card_at(0, 0) == CardId("x0", 1)

    def test_partial_matrix_rejected(self):
        m = CardMatrix(2, 2)
        m.place(0, 0, cell_card("A", 1))
        with pytest.raises(DeckError):
            pile_scramble_shuffle(m, RandomSource.from_seed("x"))

    def test_two_columns_swap_half_the_time(self):
        trials = 30_000
        src = RandomSource.from_seed("swap-frequency")
        swaps = 0
        for _ in range(trials):
            m = fresh_matrix(1, 2)
            pile_scramble_shuffle(m, src)
            if m.card_at(0, 0) == CardId("x0", 2):
                swaps += 1
        assert abs(swaps / trials - 0.5) <= 0.02

    def test_three_columns_all_orders_equally_likely(self):
        trials = 60_000
        src = RandomSource.from_seed("perm-frequency")
        counts = Counter()
        for _ in range(trials):
            m = fresh_matrix(1, 3)
            pile_scramble_shuffle(m, src)
            counts[tuple(c.index for c in row_cards(m, 0))] += 1
        assert len(counts) == 6
        for n in counts.values():
            assert abs(n / trials - 1 / 6) <= 0.02
        assert chi_square_uniform(counts, 6, trials) >= 0.01

    def test_each_cards_final_column_uniform(self):
        # marginal uniformity on 4 columns, 12,000 trials, 1% level per card
        trials = 12_000
        src = RandomSource.from_seed("scramble-marginals")
        positions = {i: Counter() for i in range(1, 5)}
        for _ in range(trials):
            m = fresh_matrix(1, 4)
            pile_scramble_shuffle(m, src)
            for col in range(4):
                positions[m.card_at(0, col).index][col] += 1
        for index, counts in positions.items():
            assert chi_square_uniform(counts, 4, trials) >= 0.01, index


class TestTranscript:
    def all_kinds_transcript(self):
        t = Transcript()
        t.append(("place", (0, 1), cell_card("A", 3)))
        t.append(("place-hidden", (2, 2)))
        t.append(("begin", "room", "A"))
        t.append(("collect", "room:A", 0, 3))
        t.append(("helps", 1, 3))
        t.append(("marker", encoding_card("a", 1), 2, 1))
        t.append(("hidden-fill", 2, 2))
        t.append(("shuffle", "scramble"))
        t.append(("site", "room/A/cells"))
        t.append(("reveal", (0, 0), cell_card("A", 2)))
        t.append(("reveal", (0, 1), cell_card("A", 1)))
        t.append(("reveal", (0, 2), cell_card("A", 3)))
        t.add_pattern("room/A/cells",
                      (cell_card("A", 2), cell_card("A", 1), cell_card("A", 3)))
        t.append(("rearrange", (1, 0, 2)))
        t.append(("extract", 2, 3))
        t.append(("tail", 2))
        t.append(("turn-down",))
        t.append(("shuffle", "shift"))
        t.append(("restore", "room:A", 3))
        t.append(("end", "room", "A", True))
        t.append(("end", "neighbor", "neighbor/0.0-0.1", False))
        return t

    def test_text_roundtrip_covers_every_event_kind(self):
        t = self.all_kinds_transcript()
        back = Transcript.from_text(t.to_text())
        assert back == t
        assert back.site_patterns == t.site_patterns

    def test_every_event_kind_has_a_round_trip_and_a_malformed_line(self):
        kinds = {ev[0] for ev in self.all_kinds_transcript().events}
        assert kinds == set(_EVENT_FIELDS) == set(MALFORMED_LINES)

    @pytest.mark.parametrize("kind", sorted(MALFORMED_LINES))
    def test_malformed_line_is_rejected(self, kind):
        with pytest.raises(DeckError):
            Transcript.from_text(MALFORMED_LINES[kind] + "\n")

    @pytest.mark.parametrize("line", NON_CANONICAL_LINES)
    def test_non_canonical_line_is_rejected(self, line):
        with pytest.raises(DeckError):
            Transcript.from_text(line + "\n")

    def test_to_text_is_line_per_event(self):
        t = self.all_kinds_transcript()
        lines = t.to_text().splitlines()
        assert len(lines) == len(t)

    def test_patterns_group_consecutive_reveals(self):
        t = self.all_kinds_transcript()
        assert t.site_patterns == [
            ("room/A/cells",
             (cell_card("A", 2), cell_card("A", 1), cell_card("A", 3)))]

    def test_equality_is_event_based(self):
        assert self.all_kinds_transcript() == self.all_kinds_transcript()
        other = self.all_kinds_transcript()
        other.append(("turn-down",))
        assert other != self.all_kinds_transcript()
