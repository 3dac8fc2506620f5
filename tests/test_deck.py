"""Cards, matrices, the two shuffles, and transcript serialization."""

import ast
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

from makaro_zkp import (
    CardId,
    CardMatrix,
    DeckError,
    RandomSource,
    SiteFamily,
    Transcript,
    cell_card,
    encoding_card,
    help_card,
    make_prover,
    parse_card,
    parse_puzzle,
    pile_scramble_shuffle,
    pile_shifting_shuffle,
    reveal_row,
    run_full_protocol,
    simulate_transcript,
    solve_brute_force,
    turn_all_down,
)
import makaro_zkp
from makaro_zkp.deck import _EVENT_FIELDS, reveal
from makaro_zkp.protocol import _draw

from conftest import PUZZLES, find_in_row, load_grid, row_cards, site_patterns

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
    return CardMatrix.from_rows([[CardId(f"{prefix}{r}", c + 1) for c in range(cols)]
                                 for r in range(rows)])


def chi_square_uniform(counts: Counter, bins: int, trials: int) -> float:
    expected = trials / bins
    stat = sum((n - expected) ** 2 / expected for n in counts.values())
    stat += (bins - len(counts)) * expected
    return float(chi2.sf(stat, bins - 1))


class StubSource:
    """RandomSource stand-in whose offsets are scripted."""

    def __init__(self, shifts=()):
        self._shifts = list(shifts)

    def offset(self, n):
        return self._shifts.pop(0)


class ThreeMethodSource:
    """A stand-in source with nothing but RandomSource's three draw methods,
    each passed on to a real source."""

    __slots__ = ("_source",)

    def __init__(self, seed):
        self._source = RandomSource(seed)

    def permute(self, items):
        self._source.permute(items)

    def permute_hidden(self, items):
        self._source.permute_hidden(items)

    def offset(self, n):
        return self._source.offset(n)


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
        a = RandomSource("s")
        b = RandomSource("s")
        assert [a.shuffle_stream.randrange(100) for _ in range(5)] == \
               [b.shuffle_stream.randrange(100) for _ in range(5)]
        assert [a.prover_stream.randrange(100) for _ in range(5)] == \
               [b.prover_stream.randrange(100) for _ in range(5)]

    def test_streams_are_independent(self):
        src = RandomSource("s")
        assert [src.shuffle_stream.randrange(1000) for _ in range(8)] != \
               [src.prover_stream.randrange(1000) for _ in range(8)]

    @pytest.mark.parametrize("seed", ["s", 7, "7:3"])
    def test_streams_draw_as_seeded_from_their_strings(self, seed):
        src = RandomSource(seed)
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

    def test_draws_replay_the_standard_library(self):
        # every length from 0 to 70, one source per seed, so each draw
        # starts from the state the previous ones left
        lengths = range(71)
        for seed in range(100):
            src = RandomSource(seed)
            public, hidden = random.Random(f"{seed}/shuffle"), random.Random(f"{seed}/prover")
            for n in lengths:
                ours, theirs = list(range(n)), list(range(n))
                src.permute(ours)
                public.shuffle(theirs)
                assert ours == theirs, (seed, n)
                src.permute_hidden(ours)
                hidden.shuffle(theirs)
                assert ours == theirs, (seed, n)
                if n:
                    assert src.offset(n) == public.randrange(n), (seed, n)
                    assert ours[src.offset(n)] == public.choice(theirs), (seed, n)
                    # a one-card sample is the same single draw
                    assert public.sample(theirs, 1) == [ours[src.offset(n)]], (seed, n)
                    assert src.shuffle_stream.getstate() == public.getstate(), (seed, n)
            assert src.shuffle_stream.getstate() == public.getstate()
            assert src.prover_stream.getstate() == hidden.getstate()

    def test_an_empty_range_has_no_offset(self):
        with pytest.raises(ValueError):
            RandomSource("s").offset(0)

    def test_only_the_kernel_draws(self):
        # every draw in the library, live or simulated, goes through
        # RandomSource's three methods
        draws = {"shuffle", "randrange", "randint", "choice", "choices", "getrandbits",
                 "random", "sample", "uniform"}
        found, reads = set(), 0
        for path in sorted(Path(makaro_zkp.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            reads += sum(isinstance(node, ast.Attribute) and node.attr in draws
                         for node in ast.walk(tree))
            for func in ast.walk(tree):
                if isinstance(func, ast.FunctionDef):
                    found.update((path.name, func.name, node.attr) for node in ast.walk(func)
                                 if isinstance(node, ast.Attribute) and node.attr in draws)
        assert reads == 3
        assert found == {("deck.py", "permute", "getrandbits"),
                         ("deck.py", "permute_hidden", "getrandbits"),
                         ("deck.py", "offset", "getrandbits")}

    def test_simulated_draws_replay_sample(self):
        # a pick takes one card of n, which sample draws alike in its list
        # and (n > 21) set branches; an arrangement takes t cards of 2t-2,
        # which always stays in the list branch
        shapes = [("pick", n, 1) for n in range(1, 71)]
        shapes += [("arrangement", 2 * t - 2, t) for t in range(2, 37)]
        for seed in range(100):
            src, public = RandomSource(seed), random.Random(f"{seed}/shuffle")
            for kind, n, take in shapes:
                # supports start past the marker, as the protocol's do
                support = tuple(encoding_card("b", i) for i in range(2, n + 2))
                site = SiteFamily("probe", kind, support, take)
                assert _draw(src, site) == public.sample(support, take), (seed, kind, n)
                assert src.shuffle_stream.getstate() == public.getstate(), (seed, kind, n)

    @pytest.mark.parametrize("seed", [0, 1, "demo"])
    def test_a_one_marker_window_draws_nothing(self, seed):
        src = RandomSource(seed)
        simulate_transcript(parse_puzzle("makaro 1 2\nA B\n"), src)
        assert src.shuffle_stream.getstate() == random.Random(f"{seed}/shuffle").getstate()

    @pytest.mark.parametrize("name", sorted(p.stem for p in PUZZLES.glob("*.makaro")
                                            if not p.stem.endswith("_solution")))
    def test_three_methods_make_a_source(self, name):
        # a source needs nothing but permute, permute_hidden and offset
        grid = load_grid(f"{name}.makaro")
        solution = solve_brute_force(grid)[0]
        for seed in (0, 1, "demo"):
            texts = []
            for source in (RandomSource(seed), ThreeMethodSource(seed)):
                verdict, real = run_full_protocol(grid, make_prover(solution, source), source)
                assert verdict.accepted
                texts.append((real.to_text(), simulate_transcript(grid, source).to_text()))
            assert texts[0] == texts[1], seed


class TestCardMatrix:
    def test_place_and_lookup(self):
        card = cell_card("A", 1)
        m = CardMatrix.from_rows([[help_card(1), help_card(2), card], [help_card(3)] * 3])
        assert m.card_at(0, 2) == card
        assert not m.is_face_up(0, 2)

    def test_a_matrix_is_only_built_whole(self):
        assert not hasattr(CardMatrix, "place")
        assert not hasattr(CardMatrix, "place_row")
        assert not hasattr(CardMatrix, "is_full")
        with pytest.raises(TypeError):
            CardMatrix(2, 3)

    def test_permute_columns_moves_whole_columns(self):
        m = fresh_matrix(2, 3)
        m.permute_columns((2, 0, 1))   # new column j takes old column order[j]
        assert [c.index for c in row_cards(m, 0)] == [3, 1, 2]
        assert [c.index for c in row_cards(m, 1)] == [3, 1, 2]

    # too short, repeated, outside, and every column plus a repeat
    @pytest.mark.parametrize("order", [(), (0, 1), (0, 0, 1), (0, 1, 3), (-1, 0, 1), (0, 1, 2, 0)])
    def test_permute_columns_needs_a_permutation(self, order):
        m = fresh_matrix(2, 3)
        with pytest.raises(DeckError, match="bad column order"):
            m.permute_columns(order)
        assert row_cards(m, 1) == [CardId("x1", c) for c in (1, 2, 3)]

    def test_take_row_removes_it(self):
        m = fresh_matrix(3, 3)
        reveal(m, 1, 0)
        cards = m.take_row(1)
        assert [c.index for c in cards] == [1, 2, 3]
        assert m.rows == 2
        assert row_cards(m, 0) == [CardId("x0", c) for c in (1, 2, 3)]
        assert row_cards(m, 1) == [CardId("x2", c) for c in (1, 2, 3)]  # moved up
        assert not any(m.is_face_up(r, c) for r in range(2) for c in range(3))

    def test_from_rows_lays_out_every_row_face_down(self):
        top, bottom = [help_card(1), help_card(2)], [cell_card("A", 1), cell_card("A", 2)]
        m = CardMatrix.from_rows([top, bottom])
        assert (m.rows, m.cols) == (2, 2)
        assert [row_cards(m, 0), row_cards(m, 1)] == [top, bottom]
        assert not any(m.is_face_up(r, c) for r in range(2) for c in range(2))
        m.permute_columns((1, 0))
        assert row_cards(m, 1) == bottom[::-1]

    def test_permute_columns_reads_a_one_shot_order_once(self):
        m = fresh_matrix(2, 3)
        m.permute_columns(iter((1, 0, 2)))
        assert row_cards(m, 1) == [CardId("x1", c) for c in (2, 1, 3)]
        with pytest.raises(DeckError, match="bad column order"):
            m.permute_columns(iter((0, 0, 1)))
        with pytest.raises(DeckError, match="in a 2x3 matrix"):
            m.card_at(0, 3)

    def test_a_row_changed_after_the_layout_leaves_the_matrix_as_laid(self):
        top, bottom = [help_card(1), help_card(2)], [cell_card("A", 1), cell_card("A", 2)]
        rows = [top, bottom]
        m = CardMatrix.from_rows(rows)
        top[0] = cell_card("B", 9)
        bottom.append(help_card(3))
        rows.append([help_card(4), help_card(5)])
        assert (m.rows, m.cols) == (2, 2)
        assert [row_cards(m, 0), row_cards(m, 1)] == \
            [[help_card(1), help_card(2)], [cell_card("A", 1), cell_card("A", 2)]]

    # the fourth differs only in its last row; the last two hold as many
    # cards as their first row's length times their row count, so only a
    # check of every row rejects them
    @pytest.mark.parametrize("rows", [
        [], [[]], [[help_card(1)], [help_card(2), help_card(3)]],
        [[help_card(1)], [help_card(2)], [help_card(3), help_card(4)]],
        [[help_card(1)], [help_card(2), help_card(3)], []],
        [[help_card(1), help_card(2)], [help_card(3), help_card(4), help_card(5)],
         [help_card(6)]]])
    def test_from_rows_needs_equal_non_empty_rows(self, rows):
        with pytest.raises(DeckError):
            CardMatrix.from_rows(rows)

    def test_slots_outside_the_matrix_are_rejected(self):
        # a negative index would otherwise wrap to the far end
        m = fresh_matrix(2, 3)
        for row, col in ((-1, 0), (0, -1), (2, 0), (0, 3)):
            with pytest.raises(DeckError, match="in a 2x3 matrix"):
                m.card_at(row, col)
            with pytest.raises(DeckError, match="in a 2x3 matrix"):
                m.is_face_up(row, col)

    def test_take_row_needs_a_full_row(self):
        # a matrix is full, so the only row without cards is one outside
        # it; a negative row would otherwise count from the bottom
        m = fresh_matrix(2, 2)
        for row in (-1, 2, 5):
            with pytest.raises(DeckError):
                m.take_row(row)
        assert m.rows == 2
        assert [row_cards(m, 0), row_cards(m, 1)] == \
            [[CardId(f"x{r}", c) for c in (1, 2)] for r in range(2)]


class TestReveal:
    def test_reveal_shows_the_card_it_turns(self):
        m = CardMatrix.from_rows([[help_card(1), help_card(2)] * 2,
                                  [help_card(4), help_card(5), help_card(3), cell_card("A", 1)]])
        assert reveal(m, 1, 2) == help_card(3)
        assert [m.is_face_up(r, c) for r in range(2) for c in range(4)] == \
            [False] * 6 + [True, False]

    def test_double_reveal_rejected(self):
        m = fresh_matrix(1, 1)
        reveal(m, 0, 0)
        with pytest.raises(DeckError):
            reveal(m, 0, 0)

    def test_reveal_empty_slot_rejected(self):
        # a matrix is full, so the only slots without a card lie outside it;
        # a negative index would otherwise wrap to the far end
        m = fresh_matrix(1, 2)
        for row, col in ((-1, 0), (0, -1), (0, 5), (1, 0)):
            with pytest.raises(DeckError):
                reveal(m, row, col)
        assert not any(m.is_face_up(0, c) for c in range(2))

    def test_reveal_row_turns_the_given_columns_in_order(self):
        m = fresh_matrix(2, 3)
        assert reveal_row(m, 1, (2, 0)) == (CardId("x1", 3), CardId("x1", 1))
        assert [m.is_face_up(r, c) for r in range(2) for c in range(3)] == \
            [False] * 3 + [True, False, True]

    def test_reveal_row_rejects_an_empty_slot_and_turns_nothing(self):
        m = fresh_matrix(1, 2)
        for cols in ((0, 2), (0, -1), (5,)):
            with pytest.raises(DeckError, match="outside a 1x2 matrix"):
                reveal_row(m, 0, cols)
        assert not any(m.is_face_up(0, c) for c in range(2))

    def test_reveal_row_rejects_a_card_already_face_up(self):
        m = fresh_matrix(1, 3)
        reveal(m, 0, 1)
        with pytest.raises(DeckError, match=r"card at \(0,1\) is already face up"):
            reveal_row(m, 0, (0, 1, 2))
        assert [m.is_face_up(0, c) for c in range(3)] == [False, True, False]

    def test_reveal_row_reads_one_shot_columns_once(self):
        m = fresh_matrix(1, 3)
        assert reveal_row(m, 0, iter((0, 2))) == (CardId("x0", 1), CardId("x0", 3))
        assert [m.is_face_up(0, c) for c in range(3)] == [True, False, True]
        with pytest.raises(DeckError, match="outside a 1x3 matrix"):
            reveal_row(m, 0, iter((1, 3)))
        assert [m.is_face_up(0, c) for c in range(3)] == [True, False, True]

    def test_a_repeated_card_turns_one_slot_at_a_time(self):
        # face-up state belongs to the slot, so turning one copy of a card
        # leaves the other copies face down
        m = CardMatrix.from_rows([[help_card(1), help_card(2), help_card(4)], [help_card(3)] * 3])
        assert reveal(m, 1, 0) == help_card(3)
        assert [m.is_face_up(1, c) for c in range(3)] == [True, False, False]
        assert reveal(m, 1, 1) == help_card(3)
        assert [m.is_face_up(1, c) for c in range(3)] == [True, True, False]

    def test_reveal_row_rejects_a_repeated_column(self):
        m = fresh_matrix(1, 2)
        with pytest.raises(DeckError, match=r"card at \(0,1\) is already face up"):
            reveal_row(m, 0, (1, 1))
        assert not any(m.is_face_up(0, c) for c in range(2))

    def test_reveal_is_the_one_column_row_reveal(self):
        one, row = fresh_matrix(2, 3), fresh_matrix(2, 3)
        assert reveal(one, 1, 2) == reveal_row(row, 1, (2,))[0] == CardId("x1", 3)
        for r in range(2):
            assert row_cards(one, r) == row_cards(row, r)
            assert [one.is_face_up(r, c) for c in range(3)] == \
                [row.is_face_up(r, c) for c in range(3)]

    def test_turn_all_down_on_empty_matrix(self):
        m = fresh_matrix(1, 2)
        m.take_row(0)
        turn_all_down(m)
        assert m.rows == 0

    def test_turn_all_down(self):
        m = fresh_matrix(2, 2)
        reveal(m, 0, 0)
        reveal(m, 1, 1)
        turn_all_down(m)
        assert not any(m.is_face_up(r, c) for r in range(2) for c in range(2))
        assert m.card_at(0, 0) == CardId("x0", 1)


class ColumnModel:
    """A naive card matrix: a list of columns, each its slots top to bottom,
    a slot being [card, face up].  Each move is written out from its
    definition, to check CardMatrix against."""

    def __init__(self, rows):
        self.rows = len(rows)
        self.columns = [[[card, False] for card in column] for column in zip(*rows)]

    def scramble(self, twin):
        twin.shuffle_stream.shuffle(self.columns)

    def shift(self, twin):
        n = len(self.columns)
        s = twin.shuffle_stream.randrange(n)
        self.columns = [self.columns[(j - s) % n] for j in range(n)]

    def permute_columns(self, order):
        if sorted(order) != list(range(len(self.columns))):
            raise DeckError(f"bad column order {tuple(order)!r}")
        self.columns = [self.columns[src] for src in order]

    def reveal_row(self, row, cols):
        if not (0 <= row < self.rows and all(0 <= c < len(self.columns) for c in cols)):
            raise DeckError(f"row {row}, columns {tuple(cols)} reach outside a "
                            f"{self.rows}x{len(self.columns)} matrix")
        slots = [self.columns[c][row] for c in cols]
        for i, (col, slot) in enumerate(zip(cols, slots)):
            if slot[1] or col in cols[:i]:
                raise DeckError(f"card at ({row},{col}) is already face up")
        for slot in slots:
            slot[1] = True
        return tuple(card for card, _ in slots)

    def take_row(self, row):
        if not 0 <= row < self.rows:
            raise DeckError(f"no row {row} in a matrix of {self.rows}")
        cards = [column.pop(row)[0] for column in self.columns]
        self.rows -= 1
        return cards

    def turn_all_down(self):
        for column in self.columns:
            for slot in column:
                slot[1] = False


# reveals weigh double: most other moves only matter through what they show
MOVES = ("scramble", "shift", "turn_all_down", "permute", "reveal", "reveal", "take")


class TestCardMatrixAgainstTheColumnModel:
    """Random move sequences on a matrix and on the column model from one
    seed: after every move both hold the same card face up or down in every
    slot, and each move returns, draws and raises the same.  Half
    the boards draw their cards from a pool of three, so they repeat cards."""

    @staticmethod
    def outcome(move, *args):
        try:
            return "ok", move(*args)
        except DeckError as exc:
            return "error", str(exc)

    @staticmethod
    def row(rows):
        outside = st.sampled_from((-1, rows))
        return st.one_of(st.integers(0, rows - 1), outside) if rows else outside

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 2**32), st.data())
    def test_moves_match_the_model(self, rows, cols, seed, data):
        if data.draw(st.booleans()):
            laid = [[CardId(f"r{r}", c + 1) for c in range(cols)] for r in range(rows)]
        else:
            laid = data.draw(st.lists(st.lists(st.sampled_from([help_card(i) for i in (1, 2, 3)]),
                                               min_size=cols, max_size=cols),
                                      min_size=rows, max_size=rows))
        m, model = CardMatrix.from_rows(laid), ColumnModel(laid)
        src, twin = RandomSource(seed), RandomSource(seed)
        # rows and columns are mostly inside the matrix, else one past either
        # end; a reveal names distinct columns inside, or any, repeats included
        column, slot = st.integers(0, cols - 1), st.integers(-1, cols)
        reveals = st.one_of(st.lists(column, max_size=cols, unique=True), st.lists(slot, max_size=3))
        orders = st.one_of(st.permutations(range(cols)), st.lists(slot, max_size=cols + 1))
        for kind in data.draw(st.lists(st.sampled_from(MOVES), min_size=10, max_size=30)):
            if kind == "scramble":
                assert pile_scramble_shuffle(m, src) is m
                model.scramble(twin)
            elif kind == "shift":
                assert pile_shifting_shuffle(m, src) is m
                model.shift(twin)
            elif kind == "turn_all_down":
                assert turn_all_down(m) is m
                model.turn_all_down()
            elif kind == "permute":
                order = data.draw(orders)
                assert self.outcome(m.permute_columns, order) == \
                    self.outcome(model.permute_columns, order)
            elif kind == "reveal":
                row, columns = data.draw(self.row(model.rows)), data.draw(reveals)
                assert self.outcome(reveal_row, m, row, tuple(columns)) == \
                    self.outcome(model.reveal_row, row, columns)
            else:
                row = data.draw(self.row(model.rows))
                assert self.outcome(m.take_row, row) == self.outcome(model.take_row, row)
            assert src.shuffle_stream.getstate() == twin.shuffle_stream.getstate()
            assert (m.rows, m.cols) == (model.rows, len(model.columns))
            for r in range(model.rows):
                for c, column in enumerate(model.columns):
                    assert [m.card_at(r, c), m.is_face_up(r, c)] == column[r]
            for r, c in ((-1, 0), (0, -1), (model.rows, 0), (0, cols)):
                with pytest.raises(DeckError):
                    m.card_at(r, c)
            if not model.rows:
                break   # every later reveal and take would miss


class TestShifting:
    def test_single_column_is_identity(self):
        m = fresh_matrix(2, 1)
        pile_shifting_shuffle(m, RandomSource("x"))
        assert m.card_at(0, 0) == CardId("x0", 1)

    def test_shift_of_one_rotates_right(self):
        m = fresh_matrix(1, 3)
        pile_shifting_shuffle(m, StubSource(shifts=[1]))
        assert [c.index for c in row_cards(m, 0)] == [3, 1, 2]

    def test_rows_ride_together_and_cards_conserved(self):
        src = RandomSource("conserve")
        m = fresh_matrix(3, 5)
        before = {tuple(m.card_at(r, c) for r in range(3)) for c in range(5)}
        for _ in range(20):
            pile_shifting_shuffle(m, src)
            after = {tuple(m.card_at(r, c) for r in range(3)) for c in range(5)}
            assert after == before   # columns stay intact as units

    def test_shift_values_uniform(self):
        # 5 columns, 30,000 trials: each shift lands within 1/5 +/- 2%
        trials = 30_000
        src = RandomSource("shift-uniformity")
        counts = Counter()
        for _ in range(trials):
            m = fresh_matrix(1, 5)
            pile_shifting_shuffle(m, src)
            counts[find_in_row(m, 0, CardId("x0", 1))] += 1
        assert set(counts) <= set(range(5))
        for col in range(5):
            assert abs(counts[col] / trials - 0.2) <= 0.02
        assert chi_square_uniform(counts, 5, trials) >= 0.01


class TestShufflesReplayTheColumnOrderPath:
    """Both shuffles reorder a matrix's column order in place, not through
    permute_columns; they leave the columns and the stream state that drawing
    an index list and passing it to permute_columns leaves on a twin source."""

    @staticmethod
    def columns(m):
        return [tuple(m.card_at(r, c) for r in range(m.rows)) for c in range(m.cols)]

    @pytest.mark.parametrize("cols", range(1, 10))
    def test_scramble(self, cols):
        for seed in range(20):
            src, twin = RandomSource(seed), RandomSource(seed)
            m, old = fresh_matrix(2, cols), fresh_matrix(2, cols)
            for _ in range(5):
                pile_scramble_shuffle(m, src)
                order = list(range(cols))
                twin.shuffle_stream.shuffle(order)
                old.permute_columns(order)
                assert self.columns(m) == self.columns(old)
            assert src.shuffle_stream.getstate() == twin.shuffle_stream.getstate()

    @pytest.mark.parametrize("cols", range(1, 10))
    def test_shift(self, cols):
        for seed in range(20):
            src, twin = RandomSource(seed), RandomSource(seed)
            m, old = fresh_matrix(2, cols), fresh_matrix(2, cols)
            for _ in range(5):
                pile_shifting_shuffle(m, src)
                s = twin.shuffle_stream.randrange(cols)
                old.permute_columns([(j - s) % cols for j in range(cols)])
                assert self.columns(m) == self.columns(old)
            assert src.shuffle_stream.getstate() == twin.shuffle_stream.getstate()


class TestScramble:
    def test_single_column_is_identity(self):
        m = fresh_matrix(2, 1)
        pile_scramble_shuffle(m, RandomSource("x"))
        assert m.card_at(0, 0) == CardId("x0", 1)

    def test_two_columns_swap_half_the_time(self):
        trials = 30_000
        src = RandomSource("swap-frequency")
        swaps = 0
        for _ in range(trials):
            m = fresh_matrix(1, 2)
            pile_scramble_shuffle(m, src)
            if m.card_at(0, 0) == CardId("x0", 2):
                swaps += 1
        assert abs(swaps / trials - 0.5) <= 0.02

    def test_three_columns_all_orders_equally_likely(self):
        trials = 60_000
        src = RandomSource("perm-frequency")
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
        src = RandomSource("scramble-marginals")
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
        return Transcript([
            ("place", (0, 1), cell_card("A", 3)),
            ("place-hidden", (2, 2)),
            ("begin", "room", "A"),
            ("collect", "room:A", 0, 3),
            ("helps", 1, 3),
            ("marker", encoding_card("a", 1), 2, 1),
            ("hidden-fill", 2, 2),
            ("shuffle", "scramble"),
            ("site", "room/A/cells"),
            ("reveal", (0, 0), cell_card("A", 2)),
            ("reveal", (0, 1), cell_card("A", 1)),
            ("reveal", (0, 2), cell_card("A", 3)),
            ("rearrange", (1, 0, 2)),
            ("extract", 2, 3),
            ("tail", 2),
            ("turn-down",),
            ("shuffle", "shift"),
            ("restore", "room:A", 3),
            ("end", "room", "A", True),
            ("end", "neighbor", "neighbor/0.0-0.1", False),
        ])

    def test_text_roundtrip_covers_every_event_kind(self):
        t = self.all_kinds_transcript()
        back = Transcript.from_text(t.to_text())
        assert back == t

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

    @pytest.mark.parametrize("other", [None, "help#2"])
    def test_a_revealed_object_that_is_not_a_card_is_not_written(self, other):
        # from_rows lays out whatever it is given, so the reveal shows it and
        # a transcript records it; the writer is what refuses it
        m = CardMatrix.from_rows([[other, help_card(1)]])
        t = Transcript([("reveal", (0, 0), reveal(m, 0, 0))])
        with pytest.raises(DeckError, match="as a card"):
            t.to_text()

    @pytest.mark.parametrize("card", [
        ("help", 1), CardId("help", "1"), CardId(1, 1), CardId("help", -1),
        CardId("help", True), CardId("help", 1.0), CardId("a b", 1), CardId("a\x1cb", 1),
    ])
    @pytest.mark.parametrize("kind", ["place", "marker", "reveal"])
    def test_a_card_that_would_not_read_back_is_not_written(self, card, kind):
        event = {"place": ("place", (0, 0), card), "marker": ("marker", card, 0, 0),
                 "reveal": ("reveal", (0, 0), card)}[kind]
        t = Transcript([event])
        with pytest.raises(DeckError, match="as a card"):
            t.to_text()

    @pytest.mark.parametrize("event, kind", [
        (("site", "room/A cells"), "text"),
        (("site", "room/A\nend kind=room key=A result=pass"), "text"),
        (("begin", "room", "A\tB"), "text"),
        (("shuffle", None), "text"),
        (("helps", -1, 3), "int"),
        (("tail", True), "int"),
        (("extract", 2, 1.0), "int"),
        (("place-hidden", [0, 1]), "pos"),
        (("reveal", (0, -1), help_card(1)), "pos"),
        (("rearrange", [1, 0, 2]), "order"),
        (("rearrange", ()), "order"),
        (("end", "room", "A", None), "result"),
    ])
    def test_a_field_that_would_not_read_back_is_not_written(self, event, kind):
        t = Transcript([event])
        with pytest.raises(DeckError, match=f"as a {kind}$"):
            t.to_text()

    @pytest.mark.parametrize("event", [
        (), 5, None, "turn-down", ["turn-down"], (["turn-down"],), ("nonsense",),
        ("turn-down", 1), ("tail",),
    ], ids=["empty", "int", "none", "str", "list", "list-kind", "unknown-kind",
            "extra-field", "missing-field"])
    def test_an_object_that_is_not_an_event_is_not_written(self, event):
        # a list would read back as a tuple, so it is not written either
        t = Transcript([event])
        with pytest.raises(DeckError, match="unknown event"):
            t.to_text()

    @pytest.mark.parametrize("card", [CardId("a#b", 0), CardId("", 1), CardId("x=y", 12)])
    def test_unusual_but_readable_cards_round_trip(self, card):
        t = Transcript([("reveal", (0, 0), card)])
        assert Transcript.from_text(t.to_text()).events == [("reveal", (0, 0), card)]

    def test_to_text_is_line_per_event(self):
        t = self.all_kinds_transcript()
        lines = t.to_text().splitlines()
        assert len(lines) == len(t)

    def test_patterns_group_consecutive_reveals(self):
        # the tests' grouping oracle, on the events alone
        t = self.all_kinds_transcript()
        assert site_patterns(t.events) == [
            ("room/A/cells",
             (cell_card("A", 2), cell_card("A", 1), cell_card("A", 3)))]

    def test_a_transcript_is_only_its_events(self):
        assert Transcript.__slots__ == ("events",)
        t = Transcript.from_text(self.all_kinds_transcript().to_text())
        assert not hasattr(t, "site_patterns")

    def test_equality_is_event_based(self):
        assert self.all_kinds_transcript() == self.all_kinds_transcript()
        other = self.all_kinds_transcript()
        other.events.append(("turn-down",))
        assert other != self.all_kinds_transcript()

    def test_a_transcript_holds_its_own_list_of_its_events(self):
        events = [("turn-down",)]
        for given in (events, (ev for ev in events)):
            t = Transcript(given)
            events.append(("tail", 2))
            assert t.events == [("turn-down",)]
            t.events.append(("tail", 3))
            assert events == [("turn-down",), ("tail", 2)]
            del events[1:]
        assert Transcript() == Transcript([]) == Transcript.from_text("\n \n")
        assert Transcript().events == [] and len(Transcript.from_text("\n \n")) == 0
