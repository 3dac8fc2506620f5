"""Property test: the text parsers end in their own typed errors on any
input, built from the formats' tokens mixed with arbitrary Unicode."""

from hypothesis import assume, given, settings, strategies as st

from makaro_zkp import DeckError, PuzzleError, Transcript, parse_puzzle
from makaro_zkp.deck import _EVENT_FIELDS

# numerals, and digit characters that are not decimal numerals (such as "²")
NUMBER = st.one_of(st.integers(0, 4).map(str),
                   st.text(st.characters(categories=["Nd", "No"]), min_size=1, max_size=2))
CELL = st.one_of(st.sampled_from(["A", "B", "c1", "B^", "Bv", "B<", "B>"]),
                 st.builds("{}={}".format, st.sampled_from(["A", "B", "c1"]), NUMBER),
                 st.text(max_size=3))
PUZZLE = st.one_of(
    st.builds(lambda h, w, rows: "\n".join([f"makaro {h} {w}", *map(" ".join, rows)]),
              NUMBER, NUMBER, st.lists(st.lists(CELL, max_size=4), max_size=4)),
    st.text(),
)
FIELD = st.builds("{}={}".format,
                  st.sampled_from(["pos", "card", "row", "count", "perm", "result", "key"]),
                  st.one_of(NUMBER, st.sampled_from(["1,2", "help#1", "help#²", "pass"]),
                            st.text(max_size=4)))
LINE = st.one_of(
    st.builds(lambda kind, fields: " ".join([kind, *fields]),
              st.sampled_from(["place", "reveal", "collect", "rearrange", "tail", "end"]),
              st.lists(FIELD, max_size=3)),
    st.text(),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(PUZZLE, st.lists(LINE, max_size=4))
def test_parsers_raise_only_their_own_errors(puzzle_text, transcript_lines):
    try:
        parse_puzzle(puzzle_text)
    except PuzzleError:
        pass
    try:
        Transcript.from_text("\n".join(transcript_lines))
    except DeckError:
        pass


# Lines of a real event kind with its fields in order, whose values mix the
# writer's canonical integers with forms int() would also read, split by runs
# of whitespace.
INTEGER = st.one_of(st.integers(0, 30).map(str),
                    st.text("0123456789_+-\u0661²", min_size=1, max_size=3))
VALUES = {
    "pos": st.builds("{},{}".format, INTEGER, INTEGER),
    "card": st.builds("{}#{}".format, st.sampled_from(["help", "room:A", "enc:a", ""]), INTEGER),
    "perm": st.lists(INTEGER, min_size=1, max_size=3).map(",".join),
    "result": st.sampled_from(["pass", "fail", "maybe"]),
    "row": INTEGER, "count": INTEGER, "col": INTEGER,
}
TEXT = st.text("ab:/#=.-0", max_size=6)


def whitespace(min_size, max_size):
    return st.lists(st.sampled_from(" \t\u00a0\u3000"), min_size=min_size,
                    max_size=max_size).map("".join)


@st.composite
def event_lines(draw):
    kind = draw(st.sampled_from(sorted(_EVENT_FIELDS)))
    fields = [f"{name}={draw(VALUES.get(name, TEXT))}" for name, _ in _EVENT_FIELDS[kind]]
    # the kind ends at the first plain space
    seps = [" " + draw(whitespace(0, 1))] + [draw(whitespace(1, 2)) for _ in fields[1:]]
    return kind + "".join(sep + field for sep, field in zip(seps, fields)) + draw(whitespace(0, 2))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(event_lines(), LINE))
def test_accepted_lines_write_back_canonically(line):
    # a single non-blank line: from_text splits on line boundaries, skips blanks
    assume(line.strip() and len(line.splitlines()) == 1)
    try:
        transcript = Transcript.from_text(line)
    except DeckError:
        return
    assert transcript.to_text() == " ".join(line.split()) + "\n"
