"""Property test: the text parsers end in their own typed errors on any
input, built from the formats' tokens mixed with arbitrary Unicode."""

from hypothesis import given, settings, strategies as st

from makaro_zkp import DeckError, PuzzleError, Transcript, parse_puzzle

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
