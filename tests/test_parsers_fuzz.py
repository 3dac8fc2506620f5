"""Property tests: the text parsers end in their own typed errors on any
input, built from the formats' tokens mixed with arbitrary Unicode, what they
accept writes back as the same text spaced canonically, and the command line
ends in an exit code on any small puzzle and solution."""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from makaro_zkp import DeckError, PuzzleError, Transcript, parse_puzzle, serialize_puzzle
from makaro_zkp.cli import main
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


# Puzzle texts of a real layout, one room or two, whose numbers are mostly
# the writer's numerals and sometimes other digit strings, spaced by runs of
# whitespace and followed by blank lines.
NUMERAL = st.sampled_from(["1", "1", "2", "2", "3", "01", "\u0661", "\uff12"])


@st.composite
def spaced_puzzles(draw):
    def line(tokens):
        seps = [draw(whitespace(0, 1)), *(draw(whitespace(1, 2)) for _ in tokens[1:])]
        return "".join(sep + token for sep, token in zip(seps, tokens)) + draw(whitespace(0, 1))

    height, width = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    header = ["makaro", draw(st.sampled_from([str(height)] * 3 + ["0" + str(height)])),
              draw(st.sampled_from([str(width)] * 3 + ["\uff10" + str(width)]))]
    # room A left of room B in every row keeps both rooms connected
    rows = []
    for _ in range(height):
        split = draw(st.integers(0, width))
        cells = ["A"] * split + ["B"] * (width - split)
        cells = [draw(st.sampled_from([room, room, room, f"{room}={draw(NUMERAL)}", "B>"]))
                 for room in cells]
        rows.append(line(cells))
    blanks = draw(st.lists(whitespace(0, 2), max_size=2))
    return "\n".join([line(header), *rows, *blanks])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(spaced_puzzles())
def test_accepted_puzzles_write_back_canonically(text):
    try:
        grid = parse_puzzle(text)
    except PuzzleError:
        return
    lines = text.split("\n")[:grid.height + 1]
    assert serialize_puzzle(grid) == "".join(" ".join(line.split()) + "\n" for line in lines)


# Small puzzles and fillings of them, many of them valid: at most 2x3 cells,
# so that `solve` stays fast whatever the rooms.  A cell is an arrow token, a
# bad token or (room, clue or None); repeated choices weight the draw.
SMALL_CELL = st.sampled_from(["B^", "Bv", "B<", "B>", "#", ("A", 1), ("A", 2), ("B", 1),
                              ("A", 0), *[("A", None)] * 6, *[("B", None)] * 5])
VALUE = st.sampled_from([1, 1, 1, 2, 2, 3, 0])


@st.composite
def puzzle_and_solution(draw):
    height, width = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    cells = [draw(st.lists(SMALL_CELL, min_size=width, max_size=width)) for _ in range(height)]

    def text(white):
        rows = [" ".join(cell if isinstance(cell, str) else white(*cell) for cell in row)
                for row in cells]
        return "\n".join([f"makaro {height} {width}", *rows]) + "\n"

    puzzle = text(lambda room, clue: room if clue is None else f"{room}={clue}")
    filling = text(lambda room, clue: f"{room}={draw(VALUE)}")
    return puzzle, draw(st.one_of(st.just(filling), st.just(filling), st.just(puzzle),
                                  st.text(max_size=12)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(puzzle_and_solution())
def test_cli_ends_in_an_exit_code(tmp_path, texts):
    puzzle, solution = tmp_path / "puzzle.makaro", tmp_path / "solution.makaro"
    for path, text in zip((puzzle, solution), texts):
        path.write_text(text, encoding="utf-8")
    for command in (["stats"], ["solve"], ["check", "--solution", str(solution)],
                    ["prove", "--trials", "1", "--solution", str(solution)]):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main([command[0], "--puzzle", str(puzzle), *command[1:]])
        assert code in (0, 1, 2), command
