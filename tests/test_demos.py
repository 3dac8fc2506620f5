"""The demos' output, pinned: each demo runs in-process and its stdout must
hash to the recorded value, so a change that alters what a demo prints (a
seeded draw, a format, a figure) shows up here."""

import hashlib
import runpy

import pytest

from conftest import PUZZLES

DEMOS = PUZZLES.parent / "demos"

# sha256 of each demo's stdout
DEMO_SHA256 = {
    "01_puzzle_basics.py": "5029d6c006b8eb960d3674015d4f7f976df6ad445231ed5b6c706014d9e9c9d5",
    "02_deck_and_shuffles.py": "e93108be67c8cbcb7ee2adff40292060ba1b1a8c1ac17b0f64818149817fca03",
    "03_protocol_walkthrough.py": "5347b8c07d35ce6492ba5e6b401baecb1b5d2c8f6c8725445f7ff426f8d64150",
    "04_zero_knowledge.py": "2095b8d7da249d5dff8ec39d5826196ae363369c5f4421ae01e2a769b340dc33",
}


def test_every_demo_is_pinned():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_output_is_unchanged(capsys, name):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DEMO_SHA256[name]
