"""Golden transcripts: the sha256 of seeded real and simulated transcript
text, and of each reveal-site plan, pinned for every bundled puzzle, plus
the JSON report of one seeded `zk-test` run, which pins every p-value,
and the output and exit code of the other commands on the bundled puzzles.
The compiled check plan of every bundled puzzle and corpus grid is pinned
too, so a refactor of the compiler shows that it compiles the same plan.
Rejected runs are pinned too: one at setup, one by a neighbor check, one by
an arrow check, and a room check that finds a card of another room, and so
are the transcripts `prove --transcript-out` saves.

A change to the check schedule, the event text format or the order in which
random draws are taken changes a hash here.  The pins were recorded once and
must never be re-recorded to make a change pass: seeded output is part of
the command-line contract.
"""

import hashlib
import json
from itertools import chain

import pytest

from makaro_zkp import (
    CardId,
    FailedCheck,
    RandomSource,
    Transcript,
    all_value_assignments,
    make_prover,
    parse_puzzle,
    read_view,
    reveal_site_plan,
    run_full_protocol,
    setup_placement,
    simulate_transcript,
    simulate_view,
    solve_brute_force,
)

from makaro_zkp import protocol
from makaro_zkp.protocol import verify_room
from makaro_zkp.cli import main

from conftest import PUZZLES, load_grid, load_solution

SEEDS = (0, 1, "demo")

# puzzle -> seed -> (real transcript, simulated transcript), trial 0
TRANSCRIPTS = {
    "cross": {
        0: ("2f61d1a5d9a5123989abfb02b0c686c91e4218413a29509bc0e0c0592f01471f",
            "4b79ac9c234fb483865b1a541aad2f824380bba7203f91f1b83083620825fbd5"),
        1: ("56144480d4e55b840217d6e441678ce1b640c635f25d6336dfcff7ed923548d7",
            "fb5639e04ccf1c79ce4505010f3240b8af77b0ce31ec441798e2c430b0240294"),
        "demo": ("ce08ab3c69887c2ce5fa915c0c8733f154796462a7fd22d3e76daff889c170d2",
                 "e6330812381243e5bcbdfca62952b194d71585892fa2b3d057492b425edaf849"),
    },
    "example5x5": {
        0: ("b55f1f21ceb1b7a987f31e9bfcfc68429bc7f696de41b95b046f391c3c8cd7d2",
            "507b92d15366e20ea55ea1adb71ccf9826bbde95ee821d7c1b16446a58963756"),
        1: ("ceddcfd9b46f0efd8f57329737d6a3d12037853c063aa0ed03918c90daf3b23d",
            "1d9187405eb15a4cea66a508c15f9392e2b099388572379f536200f270f9c985"),
        "demo": ("8a6487a319c43d1c6adb64a8df8e57c7f6a7bd3b0ef5c361ea822037d9f825d9",
                 "14ca2567cf352ad3ce7ed0dad5a1c2916dd5b276dceedb204ebae1618df3e3a8"),
    },
    "line3": {
        0: ("64cff7257c91b60ddc1952adac9a6bd95b0eb80986774c8757304f923e16f1a1",
            "8bb486275a71b48901e73e131155a50b91a36f3dbfe8269e300e107f6a269241"),
        1: ("b54b8dfd5fd8130147c61ac4bbb8de01e7098a3a8f97f4488274ada1f52c5229",
            "7083082ee7d97dd49ecd21e98d5ca9e59ec4c01b6c5571522204daa64de2566d"),
        "demo": ("323a6fdb0219fdc2c8fa0dcaaaa3643915cdd71a54f61f954663709f6009835d",
                 "847b619adc287affa35623654bb787bcd3102b6179b355aa9c2621fc0faa10a7"),
    },
    "pair": {
        0: ("b4cf675d10b3af1b5080778d12a0d92696342fda1f954b94a513a5e09e60a133",
            "b4cf675d10b3af1b5080778d12a0d92696342fda1f954b94a513a5e09e60a133"),
        1: ("04417df604e2c2203bfdbc958322cb902f7507229c3d0478e29d3a69f42bae31",
            "04417df604e2c2203bfdbc958322cb902f7507229c3d0478e29d3a69f42bae31"),
        "demo": ("7290092e0640711745c092b8e8cec1a6757f264d9a4f3f330b0897a9a8781065",
                 "7290092e0640711745c092b8e8cec1a6757f264d9a4f3f330b0897a9a8781065"),
    },
    "quad": {
        0: ("8b1fbd47b5754e5578b12314c13846c81eb052a0622ca93f7a81be2986b8c4c6",
            "936c217878fd86eb7b5c1d019027f92c09f881f03d2542efc8d0d45b1a605e73"),
        1: ("f735b312c0d8be794aa0d204294ff6ab0ffb562e4e62e301e3eeb210e181d8bf",
            "3fc121c7713df2064844aa6219393a843d40e3793bfbe8306f8b6863206354de"),
        "demo": ("0b8f83c48b44c241f8f1a932dae81d652f5950086ade9bdc9706acf966f357fb",
                 "325e848bff1e208d9244289c9fd7784f58355f9d495902140453cde2ed892c23"),
    },
    "single": {
        0: ("b5ce3c869b7530dcb0f3aa4557dbaa744899c64cdf6aaccdc65a509f5a7f1655",
            "b5ce3c869b7530dcb0f3aa4557dbaa744899c64cdf6aaccdc65a509f5a7f1655"),
        1: ("b5ce3c869b7530dcb0f3aa4557dbaa744899c64cdf6aaccdc65a509f5a7f1655",
            "b5ce3c869b7530dcb0f3aa4557dbaa744899c64cdf6aaccdc65a509f5a7f1655"),
        "demo": ("b5ce3c869b7530dcb0f3aa4557dbaa744899c64cdf6aaccdc65a509f5a7f1655",
                 "b5ce3c869b7530dcb0f3aa4557dbaa744899c64cdf6aaccdc65a509f5a7f1655"),
    },
    "square4": {
        0: ("c3d2b897bd52f09120303c0c3a5797dcad15818070783cc29770097cb8a623c0",
            "c3d2b897bd52f09120303c0c3a5797dcad15818070783cc29770097cb8a623c0"),
        1: ("dfb0f0b3a60529f55bbe55ee287febb5ef2065b85682deb2b15edf9dfa46eaca",
            "dfb0f0b3a60529f55bbe55ee287febb5ef2065b85682deb2b15edf9dfa46eaca"),
        "demo": ("5be50beaf285192b175a4ece1bc1b289fbe503e338b9f1b89c124169b559caf8",
                 "5be50beaf285192b175a4ece1bc1b289fbe503e338b9f1b89c124169b559caf8"),
    },
}

# repr(reveal_site_plan(grid)) per puzzle
PLANS = {
    "cross": "79657c6f8ea6b04f0d69f5dd7226391e22fe2c57646e3465ce8d7d2074c9b7b5",
    "example5x5": "93ab21821dae83ac93421aa87282c84e68a6cdfb5005f35aae9243d19e9bd1e8",
    "line3": "9541faf1b3f33486d053c96b08778051fcf6da7a04e277a5a4a877bd6901811a",
    "pair": "d6008c812e429cd801a5ef7bbf5f3a560b62074a6e421ed7ce6ce301b9074cad",
    "quad": "2bdac8fa63eec3fa9cb985e7858b393d795087a0b507db0bdd4777047cc946be",
    "single": "eaeb3819d12838dffa9dbfd719220aa82d6df2f9af8772ff011a1583ef5c5990",
    "square4": "d7243f5f3f1a8a803fab201a877de170825099f5d918eddf7296ea924e757d6d",
}

# Unsatisfiable grids whose reveals are forced, so the simulation does not
# depend on the seed: two adjacent one-cell rooms (the neighbor probe can
# only show the other marker) and an arrow between one-cell rooms (its rival
# row is a one-card window).  text -> (simulated transcript, site plan)
FORCED = {
    "makaro 1 2\nA B\n": (
        "ddf561c1cc1427227b229048f12f4deda0e59f6dbbe25ad5fe20d3b263449d88",
        "e796367a8aa63afb39abff276f3d34c76293706d2013884b4364cf3546dee613"),
    "makaro 1 3\nA B< C\n": (
        "802cc63e1222b3633be4ecdd18de0ad1947c962d68e66b5cbcfac4fab4b6435d",
        "4ccc5b31ce0876c1843bde8d26c396e07c1ffe81c3ff1da1aea00425844b1482"),
}

# Rejected runs on `cross`: filling number (in all_value_assignments order)
# -> (failing check, seed -> real transcript, trial 0)
REJECTED = {
    0: (FailedCheck("room", "A", at_setup=True), {
        0: "857de7e9d99c48ed6bae93348291286cf43e5c9ac095138d7d1433dc8d3ad697",
        1: "857de7e9d99c48ed6bae93348291286cf43e5c9ac095138d7d1433dc8d3ad697",
        "demo": "857de7e9d99c48ed6bae93348291286cf43e5c9ac095138d7d1433dc8d3ad697",
    }),
    270: (FailedCheck("neighbor", ((0, 0), (1, 0))), {
        0: "48924d1b9fa48f74b0bdf19da5c15098c8f29c7f9fa39e24d6201821dce53306",
        1: "6aa0d2ab668a36334f8b68b47d9ae5baafb7d4d01f433774a6472b5cde21f3d9",
        "demo": "764ad12c7509d60291ac5cdb2759f93f7aaa26f3bfe47bb36d0d00be2c0f0ae8",
    }),
    298: (FailedCheck("arrow", (1, 1)), {
        0: "398beac48ebe60b2268e223d98ec17d31ec7791d139916de3a21c12ad66fe905",
        1: "4c446ea5647050d449b1733056688f1f954a220c203e93d3e5ee35a490f74f80",
        "demo": "a65bc54e0f5bdb582bac8843de8bfe63eb0e7d71d0b6ca9d286478cde5571ef2",
    }),
}

# verify_room on `quad`'s room A after its value-1 card is swapped with room
# B's: seed -> setup and room-check transcript, trial 0
FOREIGN_CARD = {
    0: "3d8a474f1444ea8ab269b03bdb602969a6dcdb616f472f0ff161d0634b50c32a",
    1: "2b7f549674f48ac6bf44863e5d97ed36854256f75a1de64c204521ccaa4a22da",
    "demo": "2b7f549674f48ac6bf44863e5d97ed36854256f75a1de64c204521ccaa4a22da",
}

# prove --transcript-out (seed 0, one trial) on cross's solution file edited
# so that (0, 2) and (1, 2) swap, which breaks only the arrow at (1, 1), or
# so that room B holds a second B=3, which fails it at setup: case ->
# (solution rows, first failure, saved transcript's lines, saved transcript)
SAVED_REJECTED = {
    "arrow": (
        "A=1 A=2 B=3\nC=2 B> B=1\nC=1 B=2 B=4\n", "arrow at (1, 1)", 340,
        "14aa54eef27cc487804905bf17bccfa724076b904866770cc97fb921576cea0e"),
    "setup": (
        "A=1 A=2 B=3\nC=2 B> B=3\nC=1 B=2 B=4\n", "room B (at setup)", 5,
        "baf7f3fb7b27e69e3da977d52f3bc1752a46ba36ba7869ffe7603439dead0a3e"),
}

# zk-test --puzzle example5x5 --solution example5x5_solution --trials 300
# --report-format json (seed 0, one worker)
ZK_TEST_JSON = "4dcc74d9357a7ef9bc4c5bbca3b65275ab5e03d9a85b3dda444d38f81121494e"

# (command, puzzle) -> (exit code, stdout): `stats` and `solve` on every
# bundled puzzle; `check` and `prove --trials 3` (seed 0) against the
# puzzle's solution file
CLI = {
    ("stats", "cross"): (0, "d0f1d4d082b7d75bf30a30b103fc09f6ed1ac987af09823dc4a1c40cc3f734dc"),
    ("stats", "example5x5"): (0, "6fc62371a99e4cc6c48f7b5020d7ba4d9614abd7abfe2d995512ad0daa035156"),
    ("stats", "line3"): (0, "99a556531b70850b5f6a477b7b5d9ffa717a0d48d27cc92617b507e3886ee684"),
    ("stats", "pair"): (0, "4258e65f9f819c39a67955be6a8d27c297d478d12cbd5a6631197f6d680a44fc"),
    ("stats", "quad"): (0, "903e302a3780066d391c4938d20918acf7a9c8cb9348ebbf616721d0dbcd0fd1"),
    ("stats", "single"): (0, "59caa3a8931a6024cfa9ba5bf64ad9d2b374c7ff4c394480d4ed88c956da739f"),
    ("stats", "square4"): (0, "a544681d307cdba72476d082fa95a2032f031279e27668393acd3501ee5ffec2"),
    ("solve", "cross"): (0, "15b2afbe6d770a99facd4d7b53a4121dfea1be17aefe10705e82d2340a4f1d54"),
    ("solve", "example5x5"): (0, "f676fb0b92c3d056b8f02f661caea3f9016821b4c7b2e43476dc574ce4b926c8"),
    ("solve", "line3"): (0, "8002af8d90b1338c9c8fa361fcf10600535137ae6896f1e4b3ef1d8020904281"),
    ("solve", "pair"): (0, "27d439ab66e13a5ed85b1bfbc6f13aa6dd4638194b5138bfea7e86996785a413"),
    ("solve", "quad"): (0, "6137006251108100cbb844d6631c83431ebdef456b47464a16d4a0fc5769bc98"),
    ("solve", "single"): (0, "446345079b7774cf1e8f1b5270b7b370bbb95643ecdc97229155b17180e14e30"),
    ("solve", "square4"): (0, "8d4d9dba1d28e48b0d050f5bec19ef097e0eb69394485319d2f3fc973d1e3ccc"),
    ("check", "cross"): (0, "009d962905920ad0e3ff46c6987fad36418982deb81796fd1f58e326d167c268"),
    ("check", "example5x5"): (0, "009d962905920ad0e3ff46c6987fad36418982deb81796fd1f58e326d167c268"),
    ("prove", "cross"): (0, "b4b18a5c1dca409cc6debad8c8ec308e10fea30ae3b713c8184f233f8b2729a9"),
    ("prove", "example5x5"): (0, "c62efe2bc9579b2a546ff2fb37b4814d4ba969701e8f617b66c58fd7a8eaf40b"),
}

# every compiled check of the bundled puzzles, sorted by name, then of the
# small-grid corpus, in corpus order (see compiled_plan)
COMPILED_PLAN = "babbe59cc448e823f6a8d577e9d5bd46a7d635319a61eb28272ee7babf5d8037"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_bundled_puzzle_is_pinned():
    names = {p.stem for p in PUZZLES.glob("*.makaro") if not p.stem.endswith("_solution")}
    assert names == set(TRANSCRIPTS) == set(PLANS)
    assert {(command, name) for command in ("stats", "solve") for name in names} \
        <= set(CLI)


@pytest.mark.parametrize("name", sorted(TRANSCRIPTS))
def test_seeded_transcripts_are_unchanged(name):
    grid = load_grid(f"{name}.makaro")
    if (PUZZLES / f"{name}_solution.makaro").exists():
        solution = load_solution(f"{name}_solution.makaro")
    else:
        solution = solve_brute_force(grid)[0]
    for seed, (real_hash, sim_hash) in TRANSCRIPTS[name].items():
        source = RandomSource.for_trial(seed, 0)
        verdict, real = run_full_protocol(grid, make_prover(solution, source), source)
        sim = simulate_transcript(grid, RandomSource.for_trial(seed, 0))
        assert verdict.accepted, seed
        assert sha256(real.to_text()) == real_hash, seed
        assert sha256(sim.to_text()) == sim_hash, seed
        # read_view inverts the simulator, and shows as many cards as a run
        view = read_view(grid, sim)
        assert view == simulate_view(grid, RandomSource.for_trial(seed, 0)), seed
        assert len(view) == len(read_view(grid, real)), seed


@pytest.mark.parametrize("name", sorted(PLANS))
def test_reveal_site_plan_is_unchanged(name):
    assert sha256(repr(reveal_site_plan(load_grid(f"{name}.makaro")))) == PLANS[name]


@pytest.mark.parametrize("text", sorted(FORCED))
def test_forced_reveals_are_unchanged(text):
    grid = parse_puzzle(text)
    sim_hash, plan_hash = FORCED[text]
    for seed in SEEDS:
        assert sha256(simulate_transcript(grid, RandomSource.for_trial(seed, 0)).to_text()) \
            == sim_hash, seed
    assert sha256(repr(reveal_site_plan(grid))) == plan_hash


@pytest.mark.parametrize("filling", sorted(REJECTED))
def test_rejected_transcripts_are_unchanged(filling):
    grid = load_grid("cross.makaro")
    assignment = list(all_value_assignments(grid))[filling]
    failing, hashes = REJECTED[filling]
    for seed, real_hash in hashes.items():
        source = RandomSource.for_trial(seed, 0)
        verdict, real = run_full_protocol(grid, make_prover(assignment, source), source)
        assert verdict.failing_check == failing, seed
        assert sha256(real.to_text()) == real_hash, seed


@pytest.mark.parametrize("case", sorted(SAVED_REJECTED))
def test_saved_rejected_transcripts_are_unchanged(capsys, tmp_path, case):
    rows, failure, lines, transcript_hash = SAVED_REJECTED[case]
    solution, saved = tmp_path / "solution.makaro", tmp_path / "run.transcript"
    solution.write_text(f"makaro 3 3\n{rows}", encoding="utf-8")
    argv = ["prove", "--puzzle", str(PUZZLES / "cross.makaro"), "--solution", str(solution)]
    # one trial, saved, then 20, none of which raises inside the run: all
    # fail at the same check
    for more, accepted in ((["--transcript-out", str(saved)], "accepted: 0 of 1"),
                           (["--trials", "20"], "accepted: 0 of 20")):
        assert main(argv + more) == 1
        assert capsys.readouterr().out.splitlines()[2:4] == [accepted,
                                                             f"first failure: {failure}"]
    text = saved.read_text(encoding="utf-8")
    assert (len(text.splitlines()), sha256(text)) == (lines, transcript_hash)
    transcript = Transcript.from_text(text)
    assert transcript.to_text() == text
    with pytest.raises(ValueError):
        read_view(load_grid("cross.makaro"), transcript)


@pytest.mark.parametrize("trials", [1, 3, 200])
def test_the_saved_transcript_is_trial_0s(capsys, tmp_path, trials):
    # prove's one trial loop writes only trial 0's transcript, the pinned
    # seed-0 run, which reads back as its 421 revealed cards
    saved = tmp_path / "run.transcript"
    code = main(["prove", "--puzzle", str(PUZZLES / "example5x5.makaro"),
                 "--solution", str(PUZZLES / "example5x5_solution.makaro"),
                 "--trials", str(trials), "--transcript-out", str(saved)])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[2] == f"accepted: {trials} of {trials}"
    text = saved.read_text(encoding="utf-8")
    assert sha256(text) == TRANSCRIPTS["example5x5"][0][0]
    transcript = Transcript.from_text(text)
    assert transcript.to_text() == text
    assert len(read_view(load_grid("example5x5.makaro"), transcript)) == 421


def test_room_check_with_a_foreign_card_is_unchanged():
    grid = load_grid("quad.makaro")
    for seed, real_hash in FOREIGN_CARD.items():
        source = RandomSource.for_trial(seed, 0)
        prover = make_prover({(0, 0): 1, (0, 1): 2, (1, 0): 1, (1, 1): 2}, source)
        transcript = Transcript()
        table = setup_placement(grid, prover, transcript)
        cards = table.cell_cards
        cards[(0, 0)], cards[(1, 0)] = cards[(1, 0)], cards[(0, 0)]
        assert not verify_room(table, "A", source, transcript), seed
        assert sha256(transcript.to_text()) == real_hash, seed


def test_zk_test_json_report_is_unchanged(capsys):
    code = main(["zk-test", "--puzzle", str(PUZZLES / "example5x5.makaro"),
                 "--solution", str(PUZZLES / "example5x5_solution.makaro"),
                 "--trials", "300", "--report-format", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert sha256(out) == ZK_TEST_JSON


@pytest.mark.parametrize("command, name", sorted(CLI))
def test_cli_output_is_unchanged(capsys, command, name):
    argv = [command, "--puzzle", str(PUZZLES / f"{name}.makaro")]
    if command in ("check", "prove"):
        argv += ["--solution", str(PUZZLES / f"{name}_solution.makaro")]
    if command == "prove":
        argv += ["--trials", "3", "--seed", "0"]
    code = main(argv)
    out, err = capsys.readouterr()
    expected_code, expected_out = CLI[command, name]
    assert (code, err, sha256(out)) == (expected_code, "", expected_out)


def _plan_step(step) -> tuple:
    """A compiled step by what it holds: the events of a run; a hole's site
    family, row, columns, predicate and whether it sorts; a move's cards and
    cells."""
    if type(step) is tuple:
        return ("events", step)
    if hasattr(step, "site"):
        columns = step.cols if hasattr(step, "cols") else step.cols_from
        accepts = step.accepts and step.accepts.__qualname__
        return ("hole", step.site, step.row, columns, accepts, getattr(step, "sorts", None))
    held = [item for field in step if type(field) is tuple for item in field]
    return ("move", [item for item in held if isinstance(item, CardId)],
            [item for item in held if not isinstance(item, CardId)])


def compiled_plan(grid) -> str:
    """What a grid compiles to, as JSON, which writes every tuple as a bare
    list, so no class or field name shows: every check's key, steps, end
    events and peak, in run order, then the setup placements and the run
    layout."""
    schedule = protocol._schedule(grid)
    # a pass's end event is the last of its check's table
    checks = [(key, list(map(_plan_step, check.steps)), check.events[-1:], check.rejected,
               check.peak) for key, check in schedule.checks.items()]
    # the layout as [length, closing, [slot, site event, family]...], laid
    # from the tables
    events = [*schedule.placements, *chain.from_iterable(
        check.events for check in schedule.checks.values())]
    layout = [len(events), events[-1],
              [(at, events[at], family) for at, family in schedule.layout]]
    return json.dumps([checks, schedule.placements, layout])


def test_compiled_plan_is_unchanged(small_grids):
    grids = [load_grid(f"{name}.makaro") for name in sorted(TRANSCRIPTS)]
    grids += small_grids
    assert len(grids) == 7 + 3973
    digest = hashlib.sha256()
    for grid in grids:
        digest.update(compiled_plan(grid).encode("utf-8"))
    assert digest.hexdigest() == COMPILED_PLAN
