"""Golden transcripts: the sha256 of seeded real and simulated transcript
text, and of each reveal-site plan, pinned for every bundled puzzle.

A change to the check schedule, the event text format or the order in which
random draws are taken changes a hash here.  The pins were recorded once and
must never be re-recorded to make a change pass: seeded output is part of
the command-line contract.
"""

import hashlib

import pytest

from makaro_zkp import (
    RandomSource,
    make_prover,
    parse_puzzle,
    reveal_site_plan,
    run_full_protocol,
    simulate_transcript,
    solve_brute_force,
)

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


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_bundled_puzzle_is_pinned():
    names = {p.stem for p in PUZZLES.glob("*.makaro") if not p.stem.endswith("_solution")}
    assert names == set(TRANSCRIPTS) == set(PLANS)


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
