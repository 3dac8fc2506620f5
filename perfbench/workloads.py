"""The benchmark's workloads: inputs built from a seed, one op, its check.

Each workload is a closed loop driven by one caller: `run_op(i)` runs op i
to completion and returns (items of work done, whether its output checked
out).  Op i's inputs depend only on the workload seed and i.  The library is
reached only through attributes of the `makaro_zkp` package, looked up at
call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

PROOF_EVENTS = 1149  # events in every honest run on the 5x5 example
ZK_SITES = 191       # tested reveal sites of the 5x5 example
# 500 runs per side keep every one of the 191 sites above one pooled bin
# (at 300 a 120-pattern site sometimes pools to one); 2,000 would make one
# op longer than a whole run.
ZK_TRIALS_PER_SIDE = 500
# Familywise level of the benchmark's zk check.  At the CLI's 0.01 an honest
# comparison fails about once in a hundred, and a seed sweep runs hundreds;
# a leak that changes which card a reveal shows still fails at this level.
ZK_CHECK_ALPHA = 1e-6
SWEEP_STRIDE = 40    # every 40th grid of the 3,973-grid corpus: 100 grids

# sha256 of the trial-0 transcript text of `prove --seed 0` on the example.
PINNED_SEED = "0"
PINNED_TRANSCRIPT_SHA256 = "b55f1f21ceb1b7a987f31e9bfcfc68429bc7f696de41b95b046f391c3c8cd7d2"


def load_example(api, root: Path):
    puzzles = root / "puzzles"
    grid = api.parse_puzzle((puzzles / "example5x5.makaro").read_text(encoding="utf-8"))
    solved = api.parse_puzzle(
        (puzzles / "example5x5_solution.makaro").read_text(encoding="utf-8"))
    return grid, api.assignment_from_grid(solved)


def check_pinned_transcript(api, grid, solution) -> bool:
    """The seed-0 trial-0 transcript hashes to the pinned value and
    round-trips through its text form."""
    source = api.RandomSource.for_trial(PINNED_SEED, 0)
    verdict, transcript = api.run_full_protocol(grid, api.make_prover(solution, source), source)
    text = transcript.to_text()
    parsed = api.Transcript.from_text(text)
    return (verdict.accepted
            and hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED_TRANSCRIPT_SHA256
            and parsed == transcript and parsed.to_text() == text)


class Prove5x5:
    """Honest run_full_protocol on the example: the completeness path."""

    unit = "proofs"
    ops_per_block = 100

    def __init__(self, api, example, seed: int):
        self.api, self.seed = api, seed
        self.grid, self.solution = example
        self.params = {"puzzle": "example5x5", "trial_seed": f"RandomSource.for_trial({seed}, i)"}

    def run_op(self, i: int) -> tuple[int, bool]:
        api = self.api
        source = api.RandomSource.for_trial(self.seed, i)
        verdict, transcript = api.run_full_protocol(
            self.grid, api.make_prover(self.solution, source), source)
        return 1, verdict.accepted and len(transcript) == PROOF_EVENTS


class Zk5x5:
    """zk_comparison on the example: real runs against the simulator."""

    unit = "transcripts"
    ops_per_block = 1

    def __init__(self, api, example, seed: int):
        self.api, self.seed = api, seed
        self.grid, self.solution = example
        self.params = {"puzzle": "example5x5", "trials_per_side": ZK_TRIALS_PER_SIDE,
                       "workers": 1, "check_alpha": ZK_CHECK_ALPHA}

    def run_op(self, i: int) -> tuple[int, bool]:
        report = self.api.zk_comparison(self.grid, self.solution, f"{self.seed}/{i}",
                                        ZK_TRIALS_PER_SIDE, alpha=ZK_CHECK_ALPHA)
        ok = report.passed and report.tested_sites == ZK_SITES == len(report.sites)
        return 2 * ZK_TRIALS_PER_SIDE, ok


class Sweep3x3:
    """Every filling of a fixed slice of the small-grid corpus, through the
    rule checker and the protocol, plus one solve per grid: the soundness
    path.  One op is one pass over the slice.  Grids differ in size by two
    orders of magnitude, so a median over single grids would jump between
    size clusters from run to run."""

    unit = "fillings"
    ops_per_block = 1

    def __init__(self, api, example, seed: int):
        self.api, self.seed = api, seed
        corpus = api.enumerate_small_grids()
        self.grids = corpus[::SWEEP_STRIDE]
        self.params = {"corpus_grids": len(corpus),
                       "slice": f"enumerate_small_grids()[::{SWEEP_STRIDE}]",
                       "slice_grids": len(self.grids)}

    def run_op(self, i: int) -> tuple[int, bool]:
        api = self.api
        fillings = bad = 0
        for index, grid in enumerate(self.grids):
            budget = api.card_budget(api.stats(grid)).total
            valid = set()
            for trial, filling in enumerate(api.all_value_assignments(grid)):
                truth = api.check_solution(grid, filling)
                source = api.RandomSource.for_trial(f"{self.seed}/{index}/{i}", trial)
                verdict, _, table = api.run_full_protocol_with_table(
                    grid, api.make_prover(filling, source), source)
                fillings += 1
                if verdict.accepted != truth or (table is not None and table.peak_cards > budget):
                    bad += 1
                if truth:
                    valid.add(frozenset(filling.items()))
            if {frozenset(s.items()) for s in api.solve_brute_force(grid)} != valid:
                bad += 1
        return fillings, bad == 0


class Solve5x5:
    """solve_brute_force on the example; its input does not depend on the seed."""

    unit = "solves"
    ops_per_block = 1

    def __init__(self, api, example, seed: int):
        self.api = api
        self.grid, self.solution = example
        self.params = {"puzzle": "example5x5"}

    def run_op(self, i: int) -> tuple[int, bool]:
        return 1, self.api.solve_brute_force(self.grid) == [self.solution]


WORKLOADS = {
    "prove-5x5": Prove5x5,
    "zk-5x5": Zk5x5,
    "sweep-3x3": Sweep3x3,
    "solve-5x5": Solve5x5,
}
