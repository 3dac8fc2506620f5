"""Statistical validation of the proof protocol.

The zero-knowledge claim is a statement about distributions: every reveal in
an honest run must be distributed independently of the hidden solution.  This
module makes that claim testable.  It knows, for a given grid, every reveal
site of a run and the exact distribution each site should follow
(`site_plan`), collects observed reveal patterns over many runs into
histograms, and compares two collections site by site
(`compare_histograms`): real runs against the solution-free simulator
(`zk_comparison`), or runs built from two different solutions
(`solution_comparison`).  Both sides are counted as views, the cards a run
reveals in run order: a real run's is the live run's own, taken with no
transcript written, and the simulator draws its own (`simulate_view`)
without writing one either; `read_view` reads a view from a saved
transcript, the accepting run that the writer writes from that view.
Views are counted a block at a time (`SiteHistograms.add_views`), so each
site's patterns are built and counted in C, not one view at a time.

Chi-square tests are kept honest: expected counts below ``MIN_EXPECTED``
raise `InsufficientTrials` rather than producing an unreliable p-value, sites
whose full pattern space is too large to populate are replaced by
per-position marginals (each position of a uniform permutation or partial
arrangement is itself uniform over the support), and the comparisons over
all sites control the familywise error rate by Bonferroni correction, at
level ALPHA unless the caller sets another.

scipy (and with it numpy) is loaded only when a chi-square test first runs:
`zk-test` and the `compare_*` and `*_comparison` functions pay for it, while
importing the package, proving, solving and `stats` do not.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from itertools import accumulate
from typing import Callable, Sequence

from .deck import CardId, RandomSource, Transcript
from .protocol import (
    ProtocolError,
    SiteFamily,
    _run,
    make_prover,
    read_view,
    run_layout,
    simulate_view,
)
# `stats` is unused here, but the benchmark's traced run rebinds it in this
# module and perfbench/test_perfbench.py asserts that binding
from .puzzle import Assignment, Grid, stats

MIN_EXPECTED = 5.0
MARGINAL_THRESHOLD = 1000
ALPHA = 0.01


class InsufficientTrials(Exception):
    """Raised when a chi-square test would run with expected counts below
    the validity floor; collect more trials instead of trusting the p-value."""


# --- site families -----------------------------------------------------------

def site_plan(grid: Grid) -> list[SiteFamily]:
    """Every tested pattern family for a grid, in schedule order.  A site
    whose full pattern space exceeds MARGINAL_THRESHOLD is replaced by one
    single-position family per revealed position."""
    plan: list[SiteFamily] = []
    for _, family in run_layout(grid):
        if family.size() <= MARGINAL_THRESHOLD:
            plan.append(family)
        else:
            plan.extend(SiteFamily(f"{family.key}/pos{pos}", "pick", family.support, 1)
                        for pos in range(1, family.take + 1))
    return plan


# --- histograms --------------------------------------------------------------

class SiteHistograms:
    """Observed pattern counts per tested site, over accepting runs of one
    grid, counted from views: each site's cards are read from their place
    among the cards a run reveals."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.families = site_plan(grid)
        self.counts: dict[str, Counter] = {family.key: Counter() for family in self.families}
        # the tested families take the revealed cards in turn: all of a
        # site's, or one each when the site is split
        ends = accumulate(family.take for family in self.families)
        self._reads = [(self.counts[family.key], end - family.take, end)
                       for family, end in zip(self.families, ends)]

    def add_transcript(self, transcript: Transcript) -> None:
        """Count the cards a transcript reveals at each site.  A transcript
        that is not the accepting run of this grid that its cards write
        raises ValueError and counts nothing (see `read_view`)."""
        self.add_views((read_view(self.grid, transcript),))

    def add_views(self, views: Sequence[tuple[CardId, ...]]) -> None:
        """Count a block of views, each the cards an accepting run reveals,
        in run order.  If any view is not as long as this grid's reveals, so
        ending where the last family's read does, ValueError is raised and
        nothing is counted; cards are not checked.  The block is read column
        by column, so each family's patterns are built and counted in C."""
        if any(len(view) != self._reads[-1][2] for view in views):
            raise ValueError("view does not hold this grid's reveals")
        columns = list(zip(*views))
        for counter, start, stop in self._reads:
            counter.update(zip(*columns[start:stop]))

    def _require_same_sites(self, other: "SiteHistograms") -> None:
        # whole families: two grids can share every site key, not the cards
        if other.families != self.families:
            raise ValueError("histograms cover different reveal sites")

    def merge(self, other: "SiteHistograms") -> None:
        self._require_same_sites(other)
        for key, counter in other.counts.items():
            self.counts[key].update(counter)


# --- chi-square tests ----------------------------------------------------------

@dataclass(frozen=True)
class SiteReport:
    """One site's test outcome.  df == 0 marks a trivially passing site
    (nothing variable to test)."""

    site: str
    kind: str
    bins: int
    df: int
    statistic: float
    p_value: float
    passed: bool
    draws: int
    draws_b: int | None = None
    note: str = ""

    def to_record(self) -> dict:
        rec = {
            "site": self.site, "kind": self.kind, "bins": self.bins,
            "df": self.df, "statistic": round(self.statistic, 6),
            "p_value": float(f"{self.p_value:.6g}"), "passed": self.passed,
            "draws": self.draws,
        }
        if self.draws_b is not None:
            rec["draws_b"] = self.draws_b
        if self.note:
            rec["note"] = self.note
        return rec


def _chi2_tail(statistic: float, df: int) -> float:
    """P(X >= statistic) for X chi-square with df degrees of freedom, the
    same function scipy.stats.chi2.sf evaluates.  scipy.special is imported
    here, when a test first runs, so that commands which run no test never
    load scipy or numpy."""
    from scipy.special import chdtrc

    return float(chdtrc(df, statistic))


def _pattern_text(pattern: tuple[CardId, ...]) -> str:
    return " ".join(str(card) for card in pattern)


def compare_histograms(family: SiteFamily, counter_a: Counter, counter_b: Counter) -> SiteReport:
    """Two-sample chi-square: are the two collections drawn from the same
    distribution?  Bins are the union of observed patterns, pooled (largest
    first, ties by pattern text) until every bin's total keeps expected
    counts above the validity floor; passed at level ALPHA, which
    compare_collections replaces by its per-site level."""
    draws_a = sum(counter_a.values())
    draws_b = sum(counter_b.values())
    if draws_a == 0 or draws_b == 0:
        raise InsufficientTrials(f"{family.key}: both collections need draws")
    total = draws_a + draws_b
    patterns = sorted(set(counter_a) | set(counter_b),
                      key=lambda p: (-(counter_a[p] + counter_b[p]), _pattern_text(p)))
    cutoff = MIN_EXPECTED * total / min(draws_a, draws_b)
    pooled: list[tuple[int, int]] = []
    residual_a = residual_b = 0
    for pattern in patterns:
        ca, cb = counter_a[pattern], counter_b[pattern]
        if ca + cb >= cutoff:
            pooled.append((ca, cb))
        else:
            residual_a += ca
            residual_b += cb
    if residual_a + residual_b:
        if residual_a + residual_b >= cutoff or not pooled:
            pooled.append((residual_a, residual_b))
        else:
            last_a, last_b = pooled[-1]
            pooled[-1] = (last_a + residual_a, last_b + residual_b)
    bins = len(pooled)
    if bins < 2:
        return SiteReport(family.key, family.kind, bins, 0, 0.0, 1.0, True,
                          draws_a, draws_b, note="pooled to a single bin")
    statistic = 0.0
    for ca, cb in pooled:
        col = ca + cb
        for observed, rows in ((ca, draws_a), (cb, draws_b)):
            expected = rows * col / total
            statistic += (observed - expected) ** 2 / expected
    df = bins - 1
    p_value = _chi2_tail(statistic, df)
    return SiteReport(family.key, family.kind, bins, df, statistic, p_value,
                      p_value >= ALPHA, draws_a, draws_b)


# --- collection over many runs -------------------------------------------------

# Trials counted together in one `SiteHistograms.add_views` call: large
# enough that counting runs in C, small enough that a chunk's memory does not
# grow with its trials.  On the example (2-core x86-64 VM, timeit) a view
# costs 24 µs to count in a block of 128, 25 in one of 64, 23 in one of 512
# and 162 alone, against 65 for the one-view-at-a-time loop.
_BLOCK = 128


def _honest_trial(grid: Grid, solution: Assignment, seed: str, trial: int) -> tuple[CardId, ...]:
    # the live run's view; its transcript is never read, so never written
    source = RandomSource.for_trial(seed, trial)
    verdict, _, _, view = _run(grid, make_prover(solution, source), source)
    if not verdict.accepted:
        raise ProtocolError(
            f"run {trial} rejected ({verdict.failing_check}); "
            "histograms need an honest prover with a valid solution")
    return tuple(view)


def _simulated_trial(grid: Grid, seed: str, trial: int) -> tuple[CardId, ...]:
    return simulate_view(grid, RandomSource.for_trial(seed, trial))


def _chunk(view_of: Callable[[int], tuple[CardId, ...]], grid: Grid,
           start: int, stop: int) -> SiteHistograms:
    hist = SiteHistograms(grid)
    for low in range(start, stop, _BLOCK):
        hist.add_views([view_of(trial) for trial in range(low, min(low + _BLOCK, stop))])
    return hist


def _collect(view_of: Callable[[int], tuple[CardId, ...]], grid: Grid,
             trials: int, workers: int) -> SiteHistograms:
    """Histograms over trials 0..trials-1, split into contiguous chunks, one
    per worker process, with no more workers than CPUs; each chunk counts
    its views _BLOCK at a time.  `view_of(i)` returns trial i's view, and
    must pickle when workers > 1.  Trial i draws all its randomness from a
    seed derived from (seed, i), so the histograms do not depend on workers."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    chunk = partial(_chunk, view_of, grid)
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        return chunk(0, trials)
    bounds = [trials * i // workers for i in range(workers + 1)]
    spans = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(spans)) as pool:
        parts = list(pool.map(chunk, *zip(*spans)))
    merged = parts[0]
    for part in parts[1:]:
        merged.merge(part)
    return merged


# --- sweep reports -------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    """Per-site results plus the familywise verdict.  alpha_site is the
    Bonferroni-corrected per-site level actually applied."""

    label: str
    alpha_family: float
    alpha_site: float
    tested_sites: int
    sites: tuple[SiteReport, ...]
    passed: bool

    def to_text(self) -> str:
        lines = [
            f"{self.label}: {'PASS' if self.passed else 'FAIL'}",
            f"familywise alpha {self.alpha_family:g} over {self.tested_sites} "
            f"testable sites (per-site {self.alpha_site:.3g})",
            f"{'site':<44} {'kind':<12} {'bins':>5} {'df':>5} "
            f"{'statistic':>11} {'p-value':>10}  result",
        ]
        for s in self.sites:
            result = "pass" if s.passed else "FAIL"
            if s.df == 0:
                result = "pass (trivial)"
            lines.append(f"{s.site:<44} {s.kind:<12} {s.bins:>5} {s.df:>5} "
                         f"{s.statistic:>11.3f} {s.p_value:>10.4g}  {result}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """The report as JSON.  Every site counts each run once, so
        its draws are the trials per side (side A's, should the two differ)."""
        return json.dumps({
            "label": self.label,
            "trials_per_side": self.sites[0].draws,
            "alpha_family": self.alpha_family,
            "alpha_site": float(f"{self.alpha_site:.6g}"),
            "tested_sites": self.tested_sites,
            "passed": self.passed,
            "sites": [s.to_record() for s in self.sites],
        }, indent=2, sort_keys=True) + "\n"


def compare_collections(label: str, hist_a: SiteHistograms, hist_b: SiteHistograms,
                        alpha: float = ALPHA) -> ComparisonReport:
    """Two-sample comparison at every site, familywise level alpha."""
    hist_a._require_same_sites(hist_b)
    raw = [
        compare_histograms(family, hist_a.counts[family.key], hist_b.counts[family.key])
        for family in hist_a.families
    ]
    tested = sum(1 for report in raw if report.df >= 1)
    if not tested and all(r.passed for r in raw) and any(f.size() > 1 for f in hist_a.families):
        # nothing that could vary was tested, so a pass would be vacuous;
        # a site that failed outright still stands as a failure
        raise InsufficientTrials(f"{label}: no site could be tested; collect more trials")
    alpha_site = alpha / tested if tested else alpha
    sites = tuple(
        report if report.df == 0
        else replace(report, passed=report.p_value >= alpha_site)
        for report in raw
    )
    return ComparisonReport(label, alpha, alpha_site, tested, sites,
                            all(s.passed for s in sites))


def zk_comparison(grid: Grid, solution: Assignment, seed: str, trials: int,
                  workers: int = 1, alpha: float = ALPHA) -> ComparisonReport:
    """The executable zero-knowledge check: `trials` real runs against
    `trials` solution-free simulated views, compared site by site."""
    real = _collect(partial(_honest_trial, grid, solution, f"{seed}/real"),
                    grid, trials, workers)
    sim = _collect(partial(_simulated_trial, grid, f"{seed}/sim"), grid, trials, workers)
    return compare_collections("protocol vs simulator", real, sim, alpha)


def solution_comparison(grid: Grid, solution_a: Assignment, solution_b: Assignment,
                        seed: str, trials: int) -> ComparisonReport:
    """Indistinguishability of provers: runs built from two different valid
    solutions of the same grid, compared site by site."""
    hist_a = _collect(partial(_honest_trial, grid, solution_a, f"{seed}/a"),
                      grid, trials, 1)
    hist_b = _collect(partial(_honest_trial, grid, solution_b, f"{seed}/b"),
                      grid, trials, 1)
    return compare_collections("prover A vs prover B", hist_a, hist_b)
