"""Statistical validation of the proof protocol.

The zero-knowledge claim is a statement about distributions: every reveal in
an honest run must be distributed independently of the hidden solution.  This
module makes that claim testable.  It knows, for a given grid, every reveal
site of a run and the exact distribution each site should follow
(`site_plan`), collects observed reveal patterns over many runs into
histograms, and compares them -- either against the theoretical uniform
distribution (`uniformity_test`) or between two collections
(`compare_histograms`, e.g. real runs vs. the solution-free simulator, or
runs built from two different solutions).

Chi-square tests are kept honest: expected counts below ``MIN_EXPECTED``
raise `InsufficientTrials` rather than producing an unreliable p-value, sites
whose full pattern space is too large to populate are replaced by
per-position marginals (each position of a uniform permutation or partial
arrangement is itself uniform over the support), and the sweep functions
control the familywise error rate across sites by Bonferroni correction.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

from scipy.stats import chi2 as _chi2_dist

from .deck import CardId, RandomSource, Transcript
from .protocol import (
    ProtocolError,
    SiteFamily,
    make_prover,
    reveal_site_plan,
    run_full_protocol,
    simulate_transcript,
)
# `stats` is unused here but the benchmark's traced run rebinds it in this
# module (tests/test_benchmark_contract.py)
from .puzzle import Assignment, Grid, PuzzleStats, stats

MIN_EXPECTED = 5.0
MARGINAL_THRESHOLD = 1000


class InsufficientTrials(Exception):
    """Raised when a chi-square test would run with expected counts below
    the validity floor; collect more trials instead of trusting the p-value."""


# --- deck accounting ---------------------------------------------------------

@dataclass(frozen=True)
class CardBudget:
    """How many physical cards a puzzle needs, by role."""

    n: int
    k: int
    cell_cards: int
    helping_cards: int
    encoding_cards: int
    total: int


def card_budget(st: PuzzleStats) -> CardBudget:
    """Deck size for a puzzle of n white cells and largest room k: one card
    per white cell, one helping card per value up to k, and four encoding
    sets sized for the longest sequence any check can request (2k-1)."""
    encoding = 4 * (2 * st.k - 1)
    return CardBudget(st.n, st.k, st.n, st.k, encoding, st.n + st.k + encoding)


# --- site families -----------------------------------------------------------

def site_plan(grid: Grid, marginal_threshold: int = MARGINAL_THRESHOLD) -> list[SiteFamily]:
    """Every tested pattern family for a grid, in schedule order.  A site
    whose full pattern space exceeds marginal_threshold is replaced by one
    single-position family per revealed position."""
    plan: list[SiteFamily] = []
    for key, kind, support, take in reveal_site_plan(grid):
        family = SiteFamily(key, kind, support, take)
        if family.size() <= marginal_threshold:
            plan.append(family)
        else:
            for pos in range(1, take + 1):
                plan.append(SiteFamily(f"{key}/pos{pos}", "pick", support, 1))
    return plan


# --- histograms --------------------------------------------------------------

class SiteHistograms:
    """Observed pattern counts per tested site, over a set of transcripts."""

    def __init__(self, grid: Grid, marginal_threshold: int = MARGINAL_THRESHOLD):
        self.marginal_threshold = marginal_threshold
        self.families = site_plan(grid, marginal_threshold)
        self.counts: dict[str, Counter] = {fam.key: Counter() for fam in self.families}
        # the counters of each site split into per-position families, in
        # position order (site_plan keys them "<site>/pos<i>")
        self._positions: dict[str, list[Counter]] = {}
        for key, counter in self.counts.items():
            site, split, pos = key.rpartition("/pos")
            if split and pos.isdecimal():
                self._positions.setdefault(site, []).append(counter)
        self.transcripts = 0

    def add_transcript(self, transcript: Transcript) -> None:
        self.transcripts += 1
        for site, pattern in transcript.site_patterns:
            counter = self.counts.get(site)
            if counter is not None:
                counter[pattern] += 1
                continue
            positions = self._positions.get(site, ())
            if len(pattern) > len(positions):
                raise ValueError(f"transcript reveals at unknown site {site!r}")
            for counter, card in zip(positions, pattern):
                counter[(card,)] += 1

    def merge(self, other: "SiteHistograms") -> None:
        if [f.key for f in other.families] != [f.key for f in self.families]:
            raise ValueError("histograms belong to different site plans")
        self.transcripts += other.transcripts
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


def _pattern_text(pattern: tuple[CardId, ...]) -> str:
    return " ".join(str(card) for card in pattern)


def uniformity_test(family: SiteFamily, counter: Counter,
                    alpha: float = 0.01) -> SiteReport:
    """Goodness-of-fit of observed patterns against the family's uniform
    distribution over its full pattern space (unobserved patterns count as
    zero-observation bins)."""
    draws = sum(counter.values())
    for pattern in counter:
        if not family.contains(pattern):
            return SiteReport(family.key, family.kind, family.size(), 0,
                              math.inf, 0.0, False, draws,
                              note=f"pattern outside support: {_pattern_text(pattern)}")
    size = family.size()
    if size == 1:
        return SiteReport(family.key, family.kind, 1, 0, 0.0, 1.0, True, draws,
                          note="single possible pattern")
    if draws == 0:
        raise InsufficientTrials(f"no draws recorded at {family.key}")
    expected = draws / size
    if expected < MIN_EXPECTED:
        raise InsufficientTrials(
            f"{family.key}: expected count {expected:.2f} per bin is below "
            f"{MIN_EXPECTED}; need at least {math.ceil(MIN_EXPECTED * size)} draws")
    statistic = sum((count - expected) ** 2 / expected for count in counter.values())
    statistic += (size - len(counter)) * expected
    df = size - 1
    p_value = float(_chi2_dist.sf(statistic, df))
    return SiteReport(family.key, family.kind, size, df, statistic, p_value,
                      p_value >= alpha, draws)


def compare_histograms(family: SiteFamily, counter_a: Counter, counter_b: Counter,
                       alpha: float = 0.01) -> SiteReport:
    """Two-sample chi-square: are the two collections drawn from the same
    distribution?  Bins are the union of observed patterns, pooled (largest
    first, ties by pattern text) until every bin's total keeps expected
    counts above the validity floor."""
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
    p_value = float(_chi2_dist.sf(statistic, df))
    return SiteReport(family.key, family.kind, bins, df, statistic, p_value,
                      p_value >= alpha, draws_a, draws_b)


# --- collection over many runs -------------------------------------------------

def _honest_transcript(grid: Grid, solution: Assignment, seed: str, trial: int) -> Transcript:
    source = RandomSource.for_trial(seed, trial)
    verdict, transcript = run_full_protocol(grid, make_prover(solution, source), source)
    if not verdict.accepted:
        raise ProtocolError(
            f"run {trial} rejected ({verdict.failing_check}); "
            "histograms need an honest prover with a valid solution")
    return transcript


def _simulated_transcript(grid: Grid, seed: str, trial: int) -> Transcript:
    return simulate_transcript(grid, RandomSource.for_trial(seed, trial))


def _chunk(transcript_of: Callable[[int], Transcript], grid: Grid, threshold: int,
           start: int, stop: int) -> SiteHistograms:
    hist = SiteHistograms(grid, threshold)
    for trial in range(start, stop):
        hist.add_transcript(transcript_of(trial))
    return hist


def _collect(transcript_of: Callable[[int], Transcript], grid: Grid, trials: int,
             workers: int, threshold: int) -> SiteHistograms:
    """Histograms over trials 0..trials-1, split into contiguous chunks, one
    per worker process; transcript_of must pickle when workers > 1."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    chunk = partial(_chunk, transcript_of, grid, threshold)
    if workers <= 1:
        return chunk(0, trials)
    bounds = [trials * i // workers for i in range(workers + 1)]
    spans = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    with ProcessPoolExecutor(max_workers=len(spans)) as pool:
        parts = list(pool.map(chunk, *zip(*spans)))
    merged = parts[0]
    for part in parts[1:]:
        merged.merge(part)
    return merged


def collect_protocol_histograms(grid: Grid, solution: Assignment, seed: str,
                                trials: int, workers: int = 1,
                                marginal_threshold: int = MARGINAL_THRESHOLD) -> SiteHistograms:
    """Histograms over `trials` real runs; trial i draws all randomness from
    a seed derived from (seed, i), so results do not depend on workers."""
    return _collect(partial(_honest_transcript, grid, solution, seed), grid, trials,
                    workers, marginal_threshold)


def collect_simulator_histograms(grid: Grid, seed: str, trials: int, workers: int = 1,
                                 marginal_threshold: int = MARGINAL_THRESHOLD) -> SiteHistograms:
    """Histograms over `trials` simulated transcripts (no solution involved)."""
    return _collect(partial(_simulated_transcript, grid, seed), grid, trials,
                    workers, marginal_threshold)


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

    def failures(self) -> list[SiteReport]:
        return [s for s in self.sites if not s.passed]

    def to_records(self) -> list[dict]:
        return [s.to_record() for s in self.sites]

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


def _bonferroni(label: str, families: list[SiteFamily], raw: list[SiteReport],
                alpha: float) -> ComparisonReport:
    tested = sum(1 for report in raw if report.df >= 1)
    if not tested and all(r.passed for r in raw) and any(f.size() > 1 for f in families):
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


def compare_collections(label: str, hist_a: SiteHistograms, hist_b: SiteHistograms,
                        alpha: float = 0.01) -> ComparisonReport:
    """Two-sample comparison at every site, familywise level alpha."""
    if [f.key for f in hist_a.families] != [f.key for f in hist_b.families]:
        raise ValueError("histograms cover different reveal sites")
    raw = [
        compare_histograms(family, hist_a.counts[family.key], hist_b.counts[family.key])
        for family in hist_a.families
    ]
    return _bonferroni(label, hist_a.families, raw, alpha)


def uniformity_sweep(hist: SiteHistograms, label: str = "uniformity",
                     alpha: float = 0.01) -> ComparisonReport:
    """Goodness-of-fit at every site against its theoretical distribution,
    familywise level alpha across the testable sites."""
    raw = [uniformity_test(family, hist.counts[family.key]) for family in hist.families]
    return _bonferroni(label, hist.families, raw, alpha)


def zk_comparison(grid: Grid, solution: Assignment, seed: str, trials: int,
                  workers: int = 1, alpha: float = 0.01,
                  marginal_threshold: int = MARGINAL_THRESHOLD) -> ComparisonReport:
    """The executable zero-knowledge check: `trials` real runs against
    `trials` solution-free simulated transcripts, compared site by site."""
    real = collect_protocol_histograms(grid, solution, f"{seed}/real", trials,
                                       workers, marginal_threshold)
    sim = collect_simulator_histograms(grid, f"{seed}/sim", trials,
                                       workers, marginal_threshold)
    return compare_collections("protocol vs simulator", real, sim, alpha)


def solution_comparison(grid: Grid, solution_a: Assignment, solution_b: Assignment,
                        seed: str, trials: int, workers: int = 1, alpha: float = 0.01,
                        marginal_threshold: int = MARGINAL_THRESHOLD) -> ComparisonReport:
    """Indistinguishability of provers: runs built from two different valid
    solutions of the same grid, compared site by site."""
    hist_a = collect_protocol_histograms(grid, solution_a, f"{seed}/a", trials,
                                         workers, marginal_threshold)
    hist_b = collect_protocol_histograms(grid, solution_b, f"{seed}/b", trials,
                                         workers, marginal_threshold)
    return compare_collections("prover A vs prover B", hist_a, hist_b, alpha)
