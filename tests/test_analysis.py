"""Statistical tooling: deck budgets, reveal-site families and histograms,
chi-square tests, and the collection sweeps that drive the zero-knowledge
comparison."""

import ast
import concurrent.futures
import dataclasses
import hashlib
import inspect
import itertools
import json
import math
import os
import random
from collections import Counter
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from makaro_zkp import (
    CardBudget,
    CardId,
    InsufficientTrials,
    ProtocolError,
    PuzzleStats,
    RandomSource,
    SiteFamily,
    SiteHistograms,
    Transcript,
    card_budget,
    cell_card,
    compare_collections,
    compare_histograms,
    encoding_card,
    make_prover,
    parse_puzzle,
    read_view,
    reveal_site_plan,
    run_full_protocol,
    simulate_transcript,
    simulate_view,
    site_plan,
    solution_comparison,
    solve_brute_force,
    stats,
    zk_comparison,
)
import makaro_zkp
from makaro_zkp import analysis, gridgen, protocol
from makaro_zkp.analysis import (
    MARGINAL_THRESHOLD,
    MIN_EXPECTED,
    _collect,
    _honest_trial,
    _simulated_trial,
)
from makaro_zkp.cli import main

from conftest import PUZZLES, load_grid, load_solution, site_patterns, uniformity_test
from test_golden import ZK_TEST_JSON


def counted(hist: SiteHistograms) -> int:
    """The transcripts a histogram has counted: each site counts every
    transcript once, so all the site counters hold that many draws."""
    (total,) = {sum(counter.values()) for counter in hist.counts.values()}
    return total


def counted_one_at_a_time(grid, views) -> dict[str, Counter]:
    """Each tested family's counts over views taken one at a time, the
    family reading its own slice of each view: the loop that block counting
    replaced, kept as the reference."""
    families = site_plan(grid)
    counts = {family.key: Counter() for family in families}
    for view in views:
        start = 0
        for family in families:
            counts[family.key][tuple(view[start:start + family.take])] += 1
            start += family.take
    return counts


def perm_family(n: int) -> SiteFamily:
    return SiteFamily("t/perm", "perm",
                      tuple(cell_card("T", i) for i in range(1, n + 1)), n)


class TestCardBudget:
    def test_example_deck(self, example_grid):
        assert card_budget(stats(example_grid)) == CardBudget(
            cell_cards=20, helping_cards=5, encoding_cards=36, total=61)

    def test_minimal_deck(self):
        assert card_budget(PuzzleStats(1, 1)).total == 6

    def test_mid_size_deck(self):
        b = card_budget(PuzzleStats(9, 3))
        assert (b.cell_cards, b.helping_cards, b.encoding_cards) == (9, 3, 20)
        assert b.total == 32

    def test_total_is_cells_plus_nine_k_minus_four(self):
        for n, k in ((1, 1), (4, 2), (20, 5), (100, 9)):
            assert card_budget(PuzzleStats(n, k)).total == n + 9 * k - 4

    def test_encoding_sets_cover_the_longest_window(self, quad_grid):
        b = card_budget(stats(quad_grid))  # k=2: window length 2*2-1 = 3
        assert b.encoding_cards == 4 * 3
        assert b.total == 18


class TestSiteFamily:
    def test_permutation_family(self):
        fam = perm_family(3)
        assert fam.size() == 6
        cards = fam.support
        assert fam.contains((cards[2], cards[0], cards[1]))
        assert not fam.contains((cards[0], cards[1]))            # wrong length
        assert not fam.contains((cards[0], cards[1], cards[1]))  # repeat
        assert not fam.contains((cards[0], cards[1], encoding_card("a", 9)))

    def test_pick_family(self):
        sup = tuple(encoding_card("b", i) for i in range(2, 6))
        fam = SiteFamily("t/pick", "pick", sup, 1)
        assert fam.size() == 4
        assert fam.contains((sup[0],))
        assert not fam.contains((encoding_card("b", 1),))
        assert not fam.contains(sup[:2])

    def test_arrangement_family(self):
        sup = tuple(encoding_card("c", i) for i in range(1, 9))
        fam = SiteFamily("t/arr", "arrangement", sup, 5)
        assert fam.size() == math.perm(8, 5) == 6720
        assert fam.contains((sup[7], sup[0], sup[3], sup[2], sup[5]))
        assert not fam.contains((sup[0], sup[0], sup[3], sup[2], sup[5]))
        assert not fam.contains(sup[:4])

    def test_every_kind_follows_one_law(self):
        # a family is the arrangements of `take` distinct support cards,
        # whatever its kind: size and membership match itertools.permutations
        foreign = encoding_card("d", 9)
        for n in range(1, 6):
            sup = tuple(encoding_card("c", i) for i in range(1, n + 1))
            families = [SiteFamily("t/perm", "perm", sup, n), SiteFamily("t/pick", "pick", sup, 1),
                        *(SiteFamily("t/arr", "arrangement", sup, take) for take in range(2, n))]
            for fam in families:
                arrangements = set(itertools.permutations(sup, fam.take))
                assert fam.size() == len(arrangements), fam
                for length in (fam.take - 1, fam.take, fam.take + 1):
                    for pattern in itertools.product((*sup, foreign), repeat=length):
                        assert fam.contains(pattern) == (pattern in arrangements), (fam, pattern)
                shown = sup[:fam.take]
                assert fam.contains(shown)
                assert not fam.contains(shown[:-1])                   # wrong length
                assert not fam.contains((*shown[:-1], foreign))       # foreign card
                if fam.take > 1:
                    assert not fam.contains((*shown[:-1], shown[0]))  # repeat

    # families over cards of a few sets, some shared between supports, so
    # two families may hold the same cards in another order or overlap
    CARDS = st.sampled_from([CardId(name, i) for name in ("enc:a", "help") for i in (1, 2, 3)])

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.lists(CARDS, min_size=1, max_size=5, unique=True),
                              st.integers(1, 5), st.lists(CARDS, max_size=6)),
                    min_size=1, max_size=4))
    def test_contains_gives_the_verdict_of_its_definition(self, cases):
        # the drawn patterns repeat cards, miss the length and hold foreign
        # cards, beside one the family holds; each family is judged twice,
        # so a verdict cannot rest on what was judged before
        for support, take, drawn in cases * 2:
            fam = SiteFamily("t/any", "arrangement", tuple(support), min(take, len(support)))
            for pattern in (drawn, support[::-1][:fam.take]):
                pattern = tuple(CardId(*card) for card in pattern)  # equal, not the same
                shown = set(pattern)
                defined = len(pattern) == fam.take == len(shown) and shown <= set(fam.support)
                assert fam.contains(pattern) == defined, (fam, pattern)


class TestSitePlan:
    def test_example_grid_unit_count(self, example_grid):
        plan = site_plan(example_grid)
        assert len(plan) == 191
        keys = [fam.key for fam in plan]
        assert len(set(keys)) == 191
        marginals = [fam for fam in plan if "/pos" in fam.key]
        assert len(marginals) == 95
        assert all(fam.kind == "pick" and fam.take == 1 for fam in marginals)

    def test_every_unit_is_directly_testable(self, example_grid):
        # splitting leaves no family with more patterns than the threshold
        for fam in site_plan(example_grid):
            assert fam.size() <= MARGINAL_THRESHOLD

    def test_split_families_are_named_in_one_place(self):
        # the "/pos" keys are made where site_plan splits a site, and never
        # parsed back out of a key
        tree = ast.parse(Path(analysis.__file__).read_text(encoding="utf-8"))
        named = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and "/pos" in str(node.value)]
        plan = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "site_plan")
        assert len(named) == 1
        assert named[0] in list(ast.walk(plan))

    def test_splits_exactly_the_sites_above_the_threshold(self, example_grid):
        sites = [SiteFamily(*site) for site in reveal_site_plan(example_grid)]
        assert len(sites) == 111
        expected = []
        for fam in sites:
            if fam.size() > MARGINAL_THRESHOLD:
                expected += [f"{fam.key}/pos{pos}" for pos in range(1, fam.take + 1)]
            else:
                expected.append(fam.key)
        assert [fam.key for fam in site_plan(example_grid)] == expected

    def test_small_grid_splits_nothing_by_default(self, quad_grid):
        plan = site_plan(quad_grid)
        assert len(plan) == 16
        assert not any("/pos" in fam.key for fam in plan)

    def test_split_families_pick_over_their_sites_support(self, example_grid):
        support = {site: cards for site, _, cards, _ in reveal_site_plan(example_grid)}
        for fam in site_plan(example_grid):
            assert fam.size() <= MARGINAL_THRESHOLD
            site, split, _ = fam.key.partition("/pos")
            if split:
                assert (fam.kind, fam.support, fam.take) == ("pick", support[site], 1)


NOT_ACCEPTING = "transcript is not an accepting run of this grid"


class TestSiteHistograms:
    def run_transcript(self, grid, solution, seed):
        source = RandomSource(seed)
        verdict, transcript = run_full_protocol(grid, make_prover(solution, source),
                                                source)
        assert verdict.accepted
        return transcript

    def test_counts_one_pattern_per_site_per_transcript(self, quad_grid):
        solution = {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 1}
        hist = SiteHistograms(quad_grid)
        for seed in ("h1", "h2", "h3"):
            hist.add_transcript(self.run_transcript(quad_grid, solution, seed))
        assert counted(hist) == 3
        for fam in hist.families:
            assert sum(hist.counts[fam.key].values()) == 3
            for pattern in hist.counts[fam.key]:
                assert fam.contains(pattern)

    def test_split_sites_count_each_position(self, example_grid, example_solution):
        hist = SiteHistograms(example_grid)
        hist.add_transcript(self.run_transcript(example_grid, example_solution, "m1"))
        row1 = [fam.key for fam in hist.families
                if fam.key.startswith("arrow/4.3/row1/pos")]
        assert len(row1) == 9
        for key in row1:
            counter = hist.counts[key]
            assert sum(counter.values()) == 1
            ((card,),) = counter  # a single one-card pattern
            assert card.set == "enc:a"

    def test_split_site_counts_match_their_position_keys(self, example_grid,
                                                         example_solution):
        hist = SiteHistograms(example_grid)
        expected = Counter()
        for seed in ("p1", "p2"):
            transcript = self.run_transcript(example_grid, example_solution, seed)
            hist.add_transcript(transcript)
            for site, pattern in site_patterns(transcript.events):
                if site in hist.counts:
                    expected[site, pattern] += 1
                else:
                    for pos, card in enumerate(pattern, start=1):
                        expected[f"{site}/pos{pos}", (card,)] += 1
        assert Counter({(key, pattern): n for key, counter in hist.counts.items()
                        for pattern, n in counter.items()}) == expected

    def test_transcripts_that_are_not_accepting_runs_are_rejected(self, example_grid,
                                                                  example_solution):
        def doctored(edit):
            transcript = self.run_transcript(example_grid, example_solution, "bad")
            edit(transcript.events)
            return transcript

        def drop_a_reveal(events):
            del events[next(i for i, ev in enumerate(events) if ev[0] == "reveal")]

        def swap_a_site_event(events):
            # with the event before it, so the run keeps its length
            at = next(i for i, ev in enumerate(events) if ev[0] == "site")
            events[at - 1], events[at] = events[at], events[at - 1]

        def fill_a_reveal_slot(stranger):
            # the run keeps its length and its site and closing events
            def edit(events):
                events[next(i for i, ev in enumerate(events) if ev[0] == "reveal")] = stranger
            return edit

        other = parse_puzzle("makaro 1 1\nZ\n")
        source = RandomSource("other")
        _, from_another_grid = run_full_protocol(other, make_prover({(0, 0): 1}, source),
                                                 source)
        hist = SiteHistograms(example_grid)
        for transcript in (from_another_grid, doctored(drop_a_reveal),
                           doctored(swap_a_site_event),
                           # no card to read, and a card-like third field
                           doctored(fill_a_reveal_slot(("turn-down",))),
                           doctored(fill_a_reveal_slot(("helps", 1, 3)))):
            with pytest.raises(ValueError, match=NOT_ACCEPTING):
                hist.add_transcript(transcript)
            with pytest.raises(ValueError, match=NOT_ACCEPTING):
                read_view(example_grid, transcript)
        assert counted(hist) == 0
        assert not any(hist.counts.values())

    def test_a_reveal_slot_without_a_card_is_refused(self, quad_grid):
        # a reveal event with no card, or with a third field that is not a
        # card (and does not hash), in any reveal slot: ValueError, and no
        # other exception, from the reader and the histograms alike
        solution = {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 1}
        accepted = self.run_transcript(quad_grid, solution, "slots")
        slots = [at for at, ev in enumerate(accepted.events) if ev[0] == "reveal"]
        assert len(slots) > 10
        hist = SiteHistograms(quad_grid)
        for at in slots:
            pos = accepted.events[at][1]
            for stranger in (("reveal",), ("reveal", pos), ("reveal", pos, [1])):
                transcript = Transcript()
                transcript.events = [*accepted.events[:at], stranger, *accepted.events[at + 1:]]
                with pytest.raises(ValueError, match=NOT_ACCEPTING):
                    hist.add_transcript(transcript)
                with pytest.raises(ValueError, match=NOT_ACCEPTING):
                    read_view(quad_grid, transcript)
        assert counted(hist) == 0
        assert not any(hist.counts.values())

    def test_a_run_changed_outside_its_reveals_is_refused(self, example_grid,
                                                          example_solution):
        # the reader takes only the reveal slots' cards, so it accepts a
        # transcript only if the writer writes those cards back as it
        accepted = self.run_transcript(example_grid, example_solution, "outside")

        def changed(kind, edit, pick=0):
            events = list(accepted.events)
            at = [i for i, ev in enumerate(events) if ev[0] == kind][pick]
            events[at] = edit(events[at])
            transcript = Transcript()
            transcript.events = events
            return transcript

        ends = sum(ev[0] == "end" for ev in accepted.events)
        assert ends > 2
        hist = SiteHistograms(example_grid)
        for transcript in (
                changed("rearrange", lambda ev: (ev[0], ev[1][::-1])),
                changed("collect", lambda ev: (*ev[:3], ev[3] + 1)),
                changed("end", lambda ev: (*ev[:3], not ev[3]), pick=ends // 2),
                # a clued cell shows another card of its room
                changed("place", lambda ev: (ev[0], ev[1],
                                             ev[2]._replace(index=ev[2].index % 2 + 1)))):
            assert len(transcript) == len(accepted) and transcript != accepted
            with pytest.raises(ValueError, match=NOT_ACCEPTING):
                hist.add_transcript(transcript)
            with pytest.raises(ValueError, match=NOT_ACCEPTING):
                read_view(example_grid, transcript)
        assert counted(hist) == 0
        assert not any(hist.counts.values())
        hist.add_transcript(accepted)
        assert counted(hist) == 1

    def test_a_rejected_run_is_rejected(self):
        # line3 "A A B": values 2 1 1 pass both room checks and fail only the
        # last check, so the rejected run is as long as an accepting one
        grid = load_grid("line3.makaro")
        source = RandomSource("rejected")
        verdict, transcript = run_full_protocol(
            grid, make_prover({(0, 0): 2, (0, 1): 1, (0, 2): 1}, source), source)
        assert not verdict.accepted
        hist = SiteHistograms(grid)
        accepted = self.run_transcript(grid, {(0, 0): 1, (0, 1): 2, (0, 2): 1}, "accepted")
        assert len(transcript) == len(accepted)
        with pytest.raises(ValueError, match=NOT_ACCEPTING):
            hist.add_transcript(transcript)
        with pytest.raises(ValueError, match=NOT_ACCEPTING):
            read_view(grid, transcript)
        hist.add_transcript(accepted)
        assert counted(hist) == 1

    def test_transcript_from_another_grid_is_rejected(self, quad_grid):
        other = parse_puzzle("makaro 1 1\nZ\n")
        source = RandomSource("x")
        _, transcript = run_full_protocol(other, make_prover({(0, 0): 1}, source),
                                          source)
        with pytest.raises(ValueError, match=NOT_ACCEPTING):
            SiteHistograms(quad_grid).add_transcript(transcript)
        with pytest.raises(ValueError, match=NOT_ACCEPTING):
            read_view(quad_grid, transcript)

    def test_views_count_as_their_simulated_transcripts(self, example_grid):
        by_view, by_transcript = SiteHistograms(example_grid), SiteHistograms(example_grid)
        by_view.add_views([simulate_view(example_grid, RandomSource.for_trial("views", i))
                           for i in range(200)])
        for i in range(200):
            by_transcript.add_transcript(
                simulate_transcript(example_grid, RandomSource.for_trial("views", i)))
        assert counted(by_view) == 200
        assert by_view.counts == by_transcript.counts

    def test_a_view_of_the_wrong_length_is_refused(self, example_grid):
        hist = SiteHistograms(example_grid)
        views = [simulate_view(example_grid, RandomSource.for_trial("view", i))
                 for i in range(3)]
        hist.add_views(views[:1])
        before = {key: Counter(counter) for key, counter in hist.counts.items()}
        view = views[0]
        for bad in (view[:-1], view + view[:1]):
            # alone, or in a block whose other views would count
            for block in ([bad], [views[1], bad, views[2]]):
                with pytest.raises(ValueError, match="view does not hold this grid's reveals"):
                    hist.add_views(block)
        assert hist.counts == before
        hist.add_views([])
        assert hist.counts == before

    def test_merge_adds_counts(self, quad_grid):
        solution = {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 1}
        a = SiteHistograms(quad_grid)
        b = SiteHistograms(quad_grid)
        a.add_transcript(self.run_transcript(quad_grid, solution, "ma"))
        b.add_transcript(self.run_transcript(quad_grid, solution, "mb"))
        b.add_transcript(self.run_transcript(quad_grid, solution, "mc"))
        a.merge(b)
        assert counted(a) == 3
        for fam in a.families:
            assert sum(a.counts[fam.key].values()) == 3

    def test_merge_requires_the_same_site_plan(self, quad_grid, cross_grid):
        # rooms of 2 and of 3 cells give the same site keys, not the same cards
        pair, line = parse_puzzle("makaro 1 2\nA A\n"), parse_puzzle("makaro 1 3\nA A A\n")
        for grid_a, grid_b in ((quad_grid, cross_grid), (pair, line)):
            with pytest.raises(ValueError, match="histograms cover different reveal sites"):
                SiteHistograms(grid_a).merge(SiteHistograms(grid_b))
            with pytest.raises(ValueError, match="histograms cover different reveal sites"):
                compare_collections("mismatch", SiteHistograms(grid_a), SiteHistograms(grid_b))


class TestUniformityTest:
    def test_exactly_uniform_counts_pass(self):
        fam = perm_family(3)
        counter = Counter({p: 50 for p in
                           [(a, b, c) for a in fam.support for b in fam.support
                            for c in fam.support
                            if len({a, b, c}) == 3]})
        report = uniformity_test(fam, counter)
        assert report.passed
        assert report.statistic == pytest.approx(0.0)
        assert report.p_value == pytest.approx(1.0)
        assert (report.bins, report.df, report.draws) == (6, 5, 300)

    def test_point_mass_fails(self):
        fam = perm_family(3)
        report = uniformity_test(fam, Counter({fam.support: 600}))
        assert not report.passed
        assert report.p_value < 1e-12

    def test_moderate_skew_fails(self):
        fam = perm_family(3)
        patterns = sorted(Counter({p: 1 for p in
                                   [(a, b, c) for a in fam.support
                                    for b in fam.support for c in fam.support
                                    if len({a, b, c}) == 3]}))
        counts = [160, 88, 88, 88, 88, 88]
        report = uniformity_test(fam, Counter(dict(zip(patterns, counts))))
        assert not report.passed
        assert report.p_value < 0.01

    def test_unobserved_patterns_contribute_their_expectation(self):
        fam = perm_family(3)
        patterns = sorted(Counter({p: 1 for p in
                                   [(a, b, c) for a in fam.support
                                    for b in fam.support for c in fam.support
                                    if len({a, b, c}) == 3]}))
        counter = Counter(dict(zip(patterns[:5], [6] * 5)))  # 30 draws, one bin empty
        report = uniformity_test(fam, counter)
        # five bins at (6-5)^2/5 plus the empty bin's full expectation of 5
        assert report.statistic == pytest.approx(5 * 0.2 + 5.0)
        assert report.draws == 30

    def test_too_few_draws_raise(self):
        fam = perm_family(3)
        with pytest.raises(InsufficientTrials):
            uniformity_test(fam, Counter({fam.support: 20}))
        with pytest.raises(InsufficientTrials):
            uniformity_test(fam, Counter())

    def test_draw_floor_is_the_validity_threshold(self):
        fam = perm_family(3)
        counter = Counter({p: 5 for p in
                           [(a, b, c) for a in fam.support for b in fam.support
                            for c in fam.support if len({a, b, c}) == 3]})
        assert sum(counter.values()) / fam.size() == MIN_EXPECTED
        assert uniformity_test(fam, counter).passed  # exactly at the floor is valid

    def test_pattern_outside_the_support_fails_immediately(self):
        fam = perm_family(3)
        bad = (fam.support[0], fam.support[1], encoding_card("d", 3))
        report = uniformity_test(fam, Counter({bad: 1}))
        assert not report.passed
        assert report.df == 0
        assert "outside support" in report.note

    def test_single_pattern_site_passes_trivially(self):
        fam = perm_family(1)
        report = uniformity_test(fam, Counter({fam.support: 7}))
        assert report.passed
        assert report.df == 0
        assert report.note == "single possible pattern"

    def test_real_runs_of_a_single_room_look_uniform(self):
        grid = parse_puzzle("makaro 1 3\nA A A\n")
        hist = _collect(partial(_honest_trial, grid, {(0, 0): 1, (0, 1): 2, (0, 2): 3},
                                "unif"), grid, 3000, 1)
        reports = [uniformity_test(fam, hist.counts[fam.key]) for fam in hist.families]
        tested = [r for r in reports if r.df >= 1]
        assert tested
        # the familywise 1% level, Bonferroni-corrected over the tested sites
        assert all(r.p_value >= 0.01 / len(tested) for r in tested)
        by_site = {r.site: r for r in reports}
        assert by_site["room/A/cells"].draws == 3000
        assert by_site["room/A/cells"].bins == 6


class TestChiSquareTail:
    # small dfs, and those of the full pattern spaces of 6, 7 and 8 cards
    # (6! - 1, 7! - 1, 8! - 1)
    DFS = [*range(1, 401), 719, 5039, 40319]

    def test_equals_scipy_stats_bit_for_bit(self):
        from scipy.stats import chi2

        rng = random.Random("chi2-tail")
        for df in self.DFS:
            draws = [rng.uniform(0.0, 3.0 * df) for _ in range(8)]
            draws += [rng.gauss(df, math.sqrt(2 * df)) for _ in range(8)]
            for statistic in [0.0, 1e-300, 0.5, math.inf, *(abs(x) for x in draws)]:
                assert analysis._chi2_tail(statistic, df) == float(chi2.sf(statistic, df)), \
                    (statistic, df)


class TestCompareHistograms:
    def test_identical_counters_pass(self):
        fam = perm_family(2)
        a = Counter({fam.support: 80, fam.support[::-1]: 70})
        report = compare_histograms(fam, a, Counter(a))
        assert report.passed
        assert report.statistic == pytest.approx(0.0)
        assert (report.draws, report.draws_b) == (150, 150)

    def test_disjoint_collections_fail(self):
        fam = perm_family(2)
        a = Counter({fam.support: 100})
        b = Counter({fam.support[::-1]: 100})
        report = compare_histograms(fam, a, b)
        assert not report.passed
        assert report.statistic == pytest.approx(200.0)
        assert report.df == 1

    def test_skewed_collections_fail(self):
        fam = perm_family(2)
        a = Counter({fam.support: 300, fam.support[::-1]: 300})
        b = Counter({fam.support: 450, fam.support[::-1]: 150})
        report = compare_histograms(fam, a, b)
        assert not report.passed
        assert report.statistic == pytest.approx(80.0)

    def test_rare_patterns_pool_into_a_residual_bin(self):
        fam = perm_family(3)
        p, q, r = sorted(perm_family(3).support), None, None
        pats = [(p[0], p[1], p[2]), (p[1], p[0], p[2]), (p[2], p[0], p[1])]
        a = Counter({pats[0]: 100, pats[1]: 3, pats[2]: 2})
        b = Counter({pats[0]: 100, pats[1]: 2, pats[2]: 3})
        report = compare_histograms(fam, a, b)
        assert report.bins == 2  # the two rare patterns share one bin
        assert report.passed

    def test_tiny_residual_joins_the_last_kept_bin(self):
        fam = perm_family(3)
        p = sorted(fam.support)
        pats = [(p[0], p[1], p[2]), (p[1], p[0], p[2]), (p[2], p[0], p[1])]
        a = Counter({pats[0]: 50, pats[1]: 50, pats[2]: 2})
        b = Counter({pats[0]: 50, pats[1]: 50, pats[2]: 1})
        report = compare_histograms(fam, a, b)
        assert report.bins == 2
        assert report.passed

    def test_everything_pooled_is_a_trivial_pass(self):
        fam = perm_family(2)
        a = Counter({fam.support: 5, fam.support[::-1]: 1})
        b = Counter({fam.support: 5, fam.support[::-1]: 2})
        report = compare_histograms(fam, a, b)
        assert report.passed
        assert report.df == 0
        assert report.note == "pooled to a single bin"

    def test_empty_collection_raises(self):
        fam = perm_family(2)
        with pytest.raises(InsufficientTrials):
            compare_histograms(fam, Counter({fam.support: 10}), Counter())

    def test_pooling_ignores_counter_insertion_order(self):
        fam = perm_family(3)
        p = sorted(fam.support)
        pats = [(p[0], p[1], p[2]), (p[1], p[0], p[2]), (p[2], p[0], p[1])]
        a = Counter({pats[0]: 60, pats[1]: 40, pats[2]: 4})
        b = Counter({pats[2]: 4, pats[1]: 38, pats[0]: 62})
        fwd = compare_histograms(fam, a, b)
        rev = compare_histograms(fam, Counter(dict(reversed(a.items()))),
                                 Counter(dict(reversed(b.items()))))
        assert fwd == rev


BUNDLED = sorted(p.stem for p in PUZZLES.glob("*.makaro") if not p.stem.endswith("_solution"))
QUAD_SOLUTION = {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 1}
QUAD_MIRROR = {(0, 0): 2, (0, 1): 1, (1, 0): 1, (1, 1): 2}


class TestCollection:
    def test_trial_count_and_per_site_draws(self, quad_grid):
        hist = _collect(partial(_honest_trial, quad_grid, QUAD_SOLUTION, "c1"),
                        quad_grid, 50, 1)
        assert counted(hist) == 50
        assert all(sum(c.values()) == 50 for c in hist.counts.values())

    def test_worker_count_does_not_change_the_histograms(self, quad_grid):
        real_runs = partial(_honest_trial, quad_grid, QUAD_SOLUTION, "wk")
        serial = _collect(real_runs, quad_grid, 60, 1)
        parallel = _collect(real_runs, quad_grid, 60, 2)
        assert counted(serial) == counted(parallel) == 60
        assert serial.counts == parallel.counts

    def test_simulator_collection_matches_across_workers(self, quad_grid):
        simulated = partial(_simulated_trial, quad_grid, "wks")
        serial = _collect(simulated, quad_grid, 60, 1)
        parallel = _collect(simulated, quad_grid, 60, 3)
        assert serial.counts == parallel.counts

    def test_workers_are_capped_at_the_cpu_count(self, quad_grid, monkeypatch):
        # an in-process pool stands in for the processes and records how
        # many would start
        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        simulated = partial(_simulated_trial, quad_grid, "cap")
        serial = _collect(simulated, quad_grid, 60, 1)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        capped = _collect(simulated, quad_grid, 60, 1000)
        assert started == [3]
        assert capped.counts == serial.counts
        # one CPU, or a count the platform cannot tell, runs in this process
        for count in (1, None):
            monkeypatch.setattr(os, "cpu_count", lambda: count)
            alone = _collect(simulated, quad_grid, 60, 1000)
            assert alone.counts == serial.counts
        assert started == [3]

    @pytest.mark.parametrize("name", BUNDLED)
    def test_a_block_counts_what_single_views_count(self, name):
        grid = load_grid(f"{name}.makaro")
        solved = PUZZLES / f"{name}_solution.makaro"
        solution = load_solution(solved.name) if solved.exists() else solve_brute_force(grid)[0]
        block = analysis._BLOCK
        runs = (1, block - 1, block, block + 1, 301)
        transcripts, simulated = [], []
        for trial in range(max(runs)):
            source = RandomSource.for_trial("blocks/real", trial)
            verdict, transcript = run_full_protocol(grid, make_prover(solution, source), source)
            assert verdict.accepted
            transcripts.append(transcript)
            simulated.append(simulate_view(grid, RandomSource.for_trial("blocks/sim", trial)))
        real = [tuple(ev[2] for ev in t.events if ev[0] == "reveal") for t in transcripts]
        one_by_one = SiteHistograms(grid)
        for transcript in transcripts:
            one_by_one.add_transcript(transcript)
        assert one_by_one.counts == counted_one_at_a_time(grid, real)
        # each side's trials, counted over a block's end, read the same views
        for views, trial in ((real, partial(_honest_trial, grid, solution, "blocks/real")),
                             (simulated, partial(_simulated_trial, grid, "blocks/sim"))):
            assert (_collect(trial, grid, block + 1, 1).counts
                    == counted_one_at_a_time(grid, views[:block + 1]))
            for count in runs:
                expected = counted_one_at_a_time(grid, views[:count])
                blocks = _collect(lambda i: views[i], grid, count, 1)
                assert counted(blocks) == count
                assert blocks.counts == expected
                whole = SiteHistograms(grid)
                whole.add_views(views[:count])
                assert whole.counts == expected

    def test_a_real_trial_neither_writes_nor_reads_a_transcript(self, monkeypatch, capsys):
        # the real side takes each view from the live run: with read_view
        # and the transcript writer raising, zk-test prints the report its
        # golden pins
        def refused(*args):
            raise AssertionError("a real trial wrote or read a transcript")

        for module in (makaro_zkp, protocol, analysis):
            monkeypatch.setattr(module, "read_view", refused)
        monkeypatch.setattr(protocol, "_write", refused)
        code = main(["zk-test", "--puzzle", str(PUZZLES / "example5x5.makaro"),
                     "--solution", str(PUZZLES / "example5x5_solution.makaro"),
                     "--trials", "300", "--report-format", "json"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ZK_TEST_JSON

    def test_rule_breaking_solution_is_refused(self, quad_grid):
        bad = {(0, 0): 1, (0, 1): 2, (1, 0): 1, (1, 1): 2}
        with pytest.raises(ProtocolError):
            _collect(partial(_honest_trial, quad_grid, bad, "c2"), quad_grid, 5, 1)

    def test_trials_must_be_positive(self, quad_grid):
        with pytest.raises(ValueError):
            _collect(partial(_honest_trial, quad_grid, QUAD_SOLUTION, "c3"),
                     quad_grid, 0, 1)

    def test_collections_from_different_grids_do_not_compare(self, quad_grid,
                                                             cross_grid,
                                                             cross_solution):
        a = _collect(partial(_honest_trial, quad_grid, QUAD_SOLUTION, "c4"),
                     quad_grid, 5, 1)
        b = _collect(partial(_honest_trial, cross_grid, cross_solution, "c4"),
                     cross_grid, 5, 1)
        with pytest.raises(ValueError, match="histograms cover different reveal sites"):
            compare_collections("mismatch", a, b)


class TestComparisonReports:
    def test_real_versus_simulated_runs_pass(self, quad_grid):
        report = zk_comparison(quad_grid, QUAD_SOLUTION, "zkq", trials=800)
        assert report.passed
        assert not [s.site for s in report.sites if not s.passed]
        assert report.tested_sites == 14
        assert report.alpha_site == pytest.approx(0.01 / 14)

    def test_two_valid_solutions_are_indistinguishable(self, quad_grid):
        report = solution_comparison(quad_grid, QUAD_SOLUTION, QUAD_MIRROR,
                                     "solq", trials=800)
        assert report.passed

    def test_doctored_histograms_are_caught(self, quad_grid):
        real = _collect(partial(_honest_trial, quad_grid, QUAD_SOLUTION, "d1"),
                        quad_grid, 400, 1)
        fake = _collect(partial(_honest_trial, quad_grid, QUAD_SOLUTION, "d2"),
                        quad_grid, 400, 1)
        key = "room/A/cells"
        pattern = (cell_card("A", 1), cell_card("A", 2))
        fake.counts[key] = Counter({pattern: 400})  # prover who never shuffles
        report = compare_collections("doctored", real, fake)
        assert not report.passed
        assert [s.site for s in report.sites if not s.passed] == [key]

    def test_reports_do_not_depend_on_workers(self, quad_grid):
        # 301 trials split into blocks and chunks at different places
        reports = [zk_comparison(quad_grid, QUAD_SOLUTION, "split", 301, workers=workers)
                   for workers in (1, 2, 3)]
        assert reports[0].tested_sites > 0
        assert reports[1] == reports[0] == reports[2]

    def test_a_comparison_that_tests_no_site_raises(self, example_grid, example_solution):
        # one run per side pools every site to a single bin: a PASS would be vacuous
        with pytest.raises(InsufficientTrials):
            zk_comparison(example_grid, example_solution, "one", trials=1)
        # a grid whose every site has a single possible pattern still passes
        single = parse_puzzle("makaro 1 1\nA\n")
        report = zk_comparison(single, {(0, 0): 1}, "one", trials=1)
        assert report.passed and report.tested_sites == 0

    def test_text_report_is_deterministic_and_readable(self, quad_grid):
        a = zk_comparison(quad_grid, QUAD_SOLUTION, "rep", trials=400)
        b = zk_comparison(quad_grid, QUAD_SOLUTION, "rep", trials=400)
        text = a.to_text()
        assert text == b.to_text()
        lines = text.splitlines()
        assert lines[0] == "protocol vs simulator: PASS"
        assert "familywise alpha" in lines[1]
        assert len(lines) == 3 + len(a.sites)  # verdict + alpha + header + rows

    def test_records_serialize_to_json(self, quad_grid):
        report = zk_comparison(quad_grid, QUAD_SOLUTION, "js", trials=400)
        payload = json.loads(report.to_json())
        rows = payload["sites"]
        assert len(rows) == len(report.sites)
        assert all(row["passed"] for row in rows)
        assert (payload["trials_per_side"], payload["passed"]) == (400, True)
        assert not hasattr(report, "to_records")


def test_settings_that_no_caller_sets_are_constants():
    def parameters(function):
        return list(inspect.signature(function).parameters)

    assert parameters(gridgen.enumerate_small_grids) == []
    assert parameters(site_plan) == parameters(SiteHistograms) == ["grid"]
    assert "alpha" not in parameters(uniformity_test)
    assert "alpha" not in parameters(compare_histograms)
    assert not {"workers", "alpha"} & set(parameters(solution_comparison))
    assert not hasattr(RandomSource, "from_seed")
    assert "uniformity_sweep" not in makaro_zkp.__all__
    assert [field.name for field in dataclasses.fields(CardBudget)] == [
        "cell_cards", "helping_cards", "encoding_cards", "total"]
