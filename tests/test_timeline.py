"""Tests for symbolic timelines, episode detection, fixes, and survival."""

from __future__ import annotations

import random
from dataclasses import FrozenInstanceError
from importlib.util import find_spec

import pytest

from oracle_episodes import episodes_oracle
from oracle_history import DocVersion, build_timeline, episode_duration
from staleref.docdiscovery import DocumentDescriptor, ORIGIN_README
from staleref.revgraph import Revision
from staleref.timeline import (
    DOC_ABSENT,
    FIX_DOC_DELETE,
    FIX_DOC_UPDATE,
    FIX_SOURCE_CHANGE,
    NO_REFERENCE,
    detect_episodes,
    survival_curve,
)

DOC = DocumentDescriptor(ORIGIN_README, "README.md", "markdown")
T = 1_600_000_000
STEP = 100


def revs(n, start=T, step=STEP):
    return tuple(Revision(f"{i:040x}", start + i * step, i) for i in range(n))


def tl(symbols, revisions=None):
    """Arguments for ``detect_episodes``: the symbols and their revisions."""
    return tuple(symbols), revisions or revs(len(symbols))


def shape(episodes):
    return [(e.start_ordinal, e.end_ordinal, e.fix.kind if e.fix else None) for e in episodes]


class TestBuildTimeline:
    """Pins the oracle's ``build_timeline``, which run_history must agree with."""

    def test_symbol_derivation(self):
        revisions = revs(4)
        versions = [
            None,
            DocVersion(DOC, revisions[1], "no mention\n"),
            DocVersion(DOC, revisions[2], "use `elem()` now\n"),
            DocVersion(DOC, revisions[3], "use `elem()` now\n"),
        ]
        pairs = list(zip(revisions, versions))
        counts = {2: 3, 3: 0}
        refs = {"no mention\n": set(), "use `elem()` now\n": {"elem()"}}
        symbols = build_timeline(
            "elem()", pairs,
            counts_provider=lambda element, rev: counts[rev.ordinal],
            refs_provider=lambda version: refs[version.text],
        )
        assert list(symbols) == [DOC_ABSENT, NO_REFERENCE, 3, 0]

    def test_table4_shape(self):
        # 50 revisions: no README for 13, present without the reference for
        # 18, then 7 revisions with three instances, 4 outdated zeros, and
        # the reference removed from the doc for the final 8.
        expected = [DOC_ABSENT] * 13 + [NO_REFERENCE] * 18 + [3] * 7 + [0] * 4 + [NO_REFERENCE] * 8
        revisions = revs(50)
        pairs = []
        for i, rev in enumerate(revisions):
            if i < 13:
                pairs.append((rev, None))
            elif 13 <= i < 31 or i >= 42:
                pairs.append((rev, DocVersion(DOC, rev, "plain\n")))
            else:
                pairs.append((rev, DocVersion(DOC, rev, "`elem()`\n")))
        counts = {i: (3 if 31 <= i < 38 else 0) for i in range(50)}
        symbols = build_timeline(
            "elem()", pairs,
            counts_provider=lambda element, rev: counts[rev.ordinal],
            refs_provider=lambda version: {"elem()"} if "elem()" in version.text else set(),
        )
        assert list(symbols) == expected

    def test_provider_failure_propagates(self):
        revisions = revs(3)
        pairs = [(rev, DocVersion(DOC, rev, "`elem()`\n")) for rev in revisions]

        def counts(element, rev):
            if rev.ordinal == 1:
                raise RuntimeError("boom")
            return 1

        with pytest.raises(RuntimeError, match="boom"):
            build_timeline(
                "elem()", pairs,
                counts_provider=counts,
                refs_provider=lambda version: {"elem()"},
            )

    def test_single_commit_repo(self):
        revisions = revs(1)
        pairs = [(revisions[0], DocVersion(DOC, revisions[0], "`elem()`\n"))]
        symbols = build_timeline(
            "elem()", pairs,
            counts_provider=lambda element, rev: 1,
            refs_provider=lambda version: {"elem()"},
        )
        assert list(symbols) == [1]


class TestDetectEpisodes:
    def test_worked_scenario_single_ongoing(self):
        episodes = detect_episodes(*tl([2, 0, 0, DOC_ABSENT, 0, 0, 0]))
        assert shape(episodes) == [(1, None, None)]
        assert episodes[0].ongoing

    def test_render_files_row(self):
        episodes = detect_episodes(*tl([3, 3, 0, 0, 0, 0, NO_REFERENCE]))
        assert shape(episodes) == [(2, 6, FIX_DOC_UPDATE)]

    def test_never_zero_no_episodes(self):
        assert detect_episodes(*tl([NO_REFERENCE, NO_REFERENCE, 1, 2, 2])) == []

    def test_outdated_once_again(self):
        episodes = detect_episodes(*tl([1, 0, 2, 0, NO_REFERENCE]))
        assert shape(episodes) == [(1, 2, FIX_SOURCE_CHANGE), (3, 4, FIX_DOC_UPDATE)]

    def test_doc_delete_fix(self):
        episodes = detect_episodes(*tl([1, 0, DOC_ABSENT, NO_REFERENCE]))
        assert shape(episodes) == [(1, 2, FIX_DOC_DELETE)]

    def test_trailing_doc_absent_after_zeros(self):
        episodes = detect_episodes(*tl([3, 0, DOC_ABSENT, DOC_ABSENT]))
        assert shape(episodes) == [(1, 2, FIX_DOC_DELETE)]

    def test_zero_without_prior_positive_ignored(self):
        assert detect_episodes(*tl([0, 0, NO_REFERENCE, 0])) == []

    def test_dash_crossing_opens_second_episode(self):
        # The relaxed rule only asks for a positive somewhere earlier, so the
        # zero after the dash still opens an episode.
        episodes = detect_episodes(*tl([3, 0, NO_REFERENCE, 0]))
        assert shape(episodes) == [(1, 2, FIX_DOC_UPDATE), (3, None, None)]

    def test_strict_requires_positive_immediately_before(self):
        episodes = detect_episodes(*tl([3, 0, NO_REFERENCE, 0]), strict=True)
        assert shape(episodes) == [(1, 2, FIX_DOC_UPDATE)]

    def test_strict_allows_doc_absent_gap(self):
        episodes = detect_episodes(*tl([3, DOC_ABSENT, 0, 0]), strict=True)
        assert shape(episodes) == [(2, None, None)]

    def test_table6_all_three_fixes(self):
        for end_symbol, kind in (
            (DOC_ABSENT, FIX_DOC_DELETE),
            (NO_REFERENCE, FIX_DOC_UPDATE),
            (7, FIX_SOURCE_CHANGE),
        ):
            episodes = detect_episodes(*tl([2, 0, end_symbol]))
            assert shape(episodes) == [(1, 2, kind)], end_symbol

    def test_fix_event_carries_revision_details(self):
        revisions = revs(3)
        episodes = detect_episodes(*tl([2, 0, NO_REFERENCE], revisions))
        fix = episodes[0].fix
        assert fix.at_ordinal == 2
        assert fix.at_sha == revisions[2].sha
        assert fix.at_timestamp == revisions[2].timestamp

    def test_episodes_disjoint_and_ordered(self):
        episodes = detect_episodes(*tl([1, 0, 2, 0, 3, 0, DOC_ABSENT, NO_REFERENCE]))
        spans = [(e.start_ordinal, e.end_ordinal) for e in episodes]
        assert spans == sorted(spans)
        for (s1, e1), (s2, _) in zip(spans, spans[1:]):
            assert e1 <= s2


class TestOracleEquivalence:
    ALPHABET = [DOC_ABSENT, NO_REFERENCE, 0, 0, 1, 2, 4]

    def check(self, symbols, strict):
        got = shape(detect_episodes(*tl(symbols), strict=strict))
        want = episodes_oracle(symbols, strict=strict)
        assert got == want, (symbols, strict)

    def test_randomized_sequences_match_oracle(self):
        rng = random.Random(1234)
        for case in range(1500):
            symbols = [rng.choice(self.ALPHABET) for _ in range(rng.randrange(1, 9))]
            self.check(symbols, strict=case % 3 == 0)

    def test_exhaustive_short_sequences(self):
        alphabet = [DOC_ABSENT, NO_REFERENCE, 0, 2]
        def walk(prefix, depth):
            if depth == 0:
                self.check(prefix, strict=False)
                self.check(prefix, strict=True)
                return
            for symbol in alphabet:
                walk(prefix + [symbol], depth - 1)
        for length in range(1, 6):
            walk([], length)


class TestDurations:
    def test_fixed_episode_duration(self):
        # Start t=200 (first zero), fix t=400: duration 200.
        revisions = revs(4, start=100, step=100)
        episode = detect_episodes(*tl([2, 0, 0, NO_REFERENCE], revisions))[0]
        assert episode.duration_seconds == 200

    def test_ongoing_duration_uses_scan_time(self):
        revisions = revs(2, start=100, step=100)
        episode = detect_episodes(*tl([2, 0], revisions), scan_time=1000)[0]
        assert episode.duration_seconds == 800

    def test_ongoing_without_scan_time_has_no_duration(self):
        episode = detect_episodes(*tl([2, 0]))[0]
        assert episode.ongoing and episode.duration_seconds is None

    def test_negative_duration_retained(self):
        # A revert can give the fix revision an older timestamp.
        revisions = (
            Revision("0" * 40, 400, 0),
            Revision("1" * 39 + "a", 500, 1),
            Revision("2" * 39 + "b", 100, 2),
        )
        episode = detect_episodes(*tl([2, 0, NO_REFERENCE], revisions), scan_time=900)[0]
        assert episode.duration_seconds == -400

    def test_episodes_are_frozen(self):
        episode = detect_episodes(*tl([2, 0, NO_REFERENCE]))[0]
        with pytest.raises(FrozenInstanceError):
            episode.duration_seconds = 0
        with pytest.raises(FrozenInstanceError):
            episode.fix = None

    @pytest.mark.skipif(find_spec("hypothesis") is None, reason="needs hypothesis (test extra)")
    def test_durations_equal_the_oracle_arithmetic(self):
        from hypothesis import given, settings, strategies as st

        symbol = st.sampled_from([DOC_ABSENT, NO_REFERENCE, 0, 0, 1, 3])

        # Timestamps in a narrow range, in any order, make negative and
        # zero durations common.
        @settings(max_examples=500, deadline=None, derandomize=True)
        @given(
            st.lists(st.tuples(symbol, st.integers(0, 50)), min_size=1, max_size=12),
            st.booleans(),
            st.one_of(st.none(), st.integers(0, 80)),
        )
        def check(cells, strict, scan_time):
            symbols = tuple(s for s, _ in cells)
            revisions = tuple(Revision(f"{i:040x}", t, i) for i, (_, t) in enumerate(cells))
            episodes = detect_episodes(symbols, revisions, strict, scan_time)
            assert shape(episodes) == episodes_oracle(symbols, strict=strict)
            for episode in episodes:
                want = (
                    None if episode.ongoing and scan_time is None
                    else episode_duration(episode, revisions, scan_time)
                )
                assert episode.duration_seconds == want, (symbols, strict, scan_time)

        check()


class TestSurvival:
    def test_hand_counted_fraction(self):
        assert survival_curve([10, 20, 30], [15]) == [(15.0, pytest.approx(2 / 3))]

    def test_zero_horizon_everything_survives(self):
        assert survival_curve([10, 20, 30], [0]) == [(0.0, 1.0)]

    def test_strictly_greater_rule(self):
        assert survival_curve([42] * 4, [42]) == [(42.0, 0.0)]

    def test_monotone_nonincreasing_and_bounded(self):
        rng = random.Random(7)
        durations = [rng.randrange(1, 1000) for _ in range(60)]
        grid = sorted({0, *durations})
        curve = survival_curve(durations, grid)
        fractions = [f for _, f in curve]
        assert fractions[0] == 1.0
        assert all(0.0 <= f <= 1.0 for f in fractions)
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))

    def test_empty_input_empty_curve(self):
        assert survival_curve([], [0, 10]) == []

    @pytest.mark.skipif(find_spec("hypothesis") is None, reason="needs hypothesis (test extra)")
    def test_equals_counting_every_episode(self):
        from hypothesis import example, given, strategies as st

        def oracle(durations, grid):
            # Each grid point counts every episode that outlived it.
            total = len(durations)
            return [(float(d), sum(1 for x in durations if x > d) / total) for d in grid]

        # A narrow range makes duplicate durations, and grid points between
        # and beyond them, common.
        values = st.integers(min_value=-5, max_value=40)

        @given(st.lists(values, min_size=1, max_size=30), st.lists(values, max_size=20))
        @example([7, 3, 3, 7, 7], [0, 3, 5, 7, 9])
        def check(durations, grid):
            assert survival_curve(list(durations), grid) == oracle(durations, grid)

        check()
