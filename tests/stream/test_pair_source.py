"""Tests for incremental sorted-pair retrieval (paper Fig 6)."""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scoring.local import (
    AbsoluteDifference,
    CustomLocal,
    NegatedAbsoluteDifference,
    NegatedSumValues,
    SumValues,
    Trend,
)
from repro.stream.manager import StreamManager
from repro.stream.pair_source import iter_pairs_by_age, iter_pairs_by_local_score


def manager_with(values):
    mgr = StreamManager(len(values) + 1, 1)
    for v in values:
        mgr.append((v,))
    return mgr


LOCALS = [
    AbsoluteDifference(),
    NegatedAbsoluteDifference(),
    SumValues(),
    NegatedSumValues(),
]


@pytest.mark.parametrize("local_fn", LOCALS, ids=lambda f: f.name)
class TestLocalScoreOrder:
    def test_scores_ascending_and_complete(self, local_fn):
        mgr = manager_with([3.0, 8.0, 1.0, 6.0, 4.0])
        new = mgr.append((5.0,)).new
        out = list(iter_pairs_by_local_score(mgr, new, 0, local_fn))
        scores = [s for _, s in out]
        assert scores == sorted(scores)
        assert len(out) == 5  # every partner exactly once
        assert len({p.seq for p, _ in out}) == 5
        assert all(p.seq != new.seq for p, _ in out)

    def test_scores_match_direct_evaluation(self, local_fn):
        mgr = manager_with([2.0, 9.0, 7.0])
        new = mgr.append((4.0,)).new
        for partner, score in iter_pairs_by_local_score(mgr, new, 0, local_fn):
            assert score == local_fn.score(4.0, partner.values[0])

    def test_random_streams(self, local_fn):
        rng = random.Random(99)
        for trial in range(10):
            values = [rng.uniform(-5, 5) for _ in range(rng.randint(1, 25))]
            mgr = manager_with(values)
            new = mgr.append((rng.uniform(-5, 5),)).new
            out = list(iter_pairs_by_local_score(mgr, new, 0, local_fn))
            scores = [s for _, s in out]
            assert scores == sorted(scores)
            assert len(out) == len(values)


class TestEdgeCases:
    def test_new_object_alone_yields_nothing(self):
        mgr = StreamManager(5, 1)
        new = mgr.append((1.0,)).new
        assert list(iter_pairs_by_local_score(mgr, new, 0, AbsoluteDifference())) == []
        assert list(iter_pairs_by_age(mgr, new)) == []

    def test_duplicate_values(self):
        mgr = manager_with([5.0, 5.0, 5.0])
        new = mgr.append((5.0,)).new
        out = list(iter_pairs_by_local_score(mgr, new, 0, AbsoluteDifference()))
        assert [s for _, s in out] == [0.0, 0.0, 0.0]

    def test_new_object_at_extreme(self):
        mgr = manager_with([1.0, 2.0, 3.0])
        new = mgr.append((100.0,)).new
        out = list(
            iter_pairs_by_local_score(mgr, new, 0, NegatedAbsoluteDifference())
        )
        # Furthest-first: the smallest value is the best partner.
        assert out[0][0].values[0] == 1.0
        assert [s for _, s in out] == sorted(s for _, s in out)


class TestAgeOrder:
    def test_newest_partners_first(self):
        mgr = manager_with([1.0, 2.0, 3.0])
        new = mgr.append((4.0,)).new
        partners = list(iter_pairs_by_age(mgr, new))
        assert [p.seq for p in partners] == [3, 2, 1]

    def test_pair_ages_ascending(self):
        mgr = manager_with([1.0, 2.0, 3.0])
        new = mgr.append((4.0,)).new
        now = mgr.now_seq
        ages = [
            max(p.age(now), new.age(now)) for p in iter_pairs_by_age(mgr, new)
        ]
        assert ages == sorted(ages)


class TestFoldedCursors:
    """``AbsoluteDifference`` and ``NegatedAbsoluteDifference`` compute
    their scores inline; a ``CustomLocal`` of the same function and
    trends takes the generic cursor, which calls ``score``."""

    GENERIC = {
        AbsoluteDifference: CustomLocal(
            lambda x, y: abs(x - y), Trend.INCREASING_AWAY,
            Trend.INCREASING_AWAY),
        NegatedAbsoluteDifference: CustomLocal(
            lambda x, y: -abs(x - y), Trend.DECREASING_AWAY,
            Trend.DECREASING_AWAY),
    }

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-5.0, 5.0),
                st.sampled_from((0.0, -0.0, 1.0, 5e-324, -5e-324, 1e308,
                                 -1e308, 0.25)) | st.floats(
                                     allow_nan=False, allow_infinity=False),
            ),
            min_size=1, max_size=30,
        ),
        st.sampled_from((AbsoluteDifference, NegatedAbsoluteDifference)),
    )
    def test_same_partners_and_bits_as_the_generic_cursor(self, rows, kind):
        mgr = StreamManager(len(rows), 2)
        for row in rows:
            mgr.append(row)
        for obj in mgr:
            for attribute in (0, 1):
                folded = [
                    (p.seq, struct.pack("d", score))
                    for p, score in iter_pairs_by_local_score(
                        mgr, obj, attribute, kind())
                ]
                generic = [
                    (p.seq, struct.pack("d", score))
                    for p, score in iter_pairs_by_local_score(
                        mgr, obj, attribute, self.GENERIC[kind])
                ]
                assert folded == generic
                assert len(folded) == len(rows) - 1

    def test_subclasses_keep_calling_score(self):
        class Halved(AbsoluteDifference):
            def score(self, x, y):
                return abs(x - y) / 2

        mgr = manager_with([1.0, 4.0])
        new = mgr.append((2.0,)).new
        out = list(iter_pairs_by_local_score(mgr, new, 0, Halved()))
        assert [s for _, s in out] == [0.5, 1.0]
