"""Tests for pairs in (age, score) space and the dominance relation."""

from __future__ import annotations

import pytest

from repro.core.pair import Pair, dominates, make_pair, window_age_key_bound
from repro.obs.cost_model import Counters
from repro.scoring.library import k_closest_pairs
from repro.stream.object import StreamObject

from tests.conftest import make_pair_at


def obj(seq, *values):
    return StreamObject(seq, values or (0.0,))


class TestPairBasics:
    def test_canonical_order(self):
        p = Pair(obj(5), obj(2), 1.0)
        assert p.older.seq == 2
        assert p.newer.seq == 5

    def test_rejects_self_pair(self):
        with pytest.raises(ValueError):
            Pair(obj(3), obj(3), 1.0)

    def test_age_is_older_members_age(self):
        """Paper §II-B: pair age = max of member ages."""
        p = Pair(obj(2), obj(7), 1.0)
        assert p.age(now_seq=10) == 9  # 10 - 2 + 1

    def test_age_key_orders_by_age(self):
        young = Pair(obj(8), obj(9), 1.0)
        old = Pair(obj(2), obj(9), 1.0)
        assert young.age_key < old.age_key

    def test_expiry_via_in_window(self):
        p = Pair(obj(2), obj(7), 1.0)
        assert p.in_window(now_seq=10, n=9)
        assert not p.in_window(now_seq=10, n=8)

    def test_uid_symmetric_and_unique(self):
        assert Pair(obj(1), obj(2), 0.0).uid == Pair(obj(2), obj(1), 9.0).uid
        assert Pair(obj(1), obj(2), 0.0).uid != Pair(obj(1), obj(3), 0.0).uid

    def test_equality_and_hash_by_members(self):
        a = Pair(obj(1), obj(2), 0.0)
        b = Pair(obj(2), obj(1), 5.0)
        assert a == b
        assert len({a, b}) == 1

    def test_ordering_by_score_key(self):
        cheap = Pair(obj(1), obj(2), 1.0)
        dear = Pair(obj(3), obj(4), 2.0)
        assert cheap < dear

    def test_objects_accessor(self):
        p = Pair(obj(4), obj(1), 0.0)
        assert tuple(o.seq for o in p.objects()) == (1, 4)


class TestScoreKeyTieBreaking:
    """Footnote 1: ties resolved by an infinitesimal perturbation."""

    def test_equal_scores_more_recent_ranks_first(self):
        older_pair = make_pair_at((9, 5.0))
        newer_pair = make_pair_at((2, 5.0))
        assert newer_pair.score_key < older_pair.score_key

    def test_score_keys_unique_even_for_identical_points(self):
        a = make_pair_at((5, 5.0))
        b = make_pair_at((5, 5.0))
        assert a.score_key != b.score_key


class TestDominance:
    def test_strictly_better_dominates(self):
        better = make_pair_at((2, 1.0))
        worse = make_pair_at((5, 3.0))
        assert dominates(better, worse)
        assert not dominates(worse, better)

    def test_equal_age_smaller_score_dominates(self):
        a = make_pair_at((4, 1.0))
        b = make_pair_at((4, 2.0))
        assert dominates(a, b)
        assert not dominates(b, a)

    def test_equal_score_smaller_age_dominates(self):
        """Preserved by the perturbation: more recent ranks first."""
        recent = make_pair_at((2, 5.0))
        stale = make_pair_at((7, 5.0))
        assert dominates(recent, stale)
        assert not dominates(stale, recent)

    def test_incomparable_points(self):
        low_score_old = make_pair_at((9, 1.0))
        high_score_new = make_pair_at((2, 8.0))
        assert not dominates(low_score_old, high_score_new)
        assert not dominates(high_score_new, low_score_old)

    def test_no_self_domination(self):
        p = make_pair_at((3, 3.0))
        assert not dominates(p, p)

    def test_identical_coordinates_one_direction_only(self):
        """Two pairs at the same (age, score) point: the perturbation must
        make exactly one side win at most (never both)."""
        a = make_pair_at((5, 5.0))
        b = make_pair_at((5, 5.0))
        assert not (dominates(a, b) and dominates(b, a))


class TestWindowBound:
    def test_bound_matches_in_window(self):
        now = 50
        for n in (1, 5, 49):
            bound = window_age_key_bound(now, n)
            for age in range(1, now):
                p = make_pair_at((age, 1.0), now_seq=now)
                assert (p.age_key <= bound) == p.in_window(now, n)


class TestMakePair:
    def test_scores_and_counts(self):
        counters = Counters()
        sf = k_closest_pairs(1)
        p = make_pair(obj(1, 1.0), obj(2, 4.0), sf, counters)
        assert p.score == 3.0
        assert counters.score_evaluations == 1

    def test_counters_optional(self):
        sf = k_closest_pairs(1)
        p = make_pair(obj(1, 1.0), obj(2, 4.0), sf)
        assert p.score == 3.0
