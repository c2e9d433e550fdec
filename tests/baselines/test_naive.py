"""Tests for the naive / naive++ competitor (paper §VI-B)."""

from __future__ import annotations

import random

from repro.baselines.brute import BruteForceReference
from repro.baselines.naive import NaiveAlgorithm
from repro.obs.cost_model import Counters
from repro.scoring.library import k_closest_pairs, k_furthest_pairs


def random_rows(count, d, seed):
    rng = random.Random(seed)
    return [tuple(rng.random() for _ in range(d)) for _ in range(count)]


class TestCorrectnessAtFullWindow:
    def test_matches_brute_force(self):
        sf = k_closest_pairs(2)
        naive = NaiveAlgorithm(sf, K=5, window_size=20)
        ref = BruteForceReference(sf, 20)
        for i, row in enumerate(random_rows(80, 2, seed=1)):
            naive.append(row)
            ref.append(row)
            for k in (1, 3, 5):
                assert [p.uid for p in naive.top_k(k)] == [
                    p.uid for p in ref.top_k(k)
                ], (i, k)
        naive.check_invariants()

    def test_furthest_pairs(self):
        sf = k_furthest_pairs(2)
        naive = NaiveAlgorithm(sf, K=4, window_size=15)
        ref = BruteForceReference(sf, 15)
        for row in random_rows(50, 2, seed=2):
            naive.append(row)
            ref.append(row)
        assert [p.uid for p in naive.top_k(4)] == [p.uid for p in ref.top_k(4)]

    def test_short_stream(self):
        sf = k_closest_pairs(1)
        naive = NaiveAlgorithm(sf, K=3, window_size=10)
        naive.append((1.0,))
        assert naive.top_k(3) == []
        naive.append((2.0,))
        assert len(naive.top_k(3)) == 1

    def test_plus_plus_is_exact_for_its_own_query(self):
        """naive++ built with (k, n) answers exactly that query."""
        sf = k_closest_pairs(2)
        k, n = 3, 12
        naive_pp = NaiveAlgorithm.plus_plus(sf, k, n)
        ref = BruteForceReference(sf, n)
        for row in random_rows(60, 2, seed=3):
            naive_pp.append(row)
            ref.append(row)
            assert [p.uid for p in naive_pp.top_k(k)] == [
                p.uid for p in ref.top_k(k)
            ]


class TestStorage:
    def test_space_is_O_KN(self):
        sf = k_closest_pairs(2)
        K, N = 4, 25
        naive = NaiveAlgorithm(sf, K=K, window_size=N)
        for row in random_rows(100, 2, seed=4):
            naive.append(row)
        assert naive.stored_pairs <= K * N

    def test_expiry_removes_references(self):
        sf = k_closest_pairs(2)
        naive = NaiveAlgorithm(sf, K=3, window_size=8)
        for row in random_rows(40, 2, seed=5):
            naive.append(row)
            naive.check_invariants()


class TestCost:
    def test_expiry_triggers_rescans(self):
        """The expensive part of naive: refilling damaged best-lists costs
        extra score evaluations beyond the per-arrival O(N)."""
        sf = k_closest_pairs(2)
        N, K, ticks = 30, 5, 200
        counters = Counters()
        naive = NaiveAlgorithm(sf, K=K, window_size=N, counters=counters)
        for row in random_rows(ticks, 2, seed=6):
            naive.append(row)
        # A pure per-arrival pass would cost < ticks * N evaluations;
        # naive's refills push it clearly above that.
        assert counters.score_evaluations > ticks * N
