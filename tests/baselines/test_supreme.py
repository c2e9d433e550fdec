"""Tests for the supreme / supreme++ oracle competitor (paper §VI-B)."""

from __future__ import annotations

import random

from repro.baselines.brute import BruteForceReference
from repro.baselines.supreme import SupremeAlgorithm
from repro.obs.cost_model import Counters
from repro.scoring.library import k_closest_pairs


def random_rows(count, d, seed):
    rng = random.Random(seed)
    return [tuple(rng.random() for _ in range(d)) for _ in range(count)]


class TestExactness:
    """Supreme is a *cost* model, never an approximation."""

    def test_snapshot_answers_exact(self):
        sf = k_closest_pairs(2)
        supreme = SupremeAlgorithm(sf, K=5, window_size=20, num_attributes=2)
        ref = BruteForceReference(sf, 20)
        for row in random_rows(70, 2, seed=1):
            supreme.append(row)
            ref.append(row)
            for k, n in ((1, 20), (3, 10), (5, 6)):
                assert [p.uid for p in supreme.top_k(k, n)] == [
                    p.uid for p in ref.top_k(k, n)
                ]

    def test_continuous_answers_exact(self):
        sf = k_closest_pairs(2)
        supreme = SupremeAlgorithm(sf, K=4, window_size=15, num_attributes=2)
        ref = BruteForceReference(sf, 15)
        supreme.register_continuous(query_id=1, k=3, n=10)
        for row in random_rows(60, 2, seed=2):
            supreme.append(row)
            ref.append(row)
            assert [p.uid for p in supreme.answer(1)] == [
                p.uid for p in ref.top_k(3, 10)
            ]

    def test_plus_plus_exact_for_its_query(self):
        sf = k_closest_pairs(2)
        k, n = 2, 8
        supreme_pp = SupremeAlgorithm.plus_plus(sf, k, n, num_attributes=2)
        ref = BruteForceReference(sf, n)
        for row in random_rows(40, 2, seed=3):
            supreme_pp.append(row)
            ref.append(row)
            assert [p.uid for p in supreme_pp.top_k(k)] == [
                p.uid for p in ref.top_k(k)
            ]


class TestChargeableAccounting:
    def test_maintenance_charges_exactly_new_pair_scores(self):
        """Lower bound: one score evaluation per new in-window pair."""
        sf = k_closest_pairs(2)
        N, ticks = 12, 40
        counters = Counters()
        supreme = SupremeAlgorithm(
            sf, K=3, window_size=N, num_attributes=2, counters=counters
        )
        for row in random_rows(ticks, 2, seed=4):
            supreme.append(row)
        # Arrival t sees min(t, N) - 1 partners.
        want = sum(min(t, N) - 1 for t in range(1, ticks + 1))
        assert counters.score_evaluations == want

    def test_query_charges_O_k(self):
        sf = k_closest_pairs(2)
        counters = Counters()
        supreme = SupremeAlgorithm(
            sf, K=6, window_size=15, num_attributes=2, counters=counters
        )
        for row in random_rows(40, 2, seed=5):
            supreme.append(row)
        counters.answer_scans = 0
        supreme.top_k(4, 15)
        assert counters.answer_scans == 4

    def test_chargeable_time_accumulates(self):
        sf = k_closest_pairs(2)
        supreme = SupremeAlgorithm(sf, K=3, window_size=20, num_attributes=2)
        assert supreme.chargeable_seconds == 0.0
        for row in random_rows(30, 2, seed=6):
            supreme.append(row)
        assert supreme.chargeable_seconds > 0.0

    def test_supreme_plus_plus_charges_only_window_n(self):
        """supreme++ with window n charges O(n) per arrival, not O(N)."""
        sf = k_closest_pairs(2)
        counters_small = Counters()
        counters_big = Counters()
        small = SupremeAlgorithm.plus_plus(
            sf, 2, 10, num_attributes=2, counters=counters_small
        )
        big = SupremeAlgorithm.plus_plus(
            sf, 2, 40, num_attributes=2, counters=counters_big
        )
        for row in random_rows(120, 2, seed=7):
            small.append(row)
            big.append(row)
        assert counters_small.score_evaluations < counters_big.score_evaluations
