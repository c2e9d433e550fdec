"""Tests for continuous query answering (paper §IV-B)."""

from __future__ import annotations

import random

import pytest

from repro.baselines.brute import BruteForceReference
from repro.core.continuous import ContinuousQueryState
from repro.core.maintenance import SCaseMaintainer
from repro.core.query import TopKPairsQuery
from repro.obs.cost_model import Counters
from repro.scoring.library import k_closest_pairs, k_furthest_pairs
from repro.stream.manager import StreamManager


def random_rows(count, d, seed):
    rng = random.Random(seed)
    return [tuple(rng.random() for _ in range(d)) for _ in range(count)]


def drive_continuous(rows, N, K, k, n, sf=None, d=2):
    """Stream rows; after each tick check the answer against brute force.

    Returns the final state for further assertions.
    """
    sf = sf if sf is not None else k_closest_pairs(d)
    manager = StreamManager(N, d)
    maintainer = SCaseMaintainer(sf, K)
    ref = BruteForceReference(sf, N)
    state = ContinuousQueryState(TopKPairsQuery(sf, k, n, continuous=True))
    state.initialize(maintainer.pst, manager.now_seq)
    for row in rows:
        event = manager.append(row)
        delta = maintainer.on_tick(manager, (event.new,), event.expired)
        ref.append(row)
        answer = state.apply(delta, maintainer.pst, manager.now_seq)
        want = ref.top_k(k, n)
        assert [p.uid for p in answer] == [p.uid for p in want]
    return state


class TestContinuousCorrectness:
    @pytest.mark.parametrize("k,n", [(1, 10), (3, 10), (5, 25), (8, 5)])
    def test_always_matches_brute_force(self, k, n):
        drive_continuous(
            random_rows(150, 2, seed=k * 10 + n), N=25, K=8, k=k, n=n
        )

    def test_k_equals_K_and_n_equals_N(self):
        drive_continuous(random_rows(120, 2, seed=9), N=20, K=5, k=5, n=20)

    def test_furthest_pairs(self):
        drive_continuous(
            random_rows(100, 2, seed=3), N=20, K=4, k=4, n=15,
            sf=k_furthest_pairs(2),
        )

    def test_tiny_window(self):
        drive_continuous(random_rows(60, 2, seed=4), N=4, K=2, k=2, n=3)

    def test_answer_sorted_by_score(self):
        state = drive_continuous(
            random_rows(80, 2, seed=5), N=15, K=5, k=5, n=10
        )
        keys = [p.score_key for p in state.answer]
        assert keys == sorted(keys)


class TestRecomputeFallback:
    def test_recompute_happens_but_rarely(self):
        """§IV-B: the from-scratch fallback fires with probability ~k/n, so
        for k << n it must be much rarer than one-per-tick."""
        ticks = 300
        k, n = 3, 50
        sf = k_closest_pairs(2)
        manager = StreamManager(60, 2)
        maintainer = SCaseMaintainer(sf, 6)
        state = ContinuousQueryState(TopKPairsQuery(sf, k, n, continuous=True))
        state.initialize(maintainer.pst, 0)
        for row in random_rows(ticks, 2, seed=6):
            event = manager.append(row)
            delta = maintainer.on_tick(manager, (event.new,), event.expired)
            state.apply(delta, maintainer.pst, manager.now_seq)
        assert 0 < state.recompute_count < ticks * 0.5

    def test_counters_track_recomputations(self):
        counters = Counters()
        sf = k_closest_pairs(2)
        manager = StreamManager(10, 2)
        maintainer = SCaseMaintainer(sf, 3)
        state = ContinuousQueryState(
            TopKPairsQuery(sf, 3, 8, continuous=True), counters=counters
        )
        state.initialize(maintainer.pst, 0)
        for row in random_rows(80, 2, seed=7):
            event = manager.append(row)
            delta = maintainer.on_tick(manager, (event.new,), event.expired)
            state.apply(delta, maintainer.pst, manager.now_seq)
        assert counters.recomputations == state.recompute_count


class TestAnswerLifecycle:
    def test_initialize_mid_stream(self):
        sf = k_closest_pairs(2)
        manager = StreamManager(20, 2)
        maintainer = SCaseMaintainer(sf, 4)
        ref = BruteForceReference(sf, 20)
        rows = random_rows(50, 2, seed=8)
        for row in rows[:30]:
            event = manager.append(row)
            maintainer.on_tick(manager, (event.new,), event.expired)
            ref.append(row)
        state = ContinuousQueryState(
            TopKPairsQuery(sf, 4, 15, continuous=True)
        )
        state.initialize(maintainer.pst, manager.now_seq)
        assert [p.uid for p in state.answer] == [
            p.uid for p in ref.top_k(4, 15)
        ]
        for row in rows[30:]:
            event = manager.append(row)
            delta = maintainer.on_tick(manager, (event.new,), event.expired)
            ref.append(row)
            state.apply(delta, maintainer.pst, manager.now_seq)
            assert [p.uid for p in state.answer] == [
                p.uid for p in ref.top_k(4, 15)
            ]

    def test_answer_shrinks_when_stream_is_short(self):
        sf = k_closest_pairs(2)
        manager = StreamManager(30, 2)
        maintainer = SCaseMaintainer(sf, 5)
        state = ContinuousQueryState(TopKPairsQuery(sf, 5, 30, continuous=True))
        state.initialize(maintainer.pst, 0)
        event = manager.append((0.1, 0.1))
        delta = maintainer.on_tick(manager, (event.new,), event.expired)
        state.apply(delta, maintainer.pst, manager.now_seq)
        assert len(state) == 0  # one object, no pairs yet
        event = manager.append((0.2, 0.2))
        delta = maintainer.on_tick(manager, (event.new,), event.expired)
        state.apply(delta, maintainer.pst, manager.now_seq)
        assert len(state) == 1
