"""The incremental maintenance path must be bit-identical to a
from-scratch Algorithm 4 sweep over every window pair: same skyband, same
staircase points, same answers, at every tick."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.monitor import TopKPairsMonitor
from repro.core.pair import make_pair
from repro.core.skyband_update import sweep_skyband
from repro.obs import MetricsRecorder
from repro.scoring.library import k_closest_pairs, k_furthest_pairs
from repro.structures.heap import MaxHeap

from tests.conftest import make_pair_at, random_rows


def reference_sweep_skyband(pairs_sorted, K):
    """The straightforward Algorithm 4 sweep (a MaxHeap over pairs): the
    obviously correct oracle for the heapq production sweep."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    heap = MaxHeap(key=lambda pair: pair.age_key)
    kept, points = [], []
    for pair in pairs_sorted:
        if len(heap) < K:
            kept.append(pair)
            heap.push(pair)
            if len(heap) == K:
                points.append((pair.score_key, heap.peek().age_key))
        elif pair.age_key < heap.peek().age_key:
            kept.append(pair)
            heap.pushpop(pair)
            points.append((pair.score_key, heap.peek().age_key))
    return kept, points


def sorted_pairs(age_scores):
    pairs = [make_pair_at(age_score) for age_score in age_scores]
    pairs.sort(key=lambda p: p.score_key)
    return pairs


class TestSweepImplementations:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 25), st.floats(0, 50)),
            max_size=60,
        ),
        st.integers(1, 8),
    )
    def test_fast_sweep_equals_reference(self, age_scores, K):
        pairs = sorted_pairs(age_scores)
        fast_kept, fast_points = sweep_skyband(pairs, K)
        ref_kept, ref_points = reference_sweep_skyband(pairs, K)
        assert [p.uid for p in fast_kept] == [p.uid for p in ref_kept]
        assert fast_points == ref_points

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 25), st.floats(0, 50)),
            min_size=2,
            max_size=60,
        ),
        st.integers(1, 6),
        st.data(),
    )
    def test_seeded_suffix_sweep_equals_full_sweep(self, age_scores, K, data):
        """Splitting a full sweep's input at any kept position and
        re-sweeping the suffix with the prefix's K smallest age keys as
        seed must reproduce the full sweep's suffix exactly."""
        pairs = sorted_pairs(age_scores)
        kept, points = sweep_skyband(pairs, K)
        split = data.draw(st.integers(0, len(pairs)))
        prefix = [p for p in kept if p.score_key < pairs[split:][0].score_key] \
            if split < len(pairs) else kept
        seed = sorted(p.age_key for p in prefix)[:K]
        suffix_kept, suffix_points = sweep_skyband(
            pairs[split:], K, seed=seed
        )
        assert [p.uid for p in prefix + suffix_kept] == [p.uid for p in kept]
        prefix_points = max(0, len(prefix) - K + 1)
        assert points[:prefix_points] + suffix_points == points

    def test_k_validation(self):
        with pytest.raises(ValueError):
            sweep_skyband([], 0)
        with pytest.raises(ValueError):
            reference_sweep_skyband([], 0)


def window_pairs_sorted(monitor, scoring_function):
    """Every pair of the monitor's current window, by score key."""
    objects = monitor.manager.objects()
    pairs = [
        make_pair(a, b, scoring_function)
        for i, a in enumerate(objects)
        for b in objects[i + 1:]
    ]
    pairs.sort(key=lambda p: p.score_key)
    return pairs


def drive_pairwise(strategy, rows, *, k, window, time_horizon=None,
                   timestamps=None):
    """Stream ``rows`` through one monitor and, after every tick,
    re-sweep all window pairs with the reference sweep: the skyband, the
    staircase and the answer (the first k skyband pairs) must match."""
    monitor = TopKPairsMonitor(window, 2, strategy=strategy,
                               time_horizon=time_horizon)
    scoring = k_closest_pairs(2)
    handle = monitor.register_query(scoring, k=k)
    for index, row in enumerate(rows):
        ts = timestamps[index] if timestamps is not None else None
        monitor.append(row, timestamp=ts)
        maintainer = monitor.maintainer_for(scoring)
        kept, points = reference_sweep_skyband(
            window_pairs_sorted(monitor, scoring), k
        )
        assert [p.uid for p in maintainer.skyband] == [p.uid for p in kept]
        assert maintainer.staircase.points() == points
        assert [p.uid for p in monitor.results(handle)] == \
            [p.uid for p in kept[:k]]
    monitor.check_invariants()


@pytest.mark.parametrize("strategy", ["scase", "ta"])
class TestFastPathEquivalence:
    def test_count_window_stream(self, strategy):
        drive_pairwise(strategy, random_rows(80, 2, seed=1), k=4, window=20)

    def test_time_horizon_bursts(self, strategy):
        """Timestamp jumps expire many objects in one tick — the case
        the coalesced expiry exists for."""
        rows = random_rows(90, 2, seed=2)
        timestamps, now = [], 0.0
        for index in range(len(rows)):
            now += 12.0 if index and index % 15 == 0 else 1.0
            timestamps.append(now)
        drive_pairwise(strategy, rows, k=4, window=200, time_horizon=30.0,
                       timestamps=timestamps)


class TestIncrementalDispatch:
    def test_forced_incremental_matches_forced_sweep(self):
        """Even with the ratio heuristic pinned to each extreme, results
        agree (the dispatch is a pure performance decision)."""
        rows = random_rows(70, 2, seed=3)
        always, never = [], []
        for ratio, out in ((10**9, always), (0, never)):
            monitor = TopKPairsMonitor(18, 2, strategy="scase")
            handle = monitor.register_query(k_furthest_pairs(2), k=3)
            group = monitor._groups[next(iter(monitor._groups))]
            group.maintainer.incremental_ratio = ratio
            for row in rows:
                monitor.append(row)
                out.append([p.uid for p in monitor.results(handle)])
            monitor.check_invariants()
        assert always == never

    def test_staircase_size_law(self):
        """Algorithm 4 emits one point per kept pair from the K-th on —
        the prefix/suffix stitching depends on this exact count."""
        monitor = TopKPairsMonitor(25, 2, strategy="scase")
        monitor.register_query(k_closest_pairs(2), k=5)
        for row in random_rows(60, 2, seed=4):
            monitor.append(row)
            group = monitor._groups[next(iter(monitor._groups))]
            maintainer = group.maintainer
            assert len(maintainer.staircase) == max(
                0, len(maintainer.skyband) - maintainer.K + 1
            )

    def test_apply_path_metrics(self):
        """The recorder counts which maintenance path each merge took."""
        recorder = MetricsRecorder()
        monitor = TopKPairsMonitor(20, 2, strategy="scase",
                                   recorder=recorder)
        monitor.register_query(k_closest_pairs(2), k=3)
        for row in random_rows(60, 2, seed=5):
            monitor.append(row)
        registry = recorder.registry
        incremental = registry.value("repro_apply_path_total", "incremental")
        sweep = registry.value("repro_apply_path_total", "sweep")
        assert incremental > 0
        assert incremental + sweep > 0


@pytest.mark.parametrize("strategy", ["scase", "ta"])
def test_burst_expiry_costs_one_staircase_refresh(strategy):
    """Coalesced expiry: however many objects a tick evicts, it runs at
    most two sweeps (one staircase refresh plus one candidate merge),
    where refreshing per expired object would run one per object."""
    recorder = MetricsRecorder()
    monitor = TopKPairsMonitor(200, 2, strategy=strategy,
                               time_horizon=30.0, recorder=recorder)
    scoring = k_closest_pairs(2)
    monitor.register_query(scoring, k=8)
    maintainer = monitor.maintainer_for(scoring)
    registry = recorder.registry
    now, bursts = 0.0, 0
    for index, row in enumerate(random_rows(200, 2, seed=8)):
        now += 12.0 if index and index % 25 == 0 else 1.0
        owners = {p.oldest_seq for p in maintainer.skyband}
        sweeps = registry.value("repro_sweeps_total")
        event = monitor.append(row, timestamp=now)
        if len(event.expired) < 3:
            continue
        assert registry.value("repro_sweeps_total") - sweeps <= 2, index
        if len(owners & {gone.seq for gone in event.expired}) >= 3:
            bursts += 1
    # Ticks that dropped the skyband pairs of three or more objects.
    assert bursts >= 3
