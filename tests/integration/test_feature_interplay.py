"""Interplay of the extensions: filters + callbacks + batching + time
windows, all at once, still exact against the ground truth."""

from __future__ import annotations

import random

from repro.baselines.brute import BruteForceReference
from repro.core.monitor import TopKPairsMonitor
from repro.core.pair import Pair
from repro.scoring.library import k_closest_pairs


def same_group(a, b) -> bool:
    return a.payload == b.payload


class TestFiltersWithBatching:
    def test_filtered_query_under_batched_ingestion(self):
        sf = k_closest_pairs(2)
        N, k, n = 16, 3, 12
        monitor = TopKPairsMonitor(N, 2)
        ref = BruteForceReference(sf, N, pair_filter=same_group)
        handle = monitor.register_query(sf, k=k, n=n,
                                        pair_filter=same_group)
        rng = random.Random(1)
        for _ in range(15):
            chunk = []
            for _ in range(5):
                row = (rng.random(), rng.random())
                category = rng.randrange(3)
                chunk.append((row, category))
            # batched into the monitor, per-row into the reference
            start_seq = monitor.manager.now_seq
            events = []
            for row, category in chunk:
                events.append(
                    monitor.manager.append(row, payload=category)
                )
                obj = ref.append(row)
                obj.payload = category
            # drive the groups through one multi-row tick directly
            expired = [g for e in events for g in e.expired]
            survivors = [
                e.new for e in events
                if e.new.seq not in {g.seq for g in expired}
            ]
            for group in monitor._groups.values():
                delta = group.maintainer.on_tick(
                    monitor.manager, survivors, expired
                )
                for h in group.queries.values():
                    if h.state is not None:
                        h.state.apply(delta, group.maintainer.pst,
                                      monitor.manager.now_seq)
            got = [p.uid for p in monitor.results(handle)]
            want = [p.uid for p in ref.top_k(k, n)]
            assert got == want
        monitor.check_invariants()


class TestCallbacksWithFilters:
    def test_alerts_respect_the_filter(self):
        sf = k_closest_pairs(2)
        monitor = TopKPairsMonitor(12, 2)
        alerts: list[Pair] = []

        def on_change(entered, left):
            alerts.extend(entered)

        monitor.register_query(
            sf, k=3, pair_filter=same_group, on_change=on_change
        )
        rng = random.Random(2)
        for _ in range(60):
            monitor.append(
                (rng.random(), rng.random()), payload=rng.randrange(2)
            )
        assert alerts
        for pair in alerts:
            assert pair.older.payload == pair.newer.payload


class TestTimeWindowWithCallbacks:
    def test_burst_expiry_triggers_departure_events(self):
        sf = k_closest_pairs(1)
        monitor = TopKPairsMonitor(
            window_size=1000, num_attributes=1, time_horizon=5.0
        )
        departures: list[Pair] = []

        def on_change(entered, left):
            departures.extend(left)

        handle = monitor.register_query(sf, k=2, on_change=on_change)
        monitor.append((1.0,), timestamp=0.0)
        monitor.append((1.1,), timestamp=0.5)
        monitor.append((1.2,), timestamp=1.0)
        assert len(monitor.results(handle)) == 2
        # A long gap expires everything; the old top pairs must be
        # reported as having left.
        monitor.append((9.0,), timestamp=100.0)
        assert departures
        assert monitor.results(handle) == []


class TestDynamicQueriesWithSharedSkyband:
    def test_register_unregister_churn_stays_exact(self):
        sf = k_closest_pairs(2)
        N = 14
        monitor = TopKPairsMonitor(N, 2)
        ref = BruteForceReference(sf, N)
        rng = random.Random(3)
        live = []
        for tick in range(120):
            row = (rng.random(), rng.random())
            monitor.append(row)
            ref.append(row)
            if tick % 9 == 0:
                k, n = rng.randint(1, 4), rng.randint(2, N)
                live.append(monitor.register_query(sf, k=k, n=n))
            if tick % 13 == 0 and live:
                monitor.unregister_query(live.pop(0))
            for handle in live:
                q = handle.query
                assert [p.uid for p in monitor.results(handle)] == [
                    p.uid for p in ref.top_k(q.k, q.n)
                ]
