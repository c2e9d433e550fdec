"""Tests for the basic maintainer, the linear scan and the brute-force
reference."""

from __future__ import annotations

import random

from repro.baselines.basic import BasicMaintainer
from repro.baselines.brute import BruteForceReference
from repro.baselines.linear import linear_top_k
from repro.core.maintenance import SCaseMaintainer
from repro.core.pair import dominates
from repro.obs.cost_model import Counters
from repro.scoring.library import k_closest_pairs
from repro.stream.manager import StreamManager


def random_rows(count, d, seed):
    rng = random.Random(seed)
    return [tuple(rng.random() for _ in range(d)) for _ in range(count)]


class TestBasicMaintainer:
    def test_same_skyband_as_scase(self):
        sf = k_closest_pairs(2)
        mgr_a, mgr_b = StreamManager(20, 2), StreamManager(20, 2)
        basic = BasicMaintainer(sf, K=4)
        scase = SCaseMaintainer(sf, K=4)
        for row in random_rows(90, 2, seed=1):
            ev_a = mgr_a.append(row)
            basic.on_tick(mgr_a, (ev_a.new,), ev_a.expired)
            ev_b = mgr_b.append(row)
            scase.on_tick(mgr_b, (ev_b.new,), ev_b.expired)
        assert {p.uid for p in basic.skyband} == {p.uid for p in scase.skyband}

    def test_dominance_checks_exceed_scase_staircase_checks(self):
        """The staircase's whole purpose: far fewer comparisons (Fig 12)."""
        sf = k_closest_pairs(2)
        counters_basic, counters_scase = Counters(), Counters()
        mgr_a, mgr_b = StreamManager(60, 2), StreamManager(60, 2)
        basic = BasicMaintainer(sf, K=8, counters=counters_basic)
        scase = SCaseMaintainer(sf, K=8, counters=counters_scase)
        for row in random_rows(200, 2, seed=2):
            ev_a = mgr_a.append(row)
            basic.on_tick(mgr_a, (ev_a.new,), ev_a.expired)
            ev_b = mgr_b.append(row)
            scase.on_tick(mgr_b, (ev_b.new,), ev_b.expired)
        # Basic pays per-pair prefix scans; SCase pays one binary search
        # (counted as one staircase check) per pair.
        assert counters_basic.dominance_checks > (
            counters_scase.staircase_checks
        )


class TestLinearScan:
    def test_matches_prefix_of_skyband(self):
        sf = k_closest_pairs(2)
        manager = StreamManager(15, 2)
        maintainer = SCaseMaintainer(sf, K=5)
        ref = BruteForceReference(sf, 15)
        for row in random_rows(50, 2, seed=3):
            event = manager.append(row)
            maintainer.on_tick(manager, (event.new,), event.expired)
            ref.append(row)
        now = manager.now_seq
        for k, n in ((1, 15), (3, 8), (5, 4)):
            got = linear_top_k(maintainer.skyband, k, n, now)
            assert [p.uid for p in got] == [p.uid for p in ref.top_k(k, n)]

    def test_counts_scanned_pairs(self):
        sf = k_closest_pairs(2)
        manager = StreamManager(15, 2)
        maintainer = SCaseMaintainer(sf, K=5)
        for row in random_rows(50, 2, seed=4):
            event = manager.append(row)
            maintainer.on_tick(manager, (event.new,), event.expired)
        counters = Counters()
        linear_top_k(maintainer.skyband, 2, 15, manager.now_seq,
                     counters=counters)
        assert counters.answer_scans >= 2

    def test_empty_skyband(self):
        assert linear_top_k([], 3, 10, 5) == []


class TestBruteForceReference:
    def test_all_pairs_count(self):
        sf = k_closest_pairs(1)
        ref = BruteForceReference(sf, 10)
        for v in range(5):
            ref.append((float(v),))
        assert len(ref.all_pairs()) == 10  # C(5, 2)

    def test_window_filtering(self):
        sf = k_closest_pairs(1)
        ref = BruteForceReference(sf, 3)
        for v in range(5):
            ref.append((float(v),))
        assert len(ref.all_pairs()) == 3  # C(3, 2)
        assert len(ref.all_pairs(n=2)) == 1

    def test_skyband_members_have_few_dominators(self):
        sf = k_closest_pairs(2)
        ref = BruteForceReference(sf, 12)
        for row in random_rows(30, 2, seed=5):
            ref.append(row)
        K = 3
        pairs = ref.all_pairs()
        skyband = {p.uid for p in ref.skyband(K)}
        for p in pairs:
            dominators = sum(1 for q in pairs if dominates(q, p))
            assert (dominators < K) == (p.uid in skyband)
