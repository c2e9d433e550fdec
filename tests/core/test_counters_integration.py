"""Cost-model integration: the counters every algorithm charges must be
internally consistent and reflect the paper's accounting."""

from __future__ import annotations

import random

from repro.baselines.basic import BasicMaintainer
from repro.core.maintenance import SCaseMaintainer, TAMaintainer
from repro.core.monitor import TopKPairsMonitor
from repro.obs.cost_model import Counters
from repro.scoring.library import k_closest_pairs
from repro.stream.manager import StreamManager


def drive(maintainer, manager, rows):
    for row in rows:
        event = manager.append(row)
        maintainer.on_tick(manager, (event.new,), event.expired)


def random_rows(count, d, seed):
    rng = random.Random(seed)
    return [tuple(rng.random() for _ in range(d)) for _ in range(count)]


class TestSCaseAccounting:
    def test_scase_scores_every_window_pair(self):
        """Algorithm 3 considers exactly N-1 (or fewer while filling)
        pairs per arrival, each scored once."""
        N, ticks = 15, 50
        counters = Counters()
        manager = StreamManager(N, 2)
        maintainer = SCaseMaintainer(k_closest_pairs(2), 3,
                                     counters=counters)
        drive(maintainer, manager, random_rows(ticks, 2, 1))
        want = sum(min(t, N) - 1 for t in range(1, ticks + 1))
        assert counters.pairs_considered == want
        assert counters.score_evaluations == want
        assert counters.staircase_checks == want

    def test_candidates_bounded_by_considered(self):
        counters = Counters()
        manager = StreamManager(20, 2)
        maintainer = SCaseMaintainer(k_closest_pairs(2), 4,
                                     counters=counters)
        drive(maintainer, manager, random_rows(100, 2, 2))
        assert 0 < counters.candidate_pairs <= counters.pairs_considered
        assert counters.skyband_inserts <= counters.candidate_pairs

    def test_pst_ops_match_skyband_churn(self):
        counters = Counters()
        manager = StreamManager(15, 2)
        maintainer = SCaseMaintainer(k_closest_pairs(2), 3,
                                     counters=counters)
        drive(maintainer, manager, random_rows(80, 2, 3))
        assert counters.pst_inserts == counters.skyband_inserts
        assert counters.pst_deletes == counters.skyband_removals
        assert (
            counters.pst_inserts - counters.pst_deletes
            == len(maintainer.skyband)
        )


class TestTAAccounting:
    def test_ta_never_scores_a_pair_twice(self):
        """The seen-set guarantees one score evaluation per distinct pair
        access, even though it is reachable from d+1 lists."""
        counters = Counters()
        manager = StreamManager(25, 3)
        maintainer = TAMaintainer(k_closest_pairs(3), 3, counters=counters)
        drive(maintainer, manager, random_rows(100, 3, 4))
        assert counters.score_evaluations == counters.pairs_considered

    def test_ta_considers_fewer_than_scase(self):
        counters_ta, counters_sc = Counters(), Counters()
        mgr_a, mgr_b = StreamManager(80, 2), StreamManager(80, 2)
        ta = TAMaintainer(k_closest_pairs(2), 4, counters=counters_ta)
        sc = SCaseMaintainer(k_closest_pairs(2), 4, counters=counters_sc)
        rows = random_rows(240, 2, 5)
        drive(ta, mgr_a, rows)
        drive(sc, mgr_b, rows)
        assert counters_ta.pairs_considered < counters_sc.pairs_considered


class TestBasicAccounting:
    def test_dominance_checks_accumulate(self):
        counters = Counters()
        manager = StreamManager(20, 2)
        maintainer = BasicMaintainer(k_closest_pairs(2), 3,
                                     counters=counters)
        drive(maintainer, manager, random_rows(80, 2, 6))
        # Prefix scans: many comparisons per considered pair on average.
        assert counters.dominance_checks > counters.pairs_considered


class TestMonitorLevelCounters:
    def test_monitor_threads_counters_through(self):
        counters = Counters()
        monitor = TopKPairsMonitor(15, 2, counters=counters,
                                   strategy="scase")
        sf = k_closest_pairs(2)
        monitor.register_query(sf, k=3, n=10)
        for row in random_rows(50, 2, 7):
            monitor.append(row)
        snap = counters.snapshot()
        assert snap["score_evaluations"] > 0
        assert snap["staircase_checks"] > 0
        assert snap["recomputations"] >= 0
        # Snapshot queries charge answer scans.
        before = counters.answer_scans
        monitor.snapshot_query(sf, k=2, n=10)
        assert counters.answer_scans == before + 1
