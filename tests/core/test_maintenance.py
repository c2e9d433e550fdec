"""Tests for the skyband maintenance module (Algorithms 3 and 5)."""

from __future__ import annotations

import random

import pytest

from repro.baselines.basic import BasicMaintainer
from repro.baselines.brute import BruteForceReference
from repro.core.maintenance import SCaseMaintainer, TAMaintainer
from repro.exceptions import InvalidParameterError, ScoringFunctionError
from repro.obs.cost_model import Counters
from repro.scoring.library import (
    k_closest_pairs,
    paper_scoring_functions,
    sensor_scoring_function,
)
from repro.stream.manager import StreamManager


def drive(maintainer, manager, rows):
    """Feed rows through manager + maintainer; return per-tick deltas."""
    deltas = []
    for row in rows:
        event = manager.append(row)
        deltas.append(
            maintainer.on_tick(manager, (event.new,), event.expired)
        )
    return deltas


def random_rows(count, d, seed):
    rng = random.Random(seed)
    return [tuple(rng.random() for _ in range(d)) for _ in range(count)]


MAINTAINERS = [SCaseMaintainer, BasicMaintainer, TAMaintainer]


@pytest.mark.parametrize("maintainer_cls", MAINTAINERS,
                         ids=lambda c: c.__name__)
class TestSkybandCorrectness:
    """Every maintainer must track the exact K-skyband of the window."""

    @pytest.mark.parametrize("K", [1, 3, 8])
    def test_matches_brute_force_skyband(self, maintainer_cls, K):
        sf = k_closest_pairs(2)
        N = 25
        manager = StreamManager(N, 2)
        maintainer = maintainer_cls(sf, K)
        ref = BruteForceReference(sf, N)
        for i, row in enumerate(random_rows(120, 2, seed=K)):
            event = manager.append(row)
            maintainer.on_tick(manager, (event.new,), event.expired)
            ref.append(row)
            if i % 7 == 0:
                got = {p.uid for p in maintainer.skyband}
                want = {p.uid for p in ref.skyband(K)}
                assert got == want, f"tick {i}"
        maintainer.check_invariants(manager)

    def test_all_paper_scoring_functions(self, maintainer_cls):
        for sf in paper_scoring_functions(2):
            manager = StreamManager(20, 2)
            maintainer = maintainer_cls(sf, K=4)
            ref = BruteForceReference(sf, 20)
            for row in random_rows(60, 2, seed=11):
                event = manager.append(row)
                maintainer.on_tick(manager, (event.new,), event.expired)
                ref.append(row)
            assert {p.uid for p in maintainer.skyband} == {
                p.uid for p in ref.skyband(4)
            }, sf.name

    def test_delta_reports_are_consistent(self, maintainer_cls):
        """added/removed/expired must exactly explain each skyband change."""
        sf = k_closest_pairs(2)
        manager = StreamManager(15, 2)
        maintainer = maintainer_cls(sf, K=3)
        previous: set[int] = set()
        for row in random_rows(80, 2, seed=5):
            event = manager.append(row)
            delta = maintainer.on_tick(manager, (event.new,), event.expired)
            current = {p.uid for p in maintainer.skyband}
            gone = {p.uid for p in delta.removed} | {
                p.uid for p in delta.expired
            }
            came = {p.uid for p in delta.added}
            assert previous - gone == previous & current
            assert (previous - gone) | came == current
            assert not (came & previous)
            previous = current

    def test_added_list_sorted_by_score(self, maintainer_cls):
        sf = k_closest_pairs(2)
        manager = StreamManager(15, 2)
        maintainer = maintainer_cls(sf, K=5)
        for row in random_rows(60, 2, seed=3):
            event = manager.append(row)
            delta = maintainer.on_tick(manager, (event.new,), event.expired)
            keys = [p.score_key for p in delta.added]
            assert keys == sorted(keys)

    def test_structures_stay_consistent(self, maintainer_cls):
        sf = k_closest_pairs(3)
        manager = StreamManager(12, 3)
        maintainer = maintainer_cls(sf, K=4)
        for i, row in enumerate(random_rows(70, 3, seed=8)):
            event = manager.append(row)
            maintainer.on_tick(manager, (event.new,), event.expired)
            if i % 10 == 0:
                maintainer.check_invariants(manager)

    def test_k_validation(self, maintainer_cls):
        with pytest.raises(InvalidParameterError):
            maintainer_cls(k_closest_pairs(1), K=0)


class TestArbitraryScoringFunction:
    """The sensor function is not global: only SCase/Basic handle it."""

    def test_scase_handles_sensor_function(self):
        sf = sensor_scoring_function()
        manager = StreamManager(20, 3)
        maintainer = SCaseMaintainer(sf, K=3)
        ref = BruteForceReference(sf, 20)
        rng = random.Random(2)
        t = 0.0
        for _ in range(60):
            t += rng.uniform(0.5, 2.0)
            row = (t, rng.uniform(15, 30), rng.uniform(30, 70))
            event = manager.append(row)
            maintainer.on_tick(manager, (event.new,), event.expired)
            ref.append(row)
        assert {p.uid for p in maintainer.skyband} == {
            p.uid for p in ref.skyband(3)
        }

    def test_ta_rejects_non_global(self):
        with pytest.raises(ScoringFunctionError):
            TAMaintainer(sensor_scoring_function(), K=3)


class TestTAEfficiency:
    def test_ta_considers_fewer_pairs_than_scase(self):
        """The entire point of Algorithm 5: with the staircase warm, TA
        must examine far fewer new pairs than the O(N) full scan."""
        sf_ta = k_closest_pairs(2)
        sf_sc = k_closest_pairs(2)
        N, K = 120, 4
        counters_ta, counters_sc = Counters(), Counters()
        mgr_ta, mgr_sc = StreamManager(N, 2), StreamManager(N, 2)
        ta = TAMaintainer(sf_ta, K, counters=counters_ta)
        sc = SCaseMaintainer(sf_sc, K, counters=counters_sc)
        rows = random_rows(400, 2, seed=1)
        drive(ta, mgr_ta, rows)
        drive(sc, mgr_sc, rows)
        # Same skybands...
        assert {p.uid for p in ta.skyband} == {p.uid for p in sc.skyband}
        # ...but TA touched a fraction of the pairs.
        assert counters_ta.pairs_considered < 0.7 * counters_sc.pairs_considered

    def test_ta_exhausts_lists_when_staircase_cold(self):
        """With an empty staircase nothing is dominated, so TA must fall
        back to examining every pair (correctness over speed)."""
        sf = k_closest_pairs(2)
        manager = StreamManager(30, 2)
        ta = TAMaintainer(sf, K=3)
        manager.append((0.5, 0.5))
        event = manager.append((0.6, 0.6))
        ta.on_tick(manager, (event.new,), event.expired)
        assert len(ta.skyband) == 1


class TestExpiry:
    def test_skyband_never_references_expired_objects(self):
        sf = k_closest_pairs(2)
        N = 10
        manager = StreamManager(N, 2)
        maintainer = SCaseMaintainer(sf, K=3)
        for row in random_rows(50, 2, seed=6):
            event = manager.append(row)
            maintainer.on_tick(manager, (event.new,), event.expired)
            window_seqs = {o.seq for o in manager}
            for pair in maintainer.skyband:
                assert pair.older.seq in window_seqs

    def test_expired_delta_has_only_max_age_pairs(self):
        sf = k_closest_pairs(2)
        manager = StreamManager(8, 2)
        maintainer = SCaseMaintainer(sf, K=2)
        for row in random_rows(40, 2, seed=12):
            event = manager.append(row)
            delta = maintainer.on_tick(manager, (event.new,), event.expired)
            for pair in delta.expired:
                assert event.expired
                assert pair.older.seq == event.expired[0].seq

    def test_at_most_k_pairs_expire_per_object(self):
        """§V-A: the K-skyband holds at most K pairs of any single age."""
        sf = k_closest_pairs(2)
        K = 3
        manager = StreamManager(12, 2)
        maintainer = SCaseMaintainer(sf, K=K)
        for row in random_rows(80, 2, seed=13):
            event = manager.append(row)
            delta = maintainer.on_tick(manager, (event.new,), event.expired)
            assert len(delta.expired) <= K


class TestBootstrap:
    def test_bootstrap_matches_incremental(self):
        sf = k_closest_pairs(2)
        manager = StreamManager(20, 2)
        incremental = SCaseMaintainer(sf, K=4)
        for row in random_rows(35, 2, seed=20):
            event = manager.append(row)
            incremental.on_tick(manager, (event.new,), event.expired)
        fresh = SCaseMaintainer(sf, K=4)
        fresh.bootstrap(manager)
        assert {p.uid for p in fresh.skyband} == {
            p.uid for p in incremental.skyband
        }
        fresh.check_invariants(manager)

    def test_bootstrap_then_continue_streaming(self):
        sf = k_closest_pairs(2)
        manager = StreamManager(15, 2)
        ref = BruteForceReference(sf, 15)
        for row in random_rows(20, 2, seed=21):
            manager.append(row)
            ref.append(row)
        maintainer = SCaseMaintainer(sf, K=3)
        maintainer.bootstrap(manager)
        for row in random_rows(30, 2, seed=22):
            event = manager.append(row)
            maintainer.on_tick(manager, (event.new,), event.expired)
            ref.append(row)
        maintainer.check_invariants(manager)
        assert {p.uid for p in maintainer.skyband} == {
            p.uid for p in ref.skyband(3)
        }
