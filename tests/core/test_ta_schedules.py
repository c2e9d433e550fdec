"""Tests for the TA source-scheduling extension (round-robin vs
adaptive frontier advancement, DESIGN.md §6)."""

from __future__ import annotations

import random

import pytest

from repro.baselines.brute import BruteForceReference
from repro.core.maintenance import TAMaintainer
from repro.exceptions import InvalidParameterError
from repro.obs.cost_model import Counters
from repro.scoring.library import k_closest_pairs, paper_scoring_functions
from repro.stream.manager import StreamManager


def random_rows(count, d, seed):
    rng = random.Random(seed)
    return [tuple(rng.random() for _ in range(d)) for _ in range(count)]


def drive(maintainer, manager, rows):
    for row in rows:
        event = manager.append(row)
        maintainer.on_tick(manager, (event.new,), event.expired)


class TestScheduleValidation:
    def test_unknown_schedule_rejected(self):
        with pytest.raises(InvalidParameterError):
            TAMaintainer(k_closest_pairs(2), K=3, schedule="zigzag")

    def test_default_is_round_robin(self):
        assert TAMaintainer(k_closest_pairs(2), K=3).schedule == "round-robin"


@pytest.mark.parametrize("schedule", ["round-robin", "adaptive"])
class TestCorrectnessUnderBothSchedules:
    def test_skyband_matches_brute_force(self, schedule):
        sf = k_closest_pairs(2)
        N, K = 20, 4
        manager = StreamManager(N, 2)
        maintainer = TAMaintainer(sf, K, schedule=schedule)
        ref = BruteForceReference(sf, N)
        for row in random_rows(80, 2, seed=1):
            event = manager.append(row)
            maintainer.on_tick(manager, (event.new,), event.expired)
            ref.append(row)
        assert {p.uid for p in maintainer.skyband} == {
            p.uid for p in ref.skyband(K)
        }
        maintainer.check_invariants(manager)

    def test_all_scoring_functions(self, schedule):
        for sf in paper_scoring_functions(3):
            manager = StreamManager(15, 3)
            maintainer = TAMaintainer(sf, K=3, schedule=schedule)
            ref = BruteForceReference(sf, 15)
            for row in random_rows(45, 3, seed=2):
                event = manager.append(row)
                maintainer.on_tick(manager, (event.new,), event.expired)
                ref.append(row)
            assert {p.uid for p in maintainer.skyband} == {
                p.uid for p in ref.skyband(3)
            }, sf.name


class TestAdaptiveEfficiency:
    def _pairs_considered(self, schedule, d, seed=3):
        N, K, ticks = 150, 5, 150
        counters = Counters()
        sf = k_closest_pairs(d)
        manager = StreamManager(N, d)
        maintainer = TAMaintainer(sf, K, counters=counters,
                                  schedule=schedule)
        rows = random_rows(N + ticks, d, seed=seed)
        drive(maintainer, manager, rows[:N])
        counters.reset()
        drive(maintainer, manager, rows[N:])
        return counters.pairs_considered

    def test_adaptive_examines_no_more_pairs_at_high_d(self):
        """With many lists, advancing only the limiting frontier should
        not be worse than advancing all of them."""
        d = 4
        adaptive = self._pairs_considered("adaptive", d)
        round_robin = self._pairs_considered("round-robin", d)
        assert adaptive <= round_robin * 1.15

    def test_both_sublinear_in_window(self):
        for schedule in ("round-robin", "adaptive"):
            total = self._pairs_considered(schedule, d=2)
            # 150 ticks over a 150-object window: full scans would cost
            # ~150 * 149 pair accesses.
            assert total < 0.6 * 150 * 149, schedule
