"""The steady-state skyband dynamics the per-tick trace exposes, read
from the :class:`~repro.obs.trace.TickEvent` records a
:class:`~repro.obs.recorder.MetricsRecorder` builds on a monitor run."""

from __future__ import annotations

import random

import pytest

from repro.core.monitor import TopKPairsMonitor
from repro.obs import MetricsRecorder
from repro.scoring.library import k_closest_pairs


def drive_with_trace(N, K, ticks, seed=0):
    rng = random.Random(seed)
    recorder = MetricsRecorder()
    monitor = TopKPairsMonitor(N, 2, strategy="scase", recorder=recorder)
    monitor.register_query(k_closest_pairs(2), k=K)
    for _ in range(ticks):
        monitor.append((rng.random(), rng.random()))
    assert len(recorder.events) == ticks
    return recorder.events


def mean(events, field):
    return sum(getattr(event, field) for event in events) / len(events)


class TestSteadyStateProperties:
    def test_arrivals_balance_departures(self):
        """At steady state the skyband neither grows nor shrinks: pairs
        added per tick equal pairs removed + expired per tick."""
        events = drive_with_trace(N=30, K=4, ticks=300, seed=1)
        steady = events[150:]
        inflow = mean(steady, "skyband_added")
        outflow = (mean(steady, "skyband_removed")
                   + mean(steady, "skyband_expired"))
        assert inflow == pytest.approx(outflow, rel=0.15)

    def test_skyband_size_stabilizes(self):
        events = drive_with_trace(N=40, K=3, ticks=400, seed=2)
        assert mean(events[200:300], "skyband_size") == pytest.approx(
            mean(events[300:], "skyband_size"), rel=0.25
        )

    def test_staircase_never_exceeds_skyband(self):
        events = drive_with_trace(N=25, K=3, ticks=200, seed=3)
        for event in events:
            assert event.staircase_size <= event.skyband_size
