"""Tests for the trace recorder, including the steady-state balance
property it exists to expose."""

from __future__ import annotations

import io
import random

import pytest

from repro.core.maintenance import SCaseMaintainer
from repro.obs.cost_model import Counters
from repro.obs.trace import TraceRecorder
from repro.scoring.library import k_closest_pairs
from repro.stream.manager import StreamManager


def drive_with_trace(N, K, ticks, seed=0, counters=None):
    rng = random.Random(seed)
    manager = StreamManager(N, 2)
    maintainer = SCaseMaintainer(k_closest_pairs(2), K, counters=counters)
    recorder = TraceRecorder(counters=counters)
    for _ in range(ticks):
        event = manager.append((rng.random(), rng.random()))
        delta = maintainer.on_tick(manager, event.new, event.expired)
        recorder.observe(maintainer, delta)
    return recorder


class TestRecording:
    def test_one_row_per_tick(self):
        recorder = drive_with_trace(N=10, K=2, ticks=30)
        assert len(recorder) == 30
        assert recorder.rows[0]["tick"] == 1
        assert recorder.rows[-1]["tick"] == 30

    def test_counter_deltas_per_tick(self):
        counters = Counters()
        recorder = drive_with_trace(N=10, K=2, ticks=25, counters=counters)
        # Per-tick deltas must sum back to the cumulative totals.
        assert sum(recorder.series("score_evaluations")) == (
            counters.score_evaluations
        )
        assert sum(recorder.series("pairs_considered")) == (
            counters.pairs_considered
        )

    def test_mean_and_series(self):
        recorder = drive_with_trace(N=8, K=2, ticks=20)
        assert recorder.mean("skyband_size") > 0
        assert len(recorder.series("added")) == 20

    def test_mean_of_empty_raises(self):
        with pytest.raises(ValueError):
            TraceRecorder().mean("added")

    def test_to_csv_roundtrip_shape(self):
        recorder = drive_with_trace(N=8, K=2, ticks=10)
        out = io.StringIO()
        recorder.to_csv(out)
        lines = out.getvalue().strip().splitlines()
        assert len(lines) == 11  # header + rows
        assert lines[0].startswith("tick,skyband_size")


class TestSteadyStateProperties:
    def test_arrivals_balance_departures(self):
        """At steady state the skyband neither grows nor shrinks: pairs
        added per tick equal pairs removed + expired per tick."""
        recorder = drive_with_trace(N=30, K=4, ticks=300, seed=1)
        steady = recorder.steady_state()
        inflow = steady.mean("added")
        outflow = steady.mean("removed") + steady.mean("expired")
        assert inflow == pytest.approx(outflow, rel=0.15)

    def test_skyband_size_stabilizes(self):
        recorder = drive_with_trace(N=40, K=3, ticks=400, seed=2)
        first_half = recorder.rows[200:300]
        second_half = recorder.rows[300:]
        mean_a = sum(r["skyband_size"] for r in first_half) / 100
        mean_b = sum(r["skyband_size"] for r in second_half) / 100
        assert mean_a == pytest.approx(mean_b, rel=0.25)

    def test_staircase_never_exceeds_skyband(self):
        recorder = drive_with_trace(N=25, K=3, ticks=200, seed=3)
        for row in recorder.rows:
            assert row["staircase_size"] <= row["skyband_size"]
