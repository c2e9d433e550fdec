"""Tests for the recorder layer (`repro.obs.recorder`)."""

from __future__ import annotations

import pytest

from repro.obs import (
    NULL_RECORDER,
    MetricsRecorder,
    MetricsRegistry,
    NullRecorder,
    TickEvent,
)


class TestNullRecorder:
    def test_disabled_is_a_class_attribute(self):
        # The hot-path guard `if obs.enabled:` must not hit __getattr__
        # machinery or per-instance state.
        assert "enabled" in NullRecorder.__dict__
        assert NullRecorder.enabled is False
        assert NULL_RECORDER.enabled is False
        assert NULL_RECORDER.registry is None
        assert NULL_RECORDER.events == ()

    def test_every_hook_is_a_no_op(self):
        obs = NullRecorder()
        obs.begin_tick()
        obs.phase("window", 0.1)
        obs.on_window(1, 2)
        obs.on_candidates(3)
        obs.on_skyband_delta(1, 2, 3)
        obs.on_pst_insert()
        obs.on_pst_delete()
        obs.on_pst_rebuild(10, 0.01, partial=True)
        obs.on_skiplist_traversal(5)
        obs.on_sweep(10, 4)
        obs.observe_results(0.5)
        obs.end_tick(0.5, now_seq=1, skyband_size=2)

    def test_hook_protocol_matches_metrics_recorder(self):
        # Anything the instrumented code calls on a MetricsRecorder must
        # exist on the NullRecorder too, or disabled runs would crash.
        null_api = {n for n in dir(NullRecorder) if not n.startswith("_")}
        live_api = {n for n in dir(MetricsRecorder) if not n.startswith("_")}
        assert live_api <= null_api | {"registry", "events"}


class TestMetricsRecorder:
    def test_tick_lifecycle_builds_events(self):
        recorder = MetricsRecorder()
        recorder.begin_tick()
        recorder.on_window(1, 2)
        recorder.on_candidates(4)
        recorder.on_skyband_delta(3, 1, 2)
        recorder.phase("window", 0.25)
        recorder.phase("window", 0.25)
        recorder.on_pst_rebuild(16, 0.5, partial=True)
        recorder.end_tick(1.0, now_seq=7, skyband_size=10,
                          staircase_size=4, window_occupancy=20)
        (event,) = recorder.events
        assert isinstance(event, TickEvent)
        assert event.tick == 7
        assert event.arrivals == 1
        assert event.evictions == 2
        assert event.candidates == 4
        assert event.skyband_added == 3
        assert event.skyband_removed == 1
        assert event.skyband_expired == 2
        assert event.pst_rebuilds == 1
        assert event.skyband_size == 10
        assert event.phases["window"] == pytest.approx(0.5)
        assert event.phases["pst_rebuild"] == pytest.approx(0.5)
        registry = recorder.registry
        assert registry.value("repro_ticks_total") == 1
        assert registry.value("repro_objects_total") == 1
        assert registry.value("repro_evictions_total") == 2
        assert registry.value("repro_skyband_inserts_total") == 3
        assert registry.value("repro_pst_rebuilds_total") == 1
        assert registry.value("repro_skyband_size") == 10
        assert registry.get("repro_append_seconds").solo.count == 1

    def test_accumulators_reset_between_ticks(self):
        recorder = MetricsRecorder()
        recorder.begin_tick()
        recorder.on_candidates(5)
        recorder.end_tick(0.1)
        recorder.begin_tick()
        recorder.end_tick(0.1)
        assert recorder.events[1].candidates == 0
        assert recorder.registry.value("repro_candidate_pairs_total") == 5

    def test_trace_disabled(self):
        recorder = MetricsRecorder(trace=False)
        recorder.begin_tick()
        recorder.end_tick(0.1)
        assert recorder.events == []
        assert recorder.registry.value("repro_ticks_total") == 1

    def test_trace_capacity_ring_buffer(self):
        recorder = MetricsRecorder(trace_capacity=2)
        for i in range(5):
            recorder.begin_tick()
            recorder.end_tick(0.1, now_seq=i + 1)
        assert [e.tick for e in recorder.events] == [4, 5]
        assert recorder.registry.value("repro_ticks_total") == 5

    def test_shared_registry(self):
        registry = MetricsRegistry()
        a = MetricsRecorder(registry)
        b = MetricsRecorder(registry)
        a.on_pst_insert()
        b.on_pst_insert()
        assert registry.value("repro_pst_inserts_total") == 2

    def test_sweep_and_traversal_counters(self):
        recorder = MetricsRecorder()
        recorder.on_sweep(100, 40)
        recorder.on_sweep(50, 30)
        recorder.on_skiplist_traversal(7)
        assert recorder.registry.value("repro_sweeps_total") == 2
        assert recorder.registry.value("repro_sweep_pairs_total") == 150
        assert recorder.registry.value(
            "repro_skiplist_node_traversals_total") == 7

    def test_phase_histogram_labelled(self):
        recorder = MetricsRecorder()
        recorder.phase("generate", 0.001)
        recorder.phase("generate", 0.002)
        family = recorder.registry.get("repro_phase_seconds")
        assert family.labels("generate").count == 2
