"""Tests for the operation-count cost model."""

from __future__ import annotations

from repro.obs.cost_model import Counters, CountingScoringFunction
from repro.scoring.library import k_closest_pairs, sensor_scoring_function
from repro.stream.object import StreamObject


class TestCounters:
    def test_starts_at_zero(self):
        counters = Counters()
        assert counters.total() == 0
        assert all(v == 0 for _, v in counters.items())

    def test_reset(self):
        counters = Counters()
        counters.score_evaluations = 7
        counters.reset()
        assert counters.score_evaluations == 0

    def test_total_sums_everything(self):
        counters = Counters()
        counters.score_evaluations = 2
        counters.heap_ops = 3
        assert counters.total() == 5

    def test_snapshot_is_a_copy(self):
        counters = Counters()
        counters.pst_inserts = 1
        snap = counters.snapshot()
        counters.pst_inserts = 9
        assert snap["pst_inserts"] == 1

    def test_repr_mentions_nonzero_only(self):
        counters = Counters()
        counters.dominance_checks = 4
        assert "dominance_checks=4" in repr(counters)
        assert "heap_ops" not in repr(counters)


class TestCountingScoringFunction:
    def test_counts_and_delegates(self):
        counters = Counters()
        wrapped = CountingScoringFunction(k_closest_pairs(1), counters)
        a, b = StreamObject(1, (1.0,)), StreamObject(2, (4.0,))
        assert wrapped.score(a, b) == 3.0
        assert wrapped(a, b) == 3.0
        assert counters.score_evaluations == 2

    def test_forwards_global_surface(self):
        counters = Counters()
        inner = k_closest_pairs(2)
        wrapped = CountingScoringFunction(inner, counters)
        assert wrapped.is_global()
        assert wrapped.terms == inner.terms
        assert wrapped.combine([1.0, 2.0]) == 3.0
        assert wrapped.attributes == inner.attributes

    def test_wraps_arbitrary_functions(self):
        counters = Counters()
        wrapped = CountingScoringFunction(sensor_scoring_function(), counters)
        assert not wrapped.is_global()
        assert "sensor" in wrapped.name
