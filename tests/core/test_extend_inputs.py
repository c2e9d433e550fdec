"""``TopKPairsMonitor.extend`` input handling: generators, rich row
tuples carrying timestamps/payloads, and the parallel ``timestamps=``
channel — per-tick and batched."""

from __future__ import annotations

import math

import pytest

from repro.core.monitor import TopKPairsMonitor
from repro.exceptions import InvalidParameterError
from repro.scoring.library import k_closest_pairs

from tests.conftest import random_rows


def window_objects(monitor):
    return list(monitor.manager)


class TestIterableRows:
    def test_generator_per_tick(self):
        rows = random_rows(12, 2, seed=1)
        monitor = TopKPairsMonitor(20, 2)
        monitor.extend(row for row in rows)
        assert [obj.values for obj in window_objects(monitor)] == rows

    def test_generator_batched(self):
        rows = random_rows(13, 2, seed=2)
        eager = TopKPairsMonitor(20, 2)
        lazy = TopKPairsMonitor(20, 2)
        sf_eager, sf_lazy = k_closest_pairs(2), k_closest_pairs(2)
        h_eager = eager.register_query(sf_eager, k=3)
        h_lazy = lazy.register_query(sf_lazy, k=3)
        eager.extend(rows, batch_size=5)
        lazy.extend(iter(rows), batch_size=5)
        assert [p.uid for p in eager.results(h_eager)] == \
            [p.uid for p in lazy.results(h_lazy)]
        assert len(lazy.manager) == len(rows)

    def test_batch_size_larger_than_input(self):
        rows = random_rows(4, 2, seed=3)
        monitor = TopKPairsMonitor(10, 2)
        monitor.extend(iter(rows), batch_size=100)
        assert len(monitor.manager) == 4


class TestRichRowTuples:
    def test_values_timestamp_rows(self):
        rows = [((0.1 * i, 0.2 * i), float(10 + i)) for i in range(6)]
        monitor = TopKPairsMonitor(10, 2, time_horizon=100.0)
        monitor.extend(rows)
        objs = window_objects(monitor)
        assert [obj.timestamp for obj in objs] == [float(10 + i)
                                                  for i in range(6)]

    def test_values_timestamp_payload_rows(self):
        rows = [
            ((0.1, 0.2), 1.0, "a"),
            ((0.3, 0.4), 2.0, "b"),
            ((0.5, 0.6), None, "c"),
        ]
        monitor = TopKPairsMonitor(10, 2)
        monitor.extend(rows, batch_size=2)
        objs = window_objects(monitor)
        assert [obj.payload for obj in objs] == ["a", "b", "c"]
        assert [obj.timestamp for obj in objs[:2]] == [1.0, 2.0]

    def test_too_long_row_tuple_rejected(self):
        monitor = TopKPairsMonitor(10, 2)
        with pytest.raises(InvalidParameterError):
            monitor.extend([((0.1, 0.2), 1.0, "x", "extra")])

    def test_list_values_are_plain_rows(self):
        # A bare list of floats is a value sequence, not a rich tuple.
        monitor = TopKPairsMonitor(10, 2)
        monitor.extend([[0.1, 0.2], [0.3, 0.4]])
        assert len(monitor.manager) == 2


class TestTimestampsArgument:
    def test_parallel_timestamps(self):
        rows = random_rows(5, 2, seed=4)
        stamps = [2.0, 4.0, 6.0, 8.0, 10.0]
        monitor = TopKPairsMonitor(10, 2, time_horizon=50.0)
        monitor.extend(iter(rows), timestamps=iter(stamps))
        assert [obj.timestamp for obj in window_objects(monitor)] == stamps

    def test_timestamps_drive_time_eviction(self):
        rows = random_rows(6, 2, seed=5)
        stamps = [1.0, 2.0, 3.0, 4.0, 50.0, 51.0]
        monitor = TopKPairsMonitor(100, 2, time_horizon=10.0)
        monitor.extend(rows, timestamps=stamps, batch_size=3)
        assert [obj.timestamp for obj in window_objects(monitor)] == \
            [50.0, 51.0]

    def test_both_channels_rejected(self):
        monitor = TopKPairsMonitor(10, 2)
        with pytest.raises(InvalidParameterError):
            monitor.extend([((0.1, 0.2), 1.0)], timestamps=[2.0])

    def test_short_timestamps_rejected(self):
        monitor = TopKPairsMonitor(10, 2)
        with pytest.raises(InvalidParameterError):
            monitor.extend(random_rows(3, 2, seed=6), timestamps=[1.0])


class TestAnswersMatchAppend:
    def test_extend_equals_append_loop(self):
        rows = [((0.1 * i % 1.0, 0.7 * i % 1.0), float(i), i)
                for i in range(1, 25)]
        by_append = TopKPairsMonitor(12, 2, time_horizon=15.0)
        by_extend = TopKPairsMonitor(12, 2, time_horizon=15.0)
        sf_a, sf_e = k_closest_pairs(2), k_closest_pairs(2)
        h_a = by_append.register_query(sf_a, k=4)
        h_e = by_extend.register_query(sf_e, k=4)
        for values, timestamp, payload in rows:
            by_append.append(values, timestamp=timestamp, payload=payload)
        by_extend.extend(iter(rows))
        assert [p.uid for p in by_append.results(h_a)] == \
            [p.uid for p in by_extend.results(h_e)]
        answer = by_extend.results(h_e)
        assert all(isinstance(p.older.payload, int) for p in answer)


class TestRejectedRowInBatch:
    def test_rows_admitted_before_a_rejected_row_are_merged(self):
        """A row the window rejects partway through a batch raises, but
        the batch rows admitted before it must reach the skyband: the
        answer then equals one built a row at a time from the admitted
        rows."""
        rows = [[0.1, 0.2], [0.3, 0.4], [0.5, 0.5]]
        batched = TopKPairsMonitor(10, 2, audit=True)
        handle = batched.register_query(k_closest_pairs(2), k=2)
        batched.extend(rows)
        with pytest.raises(InvalidParameterError):
            batched.extend([[0.11, 0.21], [0.3, math.nan]], batch_size=2)
        batched.append([0.9, 0.9])
        by_row = TopKPairsMonitor(10, 2)
        reference = by_row.register_query(k_closest_pairs(2), k=2)
        by_row.extend(rows + [[0.11, 0.21], [0.9, 0.9]])
        answer = [(p.older.seq, p.newer.seq) for p in batched.results(handle)]
        assert answer == [(1, 4), (2, 3)]
        assert answer == [(p.older.seq, p.newer.seq)
                          for p in by_row.results(reference)]


class TestExtendReturnCount:
    def test_per_tick_returns_exact_count(self):
        monitor = TopKPairsMonitor(20, 2)
        assert monitor.extend(random_rows(12, 2, seed=7)) == 12

    def test_batched_returns_exact_count(self):
        monitor = TopKPairsMonitor(20, 2)
        assert monitor.extend(random_rows(13, 2, seed=8),
                              batch_size=5) == 13

    def test_generator_input_counted(self):
        monitor = TopKPairsMonitor(20, 2)
        rows = random_rows(9, 2, seed=9)
        assert monitor.extend(row for row in rows) == 9

    def test_empty_iterable_returns_zero(self):
        monitor = TopKPairsMonitor(20, 2)
        assert monitor.extend([]) == 0
        assert monitor.extend(iter([]), batch_size=4) == 0

    def test_count_exceeding_window_still_reports_ingested(self):
        monitor = TopKPairsMonitor(5, 2)
        assert monitor.extend(random_rows(12, 2, seed=10)) == 12
        assert len(monitor.manager) == 5
