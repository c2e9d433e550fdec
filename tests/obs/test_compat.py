"""The absorbed analysis layer: the operation counters and the per-tick
trace recorder live in ``repro.obs``, and on a real run the
machine-independent counters must agree with the wall-clock registry
wherever they count the same thing.
"""

from __future__ import annotations

import csv
import io
import random

from repro.core.maintenance import SCaseMaintainer
from repro.core.monitor import TopKPairsMonitor
from repro.obs import Counters, MetricsRecorder, TraceRecorder
from repro.scoring.library import k_closest_pairs
from repro.stream.manager import StreamManager


class TestShimImportPaths:
    """The package-level names that replaced the removed
    ``repro.analysis`` shim import paths."""

    def test_package_level_exports(self):
        import repro
        import repro.obs as obs

        assert repro.MetricsRecorder is obs.MetricsRecorder
        assert obs.Counters is Counters
        assert obs.TraceRecorder is TraceRecorder


class TestTraceRecorderCsv:
    _HEADER = [
        "tick", "skyband_size", "staircase_size", "added", "removed",
        "expired", "score_evaluations", "pairs_considered",
        "candidate_pairs",
    ]

    def _traced_run(self, steps=60):
        counters = Counters()
        manager = StreamManager(20, 2)
        maintainer = SCaseMaintainer(k_closest_pairs(2), 3,
                                     counters=counters)
        trace = TraceRecorder(counters)
        rng = random.Random(17)
        for _ in range(steps):
            event = manager.append((rng.random(), rng.random()))
            delta = maintainer.on_tick(manager, event.new, event.expired)
            trace.observe(maintainer, delta)
        return trace, steps

    def test_to_csv_schema_and_rows(self):
        trace, steps = self._traced_run()
        buffer = io.StringIO()
        trace.to_csv(buffer)
        rows = list(csv.DictReader(io.StringIO(buffer.getvalue())))
        assert list(rows[0].keys()) == self._HEADER
        assert len(rows) == steps == len(trace)
        assert [int(r["tick"]) for r in rows] == list(range(1, steps + 1))

    def test_counter_deltas_sum_back_to_totals(self):
        trace, _ = self._traced_run()
        totals = trace.counters.snapshot()
        for field in ("score_evaluations", "pairs_considered",
                      "candidate_pairs"):
            assert sum(trace.series(field)) == totals[field]


class TestCountersAgreeWithRegistry:
    """Both accounting layers on one monitor: overlapping tallies match."""

    def _dual_run(self, steps=150, window=50):
        counters = Counters()
        recorder = MetricsRecorder()
        monitor = TopKPairsMonitor(
            window, 2, counters=counters, recorder=recorder, seed=6
        )
        monitor.register_query(k_closest_pairs(2), k=4)
        rng = random.Random(23)
        for _ in range(steps):
            monitor.append((rng.random(), rng.random()))
        return counters, recorder.registry

    def test_structure_counters_match(self):
        counters, registry = self._dual_run()
        assert counters.pst_inserts \
            == registry.value("repro_pst_inserts_total") > 0
        assert counters.pst_deletes \
            == registry.value("repro_pst_deletes_total") > 0

    def test_skyband_counters_match(self):
        counters, registry = self._dual_run()
        assert counters.skyband_inserts \
            == registry.value("repro_skyband_inserts_total") > 0
        # The cost model charges every departure to skyband_removals;
        # the registry splits dominance removals from window expiries.
        assert counters.skyband_removals == (
            registry.value("repro_skyband_removals_total")
            + registry.value("repro_skyband_expirations_total")
        )

    def test_candidate_counters_match(self):
        counters, registry = self._dual_run()
        assert counters.candidate_pairs \
            == registry.value("repro_candidate_pairs_total") > 0
