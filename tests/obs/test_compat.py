"""The absorbed analysis layer: the operation counters live in
``repro.obs``, and on a real run the machine-independent counters must
agree with the wall-clock registry wherever they count the same thing.
"""

from __future__ import annotations

import random

from repro.core.monitor import TopKPairsMonitor
from repro.obs import Counters, MetricsRecorder
from repro.scoring.library import k_closest_pairs


class TestShimImportPaths:
    """The package-level names that replaced the removed
    ``repro.analysis`` shim import paths."""

    def test_package_level_exports(self):
        import repro
        import repro.obs as obs

        assert repro.MetricsRecorder is obs.MetricsRecorder
        assert obs.Counters is Counters


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
