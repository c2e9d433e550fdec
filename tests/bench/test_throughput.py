"""TA's work counts in ``repro bench throughput``."""

from __future__ import annotations

from repro.bench.throughput import run_throughput


def test_work_counts_against_the_scan():
    window, ticks = 30, 30
    result = run_throughput(repeats=1, k=3, window=window, ticks=ticks)
    # a count window holds i objects at the i-th arrival, then `window`
    scan = sum(range(window)) + ticks * (window - 1)
    for name in ("uniform", "correlated", "anticorrelated"):
        w = result["workloads"][name]
        assert w["scan_pairs"] == scan, name
        assert 0 < w["pairs_considered"] <= scan, name
        assert w["skyband_inserts"] > 0, name
        assert w["partners_per_skyband_insert"] == \
            w["pairs_considered"] / w["skyband_inserts"], name
    heavy = result["workloads"]["expiry_heavy"]
    assert 0 < heavy["pairs_considered"] <= heavy["scan_pairs"]
