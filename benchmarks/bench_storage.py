"""Storage footprint — the paper's space claims as measurements.

§III-B: the framework stores the window in ``O(ND)`` (Theorem 4's lower
bound) plus one K-skyband of expected ``O(K log(N/K))`` pairs per unique
scoring function; the naive competitor stores ``O(KN)`` pairs.  This
benchmark measures the actual stored-pair counts at steady state and
compares them with each other and with the Theorem 3 estimate.
"""

from __future__ import annotations

import statistics

from repro.analysis.theory import expected_skyband_size
from repro.baselines.naive import NaiveAlgorithm
from repro.bench.harness import PaperParameters, synthetic_rows
from repro.bench.reporting import print_figure
from repro.core.maintenance import SCaseMaintainer
from repro.scoring.library import k_closest_pairs
from repro.stream.manager import StreamManager


def _steady_state_counts(N, K, samples=20):
    sf = k_closest_pairs(2)
    manager = StreamManager(N, 2)
    maintainer = SCaseMaintainer(sf, K)
    naive = NaiveAlgorithm(k_closest_pairs(2), K, N)
    skyband_sizes = []
    naive_sizes = []
    rows = synthetic_rows(2 * N + samples * 3, 2, seed=18)
    for i, row in enumerate(rows):
        event = manager.append(row)
        maintainer.on_tick(manager, (event.new,), event.expired)
        naive.append(row)
        if i >= 2 * N and (i - 2 * N) % 3 == 0:
            skyband_sizes.append(len(maintainer.skyband))
            naive_sizes.append(naive.stored_pairs)
    return (
        statistics.fmean(skyband_sizes),
        statistics.fmean(naive_sizes),
    )


def run_storage():
    K = PaperParameters.K_DEFAULT
    x_values = PaperParameters.N_SWEEP
    series = {"skyband": [], "naive O(KN)": [], "theorem3": [],
              "all pairs O(N^2)": []}
    for N in x_values:
        skyband, naive = _steady_state_counts(N, K)
        series["skyband"].append(skyband)
        series["naive O(KN)"].append(naive)
        series["theorem3"].append(expected_skyband_size(K, N))
        series["all pairs O(N^2)"].append(N * (N - 1) / 2)
    print_figure(
        f"Storage: stored pairs at steady state (K={K})", "N",
        x_values, series, unit="pairs", precision=0,
    )
    return x_values, series


def test_storage_footprints(benchmark):
    x_values, series = benchmark.pedantic(run_storage, rounds=1, iterations=1)
    for i, N in enumerate(x_values):
        skyband = series["skyband"][i]
        naive = series["naive O(KN)"][i]
        predicted = series["theorem3"][i]
        # The skyband is a vanishing fraction of both the naive store and
        # the full pair set, and tracks the Theorem 3 estimate.
        assert skyband < naive / 3
        assert skyband < 0.1 * N * (N - 1) / 2
        assert predicted / 4 < skyband < predicted * 4
    # Skyband growth in N is logarithmic; naive's is linear.
    skyband_growth = series["skyband"][-1] / series["skyband"][0]
    naive_growth = series["naive O(KN)"][-1] / series["naive O(KN)"][0]
    assert skyband_growth < 0.5 * naive_growth
