"""Analysis validation — Theorem 3 and Lemma 2 against measurements.

Not a figure in the paper, but the paper's cost claims all rest on two
expectations: the K-skyband holds ``O(K log(N/K))`` pairs (Theorem 3) and
each arrival adds only ``O(K)`` non-dominated pairs (Lemma 2).  These
benchmarks measure both on uniform streams (whose scores are independent
of ages, the analysis' assumption) and check the measured values stay
within small constant factors of the closed forms.
"""

from __future__ import annotations

import statistics

from repro.analysis.theory import (
    expected_new_skyband_pairs,
    expected_skyband_size,
)
from repro.bench.harness import PaperParameters, synthetic_rows
from repro.bench.reporting import print_figure
from repro.core.maintenance import SCaseMaintainer
from repro.obs.cost_model import Counters
from repro.scoring.library import k_closest_pairs
from repro.stream.manager import StreamManager


def _measured_skyband_sizes(N, K, samples=40):
    """Steady-state skyband sizes sampled along a uniform stream."""
    sf = k_closest_pairs(2)
    manager = StreamManager(N, 2)
    maintainer = SCaseMaintainer(sf, K)
    sizes = []
    rows = synthetic_rows(2 * N + samples * 5, 2, seed=13)
    for i, row in enumerate(rows):
        event = manager.append(row)
        maintainer.on_tick(manager, (event.new,), event.expired)
        if i >= 2 * N and (i - 2 * N) % 5 == 0:
            sizes.append(len(maintainer.skyband))
    return sizes


def run_theorem3():
    K = PaperParameters.K_DEFAULT
    x_values = PaperParameters.N_SWEEP
    series = {"measured": [], "K+K(H_N-H_sqrtK)": []}
    for N in x_values:
        series["measured"].append(
            statistics.fmean(_measured_skyband_sizes(N, K))
        )
        series["K+K(H_N-H_sqrtK)"].append(expected_skyband_size(K, N))
    print_figure(
        f"Theorem 3: K-skyband size vs N (K={K}, uniform)", "N",
        x_values, series, unit="pairs",
    )
    return x_values, series


def run_lemma2():
    N = PaperParameters.N_DEFAULT
    x_values = PaperParameters.K_SWEEP
    ticks = PaperParameters.TICKS
    series = {"measured": [], "sqrtK + K*C": []}
    for K in x_values:
        sf = k_closest_pairs(2)
        manager = StreamManager(N, 2)
        counters = Counters()
        maintainer = SCaseMaintainer(sf, K, counters=counters)
        rows = synthetic_rows(N + ticks, 2, seed=14)
        for row in rows[:N]:
            event = manager.append(row)
            maintainer.on_tick(manager, (event.new,), event.expired)
        counters.reset()
        for row in rows[N:]:
            event = manager.append(row)
            maintainer.on_tick(manager, (event.new,), event.expired)
        # pairs that survived the staircase dominance test, per arrival
        series["measured"].append(counters.candidate_pairs / ticks)
        series["sqrtK + K*C"].append(expected_new_skyband_pairs(K, N))
    print_figure(
        f"Lemma 2: new non-dominated pairs per arrival (N={N})", "K",
        x_values, series, unit="pairs/arrival",
    )
    return x_values, series


def test_skyband_size_matches_theory(benchmark):
    x_values, series = benchmark.pedantic(run_theorem3, rounds=1, iterations=1)
    for measured, predicted in zip(series["measured"],
                                   series["K+K(H_N-H_sqrtK)"]):
        assert predicted / 4 <= measured <= predicted * 4
    # Growth in N is logarithmic: quadrupling N far less than doubles size.
    assert series["measured"][-1] < 2 * series["measured"][0]


def test_lemma2_new_pairs_per_arrival(benchmark):
    x_values, series = benchmark.pedantic(run_lemma2, rounds=1, iterations=1)
    N = PaperParameters.N_DEFAULT
    for K, measured in zip(x_values, series["measured"]):
        # O(K), not O(N): a generous constant-factor envelope.
        assert measured <= 6 * K + 6
        assert measured < N / 4
