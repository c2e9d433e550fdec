"""Figure 10 — snapshot query answering cost.

Paper setup: a warmed K-skyband; compare the PST traversal (Algorithm 2,
"snapshot"), the score-ordered scan ("linear") and the oracle read
("supreme") per query, sweeping (a) K, (b) N, (c) k, (d) n.  Expected
shape: supreme is negligible; snapshot beats linear and scales better in
K and N; snapshot grows with k; linear closes the gap (and can win) as n
approaches N, where its scan stops after ~k hits anyway.
"""

from __future__ import annotations

import time

from repro.baselines.linear import linear_top_k
from repro.baselines.supreme import SupremeAlgorithm
from repro.bench.harness import PaperParameters, synthetic_rows, us_per
from repro.bench.reporting import print_figure
from repro.core.maintenance import SCaseMaintainer
from repro.core.query import answer_snapshot
from repro.scoring.library import k_closest_pairs
from repro.stream.manager import StreamManager

from shape_checks import mostly_dominates

D = 2
QUERY_REPEATS = 400


def build_state(N, K, seed=10):
    """A warmed maintainer plus a twin supreme at the same stream point."""
    sf = k_closest_pairs(D)
    manager = StreamManager(N, D)
    maintainer = SCaseMaintainer(sf, K)
    supreme = SupremeAlgorithm(k_closest_pairs(D), K, N, num_attributes=D)
    for row in synthetic_rows(2 * N, D, seed=seed):
        event = manager.append(row)
        maintainer.on_tick(manager, (event.new,), event.expired)
        supreme.append(row)
    return manager, maintainer, supreme


def measure_query_costs(manager, maintainer, supreme, k, n):
    """Per-query microseconds for snapshot / linear / supreme."""
    now = manager.now_seq
    start = time.perf_counter()
    for _ in range(QUERY_REPEATS):
        answer_snapshot(maintainer.pst, k, n, now)
    snapshot_cost = us_per(time.perf_counter() - start, QUERY_REPEATS)

    skyband = maintainer.skyband
    start = time.perf_counter()
    for _ in range(QUERY_REPEATS):
        linear_top_k(skyband, k, n, now)
    linear_cost = us_per(time.perf_counter() - start, QUERY_REPEATS)

    before = supreme.chargeable_seconds
    for _ in range(QUERY_REPEATS):
        supreme.top_k(k, n)
    supreme_cost = us_per(supreme.chargeable_seconds - before, QUERY_REPEATS)
    return snapshot_cost, linear_cost, supreme_cost


def sweep(configurations):
    series = {"snapshot": [], "linear": [], "supreme": []}
    for N, K, k, n in configurations:
        manager, maintainer, supreme = build_state(N, K)
        snap, lin, sup = measure_query_costs(manager, maintainer, supreme, k, n)
        series["snapshot"].append(snap)
        series["linear"].append(lin)
        series["supreme"].append(sup)
    return series


def run_fig10a():
    N = PaperParameters.N_DEFAULT
    n, k = max(2, N // 10), PaperParameters.K_DEFAULT
    x_values = PaperParameters.K_SWEEP[1:] + [100]  # k=20 needs K>=20
    series = sweep([(N, K, k, n) for K in x_values])
    print_figure(
        f"Fig 10(a): snapshot query cost vs K (k={k}, n={n})", "K",
        x_values, series, unit="us/query",
    )
    return x_values, series


def run_fig10b():
    K, k = PaperParameters.K_DEFAULT, PaperParameters.K_DEFAULT
    x_values = PaperParameters.N_SWEEP
    series = sweep([(N, K, k, max(2, N // 10)) for N in x_values])
    print_figure(
        f"Fig 10(b): snapshot query cost vs N (K=k={K})", "N",
        x_values, series, unit="us/query",
    )
    return x_values, series


def run_fig10c():
    N, K = PaperParameters.N_DEFAULT, 100  # paper: K=100 so any k <= 100
    n = max(2, N // 10)
    x_values = [1, 5, 20, 50, 100]
    series = sweep([(N, K, k, n) for k in x_values])
    print_figure(
        f"Fig 10(c): snapshot query cost vs k (K={K}, n={n})", "k",
        x_values, series, unit="us/query",
    )
    return x_values, series


def run_fig10d():
    N, K = PaperParameters.N_DEFAULT, PaperParameters.K_DEFAULT
    k = PaperParameters.K_DEFAULT
    x_values = [max(2, N // 10), N // 4, N // 2, N]
    series = sweep([(N, K, k, n) for n in x_values])
    print_figure(
        f"Fig 10(d): snapshot query cost vs n (K=k={K})", "n",
        x_values, series, unit="us/query",
    )
    return x_values, series


def test_fig10a_vary_K(benchmark):
    x_values, series = benchmark.pedantic(run_fig10a, rounds=1, iterations=1)
    assert mostly_dominates(series["supreme"], series["snapshot"], slack=1.0,
                            threshold=0.8)
    # Linear degrades with K (skyband grows); snapshot much less.
    assert series["linear"][-1] > series["linear"][0]

def test_fig10b_vary_N(benchmark):
    x_values, series = benchmark.pedantic(run_fig10b, rounds=1, iterations=1)
    assert mostly_dominates(series["supreme"], series["snapshot"], slack=1.0,
                            threshold=0.8)
    # Both query algorithms run on the skyband, whose size is only
    # logarithmic in N — so quadrupling N must not even double the cost.
    assert series["snapshot"][-1] < 2.5 * series["snapshot"][0]
    assert series["linear"][-1] < 2.5 * series["linear"][0]


def test_fig10c_vary_k(benchmark):
    x_values, series = benchmark.pedantic(run_fig10c, rounds=1, iterations=1)
    # Snapshot cost grows with k, as the analysis predicts.
    assert series["snapshot"][-1] > series["snapshot"][0]


def test_fig10d_vary_n(benchmark):
    x_values, series = benchmark.pedantic(run_fig10d, rounds=1, iterations=1)
    # The paper's crossover: at n = N linear is O(k) and hard to beat.
    assert series["linear"][-1] <= series["linear"][0]
    assert series["linear"][-1] < series["snapshot"][-1]
