"""Ablations of this implementation's own design choices (DESIGN.md §6).

Not paper figures — these isolate the internal decisions the reproduction
made so their costs are visible:

* dynamic PST updates (swap-down insert / promote-child delete with
  scapegoat rebuilds) versus rebuilding the whole tree from scratch on
  every skyband change;
* the staircase's binary-search dominance test versus the basic
  dominance-counting prefix scan, measured per test at equal state;
* deterministic median-of-medians selection versus randomized
  quickselect in the Algorithm 2 candidate-selection step.
"""

from __future__ import annotations

import random
import time

from repro.baselines.basic import BasicMaintainer
from repro.bench.harness import PaperParameters, synthetic_rows, us_per
from repro.bench.reporting import print_figure
from repro.core.maintenance import SCaseMaintainer
from repro.core.pair import Pair
from repro.scoring.library import k_closest_pairs
from repro.stream.manager import StreamManager
from repro.stream.object import StreamObject
from repro.structures.pst import PrioritySearchTree
from repro.structures.selection import quickselect_smallest, select_smallest


def _random_pairs(count, seed):
    rng = random.Random(seed)
    pairs = []
    for i in range(count):
        older = StreamObject(rng.randint(1, 10_000), (0.0,))
        newer = StreamObject(20_000 + i, (0.0,))
        pairs.append(Pair(older, newer, rng.uniform(0, 100)))
    return pairs


def run_pst_ablation():
    """Dynamic PST ops vs full rebuild per change."""
    sizes = [100, 400, 1600]
    churn = 200
    series = {"dynamic": [], "rebuild": []}
    for size in sizes:
        base = _random_pairs(size, seed=size)
        extra = _random_pairs(churn, seed=size + 1)

        pst = PrioritySearchTree(base)
        start = time.perf_counter()
        for pair in extra:
            pst.insert(pair)
            pst.delete(pair)
        series["dynamic"].append(
            us_per(time.perf_counter() - start, 2 * churn)
        )

        pst = PrioritySearchTree(base)
        current = list(base)
        start = time.perf_counter()
        for pair in extra:
            current.append(pair)
            pst = PrioritySearchTree(current)
            current.pop()
            pst = PrioritySearchTree(current)
        series["rebuild"].append(
            us_per(time.perf_counter() - start, 2 * churn)
        )
    print_figure(
        "Ablation: dynamic PST ops vs full rebuild", "skyband size",
        sizes, series, unit="us/op",
    )
    return sizes, series


def run_dominance_ablation():
    """Staircase binary search vs basic counting, per dominance test."""
    N, K, d = PaperParameters.N_DEFAULT, PaperParameters.K_DEFAULT, 2
    ticks = PaperParameters.TICKS
    warm = synthetic_rows(N, d, seed=15)
    measured = synthetic_rows(N + ticks, d, seed=15)[N:]
    series = {"scase(staircase)": [], "basic(counting)": []}
    for maintainer_cls, label in (
        (SCaseMaintainer, "scase(staircase)"),
        (BasicMaintainer, "basic(counting)"),
    ):
        manager = StreamManager(N, d)
        maintainer = maintainer_cls(k_closest_pairs(d), K)
        for row in warm:
            event = manager.append(row)
            maintainer.on_tick(manager, (event.new,), event.expired)
        start = time.perf_counter()
        for row in measured:
            event = manager.append(row)
            maintainer.on_tick(manager, (event.new,), event.expired)
        series[label].append(us_per(time.perf_counter() - start, ticks))
    print_figure(
        f"Ablation: staircase vs dominance counting (N={N}, K={K})",
        "config", ["default"], series,
    )
    return series


def run_selection_ablation():
    """Deterministic select vs quickselect on Algorithm-2-sized inputs."""
    sizes = [64, 512, 4096]
    k = PaperParameters.K_DEFAULT
    repeats = 200
    rng = random.Random(16)
    series = {"quickselect": [], "median-of-medians": []}
    for size in sizes:
        data = [rng.random() for _ in range(size)]
        start = time.perf_counter()
        for _ in range(repeats):
            quickselect_smallest(data, k)
        series["quickselect"].append(
            us_per(time.perf_counter() - start, repeats)
        )
        start = time.perf_counter()
        for _ in range(repeats):
            select_smallest(data, k)
        series["median-of-medians"].append(
            us_per(time.perf_counter() - start, repeats)
        )
    print_figure(
        f"Ablation: selection algorithms (k={k})", "candidates",
        sizes, series, unit="us/select",
    )
    return sizes, series


def run_batching_ablation():
    """Throughput gain from batched ingestion (one Algorithm 4 sweep per
    batch) at the cost of result latency."""
    from repro.core.monitor import TopKPairsMonitor

    N, K, d = PaperParameters.N_DEFAULT, PaperParameters.K_DEFAULT, 2
    ticks = PaperParameters.TICKS * 2
    batch_sizes = [1, 4, 16, 64]
    warm = synthetic_rows(N, d, seed=17)
    measured = synthetic_rows(N + ticks, d, seed=17)[N:]
    series = {"scase": []}
    for batch in batch_sizes:
        monitor = TopKPairsMonitor(N, d, strategy="scase")
        monitor.register_query(k_closest_pairs(d), k=K, n=N)
        monitor.extend(warm, batch_size=batch)
        start = time.perf_counter()
        monitor.extend(measured, batch_size=batch)
        series["scase"].append(
            us_per(time.perf_counter() - start, ticks)
        )
    print_figure(
        "Ablation: batched ingestion throughput", "batch size",
        batch_sizes, series,
    )
    return batch_sizes, series


def test_ablation_pst_dynamic_vs_rebuild(benchmark):
    sizes, series = benchmark.pedantic(
        run_pst_ablation, rounds=1, iterations=1
    )
    # Dynamic updates must beat rebuild-per-change, increasingly so.
    assert series["dynamic"][-1] < series["rebuild"][-1]


def test_ablation_staircase_vs_counting(benchmark):
    series = benchmark.pedantic(
        run_dominance_ablation, rounds=1, iterations=1
    )
    assert series["scase(staircase)"][0] <= series["basic(counting)"][0]


def test_ablation_selection(benchmark):
    sizes, series = benchmark.pedantic(
        run_selection_ablation, rounds=1, iterations=1
    )
    # Both are usable; quickselect's constants win at every size here.
    assert series["quickselect"][-1] <= series["median-of-medians"][-1]


def test_ablation_batched_ingestion(benchmark):
    batch_sizes, series = benchmark.pedantic(
        run_batching_ablation, rounds=1, iterations=1
    )
    # Batching must not be slower, and large batches should clearly win.
    assert series["scase"][-1] < series["scase"][0]
