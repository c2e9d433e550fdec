"""Per-tick maintenance throughput: the bench behind ``repro bench
throughput`` and ``benchmarks/bench_throughput.py``.

Streams identical synthetic rows through the incremental maintenance
path (coalesced expiry + seeded suffix re-sweep):

* the three §VI-A distributions (uniform / correlated / anticorrelated)
  over a count-based window — one expiry per tick, the paper's steady
  state;
* an **expiry-heavy** workload over a time-based window whose timestamps
  periodically jump, so a single tick evicts a whole burst of objects —
  the case coalesced expiry exists for: one staircase refresh per burst
  instead of one Algorithm 4 rebuild per expired object (the
  ``sweeps`` count shows it).

Each workload reports uninstrumented ticks/sec (best of ``repeats``)
plus p50/p99 tick latency, a per-phase time breakdown and the
eviction / sweep / apply-path / PST insert and rebuild counts from an
instrumented run (:class:`~repro.obs.MetricsRecorder` tick trace), and
TA's work as counts from a :class:`~repro.obs.Counters` on that run:
partners scored against the ``scan_pairs`` an Algorithm 3 scan would
score.

Results go to ``BENCH_throughput.json``; see docs/performance.md for how
to read them.  ``REPRO_BENCH_SCALE`` shrinks or grows every stream (CI
runs a reduced smoke pass).
"""

from __future__ import annotations

import json
from time import perf_counter

from repro.bench.harness import SCALE, PaperParameters, synthetic_rows
from repro.bench.reporting import stamp_result
from repro.core.monitor import TopKPairsMonitor
from repro.obs import Counters, MetricsRecorder
from repro.scoring.library import k_closest_pairs

__all__ = [
    "DEFAULT_OUTPUT",
    "DISTRIBUTIONS",
    "expiry_heavy_rows",
    "run_throughput",
    "write_throughput_json",
]

DEFAULT_OUTPUT = "BENCH_throughput.json"
DISTRIBUTIONS = ("uniform", "correlated", "anticorrelated")

#: expiry-heavy workload shape: every ``_BURST_EVERY`` ticks the stream
#: time jumps far enough to expire the objects of one whole burst cycle.
_BURST_EVERY = 48


def expiry_heavy_rows(
    count: int,
    d: int,
    *,
    horizon: float,
    burst_every: int = _BURST_EVERY,
    seed: int = 11,
) -> list[tuple[tuple[float, ...], float]]:
    """``(values, timestamp)`` rows whose timestamps advance by 1 per
    tick, plus a jump of ``horizon / 4`` every ``burst_every`` ticks —
    so most ticks expire nothing and burst ticks expire dozens of
    objects at once from the time-based window."""
    values = synthetic_rows(count, d, seed=seed)
    rows = []
    now = 0.0
    for index, row in enumerate(values):
        now += horizon / 4 if index and index % burst_every == 0 else 1.0
        rows.append((row, now))
    return rows


def _build_monitor(k: int, d: int, *, window, horizon, recorder=None,
                   counters=None) -> tuple[TopKPairsMonitor, object]:
    monitor = TopKPairsMonitor(
        window, d, time_horizon=horizon, recorder=recorder,
        counters=counters,
    )
    handle = monitor.register_query(k_closest_pairs(d), k=k)
    return monitor, handle


def _timed_run(rows, k, d, *, window, horizon) -> float:
    """Wall seconds to stream ``rows`` (uninstrumented monitor)."""
    monitor, handle = _build_monitor(k, d, window=window, horizon=horizon)
    start = perf_counter()
    monitor.extend(rows)
    elapsed = perf_counter() - start
    assert monitor.results(handle) is not None
    return elapsed


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                int(fraction * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


def _instrumented_stats(rows, k, d, *, window, horizon) -> dict:
    """p50/p99 tick latency, per-phase µs/tick and maintenance counts
    (evictions, sweeps, apply paths, PST inserts and rebuilds, TA's
    partners scored and skyband inserts) from an instrumented run."""
    recorder = MetricsRecorder()
    counters = Counters()
    monitor, handle = _build_monitor(
        k, d, window=window, horizon=horizon, recorder=recorder,
        counters=counters,
    )
    monitor.extend(rows)
    monitor.results(handle)
    events = list(recorder.events)
    latencies = sorted(event.seconds for event in events)
    phase_totals: dict[str, float] = {}
    for event in events:
        for name, seconds in event.phases.items():
            phase_totals[name] = phase_totals.get(name, 0.0) + seconds
    ticks = max(1, len(events))
    registry = recorder.registry
    return {
        "latency_us": {
            "p50": _percentile(latencies, 0.50) * 1e6,
            "p99": _percentile(latencies, 0.99) * 1e6,
            "max": (latencies[-1] if latencies else 0.0) * 1e6,
        },
        "phase_us_per_tick": {
            name: total * 1e6 / ticks
            for name, total in sorted(phase_totals.items())
        },
        "evictions": registry.value("repro_evictions_total"),
        "sweeps": registry.value("repro_sweeps_total"),
        "apply_paths": {
            "incremental": registry.value(
                "repro_apply_path_total", "incremental"
            ),
            "sweep": registry.value("repro_apply_path_total", "sweep"),
        },
        "pst_inserts": registry.value("repro_pst_inserts_total"),
        "pst_rebuilds": registry.value("repro_pst_rebuilds_total"),
        "pairs_considered": counters.pairs_considered,
        "skyband_inserts": counters.skyband_inserts,
        "partners_per_skyband_insert": (
            counters.pairs_considered / max(1, counters.skyband_inserts)
        ),
        # every tick admits one row, which a scan pairs with all others
        "scan_pairs": sum(event.window_occupancy - 1 for event in events),
    }


def _bench_workload(rows, k, d, *, window, horizon, repeats: int) -> dict:
    seconds = min(
        _timed_run(rows, k, d, window=window, horizon=horizon)
        for _ in range(repeats)
    )
    ticks = len(rows)
    result = {
        "ticks": ticks,
        "seconds": seconds,
        "ticks_per_sec": ticks / seconds if seconds else 0.0,
    }
    result.update(
        _instrumented_stats(rows, k, d, window=window, horizon=horizon)
    )
    return result


def run_throughput(*, repeats: int = 3, k: int | None = None,
                   window: int | None = None,
                   ticks: int | None = None) -> dict:
    """Run every workload; returns the BENCH_throughput.json payload."""
    d = 2
    k = PaperParameters.K_DEFAULT if k is None else k
    window = PaperParameters.N_DEFAULT if window is None else window
    ticks = 4 * PaperParameters.TICKS if ticks is None else ticks
    workloads: dict[str, dict] = {}
    for distribution in DISTRIBUTIONS:
        rows = synthetic_rows(window + ticks, d, distribution=distribution,
                              seed=7)
        workloads[distribution] = _bench_workload(
            rows, k, d, window=window, horizon=None, repeats=repeats
        )
    # Time-based window: occupancy is governed by the horizon; the
    # count-based cap is set high enough to never bind.  K = 50 (a paper
    # K-sweep value) so each burst's expiries refresh a deep skyband.
    heavy_k = max(k, 50)
    horizon = float(window)
    heavy_rows = expiry_heavy_rows(window + ticks, d, horizon=horizon)
    workloads["expiry_heavy"] = _bench_workload(
        heavy_rows, heavy_k, d, window=4 * window, horizon=horizon,
        repeats=repeats,
    )
    return {
        "scale": SCALE,
        "params": {
            "k": k,
            "k_expiry_heavy": heavy_k,
            "d": d,
            "window": window,
            "ticks": ticks,
            "repeats": repeats,
            "burst_every": _BURST_EVERY,
        },
        "workloads": workloads,
    }


def write_throughput_json(result: dict, path: str = DEFAULT_OUTPUT) -> str:
    stamp_result(result, suite="throughput")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
