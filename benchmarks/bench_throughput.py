"""Per-tick maintenance throughput (docs/performance.md).

Thin wrapper around :mod:`repro.bench.throughput` — the same suite the
``repro bench throughput`` CLI runs.  Streams the §VI-A synthetic
distributions plus an expiry-heavy time-horizon workload through the
incremental maintenance path (coalesced expiry + seeded suffix
re-sweep), and writes ``BENCH_throughput.json`` with ticks/sec, p50/p99
tick latency, a per-phase breakdown and the eviction / sweep /
apply-path counts.

Scaled by ``REPRO_BENCH_SCALE``; CI's bench-smoke job runs a reduced
pass and uploads the JSON as an artifact.
"""

from __future__ import annotations

import json

from repro.bench.throughput import (
    DEFAULT_OUTPUT,
    run_throughput,
    write_throughput_json,
)


if __name__ == "__main__":
    outcome = run_throughput()
    path = write_throughput_json(outcome, DEFAULT_OUTPUT)
    print(json.dumps(outcome, indent=2, sort_keys=True))
    print(f"written to {path}")
