"""Serving-layer benchmark (docs/serving.md).

Thin wrapper around :mod:`repro.bench.serve` — the same suite the
``repro bench serve`` CLI runs.  Boots real loopback servers
(:class:`~repro.serve.server.BackgroundServer`) and measures, through a
:class:`~repro.serve.client.ServeClient`, what perfbench cannot:
structural versus replay checkpoint restore, standby bootstrap,
catch-up and promote, and multi-tenant fairness; writes
``BENCH_serve.json``.

Scaled by ``REPRO_BENCH_SCALE``; CI's serve-smoke job runs a reduced
pass and uploads the JSON as an artifact.
"""

from __future__ import annotations

import json

from repro.bench.serve import (
    DEFAULT_OUTPUT,
    run_serve_bench,
    write_serve_json,
)


def test_serve_bench_flags_hold():
    """Smoke gate: both restores answer every query identically, the
    standby catches up, and the checkpoint holds at most a window."""
    result = run_serve_bench(window=32)
    assert result["checkpoint"]["answers_identical"], result["checkpoint"]
    assert result["standby"]["caught_up"], result["standby"]
    assert result["checkpoint"]["objects"] <= result["params"]["window"]


if __name__ == "__main__":
    outcome = run_serve_bench()
    path = write_serve_json(outcome, DEFAULT_OUTPUT)
    print(json.dumps(outcome, indent=2, sort_keys=True))
    print(f"written to {path}")
