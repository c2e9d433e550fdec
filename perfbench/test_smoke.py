"""Tiny-scale smoke test of the benchmark (``pytest perfbench``).

Runs every workload untraced and traced at ``--seconds 1`` and checks
that each metric BENCHMARK.json names comes out with its unit, shows
that the answer check trips on a deliberately corrupted answer, and
that the host-speed scaling cancels a uniformly slower host.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from time import perf_counter
from types import SimpleNamespace

import pytest

from procs import HERE, ROOT, SRC

sys.path.insert(0, SRC)

from run import end_to_end  # noqa: E402
from speed import REFERENCE_S  # noqa: E402
from workloads import WORKLOADS, Run, brute_top_k, mismatch  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_reports_every_metric(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"], metric["name"]
        assert isinstance(reported["value"], (int, float))


def test_checker_trips_on_corrupted_answer():
    workdir = os.path.join(HERE, ".work", f"smoke-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    run = Run(workdir, seed=7, share=1.0, deadline=perf_counter() + 120)
    try:
        server = run.spawn([], "server")
        client = run.connect(server)
        run.fill(client, "default")
        handle = client.register("closest", 5)
        answer = client.snapshot(query=handle)
    finally:
        run.close()
        shutil.rmtree(workdir, ignore_errors=True)
    expected = brute_top_k(run.streams["default"], "closest", 5, None)
    assert mismatch(expected, {"answer": answer}) is None
    corrupted = [dict(pair) for pair in answer]
    corrupted[-1]["newer"] += 1
    assert mismatch(expected, {"answer": corrupted}) is not None
    assert mismatch(expected, {"answer": answer[:-1]}) is not None


def _fake_set(slow: float) -> SimpleNamespace:
    """A set of four chunks whose every time is ``slow`` times longer
    and whose probe is ``slow`` times slower."""
    marks = [(0.25 * i * slow, 64 * i, 8 * i, 0.2 * i * slow,
              REFERENCE_S * slow * (1 + i % 2 / 10), 16 * i, 4 * i, 8 * i)
             for i in range(5)]
    lat = {kind: [0.001 * (1 + j % 7) * slow
                  for j in range(marks[-1][5 + i])]
           for i, kind in enumerate(("ack", "delta", "read"))}
    run = SimpleNamespace(marks=marks, lat=lat)
    return SimpleNamespace(run=run, setup=(0.0, 0.5 * slow),
                           setup_probe=REFERENCE_S * slow,
                           phase=(0.5 * slow, 1.5 * slow), steal=0, rss=60.0)


def test_scaling_cancels_host_speed():
    fast = end_to_end([_fake_set(1.0)] * 3)
    slow = end_to_end([_fake_set(1.7)] * 3)
    assert set(fast) >= {m["name"] for m in SPEC["end_to_end"]}
    for name, value in fast.items():
        assert slow[name] == pytest.approx(value), name
    unscaled = end_to_end([_fake_set(1.7)] * 3, scaled=False)
    assert unscaled["read_p50_ms"] > slow["read_p50_ms"] * 1.5
    assert unscaled["rows_per_s"] < slow["rows_per_s"] / 1.5
