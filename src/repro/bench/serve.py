"""Serving-layer benchmark: the suite behind ``repro bench serve`` and
``benchmarks/bench_serve.py``.

perfbench (``BENCHMARK.json``) is the served end-to-end benchmark: it
times ingest, deltas, snapshot reads and standby apply with every answer
checked.  This suite keeps the three measurements perfbench cannot make,
each through a real loopback
:class:`~repro.serve.server.BackgroundServer` driven by the synchronous
:class:`~repro.serve.client.ServeClient`:

* **checkpoint** — fill the window, register two queries, save through
  the ``checkpoint`` op, then restore the file twice offline: ``replay``
  (re-ingest the window; the oracle) and ``structural`` (bulk-load the
  serialized skybands).  The ratio is the v2 format's payoff, and
  ``answers_identical`` checks that both restores answer every query
  with the same pairs;
* **standby** — bootstrap a warm standby off the live primary, ingest
  rows on the primary, wait (bounded) until the standby reaches the
  primary's last tick, then promote it;
* **multi_tenant** — fairness of the shared server.  Each round runs one
  namespace, then :data:`NAMESPACES` at once, on a fresh tenants server
  through one harness with perfbench's ``ingest_fanout`` query mix;
  ``single_tenant_fraction`` is the median of the per-round ratios of
  the two aggregate rates, so it isolates what sharing costs.

Results go to ``BENCH_serve.json``; ``REPRO_BENCH_SCALE`` scales the
window, and the checkpoint and standby row counts derive from it (CI
runs a reduced pass).
"""

from __future__ import annotations

import json
import os
import statistics
import tempfile
import threading
from time import perf_counter, sleep

from repro.bench.harness import SCALE, synthetic_rows
from repro.bench.reporting import stamp_result
from repro.serve.checkpoint import restore_server_monitor
from repro.serve.client import ServeClient
from repro.serve.protocol import pair_to_wire
from repro.serve.server import BackgroundServer
from repro.serve.session import ServerMonitor
from repro.serve.standby import connect_standby
from repro.serve.tenancy import DEFAULT_NAMESPACE, NamespaceRegistry, TenantSpec

__all__ = ["DEFAULT_OUTPUT", "run_serve_bench", "write_serve_json"]

DEFAULT_OUTPUT = "BENCH_serve.json"

#: attributes per row
DIM = 2
#: rows per ingest request
BATCH = 64
#: namespaces sharing the server in each round's second run
NAMESPACES = 8
#: paired fairness rounds: on a 2-vCPU Xeon VM one round's ratio read
#: 0.68-1.41, too wide for the 0.8 gate; the median of five read
#: 0.88-1.11
ROUNDS = 5
#: ingest requests per namespace per fairness run
TENANT_BATCHES = 4
#: how long the standby may take to reach the primary's last tick
CATCH_UP_SECONDS = 10.0


def _answers(session: ServerMonitor) -> dict:
    return {
        record.handle_id: [pair_to_wire(pair)
                           for pair in session.results(record.handle_id)]
        for record in session.queries()
    }


def _bench_checkpoint(client: ServeClient, rows: list, k: int) -> dict:
    """Fill the window from ``rows`` (untimed), register ``closest`` and
    ``furthest`` at ``k``, save, and time both restores of the file."""
    for offset in range(0, len(rows), BATCH):
        client.ingest(rows[offset:offset + BATCH])
    client.register("closest", k=k)
    client.register("furthest", k=k)
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "serve.ckpt")
        meta = client.checkpoint(path)
        start = perf_counter()
        replayed = restore_server_monitor(path, mode="replay")
        restore_seconds = perf_counter() - start
        start = perf_counter()
        structural = restore_server_monitor(path, mode="structural")
        restore_seconds_structural = perf_counter() - start
    answers = _answers(replayed)
    return {
        "save_seconds": meta["seconds"],
        "restore_seconds": restore_seconds,
        "restore_seconds_structural": restore_seconds_structural,
        "structural_speedup": restore_seconds / restore_seconds_structural,
        "bytes": meta["bytes"],
        "objects": meta["objects"],
        "restored_queries": len(answers),
        "answers_identical": answers == _answers(structural),
    }


def _bench_standby(primary_port: int, rows: list) -> dict:
    """Bootstrap a warm standby off the live primary, ingest ``rows``
    there, wait once for the standby to catch up, then promote it."""
    start = perf_counter()
    registry, tailer = connect_standby("127.0.0.1", primary_port)
    bootstrap_seconds = perf_counter() - start
    bootstrap_objects = len(
        registry.get(DEFAULT_NAMESPACE).session.monitor.manager
    )
    replicated = 0
    with BackgroundServer(registry, role="standby",
                          standby=tailer) as standby:
        with ServeClient(port=primary_port) as producer, \
                ServeClient(port=standby.port) as probe:
            for offset in range(0, len(rows), BATCH):
                ack = producer.ingest(rows[offset:offset + BATCH])
                replicated += ack["ingested"]
            deadline = perf_counter() + CATCH_UP_SECONDS
            while True:
                caught_up = probe.epoch()["now_seq"] >= ack["now_seq"]
                if caught_up or perf_counter() > deadline:
                    break
                sleep(0.01)
            start = perf_counter()
            promote = probe.promote()
            promote_seconds = perf_counter() - start
    return {
        "bootstrap_seconds": bootstrap_seconds,
        "bootstrap_objects": bootstrap_objects,
        "rows": replicated,
        "caught_up": caught_up,
        "promote_seconds": promote_seconds,
        "promoted_epoch": promote["epoch"],
    }


def _tenant_run(window: int, namespaces: int) -> tuple[int, float]:
    """``namespaces`` tenants ingest at once on a fresh tenants server,
    one client thread each; returns ``(acknowledged rows, wall seconds)``
    from the first thread's start to the last thread's finish.

    Every thread authenticates, registers perfbench's ``ingest_fanout``
    mix (its ``n`` = 256 of 512 becomes half the window), meets the
    others at a barrier, then sends :data:`TENANT_BATCHES` batches.
    """
    names = [f"tenant{index}" for index in range(namespaces)]
    registry = NamespaceRegistry(
        {name: TenantSpec(name, f"{name}-token") for name in names},
        lambda name, spec: ServerMonitor(window, DIM),
    )
    queries = [("closest", 5, None), ("closest", 20, window // 2),
               ("furthest", 10, None), ("similar", 5, None)]
    share = TENANT_BATCHES * BATCH
    rows = synthetic_rows(namespaces * share, DIM, seed=17)
    barrier = threading.Barrier(namespaces)
    runs: list[tuple[int, float, float]] = []
    errors: list[Exception] = []
    lock = threading.Lock()

    def tenant(port: int, index: int) -> None:
        name = names[index]
        try:
            with ServeClient(port=port) as client:
                client.auth(name, f"{name}-token")
                for scoring, k, n in queries:
                    client.register(scoring, k=k, n=n)
                mine = rows[index * share:(index + 1) * share]
                barrier.wait()
                start = perf_counter()
                acknowledged = 0
                for offset in range(0, share, BATCH):
                    ack = client.ingest(mine[offset:offset + BATCH])
                    acknowledged += ack["ingested"]
                end = perf_counter()
            with lock:
                runs.append((acknowledged, start, end))
        except Exception as exc:  # surface in the caller, don't deadlock
            with lock:
                errors.append(exc)
            barrier.abort()

    with BackgroundServer(registry) as background:
        threads = [
            threading.Thread(target=tenant, args=(background.port, index))
            for index in range(namespaces)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return (sum(run[0] for run in runs),
            max(run[2] for run in runs) - min(run[1] for run in runs))


def _bench_multi_tenant(window: int, rounds: int = ROUNDS) -> dict:
    """Paired rounds of one namespace, then :data:`NAMESPACES`; the
    medians of both rates and of the per-round ratios."""
    single_rates: list[float] = []
    shared_rates: list[float] = []
    fractions: list[float] = []
    shared_rows: list[int] = []
    for _ in range(rounds):
        rows, seconds = _tenant_run(window, 1)
        single_rates.append(rows / seconds)
        rows, seconds = _tenant_run(window, NAMESPACES)
        shared_rows.append(rows)
        shared_rates.append(rows / seconds)
        fractions.append(shared_rates[-1] / single_rates[-1])
    return {
        "namespaces": NAMESPACES,
        "rounds": rounds,
        "rows": min(shared_rows),
        "aggregate_rows_per_sec": statistics.median(shared_rates),
        "single_tenant_rows_per_sec": statistics.median(single_rates),
        "single_tenant_fraction": statistics.median(fractions),
        "round_fractions": fractions,
    }


def run_serve_bench(*, window: int | None = None,
                    k: int | None = None) -> dict:
    """Run the serving benchmark; returns the BENCH_serve.json payload."""
    window = max(10, int(512 * SCALE)) if window is None else window
    k = 5 if k is None else k
    rows = synthetic_rows(3 * window, DIM, seed=13)
    with BackgroundServer(ServerMonitor(window, DIM)) as primary:
        with ServeClient(port=primary.port) as client:
            checkpoint = _bench_checkpoint(client, rows[:window], k)
            standby = _bench_standby(primary.port, rows[window:])
            # The op's round trip lets the primary finish closing the
            # standby's replication connection; a loop that ends while
            # it is still closing logs the cancelled handler.
            client.shutdown()
    return {
        "scale": SCALE,
        "params": {
            "window": window,
            "k": k,
            "d": DIM,
            "batch": BATCH,
            "standby_rows": 2 * window,
            "tenant_rows": TENANT_BATCHES * BATCH,
        },
        "checkpoint": checkpoint,
        "standby": standby,
        "multi_tenant": _bench_multi_tenant(window),
    }


def write_serve_json(result: dict, path: str = DEFAULT_OUTPUT) -> str:
    stamp_result(result, suite="serve")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
