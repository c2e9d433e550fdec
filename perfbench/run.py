"""Served end-to-end benchmark of ``repro serve``, with a traced
per-layer breakdown.  Run from the root of a checkout::

    python3 perfbench/run.py --workload ingest_fanout --seed 1 \\
        --seconds 20 --trace 0

The generator and every server it starts share one CPU.  ``--trace 0``
sets the servers up five times; each set runs a fifth of the workload's
fixed work in a closed loop, and every end-to-end metric comes from the
sets the hypervisor did not disturb (see ``SETS``), with each time
scaled to a reference host speed by the probe in ``speed.py``.
``--trace 1`` runs the same input twice, untraced and then traced
(servers started through ``launch.py``), and prints every per-layer
metric.  Both check every answer.
The last line of standard output is the JSON result; the line before it
is the run record (host, revision, seed, p99s with sample counts).
README.md in this directory describes the design.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter
from types import SimpleNamespace

from procs import HERE, ROOT, SRC, BenchError
from speed import factor, probe

__all__ = ["main"]

_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: A run sets the servers up SETS times, each set doing a SETS-th of the
#: work.  End-to-end metrics come from the clean sets: those during which
#: the hypervisor stole under CLEAN_STEAL of the host's CPU time.  Neighbours
#: on a shared host steal CPU in stretches of seconds to minutes and slow
#: every process by 10-50 % while they do; judging sets by that outside
#: signal, never by their own figures, keeps the noise out without
#: choosing results.  When fewer than KEPT sets are clean, the KEPT
#: least-disturbed sets count.
SETS = 5
KEPT = 3
CLEAN_STEAL = 0.02
#: a run must end within 180 s
TIME_BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "reads_per_s": "reads/s",
    "ack_p50_ms": "ms",
    "ack_p90_ms": "ms",
    "delta_p50_ms": "ms",
    "delta_p90_ms": "ms",
    "read_p50_ms": "ms",
    "read_p90_ms": "ms",
    "cpu_us_per_row": "us",
    "cpu_us_per_read": "us",
    "peak_rss_mb": "MB",
}


def percentile(samples: list[float], pct: int) -> float:
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def spin_ms() -> float:
    """Host-speed probe: median ms of a fixed pure-Python loop."""
    times = []
    for _ in range(3):
        started = perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i
        times.append((perf_counter() - started) * 1e3)
    return statistics.median(times)


def revision() -> dict:
    """The git revision when the checkout is a repository, and always a
    digest of the program source that ran."""
    digest = hashlib.sha1()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    git = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and len(lines) == 2 \
                and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            git = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"git_revision": git, "src_sha1": digest.hexdigest()}


def run_pass(workload_cls, args, workdir: str, *, traced: bool,
             deadline: float) -> SimpleNamespace:
    """Set the servers up ``SETS`` times; each set runs a ``SETS``-th of
    the workload's fixed work.  Returns one record per set (``sets``)
    and, when traced, the client's spans (``client_dump``)."""
    from repro.exceptions import ServeError
    from tracing import SpanLog, frame_id, load
    from workloads import Run

    client_log = None
    if traced:
        import repro.serve.client as client_module

        client_log = SpanLog()
        client_log.patch(client_module, "encode_frame", "client.encode", len)
        client_log.patch(client_module, "decode_frame", "client.decode",
                         frame_id)
        client_log.patch(client_module.ServeClient, "request",
                         "client.request")
        client_log.patch(client_module.ServeClient, "next_event",
                         "client.next_event")
    trace_dir = os.path.join(workdir, "trace") if traced else None
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    sets = []
    try:
        for index in range(SETS):
            workload = workload_cls()
            run = Run(workdir, args.seed, args.seconds / SETS, index=index,
                      trace_dir=trace_dir, deadline=deadline)
            stolen = steal_ticks()
            try:
                speed = probe()
                started = perf_counter()
                workload.setup(run)
                setup = (started, perf_counter())
                cpu = sum(s.cpu_seconds() for s in run.servers)
                run.mark()
                begun = perf_counter()
                try:
                    workload.measure(run)
                except (ServeError, BenchError, OSError) as exc:
                    run.fail(f"measured phase aborted: {exc}")
                run.mark()
                ended = perf_counter()
                stolen = steal_ticks() - stolen
                cpu = sum(s.cpu_seconds() for s in run.servers) - cpu
                rss = sum(s.peak_rss_mb() for s in run.servers)
                ops = run.attempted
                groups = []
                if not run.failed:
                    groups = workload.producer.stats()["groups"]
                    try:
                        # Brute force on the last set only: it costs
                        # O(N^2) per query; the other sets still check
                        # every copy of every answer against each other.
                        workload.verify(run, brute=index == SETS - 1)
                    except (ServeError, BenchError, OSError) as exc:
                        run.fail(f"answer check aborted: {exc}")
            finally:
                run.close()
            dumps = [(d["meta"]["role"], d) for d in
                     (load(s.trace_out) for s in run.servers)] \
                if traced else []
            sets.append(SimpleNamespace(
                run=run, setup=setup, setup_probe=speed, phase=(begun, ended),
                wall=scaled_seconds(run.marks), server_cpu=cpu, rss=rss,
                ops=ops,
                groups=groups, server_dumps=dumps, steal=stolen))
            if run.failed:
                break
    finally:
        if client_log is not None:
            client_log.unpatch()
    return SimpleNamespace(
        sets=sets,
        client_dump=client_log.snapshot() if traced else None,
    )


def scaled_seconds(marks) -> float:
    """A set's measured wall time, without the probes and scaled to the
    reference host speed."""
    return sum((m1[0] - m0[0]) * factor(m0[4], m1[4])
               for m0, m1 in zip(marks, marks[1:]))


def pin_to_one_cpu():
    """Pin the generator to the last CPU it may use; the servers it
    starts inherit the mask.  In a closed loop only one process works at
    a time, so sharing a CPU costs little, while a wake-up across vCPUs
    goes through the hypervisor and swings read latency by 10-30 %.
    Returns the CPU, or ``None`` where affinity cannot be set."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def steal_ticks() -> int:
    """Host-wide CPU time the hypervisor stole so far, in clock ticks."""
    with open("/proc/stat") as handle:
        return int(handle.readline().split()[8])


def steal_share(record) -> float:
    """The share of the host's CPU time stolen from the start of a set's
    set-up to the end of its measured phase."""
    elapsed = record.phase[1] - record.setup[0]
    return record.steal / _CLK_TCK / (elapsed * os.cpu_count())


def kept_sets(sets) -> list:
    """Every clean set, or the ``KEPT`` sets with the least stolen CPU
    when fewer are clean."""
    kept = [record for record in sets if steal_share(record) < CLEAN_STEAL]
    return kept if len(kept) >= KEPT \
        else sorted(sets, key=steal_share)[:KEPT]


def end_to_end(sets, scaled: bool = True) -> dict:
    """Every end-to-end metric over the kept sets: latency percentiles
    of their pooled samples, rates and CPU costs medians over their
    chunks, set-up time and memory medians over the sets.  Each time is
    scaled to the reference host speed (speed.py) unless ``scaled`` is
    false."""
    from workloads import LATENCIES

    def scale(*probes: float) -> float:
        return factor(*probes) if scaled else 1.0

    kept = kept_sets(sets)
    # (seconds, rows, reads, CPU seconds, scale) of every chunk of the
    # kept sets, and every latency sample times its chunk's scale
    chunks = []
    lat = {kind: [] for kind in LATENCIES}
    for record in kept:
        marks, samples = record.run.marks, record.run.lat
        for m0, m1 in zip(marks, marks[1:]):
            chunk_scale = scale(m0[4], m1[4])
            chunks.append((*(b - a for a, b in zip(m0[:4], m1[:4])),
                           chunk_scale))
            for i, kind in enumerate(LATENCIES, start=5):
                lat[kind] += [x * chunk_scale
                              for x in samples[kind][m0[i]:m1[i]]]

    def setup_s(record) -> float:
        return (record.setup[1] - record.setup[0]) \
            * scale(record.setup_probe, record.run.marks[0][4])

    seconds, rows, reads, cpu, scaling = range(5)

    def rate(work: int) -> float:
        """Work per scaled second, the median over chunks."""
        return statistics.median(c[work] / (c[seconds] * c[scaling])
                                 for c in chunks)

    def cost(work: int) -> float:
        """Scaled server CPU microseconds per unit of work, the median
        over the chunks that did some."""
        return statistics.median(c[cpu] * c[scaling] / c[work] * 1e6
                                 for c in chunks if c[work])

    return {
        "setup_s": statistics.median(setup_s(r) for r in kept),
        "rows_per_s": rate(rows),
        "reads_per_s": rate(reads),
        # p99 is not gated; the run record prints it with its count
        **{f"{kind}_p{pct}_ms": percentile(lat[kind], pct) * 1e3
           for kind in LATENCIES for pct in (50, 90, 99)},
        **{f"{kind}_samples": len(lat[kind]) for kind in LATENCIES},
        "cpu_us_per_row": cost(rows),
        "cpu_us_per_read": cost(reads),
        "peak_rss_mb": statistics.median(r.rss for r in kept),
    }


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from layers import PER_LAYER, per_layer
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    # SIGTERM unwinds like an error, so every server is still stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    deadline = perf_counter() + TIME_BUDGET_S
    workdir = os.path.join(HERE, ".work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    workload_cls = WORKLOADS[args.workload]
    cpu = pin_to_one_cpu()
    spins, steal = [spin_ms()], steal_ticks()
    passes = [run_pass(workload_cls, args, workdir, traced=False,
                       deadline=deadline)]
    if args.trace:
        passes.append(run_pass(workload_cls, args, workdir, traced=True,
                               deadline=deadline))
    steal = steal_ticks() - steal
    spins.append(spin_ms())
    runs = [record.run for p in passes for record in p.sets]
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)
    e2e = {} if failed else end_to_end(passes[0].sets)
    if failed:
        values = {}
    elif args.trace:
        values = per_layer(passes[0], passes[1], statistics.median(spins))
    else:
        values = e2e
    units = ({name: unit for name, (unit, _) in PER_LAYER.items()}
             if args.trace else END_TO_END)
    last = passes[-1].sets
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(),
        **revision(),
        "host_spin_ms": {"before": spins[0], "after": spins[1]},
        "host_steal_s": steal / _CLK_TCK,
        "set_steal_share": [steal_share(r) for p in passes for r in p.sets],
        "set_probe_us": [statistics.median(m[4] for m in r.run.marks) * 1e6
                         for r in passes[0].sets if r.run.marks],
        "p99_ms": {kind: {"value": e2e[f"{kind}_p99_ms"],
                          "samples": e2e[f"{kind}_samples"]}
                   for kind in ("ack", "delta", "read")} if e2e else None,
        "counts": {field: sum(getattr(r.run, field) for r in last)
                   for field in ("rows", "reads", "batches",
                                 "delta_frames")},
        "unscaled": end_to_end(passes[0].sets, scaled=False)
        if e2e else None,
        "error_ratio": failed / attempted if attempted else 1.0,
        "problems": [p for run in runs for p in run.problems][:10],
    }
    print(json.dumps({"perfbench": record}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }))
    if failed == 0:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
