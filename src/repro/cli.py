"""Command-line interface: monitor top-k pairs over a CSV stream, plus
the ``lint`` / ``audit`` correctness subcommands, the ``obs``
observability subcommand, the ``bench`` benchmark runner and the
``serve`` / ``client`` network serving pair (repro.serve).

The default invocation feeds rows from a CSV file (or stdin) through a
:class:`~repro.core.monitor.TopKPairsMonitor` and periodically prints the
current top-k pairs — a ready-made tool for trying the library on real
data without writing code.

Usage examples::

    # 3 closest pairs over the last 1000 rows of a 2-column CSV
    python -m repro --columns 2 --scoring closest --k 3 --window 1000 data.csv

    # most dissimilar pairs, report every 500 rows, stream from stdin
    cat data.csv | python -m repro --columns 4 --scoring dissimilar \
        --k 5 --window 2000 --report-every 500

    # static lint pass over a source tree (exit 1 on findings)
    python -m repro lint src

    # run a synthetic stream under the runtime invariant verifier
    python -m repro audit --dataset uniform --steps 500

    # stream with full instrumentation, dump Prometheus text metrics
    python -m repro obs --dataset synthetic --steps 1000 --format prometheus

    # per-tick maintenance throughput -> BENCH_throughput.json
    python -m repro bench throughput

    # serve the monitor over TCP (NDJSON protocol, docs/serving.md),
    # with the telemetry HTTP sidecar on port 7808
    python -m repro serve --window 1000 --columns 2 --port 7807 \
        --obs-port 7808

    # talk to it: ingest a CSV, then watch a top-3 closest query live
    python -m repro client ingest --port 7807 --columns 2 data.csv
    python -m repro client watch --port 7807 --scoring closest --k 3

    # pretty-print the server's live ingest ticks off the sidecar
    python -m repro obs tail --port 7808

    # multi-tenant serving: mint two tenants, serve them isolated
    python -m repro tenants create alpha --file tenants.json
    python -m repro tenants create beta --file tenants.json
    python -m repro serve --columns 2 --tenants tenants.json
    python -m repro client ingest --port 7807 --columns 2 \
        --namespace alpha --token <alpha-token> data.csv

Scoring functions: ``closest`` (s1), ``furthest`` (s2), ``similar`` (s3),
``dissimilar`` (s4), each over all ``--columns`` attributes.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import os
import sys
from typing import Iterator, Optional, Sequence, TextIO

from repro.core.monitor import TopKPairsMonitor
from repro.scoring.library import (
    k_closest_pairs,
    k_furthest_pairs,
    top_k_dissimilar_pairs,
    top_k_similar_pairs,
)

__all__ = [
    "main",
    "build_parser",
    "build_audit_parser",
    "build_bench_parser",
    "build_client_parser",
    "build_lint_parser",
    "build_obs_parser",
    "build_obs_tail_parser",
    "build_serve_parser",
    "build_tenants_parser",
    "run_audit",
    "run_bench",
    "run_client",
    "run_lint",
    "run_obs",
    "run_obs_tail",
    "run_serve",
    "run_tenants",
]

_SCORING_FACTORIES = {
    "closest": k_closest_pairs,
    "furthest": k_furthest_pairs,
    "similar": top_k_similar_pairs,
    "dissimilar": top_k_dissimilar_pairs,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Continuously monitor top-k pairs over a CSV stream "
        "(Shen et al., ICDE 2012).",
    )
    parser.add_argument(
        "csv_file", nargs="?", default="-",
        help="CSV input ('-' or omitted: read stdin)",
    )
    parser.add_argument(
        "--columns", type=int, required=True,
        help="number of leading numeric columns to use as attributes",
    )
    parser.add_argument(
        "--scoring", choices=sorted(_SCORING_FACTORIES), default="closest",
        help="scoring function over the attributes (default: closest)",
    )
    parser.add_argument("--k", type=int, default=5, help="pairs to report")
    parser.add_argument(
        "--window", type=int, default=1000,
        help="sliding window size N (count-based)",
    )
    parser.add_argument(
        "--n", type=int, default=None,
        help="query window n <= N (default: N)",
    )
    parser.add_argument(
        "--report-every", type=int, default=1000,
        help="print the current top-k after this many rows",
    )
    parser.add_argument(
        "--skip-header", action="store_true",
        help="ignore the first CSV row",
    )
    parser.add_argument(
        "--strategy", choices=["auto", "scase", "ta", "basic"],
        default="auto", help="skyband maintenance strategy",
    )
    return parser


def _rows(handle: TextIO, columns: int, skip_header: bool) -> Iterator[tuple]:
    reader = csv.reader(handle)
    for index, row in enumerate(reader):
        if index == 0 and skip_header:
            continue
        if len(row) < columns:
            raise SystemExit(
                f"row {index + 1} has {len(row)} columns, "
                f"need at least {columns}"
            )
        try:
            yield tuple(float(cell) for cell in row[:columns])
        except ValueError as exc:
            raise SystemExit(f"row {index + 1}: {exc}") from exc


def _print_report(monitor: TopKPairsMonitor, handle, tick: int,
                  out: TextIO) -> None:
    print(f"-- after {tick} rows: top-{handle.query.k} pairs "
          f"(window n={handle.query.n}) --", file=out)
    results = monitor.results(handle)
    if not results:
        print("   (no pairs in the window yet)", file=out)
    for rank, pair in enumerate(results, start=1):
        print(
            f"   #{rank}: rows {pair.older.seq} & {pair.newer.seq}  "
            f"score={pair.score:.6g}  "
            f"values {pair.older.values} / {pair.newer.values}",
            file=out,
        )


def build_lint_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Project static analysis: per-file rules "
        "(RA100-RA108), call-graph hot-path propagation, async-safety "
        "rules (RA201-RA205) and protocol conformance (RA301); see "
        "docs/audit.md.  Exits 1 on findings (with --strict: on "
        "findings not in the baseline).",
    )
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directory trees to lint "
        "(default: the installed repro package)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="baseline-aware gating: fail only on findings not listed "
        "in the baseline file (the count can only ratchet down)",
    )
    parser.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the report to FILE instead of stdout "
        "(a one-line summary still prints)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline file of grandfathered findings (default: "
        ".audit-baseline.json in the working directory, when present)",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write the current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--no-project", action="store_true",
        help="per-file rules only; skip the cross-module passes "
        "(call graph, RA2xx, RA301)",
    )
    parser.add_argument(
        "--explain", default=None, metavar="RULE",
        help="print one rule's rationale, example and fix, then exit "
        "(e.g. --explain RA202)",
    )
    return parser


def run_lint(argv: Sequence[str],
             stdout: Optional[TextIO] = None) -> int:
    """``python -m repro lint [paths]`` — exit 1 when rules fire."""
    from repro.audit.baseline import (
        BASELINE_NAME,
        load_baseline,
        partition_violations,
        render_baseline,
    )
    from repro.audit.emit import to_json, to_sarif
    from repro.audit.lint import analyze_paths
    from repro.audit.report import summarize
    from repro.audit.rules import explain_rule

    stdout = stdout if stdout is not None else sys.stdout
    args = build_lint_parser().parse_args(argv)
    if args.explain is not None:
        text = explain_rule(args.explain)
        if text is None:
            raise SystemExit(
                f"repro lint: unknown rule {args.explain!r}; "
                "see docs/audit.md for the catalogue"
            )
        print(text, file=stdout)
        return 0
    paths = args.paths
    if not paths:
        paths = [os.path.dirname(os.path.abspath(__file__))]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        raise SystemExit(
            "repro lint: no such file or directory: "
            + ", ".join(missing)
        )
    result = analyze_paths(paths, project=not args.no_project)
    violations, warnings = result.violations, result.warnings

    baseline_path = args.baseline
    if baseline_path is None and os.path.exists(BASELINE_NAME):
        baseline_path = BASELINE_NAME

    if args.write_baseline:
        target = baseline_path if baseline_path is not None \
            else BASELINE_NAME
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(render_baseline(violations))
        print(
            f"baseline: {len(violations)} finding(s) written to {target}",
            file=stdout,
        )
        return 0

    grandfathered: list = []
    unused: list = []
    if args.strict:
        keys = load_baseline(baseline_path) if baseline_path else set()
        new, grandfathered, unused = partition_violations(violations, keys)
    else:
        new = violations

    summary = f"lint: {summarize(new)}"
    if args.strict:
        summary += (
            f" (strict: {len(grandfathered)} baselined, "
            f"{len(warnings)} warning(s))"
        )
    if args.format == "text":
        lines = [str(violation) for violation in new]
        lines.extend(f"{violation} [baselined]" for violation in grandfathered)
        lines.extend(f"warning: {warning}" for warning in warnings)
        lines.extend(
            f"warning: stale baseline entry matches no finding: "
            f"[{rule}] {path}: {message}"
            for rule, path, message in unused
        )
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write("\n".join([*lines, summary]) + "\n")
            print(f"{summary} -> {args.out}", file=stdout)
        else:
            for line in lines:
                print(line, file=stdout)
            print(summary, file=stdout)
    else:
        if args.format == "json":
            document = to_json(new, warnings, grandfathered=grandfathered)
        else:
            document = to_sarif(new, warnings,
                                grandfathered=grandfathered,
                                track_baseline=args.strict)
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(document)
            print(f"{summary} -> {args.out}", file=stdout)
        else:
            stdout.write(document)
    return 1 if new else 0


def build_audit_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro audit",
        description="Run a synthetic stream under the runtime invariant "
        "verifier (structural checks every tick plus sampled brute-force "
        "K-skyband cross-checks); exits 1 on violations.",
    )
    parser.add_argument(
        "--dataset", default="synthetic",
        choices=["synthetic", "uniform", "correlated", "anticorrelated"],
        help="synthetic distribution ('synthetic' = uniform)",
    )
    parser.add_argument("--steps", type=int, default=500,
                        help="objects to stream (default 500)")
    parser.add_argument("--window", type=int, default=128,
                        help="sliding window size N (default 128)")
    parser.add_argument("--columns", type=int, default=2,
                        help="number of attributes (default 2)")
    parser.add_argument("--k", type=int, default=5,
                        help="query depth k (default 5)")
    parser.add_argument(
        "--scoring", choices=sorted(_SCORING_FACTORIES), default="closest",
        help="scoring function (default: closest)",
    )
    parser.add_argument(
        "--strategy", choices=["auto", "scase", "ta", "basic"],
        default="auto", help="skyband maintenance strategy",
    )
    parser.add_argument("--interval", type=int, default=1,
                        help="run structural checks every this many "
                        "ticks (default 1)")
    parser.add_argument("--cross-check-every", type=int, default=64,
                        help="brute-force K-skyband cross-check every "
                        "this many ticks; 0 disables (default 64)")
    parser.add_argument("--seed", type=int, default=0,
                        help="stream seed (default 0)")
    parser.add_argument("--metrics", default=None, metavar="OUT.json",
                        help="also collect repro.obs metrics and write a "
                        "registry snapshot to this JSON file")
    parser.add_argument("--lint", action="store_true",
                        help="after the runtime checks, run the static "
                        "analyzer in strict mode (repro lint --strict) "
                        "over the installed package and merge exit codes")
    return parser


def run_audit(argv: Sequence[str],
              stdout: Optional[TextIO] = None) -> int:
    """``python -m repro audit`` — exit 1 on invariant violations."""
    from repro.audit.report import format_violations, summarize
    from repro.datasets.synthetic import make_stream

    stdout = stdout if stdout is not None else sys.stdout
    args = build_audit_parser().parse_args(argv)
    if args.steps < 1 or args.window < 2 or args.columns < 1 or args.k < 1:
        raise SystemExit(
            "--steps >= 1, --window >= 2, --columns >= 1 and --k >= 1 "
            "required"
        )
    distribution = "uniform" if args.dataset == "synthetic" else args.dataset
    recorder = None
    if args.metrics is not None:
        from repro.obs import MetricsRecorder

        recorder = MetricsRecorder()
    monitor = TopKPairsMonitor(
        args.window, args.columns, strategy=args.strategy,
        audit=True, audit_interval=args.interval,
        audit_cross_check_interval=args.cross_check_every,
        recorder=recorder,
    )
    # Collect every violation instead of stopping at the first tick.
    monitor.auditor.raise_on_violation = False
    scoring = _SCORING_FACTORIES[args.scoring](args.columns)
    handle = monitor.register_query(scoring, k=args.k, continuous=True)
    stream = make_stream(distribution, args.columns, seed=args.seed)
    for values in itertools.islice(stream, args.steps):
        monitor.append(values)
    auditor = monitor.auditor
    if auditor.violations:
        print(format_violations(auditor.violations), file=stdout)
    print(
        f"audit: {args.steps} objects, {auditor.checks_run} structural "
        f"checks, {auditor.cross_checks_run} brute-force cross-checks, "
        f"final answer {len(monitor.results(handle))} pairs — "
        f"{summarize(auditor.violations)}",
        file=stdout,
    )
    if recorder is not None:
        from repro.obs import write_metrics_json

        write_metrics_json(
            recorder.registry, args.metrics,
            extra={"command": "audit", "steps": args.steps},
        )
        print(f"metrics written to {args.metrics}", file=stdout)
    exit_code = 1 if auditor.violations else 0
    if args.lint:
        lint_code = run_lint(["--strict"], stdout)
        exit_code = exit_code or lint_code
    return exit_code


def build_bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Run a benchmark suite and write its BENCH_*.json "
        "result file (scaled by REPRO_BENCH_SCALE).",
    )
    parser.add_argument(
        "suite", choices=["throughput", "serve"],
        help="benchmark suite to run",
    )
    parser.add_argument("--out", default=None, metavar="OUT.json",
                        help="result file (default: the suite's "
                        "BENCH_*.json in the working directory)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions per workload, best-of "
                        "(default 3)")
    parser.add_argument("--ticks", type=int, default=None,
                        help="measured stream length (default: "
                        "4x the harness TICKS)")
    parser.add_argument("--window", type=int, default=None,
                        help="window size N (default: harness N_DEFAULT)")
    parser.add_argument("--k", type=int, default=None,
                        help="query depth k (default: harness K_DEFAULT)")
    return parser


def run_bench(argv: Sequence[str],
              stdout: Optional[TextIO] = None) -> int:
    """``python -m repro bench <suite>`` — run + write BENCH json."""
    stdout = stdout if stdout is not None else sys.stdout
    args = build_bench_parser().parse_args(argv)
    if args.repeats < 1:
        raise SystemExit("--repeats >= 1 required")
    if args.suite == "serve":
        from repro.bench.serve import (
            DEFAULT_OUTPUT as SERVE_OUTPUT,
            run_serve_bench,
            write_serve_json,
        )

        result = run_serve_bench(window=args.window, k=args.k)
        path = write_serve_json(
            result, args.out if args.out is not None else SERVE_OUTPUT
        )
        ingest = result["ingest"]
        deltas = result["deltas"]
        print(
            f"serve: ingest {ingest['rows_per_sec']:.0f} rows/sec "
            f"(batch {ingest['batch']}), delta latency p50 "
            f"{deltas['latency_us']['p50']:.0f} us / p99 "
            f"{deltas['latency_us']['p99']:.0f} us over "
            f"{deltas['delta_events']} events, replay "
            f"{'consistent' if deltas['replay_consistent'] else 'BROKEN'}, "
            f"checkpoint save "
            f"{result['checkpoint']['save_seconds'] * 1e3:.1f} ms / restore "
            f"{result['checkpoint']['restore_seconds'] * 1e3:.1f} ms replay "
            f"/ {result['checkpoint']['restore_seconds_structural'] * 1e3:.1f}"
            f" ms structural "
            f"({result['checkpoint']['structural_speedup']:.0f}x)",
            file=stdout,
        )
        standby = result["standby"]
        print(
            f"standby: bootstrap {standby['bootstrap_seconds'] * 1e3:.1f} ms "
            f"({standby['bootstrap_objects']} objects), apply lag p50 "
            f"{standby['apply_lag_us']['p50']:.0f} us / p99 "
            f"{standby['apply_lag_us']['p99']:.0f} us over "
            f"{standby['rows']} replicated rows, promote "
            f"{standby['promote_seconds'] * 1e3:.1f} ms to epoch "
            f"{standby['promoted_epoch']}"
            + ("" if standby["caught_up"] else " [NOT CAUGHT UP]"),
            file=stdout,
        )
        tenants = result["multi_tenant"]
        print(
            f"multi-tenant: {tenants['namespaces']} namespaces aggregate "
            f"{tenants['aggregate_rows_per_sec']:.0f} rows/sec "
            f"({tenants['single_tenant_fraction']:.2f}x single-tenant), "
            f"delta p99 median {tenants['delta_p99_us']['median']:.0f} us / "
            f"worst {tenants['delta_p99_us']['max']:.0f} us across tenants",
            file=stdout,
        )
        print(f"written to {path}", file=stdout)
        ok = (deltas["replay_consistent"] and standby["caught_up"]
              and tenants["single_tenant_fraction"] >= 0.8)
        return 0 if ok else 1
    from repro.bench.throughput import (
        DEFAULT_OUTPUT,
        run_throughput,
        write_throughput_json,
    )

    result = run_throughput(
        repeats=args.repeats, k=args.k, window=args.window, ticks=args.ticks
    )
    path = write_throughput_json(
        result, args.out if args.out is not None else DEFAULT_OUTPUT
    )
    for name, workload in result["workloads"].items():
        print(
            f"{name}: {workload['ticks_per_sec']:.0f} ticks/sec, p99 "
            f"{workload['latency_us']['p99']:.0f} us, "
            f"{workload['sweeps']:.0f} sweeps",
            file=stdout,
        )
    print(f"written to {path}", file=stdout)
    return 0


def build_obs_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro obs",
        description="Stream a synthetic dataset through a fully "
        "instrumented monitor (repro.obs) and export the collected "
        "metrics / per-tick trace.",
    )
    parser.add_argument(
        "--dataset", default="synthetic",
        choices=["synthetic", "uniform", "correlated", "anticorrelated"],
        help="synthetic distribution ('synthetic' = uniform)",
    )
    parser.add_argument("--steps", type=int, default=1000,
                        help="objects to stream (default 1000)")
    parser.add_argument("--window", type=int, default=256,
                        help="sliding window size N (default 256)")
    parser.add_argument("--columns", type=int, default=2,
                        help="number of attributes (default 2)")
    parser.add_argument("--k", type=int, default=5,
                        help="query depth k (default 5)")
    parser.add_argument(
        "--scoring", choices=sorted(_SCORING_FACTORIES), default="closest",
        help="scoring function (default: closest)",
    )
    parser.add_argument(
        "--strategy", choices=["auto", "scase", "ta", "basic"],
        default="auto", help="skyband maintenance strategy",
    )
    parser.add_argument("--batch-size", type=int, default=None,
                        help="ingest in batches of this size "
                        "(default: one tick per object)")
    parser.add_argument("--seed", type=int, default=0,
                        help="stream seed (default 0)")
    parser.add_argument(
        "--format", choices=["summary", "prometheus", "json", "jsonl", "csv"],
        default="summary",
        help="output format: human summary, Prometheus text exposition, "
        "JSON registry snapshot, or the per-tick trace as JSON-lines / "
        "CSV (default: summary)",
    )
    parser.add_argument("--out", default="-", metavar="FILE",
                        help="write the formatted output here "
                        "(default '-': stdout)")
    parser.add_argument("--metrics", default=None, metavar="OUT.json",
                        help="additionally write a JSON registry snapshot "
                        "to this file (any --format)")
    return parser


def build_obs_tail_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro obs tail",
        description="Attach to a running server's telemetry sidecar "
        "(repro serve --obs-port) and pretty-print its live ingest "
        "ticks from the /ticks NDJSON stream.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="sidecar address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, required=True,
                        help="sidecar port (the --obs-port value)")
    parser.add_argument("--backlog", type=int, default=0,
                        help="replay up to this many retained ticks "
                        "before going live (default 0)")
    parser.add_argument("--limit", type=int, default=None,
                        help="exit after this many ticks "
                        "(default: run until the server stops)")
    parser.add_argument("--raw", action="store_true",
                        help="print the NDJSON records verbatim instead "
                        "of the human one-liners")
    parser.add_argument("--timeout", type=float, default=10.0,
                        help="connect timeout in seconds (default 10)")
    return parser


def _format_tick(record: dict) -> str:
    parts = [
        f"tick {record.get('tick', '?')}:",
        f"rows={record.get('rows', '?')}",
        f"deltas={record.get('deltas', '?')}",
    ]
    seconds = record.get("seconds")
    if isinstance(seconds, (int, float)):
        parts.append(f"{seconds * 1e3:.2f}ms")
    trace = record.get("trace")
    if trace:
        parts.append(f"trace={trace}")
    return " ".join(parts)


def run_obs_tail(argv: Sequence[str],
                 stdout: Optional[TextIO] = None) -> int:
    """``python -m repro obs tail`` — live tick stream off the sidecar."""
    import json
    import socket

    stdout = stdout if stdout is not None else sys.stdout
    args = build_obs_tail_parser().parse_args(argv)
    target = f"/ticks?backlog={max(0, args.backlog)}"
    if args.limit is not None:
        target += f"&limit={args.limit}"
    try:
        sock = socket.create_connection((args.host, args.port),
                                        timeout=args.timeout)
    except OSError as exc:
        raise SystemExit(
            f"repro obs tail: cannot reach {args.host}:{args.port} "
            f"({exc}); is the server running with --obs-port?"
        ) from exc
    seen = 0
    try:
        sock.sendall(
            f"GET {target} HTTP/1.0\r\nHost: {args.host}\r\n\r\n"
            .encode("latin-1")
        )
        # Live tailing blocks indefinitely between ticks by design; the
        # timeout only guards the connect + handshake above.
        sock.settimeout(None)
        handle = sock.makefile("r", encoding="utf-8")
        status = handle.readline().split()
        if len(status) < 2 or status[1] != "200":
            raise SystemExit(
                f"repro obs tail: sidecar answered "
                f"{' '.join(status) or 'nothing'}"
            )
        for line in handle:  # drain response headers
            if line in ("\r\n", "\n"):
                break
        try:
            for line in handle:
                if not line.strip():
                    continue
                if args.raw:
                    print(line.rstrip("\n"), file=stdout, flush=True)
                else:
                    print(_format_tick(json.loads(line)), file=stdout,
                          flush=True)
                seen += 1
        except KeyboardInterrupt:
            pass
    finally:
        sock.close()
    print(f"tailed {seen} tick(s)", file=stdout)
    return 0


def run_obs(argv: Sequence[str],
            stdout: Optional[TextIO] = None) -> int:
    """``python -m repro obs`` — instrumented synthetic run + export
    (``obs tail`` attaches to a live sidecar instead)."""
    if argv and argv[0] == "tail":
        return run_obs_tail(list(argv[1:]), stdout)
    from repro.datasets.synthetic import make_stream
    from repro.obs import (
        MetricsRecorder,
        to_prometheus,
        write_metrics_json,
        write_tick_csv,
        write_tick_jsonl,
    )

    stdout = stdout if stdout is not None else sys.stdout
    args = build_obs_parser().parse_args(argv)
    if args.steps < 1 or args.window < 2 or args.columns < 1 or args.k < 1:
        raise SystemExit(
            "--steps >= 1, --window >= 2, --columns >= 1 and --k >= 1 "
            "required"
        )
    distribution = "uniform" if args.dataset == "synthetic" else args.dataset
    recorder = MetricsRecorder()
    monitor = TopKPairsMonitor(
        args.window, args.columns, strategy=args.strategy, recorder=recorder,
    )
    scoring = _SCORING_FACTORIES[args.scoring](args.columns)
    handle = monitor.register_query(scoring, k=args.k, continuous=True)
    stream = make_stream(distribution, args.columns, seed=args.seed)
    rows = list(itertools.islice(stream, args.steps))
    monitor.extend(rows, batch_size=args.batch_size)
    monitor.results(handle)

    registry = recorder.registry
    if args.out == "-":
        out, close = stdout, False
    else:
        out, close = open(args.out, "w", encoding="utf-8"), True
    try:
        if args.format == "prometheus":
            out.write(to_prometheus(registry))
        elif args.format == "json":
            write_metrics_json(registry, out,
                               extra={"command": "obs", "steps": args.steps})
        elif args.format == "jsonl":
            write_tick_jsonl(recorder.events, out)
        elif args.format == "csv":
            write_tick_csv(recorder.events, out)
        else:
            ticks = registry.value("repro_ticks_total")
            append = registry.get("repro_append_seconds").solo
            mean_us = append.mean() * 1e6 if append.count else 0.0
            print(
                f"obs: {args.steps} objects in {ticks:g} ticks, "
                f"mean append {mean_us:.1f} us, "
                f"skyband size {registry.value('repro_skyband_size'):g}, "
                f"PST rebuilds "
                f"{registry.value('repro_pst_rebuilds_total'):g}, "
                f"{len(registry)} metric families",
                file=out,
            )
    finally:
        if close:
            out.close()
    if args.metrics is not None:
        write_metrics_json(registry, args.metrics,
                           extra={"command": "obs", "steps": args.steps})
        print(f"metrics written to {args.metrics}", file=stdout)
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve a monitor over TCP: NDJSON request/response "
        "protocol with pub/sub answer deltas and checkpoint/restore "
        "(docs/serving.md).  Runs until SIGINT/SIGTERM or a client's "
        "shutdown op, then drains gracefully.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=7807,
                        help="TCP port; 0 picks a free port and announces "
                        "it (default 7807)")
    parser.add_argument("--window", type=int, default=1000,
                        help="sliding window size N (default 1000)")
    parser.add_argument("--columns", type=int, required=True,
                        help="number of attributes per row")
    parser.add_argument("--horizon", type=float, default=None,
                        help="time horizon T for time-based expiry "
                        "(default: count-based window only)")
    parser.add_argument(
        "--strategy", choices=["auto", "scase", "ta", "basic"],
        default="auto", help="skyband maintenance strategy",
    )
    parser.add_argument(
        "--backpressure", choices=["block", "drop"], default="block",
        help="full-subscriber-queue policy: 'block' delays ingest acks, "
        "'drop' discards the delta and marks the subscriber lagged "
        "(default block)",
    )
    parser.add_argument("--queue-depth", type=int, default=64,
                        help="per-subscriber event queue bound (default 64)")
    parser.add_argument(
        "--tenants", default=None, metavar="TENANTS.toml",
        help="serve many isolated namespaces from this tenants file "
        "(TOML or JSON: bearer tokens + quotas per tenant; manage it "
        "with 'repro tenants'); clients bind a namespace with the auth "
        "op, SIGHUP hot-reloads the file (docs/serving.md)",
    )
    parser.add_argument("--mux-pending", type=int, default=4,
                        help="per-namespace ingest queue bound in the "
                        "fair multiplexer (multi-tenant only, default 4)")
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="resolve relative checkpoint paths here "
                        "(per-namespace <ns>.ckpt files land here on a "
                        "multi-tenant server)")
    parser.add_argument("--restore", default=None, metavar="CKPT.json",
                        help="warm-start from this checkpoint before "
                        "serving (with --tenants: a directory of "
                        "per-namespace <ns>.ckpt files)")
    parser.add_argument(
        "--restore-mode", choices=["structural", "replay"],
        default="structural",
        help="how --restore rebuilds engine state: 'structural' "
        "bulk-loads the serialized skybands (fast), 'replay' re-ingests "
        "the window through the engine (slow oracle) (default "
        "structural)",
    )
    parser.add_argument(
        "--standby", default=None, metavar="HOST:PORT",
        help="run as a warm standby of the primary at HOST:PORT: "
        "bootstrap from a shipped checkpoint, tail its replication "
        "feed, reject ingest until promoted ('repro client promote')",
    )
    parser.add_argument(
        "--standby-delta-log", default=None, metavar="OUT.jsonl",
        help="journal every replicated answer delta to this JSONL file "
        "(standby mode only)",
    )
    parser.add_argument("--checkpoint-on-exit", default=None,
                        metavar="CKPT.json",
                        help="write a final checkpoint during shutdown")
    parser.add_argument("--audit", action="store_true",
                        help="run the engine under the runtime invariant "
                        "verifier (slow; for debugging)")
    parser.add_argument("--metrics", default=None, metavar="OUT.json",
                        help="write a metrics registry snapshot on exit")
    parser.add_argument("--obs-port", type=int, default=None,
                        help="also serve the telemetry HTTP sidecar "
                        "(/metrics, /healthz, /varz, /tracez, /ticks) on "
                        "this port; 0 picks a free port and announces it "
                        "(default: no sidecar)")
    parser.add_argument("--obs-host", default="127.0.0.1",
                        help="sidecar bind address (default 127.0.0.1)")
    parser.add_argument("--trace-capacity", type=int, default=512,
                        help="finished spans kept for /tracez; 0 disables "
                        "request tracing entirely (default 512)")
    parser.add_argument("--flight-dir", default=".", metavar="DIR",
                        help="directory for flight-recorder JSONL dumps "
                        "(default: working directory)")
    parser.add_argument("--slow-tick-ms", type=float, default=None,
                        help="dump the flight recorder when an ingest "
                        "tick exceeds this many milliseconds "
                        "(default: disabled)")
    return parser


def run_serve(argv: Sequence[str],
              stdout: Optional[TextIO] = None) -> int:
    """``python -m repro serve`` — run the server on the main thread."""
    import asyncio

    from repro.exceptions import ServeError, TenantConfigError
    from repro.obs.flight import FlightRecorder
    from repro.obs.spans import NULL_SPANS, SpanRecorder
    from repro.serve.checkpoint import (
        restore_namespace_checkpoints,
        restore_server_monitor,
        save_checkpoint,
    )
    from repro.serve.server import ServeServer
    from repro.serve.session import ServerMonitor
    from repro.serve.standby import connect_standby
    from repro.serve.tenancy import DEFAULT_NAMESPACE, NamespaceRegistry

    stdout = stdout if stdout is not None else sys.stdout
    args = build_serve_parser().parse_args(argv)
    if args.window < 2 or args.columns < 1 or args.queue_depth < 1:
        raise SystemExit(
            "--window >= 2, --columns >= 1 and --queue-depth >= 1 required"
        )
    if args.trace_capacity < 0:
        raise SystemExit("--trace-capacity >= 0 required")
    if args.mux_pending < 1:
        raise SystemExit("--mux-pending >= 1 required")
    if args.standby is not None and args.restore is not None:
        raise SystemExit("--standby and --restore are mutually exclusive "
                         "(a standby bootstraps from the primary)")
    if args.standby_delta_log is not None and args.standby is None:
        raise SystemExit("--standby-delta-log requires --standby")
    spans = (SpanRecorder(args.trace_capacity)
             if args.trace_capacity > 0 else NULL_SPANS)
    flight = FlightRecorder(
        dump_dir=args.flight_dir,
        slow_tick_seconds=(args.slow_tick_ms / 1e3
                           if args.slow_tick_ms is not None else None),
    )
    # Finished spans tee into the flight recorder so post-mortem dumps
    # carry the request story, not just tick summaries.
    if spans is not NULL_SPANS:
        spans.sink = flight.record_span
    # One registry in every mode: the tenants file's, or an open one
    # holding the single ``default`` namespace.
    registry = NamespaceRegistry(open_default=True)
    if args.tenants is not None:
        def factory(name, spec):
            # Each tenant gets its own engine; a max_window_objects
            # quota caps the window below the server-wide default.
            window = args.window
            if spec.quotas.max_window_objects is not None:
                window = min(window, spec.quotas.max_window_objects)
            return ServerMonitor(
                window, args.columns, time_horizon=args.horizon,
                strategy=args.strategy, audit=args.audit, spans=spans,
            )
        try:
            registry = NamespaceRegistry.from_file(args.tenants, factory)
        except TenantConfigError as exc:
            raise SystemExit(f"repro serve: {exc}") from exc
    tailer = None
    try:
        if args.standby is not None:
            host, _, port_text = args.standby.rpartition(":")
            if not host or not port_text.isdigit():
                raise SystemExit(
                    f"--standby needs HOST:PORT, got {args.standby!r}"
                )
            registry, tailer = connect_standby(
                host, int(port_text), mode=args.restore_mode,
                audit=args.audit, delta_log=args.standby_delta_log,
                registry=registry,
            )
        elif args.restore is not None and not registry.open:
            restored_sessions = restore_namespace_checkpoints(
                args.restore, mode=args.restore_mode, audit=args.audit,
            )
            for name, restored in restored_sessions.items():
                registry.install(name, restored)
        elif args.restore is not None:
            registry.install(DEFAULT_NAMESPACE, restore_server_monitor(
                args.restore, mode=args.restore_mode, audit=args.audit,
            ))
        elif registry.open:
            registry.install(DEFAULT_NAMESPACE, ServerMonitor(
                args.window, args.columns, time_horizon=args.horizon,
                strategy=args.strategy, audit=args.audit,
            ))
    except (ServeError, OSError) as exc:
        source = f"primary {args.standby}: " if args.standby else ""
        raise SystemExit(f"repro serve: {source}{exc}") from exc
    for namespace in registry.namespaces():
        namespace.session.spans = spans
    default = registry.get(DEFAULT_NAMESPACE) if registry.open else None
    if default is not None \
            and (args.restore is not None or args.standby is not None):
        attributes = default.session.config["num_attributes"]
        if attributes != args.columns:
            raise SystemExit(
                f"--columns {args.columns} does not match the checkpoint's "
                f"{attributes} attributes"
            )
    server = ServeServer(
        registry, host=args.host, port=args.port,
        backpressure=args.backpressure, queue_depth=args.queue_depth,
        checkpoint_dir=args.checkpoint_dir,
        spans=spans,
        flight=flight, obs_port=args.obs_port, obs_host=args.obs_host,
        role="standby" if tailer is not None else "primary",
        standby=tailer,
        mux_pending=args.mux_pending,
    )

    async def serve() -> None:
        try:
            await server.start()
        except (ServeError, OSError) as exc:
            raise SystemExit(f"repro serve: {exc}") from exc
        server.install_signal_handlers()
        # Announce the resolved port (flushed: subprocess harnesses wait
        # for this line before connecting).
        print(f"repro serve: listening on {server.host}:{server.port}",
              file=stdout, flush=True)
        if not registry.open:
            print(f"repro serve: {len(registry.specs)} tenant(s) from "
                  f"{args.tenants} (SIGHUP reloads)",
                  file=stdout, flush=True)
        if tailer is not None:
            if default is not None:
                print(f"repro serve: standby of {tailer.primary} at seq "
                      f"{default.session.monitor.manager.now_seq} "
                      f"(epoch {default.session.epoch})",
                      file=stdout, flush=True)
            else:
                print(f"repro serve: standby of {tailer.primary} tailing "
                      f"{len(registry)} namespace(s)",
                      file=stdout, flush=True)
        if server.obs is not None:
            print(f"repro serve: telemetry on "
                  f"http://{server.obs.host}:{server.obs.port}",
                  file=stdout, flush=True)
        await server.serve_until_stopped()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass  # loops without signal-handler support: exit the drain path
    if args.checkpoint_on_exit is not None:
        if default is not None:
            targets = [(default.session, args.checkpoint_on_exit)]
        else:
            # Multi-tenant: the value is a directory of <ns>.ckpt files
            # (the layout restore_namespace_checkpoints reads back).
            os.makedirs(args.checkpoint_on_exit, exist_ok=True)
            targets = [
                (namespace.session, os.path.join(
                    args.checkpoint_on_exit, f"{namespace.name}.ckpt"))
                for namespace in registry.namespaces()
            ]
        for session, target in targets:
            meta = save_checkpoint(session, target)
            print(
                f"repro serve: checkpoint {meta['path']} "
                f"({meta['objects']} objects, {meta['queries']} queries)",
                file=stdout, flush=True,
            )
    if args.metrics is not None:
        from repro.obs import write_metrics_json

        write_metrics_json(server.registry, args.metrics,
                           extra={"command": "serve"})
        print(f"metrics written to {args.metrics}", file=stdout, flush=True)
    return 0


def build_client_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro client",
        description="Talk to a running 'repro serve' instance: ingest "
        "CSV rows, take snapshots, watch a query's live deltas, or "
        "manage the server.",
    )
    parser.add_argument(
        "action",
        choices=["ingest", "snapshot", "watch", "stats", "checkpoint",
                 "promote", "epoch", "shutdown"],
        help="what to do",
    )
    parser.add_argument("csv_file", nargs="?", default="-",
                        help="CSV input for 'ingest' ('-': stdin)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="server address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, required=True,
                        help="server port")
    parser.add_argument("--namespace", default=None, metavar="NS",
                        help="authenticate into this namespace first "
                        "(multi-tenant servers; needs --token)")
    parser.add_argument("--token", default=None,
                        help="bearer token for --namespace (or the admin "
                        "token with --admin)")
    parser.add_argument("--admin", action="store_true",
                        help="authenticate --token as the admin token "
                        "(checkpoint --all, promote, shutdown on "
                        "multi-tenant servers)")
    parser.add_argument("--all", action="store_true",
                        help="'checkpoint' every namespace (scope \"all\"; "
                        "admin only on multi-tenant servers)")
    parser.add_argument("--columns", type=int, default=None,
                        help="attribute columns (required for 'ingest')")
    parser.add_argument("--scoring", choices=sorted(_SCORING_FACTORIES),
                        default="closest",
                        help="scoring function for snapshot/watch "
                        "(default closest)")
    parser.add_argument("--k", type=int, default=5,
                        help="pairs to report (default 5)")
    parser.add_argument("--n", type=int, default=None,
                        help="query window n <= N (default: N)")
    parser.add_argument("--batch", type=int, default=256,
                        help="ingest batch size (default 256)")
    parser.add_argument("--skip-header", action="store_true",
                        help="ignore the first CSV row on ingest")
    parser.add_argument("--events", type=int, default=None,
                        help="stop 'watch' after this many delta events "
                        "(default: run until the server says bye)")
    parser.add_argument("--path", default="checkpoint.json",
                        help="checkpoint path for 'checkpoint' "
                        "(default checkpoint.json)")
    parser.add_argument("--timeout", type=float, default=10.0,
                        help="request timeout in seconds (default 10)")
    return parser


def _client_print_answer(answer, tick: int, out: TextIO) -> None:
    print(f"-- tick {tick}: {len(answer)} pairs --", file=out)
    for rank, pair in enumerate(answer, start=1):
        print(
            f"   #{rank}: rows {pair['older']} & {pair['newer']}  "
            f"score={pair['score']:.6g}",
            file=out,
        )


def run_client(argv: Sequence[str],
               stdin: Optional[TextIO] = None,
               stdout: Optional[TextIO] = None) -> int:
    """``python -m repro client <action>`` — one request (or a watch)."""
    import json

    from repro.serve.client import ServeClient, apply_delta

    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    # intermixed: the csv_file positional may follow the option flags
    args = build_client_parser().parse_intermixed_args(argv)
    if args.namespace is not None and args.admin:
        raise SystemExit("--namespace and --admin are mutually exclusive "
                         "(one connection, one principal)")
    with ServeClient(args.host, args.port, timeout=args.timeout) as client:
        if args.admin:
            client.auth(token=args.token, admin=True)
        elif args.namespace is not None:
            client.auth(args.namespace, args.token)
        if args.action == "ingest":
            if args.columns is None or args.columns < 1:
                raise SystemExit("'ingest' requires --columns >= 1")
            if args.csv_file == "-":
                source, close = stdin, False
            else:
                source = open(args.csv_file, newline="")
                close = True
            total = now_seq = 0
            try:
                rows = _rows(source, args.columns, args.skip_header)
                while True:
                    batch = list(itertools.islice(rows, args.batch))
                    if not batch:
                        break
                    ack = client.ingest(batch)
                    total += ack["ingested"]
                    now_seq = ack["now_seq"]
            finally:
                if close:
                    source.close()
            print(f"ingested {total} rows (stream is at seq {now_seq})",
                  file=stdout)
        elif args.action == "snapshot":
            response = client.request(
                "snapshot", scoring=args.scoring, k=args.k, n=args.n,
            )
            _client_print_answer(response["answer"], response["tick"],
                                 stdout)
        elif args.action == "watch":
            query = client.register(args.scoring, args.k, args.n)
            answer = client.subscribe(query)
            print(f"watching {query} ({args.scoring}, k={args.k}); "
                  f"Ctrl-C to stop", file=stdout, flush=True)
            seen = 0
            try:
                while args.events is None or seen < args.events:
                    event = client.next_event(timeout=None)
                    if event is None or event.get("event") == "bye":
                        break
                    if event.get("event") != "delta" \
                            or event.get("query") != query:
                        continue
                    apply_delta(answer, event)
                    seen += 1
                    ranked = sorted(answer.values(),
                                    key=lambda p: p["score"])
                    _client_print_answer(ranked, event["tick"], stdout)
            except KeyboardInterrupt:
                pass
            print(f"watched {seen} delta events", file=stdout)
        elif args.action == "stats":
            json.dump(client.stats(metrics=True), stdout, indent=2,
                      sort_keys=True)
            stdout.write("\n")
        elif args.action == "checkpoint":
            if args.all:
                meta = client.checkpoint(scope="all")
                names = ", ".join(meta["namespaces"]) or "(none)"
                print(
                    f"checkpointed namespaces {names} in "
                    f"{meta['seconds'] * 1e3:.1f} ms",
                    file=stdout,
                )
            else:
                meta = client.checkpoint(args.path)
                print(
                    f"checkpoint {meta['path']}: {meta['objects']} objects, "
                    f"{meta['queries']} queries, {meta['bytes']} bytes in "
                    f"{meta['seconds'] * 1e3:.1f} ms",
                    file=stdout,
                )
        elif args.action == "promote":
            ack = client.promote()
            if "namespaces" in ack:
                detail = ", ".join(
                    f"{name} at epoch {entry['epoch']}"
                    for name, entry in sorted(ack["namespaces"].items())
                ) or "(no namespaces)"
                print(f"promoted to primary: {detail}", file=stdout)
            else:
                print(
                    f"promoted to primary at epoch {ack['epoch']} "
                    f"(stream is at seq {ack['now_seq']})",
                    file=stdout,
                )
        elif args.action == "epoch":
            ack = client.epoch()
            json.dump({key: ack[key] for key in ack
                       if key not in ("ok", "op", "id")},
                      stdout, indent=2, sort_keys=True)
            stdout.write("\n")
        else:  # shutdown
            client.shutdown()
            print("server is shutting down", file=stdout)
    return 0


def build_tenants_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro tenants",
        description="Manage a multi-tenant server's tenants file "
        "(repro serve --tenants): list tenants, create one (minting its "
        "bearer token), or revoke one.  Writes are JSON-only (TOML "
        "files are hand-edited so comments survive); a running server "
        "picks changes up on SIGHUP.",
    )
    parser.add_argument("action", choices=["list", "create", "revoke"],
                        help="what to do")
    parser.add_argument("name", nargs="?", default=None,
                        help="namespace name (create/revoke)")
    parser.add_argument("--file", required=True, metavar="TENANTS.json",
                        help="the tenants file ('create' starts a new one "
                        "when it does not exist yet, minting an admin "
                        "token)")
    parser.add_argument("--token", default=None,
                        help="bearer token for 'create' (default: a "
                        "freshly minted random token, printed once)")
    parser.add_argument(
        "--quota", action="append", default=[], metavar="FIELD=VALUE",
        help="quota for 'create' (repeatable): max_window_objects, "
        "max_queries, max_subscribers, ingest_rows_per_sec, burst_rows",
    )
    return parser


def run_tenants(argv: Sequence[str],
                stdout: Optional[TextIO] = None) -> int:
    """``python -m repro tenants`` — edit/inspect a tenants file."""
    import json
    import secrets

    from repro.exceptions import TenantConfigError
    from repro.serve.tenancy import (
        TenantQuotas,
        TenantSpec,
        load_tenants_file,
        save_tenants_file,
        valid_namespace,
    )

    stdout = stdout if stdout is not None else sys.stdout
    args = build_tenants_parser().parse_args(argv)
    new_file = not os.path.exists(args.file)
    if new_file:
        if args.action != "create":
            raise SystemExit(
                f"repro tenants: no such tenants file {args.file!r}"
            )
        specs, admin_token = {}, None
    else:
        try:
            specs, admin_token = load_tenants_file(args.file)
        except TenantConfigError as exc:
            raise SystemExit(f"repro tenants: {exc}") from exc

    if args.action == "list":
        for name in sorted(specs):
            spec = specs[name]
            quotas = spec.quotas.spec()
            quota_text = ", ".join(
                f"{field}={value}"
                for field, value in sorted(quotas.items())
            ) or "unlimited"
            flag = "  [revoked]" if spec.revoked else ""
            print(f"{name}: token sha256:{spec.fingerprint()}  "
                  f"quotas: {quota_text}{flag}", file=stdout)
        print(
            f"{len(specs)} tenant(s) in {args.file}"
            + (", admin token set" if admin_token else ", no admin token"),
            file=stdout,
        )
        return 0

    if args.name is None or not valid_namespace(args.name):
        raise SystemExit(
            f"repro tenants: '{args.action}' needs a valid namespace "
            f"name, got {args.name!r}"
        )
    if args.action == "create":
        if args.name in specs:
            raise SystemExit(
                f"repro tenants: tenant {args.name!r} already exists in "
                f"{args.file}"
            )
        quota_spec: dict = {}
        for item in args.quota:
            field, eq, value = item.partition("=")
            if not eq:
                raise SystemExit(
                    f"repro tenants: --quota needs FIELD=VALUE, "
                    f"got {item!r}"
                )
            try:
                quota_spec[field] = json.loads(value)
            except ValueError as exc:
                raise SystemExit(
                    f"repro tenants: --quota {field} value {value!r} is "
                    f"not a number"
                ) from exc
        token = args.token if args.token is not None \
            else secrets.token_hex(16)
        try:
            spec = TenantSpec(args.name, token,
                              TenantQuotas.from_spec(quota_spec))
            if new_file:
                admin_token = secrets.token_hex(16)
            specs[args.name] = spec
            save_tenants_file(args.file, specs, admin_token)
        except TenantConfigError as exc:
            raise SystemExit(f"repro tenants: {exc}") from exc
        print(f"created tenant {args.name!r} in {args.file}", file=stdout)
        if args.token is None:
            # The token is only recoverable from the file itself from
            # now on; 'list' shows fingerprints, never secrets.
            print(f"token: {token}", file=stdout)
        if new_file:
            print(f"admin token: {admin_token}", file=stdout)
        return 0

    # revoke
    spec = specs.get(args.name)
    if spec is None:
        raise SystemExit(
            f"repro tenants: no tenant {args.name!r} in {args.file}"
        )
    spec.revoked = True
    try:
        save_tenants_file(args.file, specs, admin_token)
    except TenantConfigError as exc:
        raise SystemExit(f"repro tenants: {exc}") from exc
    print(
        f"revoked tenant {args.name!r}; a running server drops its "
        f"connections on the next SIGHUP reload",
        file=stdout,
    )
    return 0


def main(argv: Optional[Sequence[str]] = None, *,
         stdin: Optional[TextIO] = None,
         stdout: Optional[TextIO] = None) -> int:
    """Entry point; returns the process exit code.

    Dispatches the ``lint``, ``audit``, ``obs``, ``bench``, ``serve``,
    ``client`` and ``tenants`` subcommands; any other invocation is the CSV
    monitoring tool (whose ``csv_file`` positional can never collide
    with the subcommand names — CSV input named ``lint`` must be passed
    as ``./lint``).
    """
    argv = list(argv) if argv is not None else sys.argv[1:]
    if argv and argv[0] in ("--version", "-V"):
        from repro import __version__

        print(f"repro {__version__}",
              file=stdout if stdout is not None else sys.stdout)
        return 0
    if argv and argv[0] == "lint":
        return run_lint(argv[1:], stdout)
    if argv and argv[0] == "audit":
        return run_audit(argv[1:], stdout)
    if argv and argv[0] == "bench":
        return run_bench(argv[1:], stdout)
    if argv and argv[0] == "obs":
        return run_obs(argv[1:], stdout)
    if argv and argv[0] == "serve":
        return run_serve(argv[1:], stdout)
    if argv and argv[0] == "client":
        from repro.exceptions import ServeError

        try:
            return run_client(argv[1:], stdin, stdout)
        except ServeError as exc:
            raise SystemExit(f"repro client: {exc}") from exc
    if argv and argv[0] == "tenants":
        return run_tenants(argv[1:], stdout)
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.k < 1 or args.window < 2 or args.columns < 1:
        raise SystemExit("--k >= 1, --window >= 2 and --columns >= 1 required")

    scoring = _SCORING_FACTORIES[args.scoring](args.columns)
    monitor = TopKPairsMonitor(
        args.window, args.columns, strategy=args.strategy
    )
    handle = monitor.register_query(
        scoring, k=args.k, n=args.n, continuous=True
    )

    if args.csv_file == "-":
        source = stdin
        close = False
    else:
        source = open(args.csv_file, newline="")
        close = True
    try:
        tick = 0
        for values in _rows(source, args.columns, args.skip_header):
            monitor.append(values)
            tick += 1
            if tick % args.report_every == 0:
                _print_report(monitor, handle, tick, stdout)
        if tick % args.report_every != 0 or tick == 0:
            _print_report(monitor, handle, tick, stdout)
        print(
            f"-- done: {tick} rows, skyband size "
            f"{monitor.skyband_size(scoring)} --", file=stdout,
        )
    finally:
        if close:
            source.close()
    return 0
