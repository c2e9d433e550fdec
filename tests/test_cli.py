"""Tests for the ``python -m repro`` CSV monitoring CLI."""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys

import pytest

from repro.cli import build_obs_parser, build_parser, main


def csv_text(rows):
    return "\n".join(",".join(str(v) for v in row) for row in rows) + "\n"


def run_cli(args, stdin_text=""):
    out = io.StringIO()
    code = main(args, stdin=io.StringIO(stdin_text), stdout=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_columns(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["data.csv"])

    def test_defaults(self):
        args = build_parser().parse_args(["--columns", "2"])
        assert args.csv_file == "-"
        assert args.scoring == "closest"
        assert args.k == 5
        assert args.window == 1000

    def test_rejects_unknown_scoring(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--columns", "2", "--scoring", "odd"])


class TestMain:
    def test_stdin_stream_reports(self):
        rng = random.Random(1)
        rows = [(rng.random(), rng.random()) for _ in range(25)]
        code, out = run_cli(
            ["--columns", "2", "--k", "2", "--window", "20",
             "--report-every", "10"],
            stdin_text=csv_text(rows),
        )
        assert code == 0
        assert "after 10 rows" in out
        assert "after 20 rows" in out
        assert "done: 25 rows" in out
        assert "#1:" in out

    def test_file_input(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(csv_text([(1.0, 2.0), (1.1, 2.1), (5.0, 9.0)]))
        code, out = run_cli(
            ["--columns", "2", "--k", "1", "--window", "10",
             "--report-every", "100", str(path)],
        )
        assert code == 0
        assert "rows 1 & 2" in out  # the two close rows win

    def test_skip_header(self):
        text = "x,y\n1.0,2.0\n1.5,2.5\n"
        code, out = run_cli(
            ["--columns", "2", "--skip-header", "--k", "1",
             "--window", "10"],
            stdin_text=text,
        )
        assert code == 0
        assert "done: 2 rows" in out

    def test_header_without_flag_fails(self):
        with pytest.raises(SystemExit, match="row 1"):
            run_cli(["--columns", "2"], stdin_text="x,y\n1.0,2.0\n")

    def test_short_row_fails(self):
        with pytest.raises(SystemExit, match="columns"):
            run_cli(["--columns", "3"], stdin_text="1.0,2.0\n")

    def test_empty_input_reports_nothing_gracefully(self):
        code, out = run_cli(["--columns", "2"], stdin_text="")
        assert code == 0
        assert "no pairs in the window yet" in out

    def test_invalid_parameters_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(["--columns", "2", "--k", "0"])
        with pytest.raises(SystemExit):
            run_cli(["--columns", "2", "--window", "1"])

    @pytest.mark.parametrize(
        "scoring", ["closest", "furthest", "similar", "dissimilar"]
    )
    def test_all_scoring_choices_run(self, scoring):
        rng = random.Random(2)
        rows = [(rng.random(), rng.random()) for _ in range(15)]
        code, out = run_cli(
            ["--columns", "2", "--scoring", scoring, "--k", "2",
             "--window", "10"],
            stdin_text=csv_text(rows),
        )
        assert code == 0
        assert "skyband size" in out


class TestLintSubcommand:
    def test_clean_tree_exits_zero(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text('__all__ = ["f"]\n\n\ndef f():\n    return 1\n')
        code, out = run_cli(["lint", str(tmp_path)])
        assert code == 0
        assert "no violations" in out

    def test_findings_exit_nonzero_with_rule_and_location(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(xs=[]):\n    return xs\n")
        code, out = run_cli(["lint", str(bad)])
        assert code == 1
        assert "RA102" in out
        assert f"{bad}:1" in out

    def test_default_paths_lint_shipped_package(self):
        code, out = run_cli(["lint"])
        assert code == 0
        assert "no violations" in out


class TestAuditSubcommand:
    def test_synthetic_stream_clean(self):
        code, out = run_cli(
            ["audit", "--dataset", "synthetic", "--steps", "120",
             "--window", "32", "--cross-check-every", "40"],
        )
        assert code == 0
        assert "audit: 120 objects" in out
        assert "120 structural checks" in out
        assert "3 brute-force cross-checks" in out
        assert "no violations" in out

    @pytest.mark.parametrize("strategy", ["scase", "ta", "basic"])
    def test_strategies_clean(self, strategy):
        code, out = run_cli(
            ["audit", "--steps", "60", "--window", "24",
             "--strategy", strategy, "--scoring", "similar",
             "--cross-check-every", "30"],
        )
        assert code == 0
        assert "no violations" in out

    def test_sampling_interval_forwarded(self):
        code, out = run_cli(
            ["audit", "--steps", "64", "--window", "16",
             "--interval", "16", "--cross-check-every", "0"],
        )
        assert code == 0
        assert "4 structural checks" in out
        assert "0 brute-force cross-checks" in out

    def test_invalid_parameters_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(["audit", "--steps", "0"])
        with pytest.raises(SystemExit):
            run_cli(["audit", "--window", "1"])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(["audit", "--dataset", "realworld"])


class TestObsSubcommand:
    def test_parser_defaults(self):
        args = build_obs_parser().parse_args([])
        assert args.dataset == "synthetic"
        assert args.steps == 1000
        assert args.window == 256
        assert args.format == "summary"
        assert args.out == "-"
        assert args.metrics is None

    def test_summary_format(self):
        code, out = run_cli(
            ["obs", "--steps", "80", "--window", "24", "--k", "3"]
        )
        assert code == 0
        assert "obs: 80 objects in 80 ticks" in out
        assert "metric families" in out

    def test_prometheus_format(self):
        code, out = run_cli(
            ["obs", "--steps", "60", "--window", "20", "--format",
             "prometheus"]
        )
        assert code == 0
        lines = out.splitlines()
        assert "# TYPE repro_ticks_total counter" in lines
        assert "repro_ticks_total 60" in lines
        assert "# TYPE repro_append_seconds histogram" in lines
        assert any(line.startswith("repro_skyband_size ")
                   for line in lines)
        assert any(line.startswith("repro_pst_rebuilds_total ")
                   for line in lines)

    def test_jsonl_format_one_record_per_tick(self):
        code, out = run_cli(
            ["obs", "--steps", "40", "--window", "16", "--format", "jsonl"]
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 40
        assert records[-1]["tick"] == 40
        assert "phases" in records[0]

    def test_out_file_and_metrics_sidecar(self, tmp_path):
        out_file = tmp_path / "trace.csv"
        metrics_file = tmp_path / "metrics.json"
        code, out = run_cli(
            ["obs", "--steps", "30", "--window", "12", "--format", "csv",
             "--out", str(out_file), "--metrics", str(metrics_file)]
        )
        assert code == 0
        assert f"metrics written to {metrics_file}" in out
        assert out_file.read_text().count("\n") == 31  # header + 30 ticks
        payload = json.loads(metrics_file.read_text())
        assert payload["command"] == "obs"
        assert payload["metrics"]["repro_ticks_total"] == 30

    def test_batched_ingestion(self):
        code, out = run_cli(
            ["obs", "--steps", "60", "--window", "20",
             "--batch-size", "15"]
        )
        assert code == 0
        assert "obs: 60 objects in 4 ticks" in out

    def test_invalid_parameters_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(["obs", "--steps", "0"])
        with pytest.raises(SystemExit):
            run_cli(["obs", "--window", "1"])
        with pytest.raises(SystemExit):
            run_cli(["obs", "--dataset", "realworld"])


class TestAuditMetricsFlag:
    def test_audit_writes_metrics_json(self, tmp_path):
        metrics_file = tmp_path / "audit-metrics.json"
        code, out = run_cli(
            ["audit", "--steps", "60", "--window", "16",
             "--cross-check-every", "0", "--metrics", str(metrics_file)],
        )
        assert code == 0
        assert "no violations" in out
        assert f"metrics written to {metrics_file}" in out
        payload = json.loads(metrics_file.read_text())
        assert payload["command"] == "audit"
        assert payload["metrics"]["repro_ticks_total"] == 60


class TestVersionFlag:
    def test_version_long(self):
        from repro import __version__

        code, out = run_cli(["--version"])
        assert code == 0
        assert out.strip() == f"repro {__version__}"

    def test_version_short(self):
        from repro import __version__

        code, out = run_cli(["-V"])
        assert code == 0
        assert __version__ in out


class TestServeParsers:
    def test_serve_parser_defaults(self):
        from repro.cli import build_serve_parser

        args = build_serve_parser().parse_args(["--columns", "2"])
        assert args.port == 7807
        assert args.window == 1000
        assert args.backpressure == "block"
        assert args.queue_depth == 64
        assert args.restore is None

    def test_serve_parser_requires_columns(self):
        from repro.cli import build_serve_parser

        with pytest.raises(SystemExit):
            build_serve_parser().parse_args([])

    def test_client_parser_intermixed_positional(self):
        from repro.cli import build_client_parser

        args = build_client_parser().parse_intermixed_args(
            ["ingest", "--port", "7807", "--columns", "2", "data.csv"]
        )
        assert args.action == "ingest"
        assert args.csv_file == "data.csv"

    def test_bench_parser_accepts_serve_suite(self):
        from repro.cli import build_bench_parser

        args = build_bench_parser().parse_args(["serve"])
        assert args.suite == "serve"

    @pytest.mark.parametrize("flag", [["--ticks", "10"], ["--repeats", "2"]])
    def test_bench_serve_rejects_throughput_flags(self, flag, tmp_path):
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "bench", "serve", *flag],
            capture_output=True, text=True, timeout=60, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
        )
        assert result.returncode != 0
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1, result.stderr
        assert lines[0].startswith("repro bench: "), lines
        assert list(tmp_path.iterdir()) == []
