"""The ``repro serve`` / ``repro client`` CLI pair, driven end-to-end
as real subprocesses (announce line, signal drain, checkpoint flags)."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.serve.checkpoint import save_checkpoint
from repro.serve.session import ServerMonitor

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def spawn_server(*extra_args):
    env = dict(os.environ, PYTHONPATH=SRC)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--columns", "2",
         "--window", "64", "--port", "0", *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env,
    )
    line = process.stdout.readline()
    assert "listening on" in line, line
    port = int(line.rsplit(":", 1)[1])
    return process, port


def run_client(port, *args, stdin_text=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro", "client", *args,
         "--port", str(port)],
        input=stdin_text, capture_output=True, text=True, timeout=60,
        env=env,
    )


class TestServeSubprocess:
    def test_full_round_trip(self, tmp_path):
        ckpt = tmp_path / "cli.ckpt.json"
        process, port = spawn_server()
        try:
            result = run_client(
                port, "ingest", "--columns", "2",
                stdin_text="0.1,0.9\n0.2,0.8\n0.15,0.85\n",
            )
            assert result.returncode == 0, result.stdout + result.stderr
            assert "ingested 3 rows" in result.stdout

            result = run_client(port, "snapshot", "--scoring", "closest",
                                "--k", "2")
            assert result.returncode == 0
            assert "tick 3" in result.stdout and "#1:" in result.stdout

            result = run_client(port, "checkpoint", "--path", str(ckpt))
            assert result.returncode == 0
            assert "3 objects" in result.stdout

            result = run_client(port, "shutdown")
            assert result.returncode == 0
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
        assert ckpt.exists()

    def test_restore_serves_saved_answers(self, tmp_path):
        ckpt = tmp_path / "warm.ckpt.json"
        process, port = spawn_server()
        try:
            run_client(port, "ingest", "--columns", "2",
                       stdin_text="0.1,0.9\n0.2,0.8\n0.15,0.85\n")
            original = run_client(port, "snapshot", "--k", "2").stdout
            run_client(port, "checkpoint", "--path", str(ckpt))
            run_client(port, "shutdown")
            process.wait(timeout=30)

            process, port = spawn_server("--restore", str(ckpt))
            restored = run_client(port, "snapshot", "--k", "2").stdout
            assert restored == original
            run_client(port, "shutdown")
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()

    def test_sigint_drains_and_checkpoints_on_exit(self, tmp_path):
        ckpt = tmp_path / "exit.ckpt.json"
        process, port = spawn_server("--checkpoint-on-exit", str(ckpt))
        try:
            run_client(port, "ingest", "--columns", "2",
                       stdin_text="0.5,0.5\n0.6,0.6\n")
            process.send_signal(signal.SIGINT)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
        out = process.stdout.read()
        assert "checkpoint" in out
        assert ckpt.exists()

    def test_standby_failover_via_cli(self, tmp_path):
        """The CLI failover drill: spawn a primary, attach a standby
        with ``--standby``, kill the primary, ``repro client promote``
        the standby, and keep serving through it."""
        primary, primary_port = spawn_server()
        standby = None
        try:
            run_client(primary_port, "ingest", "--columns", "2",
                       stdin_text="0.1,0.9\n0.2,0.8\n0.15,0.85\n")
            env = dict(os.environ, PYTHONPATH=SRC)
            standby = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--columns", "2",
                 "--window", "64", "--port", "0",
                 "--standby", f"127.0.0.1:{primary_port}"],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                text=True, env=env,
            )
            line = standby.stdout.readline()
            assert "listening on" in line, line
            standby_port = int(line.rsplit(":", 1)[1])
            announce = standby.stdout.readline()
            assert "standby of" in announce, announce

            answer = run_client(primary_port, "snapshot", "--k", "2")
            mirrored = run_client(standby_port, "snapshot", "--k", "2")
            assert mirrored.stdout == answer.stdout

            primary.kill()
            primary.wait(timeout=30)

            promoted = run_client(standby_port, "promote")
            assert promoted.returncode == 0, promoted.stdout
            assert "promoted to primary at epoch 1" in promoted.stdout

            result = run_client(standby_port, "ingest", "--columns", "2",
                                stdin_text="0.3,0.7\n")
            assert "ingested 1 rows" in result.stdout
            epoch = run_client(standby_port, "epoch")
            assert '"epoch": 1' in epoch.stdout
            run_client(standby_port, "shutdown")
            assert standby.wait(timeout=30) == 0
        finally:
            for process in (primary, standby):
                if process is not None and process.poll() is None:
                    process.kill()

    def test_standby_and_restore_flags_conflict(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=SRC)
        result = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--columns", "2",
             "--standby", "127.0.0.1:1", "--restore", "nope.json"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert result.returncode != 0
        assert "--standby" in result.stderr

    def test_port_already_in_use_fails_fast(self):
        process, port = spawn_server()
        try:
            env = dict(os.environ, PYTHONPATH=SRC)
            clash = subprocess.run(
                [sys.executable, "-m", "repro", "serve", "--columns", "2",
                 "--port", str(port)],
                capture_output=True, text=True, timeout=60, env=env,
            )
            assert clash.returncode != 0
        finally:
            run_client(port, "shutdown")
            process.wait(timeout=30)


def _v1_checkpoint(path):
    """A checkpoint in the retired v1 format (no maintainer state)."""
    save_checkpoint(ServerMonitor(8, 2), str(path))
    state = json.loads(path.read_text())
    del state["maintainers"]
    del state["epoch"]
    state["version"] = 1
    path.write_text(json.dumps(state))
    return str(path)


class TestServeStartupFailures:
    """A server that cannot start says why on one stderr line."""

    @pytest.mark.parametrize("case", ["restore_v1", "restore_missing",
                                      "standby_refused", "port_busy"])
    def test_exits_with_one_line(self, case, tmp_path):
        blocker = None
        if case == "restore_v1":
            args = ["--restore", _v1_checkpoint(tmp_path / "v1.json")]
        elif case == "restore_missing":
            args = ["--restore", str(tmp_path / "missing.json")]
        elif case == "standby_refused":
            args = ["--standby", "127.0.0.1:1"]
        else:
            blocker, port = spawn_server()
            args = ["--port", str(port)]
        try:
            env = dict(os.environ, PYTHONPATH=SRC)
            result = subprocess.run(
                [sys.executable, "-m", "repro", "serve", "--columns", "2",
                 *args],
                capture_output=True, text=True, timeout=60, env=env,
            )
        finally:
            if blocker is not None:
                run_client(port, "shutdown")
                blocker.wait(timeout=30)
                blocker.stdout.close()
        assert result.returncode != 0
        assert "Traceback" not in result.stderr
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1, result.stderr
        assert lines[0].startswith("repro serve: "), lines
