"""``repro serve`` subprocesses and what ``/proc`` says about them."""

from __future__ import annotations

import os
import selectors
import signal
import subprocess
import sys
import time
from typing import Optional

__all__ = ["BenchError", "ServerProcess"]

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCHER = os.path.join(HERE, "launch.py")
#: a standby announces only after bootstrapping from its primary
START_TIMEOUT_S = 60.0
#: a traced server writes its spans while it drains
STOP_TIMEOUT_S = 30.0


class BenchError(Exception):
    """The benchmark could not run to the end."""


class ServerProcess:
    """One ``python -m repro serve`` process with default flags.

    ``trace_out`` starts it through ``launch.py`` instead, which writes
    the process's spans there on exit.
    """

    def __init__(self, args: list[str], *, workdir: str, label: str,
                 trace_out: Optional[str] = None) -> None:
        self.label = label
        self.trace_out = trace_out
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro", "serve"]
        else:
            cmd = [sys.executable, LAUNCHER, trace_out, "serve"]
        cmd += ["--port", "0", *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p
        )
        self.log_path = os.path.join(workdir, f"{label}.log")
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=workdir, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=log,
            )
        try:
            self.port = self._await_port(START_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise

    def _await_port(self, timeout: float) -> int:
        """Parse the ``listening on HOST:PORT`` announce line."""
        deadline = time.monotonic() + timeout
        buffer = b""
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while b"\n" not in buffer:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    raise BenchError(f"{self.label}: no announce line "
                                     f"within {timeout}s{self._log_tail()}")
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise BenchError(f"{self.label}: exited before "
                                     f"listening{self._log_tail()}")
                buffer += chunk
        line = buffer.split(b"\n", 1)[0].decode()
        if "listening on" not in line:
            raise BenchError(f"{self.label}: unexpected announce {line!r}")
        return int(line.rsplit(":", 1)[1])

    def _log_tail(self) -> str:
        try:
            with open(self.log_path, "rb") as handle:
                tail = handle.read()[-2000:].decode(errors="replace")
        except OSError:
            return ""
        return f"\n--- {self.label} stderr ---\n{tail}" if tail else ""

    def cpu_seconds(self) -> float:
        """User + system CPU all the process's threads have used so far,
        from the scheduler's nanosecond ``schedstat`` (``/proc/<pid>/
        stat`` counts 10 ms ticks, too coarse for quarter-second
        chunks)."""
        base = f"/proc/{self.proc.pid}/task"
        total = 0
        for tid in os.listdir(base):
            try:
                with open(f"{base}/{tid}/schedstat") as handle:
                    total += int(handle.read().split()[0])
            except FileNotFoundError:
                pass  # the thread ended after listdir
        return total / 1e9

    def peak_rss_mb(self) -> float:
        """``VmHWM``: the process's peak resident set size."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError(f"{self.label}: no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (the server drains and, when traced, writes its
        spans), then SIGKILL if it lingers; always reaps the process."""
        proc = self.proc
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()
