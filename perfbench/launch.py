"""Run ``repro serve`` with every layer of the served path traced.

Usage::

    python perfbench/launch.py OUT.pkl serve --port 0 --window 512 ...

Before handing the arguments from ``serve`` on to the ``repro serve``
entry point, this wraps the public functions of each layer in spans,
patching each name where its caller looks it up, and gives every
:class:`~repro.serve.session.ServerMonitor` a ``MetricsRecorder(trace=
False)`` through its public ``recorder=`` argument (the engine's
maintenance sub-phases and counts).  No program source changes.  The
spans stay in memory and are written to ``OUT.pkl`` when the server
exits (shutdown op or SIGTERM).
"""

from __future__ import annotations

import sys
from time import perf_counter

from tracing import SpanLog, frame_id

__all__ = ["main"]


def _install(log: SpanLog) -> None:
    from repro.core import continuous, maintenance, monitor
    from repro.obs.recorder import MetricsRecorder
    from repro.serve import checkpoint, server, session, standby, tenancy
    from repro.stream.manager import StreamManager

    log.patch(server, "decode_frame", "protocol.decode", frame_id)
    log.patch(server, "encode_frame", "protocol.encode", len)
    log.patch(server, "pair_to_wire", "protocol.pair_to_wire")
    log.patch(tenancy.Namespace, "grant", "tenancy.grant")
    log.patch(session.ServerMonitor, "ingest", "session.ingest")
    log.patch(session.ServerMonitor, "snapshot", "session.read")
    log.patch(session.ServerMonitor, "results", "session.read")
    log.patch(session.ServerMonitor, "register", "session.register")
    log.patch(StreamManager, "append", "stream.append")
    log.patch(maintenance.SkybandMaintainer, "on_tick",
              "maintenance.on_tick")
    log.patch(continuous.ContinuousQueryState, "apply", "continuous.apply")
    log.patch(monitor, "answer_snapshot", "query.snapshot")
    log.patch(checkpoint, "checkpoint_document", "checkpoint.document",
              lambda result: len(result[0]))
    log.patch(standby, "restore_server_monitor", "checkpoint.restore")

    submit = tenancy.FairMultiplexer.submit

    async def timed_submit(self, name, thunk):
        # The wait runs from submit() until the multiplexer starts the
        # thunk in its own task.
        parent, begun = log.current(), perf_counter()

        def started():
            log.record("tenancy.mux_wait", begun, perf_counter(), parent)
            return thunk()

        return await submit(self, name, started)

    tenancy.FairMultiplexer.submit = timed_submit

    class EventRecorder(MetricsRecorder):
        """A MetricsRecorder that also stamps each report with its time,
        so the benchmark can keep only the measured phase."""

        def phase(self, name, seconds):
            super().phase(name, seconds)
            log.event("phase." + name, seconds)

        def on_candidates(self, count):
            super().on_candidates(count)
            log.event("count.candidates", count)

        def on_skyband_delta(self, added, removed, expired):
            super().on_skyband_delta(added, removed, expired)
            log.event("count.skyband_added", added)

        def on_apply_path(self, path):
            super().on_apply_path(path)
            log.event("count.apply_" + path, 1)

    init = session.ServerMonitor.__init__

    def init_with_recorder(self, *args, recorder=None, **kwargs):
        if recorder is None:
            recorder = EventRecorder(trace=False)
        init(self, *args, recorder=recorder, **kwargs)

    session.ServerMonitor.__init__ = init_with_recorder


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "serve":
        print("usage: launch.py OUT.pkl serve [repro serve options]",
              file=sys.stderr)
        return 2
    out, serve_argv = argv[0], argv[1:]
    log = SpanLog()
    _install(log)
    from repro.cli import main as repro_main

    try:
        return repro_main(serve_argv)
    finally:
        log.dump(out, role="standby" if "--standby" in serve_argv
                 else "primary")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
