"""One engine tick per ingest op reaches the per-row state.

A served ingest op runs as one engine tick over all of its rows, or one
per ``ServerMonitor.tick_rows`` of them for a larger op
(:meth:`ServerMonitor.ingest`).  The K-skyband is a function of the
window alone (Theorems 1-2), so at every op boundary the state must
equal what one tick per row reaches.  The property below feeds the same
rows to two sessions, one an op at a time and one a row at a time, and
after every op compares their checkpoint documents (window, skybands,
staircases, query registry) and answers; the op-tick session also gives
each query at most one delta per op, stamped with the op's last sequence
number, and replaying the deltas reproduces its answers.  Further tests
pin the traced engine entry (each op reaches each skyband group through
one ``SkybandMaintainer.on_tick`` call per tick) and the peak memory of
an op as large as the window.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.maintenance import SkybandMaintainer
from repro.serve.checkpoint import checkpoint_document
from repro.serve.client import ServeClient
from repro.serve.server import BackgroundServer
from repro.serve.session import SCORING_NAMES, ServerMonitor


def document(session: ServerMonitor) -> dict:
    """The session's checkpoint document minus its wall-clock stamp."""
    state = json.loads(checkpoint_document(session)[0])
    del state["created_at"]
    return state


def identities(pairs) -> set:
    return {(p.older.seq, p.newer.seq) for p in pairs}


@st.composite
def streams(draw) -> dict:
    window = draw(st.integers(3, 8))
    return {
        "window": window,
        "horizon": draw(st.sampled_from([None, 2.0, 6.0])),
        "ops": draw(st.lists(st.integers(1, 2 * window + 3),
                             min_size=1, max_size=8)),
        # Grid values make scores tie, exercising the tie-break keys.
        "grid": draw(st.booleans()),
        "ks": draw(st.lists(st.integers(1, 4), min_size=8, max_size=8)),
        # Small tick sizes split ops into several ticks.
        "tick_rows": draw(st.sampled_from([1, 2, 5,
                                           ServerMonitor.tick_rows])),
        "seed": draw(st.integers(0, 2**16)),
    }


@settings(max_examples=40, deadline=None)
@given(streams())
def test_op_ticks_reach_the_per_row_state(stream):
    window, horizon = stream["window"], stream["horizon"]
    rng = random.Random(stream["seed"])
    by_op = ServerMonitor(window, 2, time_horizon=horizon, audit=True)
    by_op.tick_rows = stream["tick_rows"]
    by_row = ServerMonitor(window, 2, time_horizon=horizon)
    ks = iter(stream["ks"])
    for scoring in sorted(SCORING_NAMES):
        for n in (None, rng.randint(2, window - 1)):  # n = N and n < N
            k = next(ks)
            assert by_op.register(scoring, k, n) == \
                by_row.register(scoring, k, n)
    handles = [record.handle_id for record in by_op.queries()]
    replayed = {handle: set() for handle in handles}
    clock = 0.0

    def value() -> float:
        return rng.randrange(4) / 4 if stream["grid"] else rng.random()

    for size in stream["ops"]:
        rows = [[value(), value()] for _ in range(size)]
        timestamps = None
        if horizon is not None:
            timestamps = []
            for _ in rows:
                # Jumps past the horizon expire rows of the same op.
                clock += rng.choice((0.0, 0.5, 1.0, 3.0, 7.0))
                timestamps.append(clock)
        count, now = by_op.ingest(rows, timestamps=timestamps)
        by_row.monitor.extend(rows, timestamps=timestamps)  # a tick a row
        by_row.drain_deltas()
        assert (count, now) == (size, by_row.monitor.manager.now_seq)
        assert document(by_op) == document(by_row)
        for handle in handles:
            assert [p.uid for p in by_op.results(handle)] == \
                [p.uid for p in by_row.results(handle)]
        deltas = by_op.drain_deltas()
        assert set(Counter(d.query for d in deltas).values()) <= {1}
        for delta in deltas:
            assert delta.tick == now
            replayed[delta.query] -= identities(delta.left)
            replayed[delta.query] |= identities(delta.entered)
        for handle in handles:
            assert replayed[handle] == identities(by_op.results(handle))


def test_each_op_reaches_each_group_through_one_on_tick(monkeypatch):
    """perfbench's traced launcher times the engine by wrapping
    ``SkybandMaintainer.on_tick`` on the class; the served path must
    reach every skyband group through that name, once per op of up to
    ``tick_rows`` rows with all of the op's arrivals, and once per
    ``tick_rows`` arrivals of a larger op."""
    calls: list[tuple[int, int]] = []
    on_tick = SkybandMaintainer.__dict__["on_tick"]

    def traced(self, manager, new_objs, expired):
        calls.append((id(self), len(new_objs)))
        return on_tick(self, manager, new_objs, expired)

    monkeypatch.setattr(SkybandMaintainer, "on_tick", traced)
    rng = random.Random(4)

    def rows(count: int) -> list:
        return [[rng.random(), rng.random()] for _ in range(count)]

    with BackgroundServer(ServerMonitor(32, 2)) as server, \
            ServeClient(port=server.port) as client:
        client.ingest(rows(40))
        for scoring in ("closest", "furthest", "similar"):
            client.subscribe(client.register(scoring, k=3))
        for size in (4, 1, 7):
            calls.clear()
            client.ingest(rows(size))
            assert len(calls) == 3
            assert len({maintainer for maintainer, _ in calls}) == 3
            assert {arrivals for _, arrivals in calls} == {size}
        step = ServerMonitor.tick_rows
        calls.clear()
        client.ingest(rows(2 * step + 3))
        assert sorted(arrivals for _, arrivals in calls) == \
            sorted([step, step, 3] * 3)


_OP_PEAK = """
import random
from repro.serve.session import ServerMonitor


def peak_kb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])


rng = random.Random(5)
session = ServerMonitor(512, 2)
session.ingest([[rng.random(), rng.random()] for _ in range(512)])
session.register("closest", 20, None)
before = peak_kb()
session.ingest([[rng.random(), rng.random()] for _ in range(512)])
print(peak_kb() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status for VmHWM")
def test_window_sized_op_keeps_peak_memory_flat():
    """A tick's staircase cannot prune the pairs among the tick's own
    rows, so one tick over a 512-row op would keep all C(512, 2) =
    130,816 of them per skyband group, tens of MB of peak RSS;
    ``tick_rows`` bounds them.  Run in a fresh interpreter so no other
    test's allocations set the peak."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    result = subprocess.run(
        [sys.executable, "-c", _OP_PEAK],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
    )
    assert result.returncode == 0, result.stderr
    rise_kb = int(result.stdout)
    assert rise_kb < 8 * 1024, f"peak RSS rose {rise_kb} kB on one op"
