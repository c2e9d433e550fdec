"""A standby fed its primary's skyband decisions equals one that replays rows.

Each ``rows`` replication event carries, per engine tick and skyband
group, the candidates the primary's merge kept
(:mod:`repro.serve.decisions`).  A standby merges those in place of
candidate generation for every group it holds at the same ``(scoring,
K)`` and computes the others.  Row replay (the same events with their
decisions removed) is the oracle: the property below feeds one
primary's feed to a decision-fed standby and a row-replay standby and,
after every event, compares their checkpoint documents, delta streams
and journals with each other and their answers and deltas with the
primary's.  Further tests pin where a standby's engine work goes: each
replicated op reaches each of its groups through one
``SkybandMaintainer.on_tick`` per tick inside ``ServerMonitor.ingest``
(the span perfbench reports as ``standby.apply_us_per_row``), and only
groups without shipped decisions generate candidates.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import socket
import tempfile
import threading
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.maintenance import SkybandMaintainer, TAMaintainer
from repro.obs.recorder import MetricsRecorder
from repro.serve.checkpoint import (
    checkpoint_document,
    checkpoint_state,
    restore_server_monitor,
)
from repro.serve.client import ServeClient
from repro.serve.decisions import DecisionRecorder
from repro.serve.protocol import encode_frame
from repro.serve.server import BackgroundServer
from repro.serve.session import SCORING_NAMES, ServerMonitor
from repro.serve.standby import StandbyTailer, connect_standby
from repro.serve.tenancy import NamespaceRegistry


def document(session: ServerMonitor) -> str:
    """The session's checkpoint document minus its wall-clock stamp."""
    state = json.loads(checkpoint_document(session)[0])
    del state["created_at"]
    return json.dumps(state)


def uids(pairs) -> list:
    return [pair.uid for pair in pairs]


def stream_of(deltas) -> list:
    return [(d.query, d.tick, uids(d.entered), uids(d.left))
            for d in deltas]


class Subscribers:
    """Stands in for the standby's server: keeps the fanned-out deltas."""

    def __init__(self) -> None:
        self.deltas: list = []

    async def _fan_out_delta_list(self, ns, deltas) -> int:
        self.deltas.extend(stream_of(deltas))
        return len(deltas)


class Standby:
    """A session restored from the primary's checkpoint plus its tailer."""

    def __init__(self, state: dict, journal: str, *, tick_rows: int,
                 use_decisions: bool) -> None:
        self.session = restore_server_monitor(
            json.loads(json.dumps(state)), audit=True,
        )
        self.session.tick_rows = tick_rows
        left, right = socket.socketpair()
        right.close()
        self.tailer = StandbyTailer(NamespaceRegistry.single(self.session),
                                    left, delta_log=journal)
        self.subscribers = Subscribers()
        self.tailer.attach(self.subscribers)
        self.journal = journal
        self.use_decisions = use_decisions

    def apply(self, event: dict) -> list:
        if not self.use_decisions:
            event = {key: value for key, value in event.items()
                     if key != "decisions"}
        mark = len(self.subscribers.deltas)
        asyncio.run(self.tailer._apply(event))
        return self.subscribers.deltas[mark:]

    def journal_lines(self) -> bytes:
        if not os.path.exists(self.journal):
            return b""
        with open(self.journal, "rb") as handle:
            return handle.read()


def feed_event(primary: ServerMonitor, kind: str, **fields) -> dict:
    """A replication event as the primary's server frames it."""
    event = {"event": kind, **fields, "namespace": primary.namespace,
             "epoch": primary.epoch,
             "now_seq": primary.monitor.manager.now_seq}
    return json.loads(encode_frame(event))


@st.composite
def feeds(draw) -> dict:
    window = draw(st.integers(3, 8))
    tick_rows = draw(st.sampled_from([1, 2, 5, ServerMonitor.tick_rows]))
    ops = draw(st.lists(st.integers(1, 2 * tick_rows + 3),
                        min_size=3, max_size=8))
    return {
        "window": window,
        "horizon": draw(st.sampled_from([None, 2.0, 6.0])),
        "tick_rows": tick_rows,
        "ops": ops,
        # Grid values make scores tie, exercising the tie-break keys.
        "grid": draw(st.booleans()),
        "ks": draw(st.lists(st.integers(1, 4), min_size=8, max_size=8)),
        # The scoring registered only after the standbys bootstrapped.
        "late": draw(st.sampled_from(sorted(SCORING_NAMES))),
        # Before which op each extra event happens (0 = the first).
        "register_at": draw(st.integers(0, len(ops) - 1)),
        "primary_raise_at": draw(st.integers(0, len(ops) - 1)),
        "standby_raise_at": draw(st.integers(0, len(ops) - 1)),
        "raise_scoring": draw(st.sampled_from(sorted(SCORING_NAMES))),
        "seed": draw(st.integers(0, 2**16)),
    }


@settings(max_examples=40, deadline=None)
@given(feeds())
def test_decision_fed_standby_equals_row_replay(feed):
    window, horizon = feed["window"], feed["horizon"]
    rng = random.Random(feed["seed"])
    primary = ServerMonitor(window, 2, time_horizon=horizon)
    primary.tick_rows = feed["tick_rows"]
    ks = iter(feed["ks"])
    specs = {scoring: [(next(ks), None),
                       (next(ks), rng.randint(2, window - 1))]
             for scoring in sorted(SCORING_NAMES)}  # n = N and n < N
    for scoring, pairs in specs.items():
        if scoring != feed["late"]:
            for k, n in pairs:
                primary.register(scoring, k, n)
    clock = 0.0

    def value() -> float:
        return rng.randrange(4) / 4 if feed["grid"] else rng.random()

    def op(size: int) -> tuple:
        nonlocal clock
        rows = [[value(), value()] for _ in range(size)]
        if horizon is None:
            return rows, None
        timestamps = []
        for _ in rows:
            # Jumps past the horizon expire rows of the same op.
            clock += rng.choice((0.0, 0.5, 1.0, 3.0, 7.0))
            timestamps.append(clock)
        return rows, timestamps

    rows, timestamps = op(window)
    primary.ingest(rows, timestamps=timestamps)
    primary.drain_deltas()
    state = checkpoint_state(primary)
    with tempfile.TemporaryDirectory() as scratch:
        fed = Standby(state, os.path.join(scratch, "fed.jsonl"),
                      tick_rows=feed["tick_rows"], use_decisions=True)
        replay = Standby(state, os.path.join(scratch, "replay.jsonl"),
                         tick_rows=feed["tick_rows"], use_decisions=False)
        standbys = (fed, replay)

        def check(primary_deltas: list, standby_deltas: list) -> None:
            assert document(fed.session) == document(replay.session)
            assert standby_deltas[0] == standby_deltas[1] == primary_deltas
            assert fed.journal_lines() == replay.journal_lines()
            for record in primary.queries():
                expected = uids(primary.results(record.handle_id))
                for standby in standbys:
                    assert uids(standby.session.results(
                        record.handle_id)) == expected

        for index, size in enumerate(feed["ops"]):
            if index == feed["register_at"]:
                for k, n in specs[feed["late"]]:
                    handle = primary.register(feed["late"], k, n)
                    event = feed_event(
                        primary, "register",
                        query=primary.record(handle).spec(),
                        next_handle=primary._next_handle,
                    )
                    for standby in standbys:
                        standby.apply(event)
            if index == feed["primary_raise_at"]:
                # Raises a registered group's K on the primary only.
                primary.snapshot(feed["raise_scoring"], 5)
            if index == feed["standby_raise_at"]:
                # A (scoring, K) group the primary does not hold.
                for standby in standbys:
                    standby.session.snapshot(feed["raise_scoring"], 6)
            rows, timestamps = op(size)
            recorder = DecisionRecorder(primary)
            count, now = primary.ingest(rows, timestamps=timestamps,
                                        decisions=recorder)
            event = feed_event(primary, "rows", first_seq=now - count + 1,
                               rows=rows, timestamps=timestamps,
                               decisions=recorder.ticks)
            check(stream_of(primary.drain_deltas()),
                  [standby.apply(event) for standby in standbys])
        for standby in standbys:
            assert standby.tailer.error is None
            standby.tailer.stop()
        assert fed.tailer.shipped_group_ticks > 0
        assert replay.tailer.shipped_group_ticks == 0
        assert replay.tailer.computed_group_ticks > 0


class PhaseLog(MetricsRecorder):
    """A recorder that also keeps every phase name and candidate count
    it was told about."""

    def __init__(self) -> None:
        super().__init__(trace=False)
        self.phases: list[str] = []
        self.candidates: list[int] = []

    def phase(self, name, seconds):
        super().phase(name, seconds)
        self.phases.append(name)

    def on_candidates(self, count):
        super().on_candidates(count)
        self.candidates.append(count)


def test_standby_work_is_shipped_merges(monkeypatch):
    """perfbench's traced launcher times a standby's engine work as the
    span of ``ServerMonitor.ingest`` (``standby.apply_us_per_row``) and
    the engine by wrapping ``SkybandMaintainer.on_tick`` on the class.
    On a standby, every replicated op must reach each group through one
    ``on_tick`` per tick inside ``ingest``; groups with shipped
    decisions never call ``TAMaintainer._collect_candidates`` and report
    no ``generate`` phase or candidate count, and a group the primary
    holds at another K collects once per arrival."""
    inside = threading.local()
    ticks: list = []
    collects: list = []
    ingest = ServerMonitor.__dict__["ingest"]
    on_tick = SkybandMaintainer.__dict__["on_tick"]
    collect = TAMaintainer.__dict__["_collect_candidates"]

    def traced_ingest(self, *args, **kwargs):
        inside.active = True
        try:
            return ingest(self, *args, **kwargs)
        finally:
            inside.active = False

    def traced_on_tick(self, manager, new_objs, expired, *args):
        ticks.append((id(self), len(new_objs),
                      getattr(inside, "active", False)))
        return on_tick(self, manager, new_objs, expired, *args)

    def traced_collect(self, manager, new_obj):
        collects.append(id(self))
        return collect(self, manager, new_obj)

    monkeypatch.setattr(ServerMonitor, "ingest", traced_ingest)
    monkeypatch.setattr(SkybandMaintainer, "on_tick", traced_on_tick)
    monkeypatch.setattr(TAMaintainer, "_collect_candidates", traced_collect)
    rng = random.Random(8)

    def rows(count: int) -> list:
        return [[rng.random(), rng.random()] for _ in range(count)]

    with BackgroundServer(ServerMonitor(64, 2)) as primary:
        with ServeClient(port=primary.port) as client:
            client.ingest(rows(64))
            client.register("closest", 3)
            client.register("similar", 4)
        recorder = PhaseLog()
        registry, tailer = connect_standby("127.0.0.1", primary.port,
                                           recorder=recorder, audit=True)
        standby = BackgroundServer(registry, role="standby",
                                   standby=tailer).start()
        session = registry.get("default").session
        try:
            with ServeClient(port=primary.port) as p, \
                    ServeClient(port=standby.port) as s:
                p.register("furthest", 2)  # after bootstrap

                def replicate(size: int) -> dict:
                    """Ingest ``size`` rows on the primary; returns each
                    standby maintainer's on_tick arrival counts."""
                    ticks.clear()
                    collects.clear()
                    recorder.phases.clear()
                    recorder.candidates.clear()
                    now = p.ingest(rows(size))["now_seq"]
                    deadline = time.monotonic() + 10
                    while s.epoch()["now_seq"] < now:
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                    mine = {id(group.maintainer)
                            for group in session.monitor._groups.values()}
                    arrivals: dict = {}
                    for maintainer, count, in_ingest in ticks:
                        if maintainer in mine:
                            assert in_ingest
                            arrivals.setdefault(maintainer, []).append(count)
                    assert set(arrivals) == mine
                    return arrivals

                step = ServerMonitor.tick_rows
                for size, per_tick in ((4, [4]), (1, [1]),
                                       (2 * step + 3, [step, step, 3])):
                    arrivals = replicate(size)
                    assert len(arrivals) == 3
                    assert all(counts == per_tick
                               for counts in arrivals.values())
                    assert not set(collects) & set(arrivals)
                    assert "generate" not in recorder.phases
                    assert "insert" in recorder.phases
                    assert recorder.candidates == []
                assert tailer.stats()["shipped_group_ticks"] == 3 * 5
                assert tailer.stats()["computed_group_ticks"] == 0

                s.snapshot(scoring="closest", k=6)  # K 3 -> 6 here only
                deeper = id(session.monitor.maintainer_for(
                    session.scoring_for("closest")))
                arrivals = replicate(5)
                assert arrivals[deeper] == [5]
                assert [m for m in collects if m in arrivals] == \
                    [deeper] * 5
                assert recorder.phases.count("generate") == 1
                assert len(recorder.candidates) == 1
                assert tailer.stats()["shipped_group_ticks"] == 3 * 5 + 2
                assert tailer.stats()["computed_group_ticks"] == 1
                for handle in ("q1", "q2", "q3"):
                    assert s.snapshot(query=handle) == \
                        p.snapshot(query=handle)
            assert tailer.error is None
        finally:
            standby.stop()
