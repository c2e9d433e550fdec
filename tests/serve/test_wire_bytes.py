"""Answer pairs are serialized once, and the bytes do not change.

Frames carry answer pairs as ``Pair`` lists; :func:`encode_frame`
splices each pair's cached JSON.  Every frame must equal ``json.dumps``
of the same frame built with :func:`pair_to_wire` dicts — for snapshot
and subscribe replies, delta events (traced, lagged) and standby
delta-log lines — and fan-out plus a later snapshot must encode each
pair exactly once.
"""

from __future__ import annotations

import asyncio
import json
import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pair import Pair
from repro.serve import protocol
from repro.serve import server as server_module
from repro.serve.protocol import encode_frame, ok_frame, pair_to_wire
from repro.serve.server import ServeServer, _Connection
from repro.serve.session import ServerMonitor
from repro.serve.tenancy import DEFAULT_NAMESPACE
from repro.stream.object import StreamObject


def reference(frame: dict) -> bytes:
    """The frame as it was encoded before pairs were cached: every
    ``Pair`` list replaced by ``pair_to_wire`` dicts, then one
    ``json.dumps``."""
    wire = {
        key: [pair_to_wire(p) for p in value]
        if isinstance(value, list) and value and isinstance(value[0], Pair)
        else value
        for key, value in frame.items()
    }
    return json.dumps(wire, separators=(",", ":")).encode("utf-8") + b"\n"


EDGE_FLOATS = (-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 1.0, -3.0,
               2.0 ** 53, 0.1, 5e-324)
floats = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10**6, 10**6).map(float),
)


@st.composite
def pair_lists(draw, d: int) -> list[Pair]:
    seqs = draw(st.lists(st.integers(1, 10**9), min_size=2, max_size=12,
                         unique=True))
    objects = [StreamObject(seq, tuple(draw(floats) for _ in range(d)))
               for seq in seqs]
    count = draw(st.integers(0, 8))
    pairs = []
    for _ in range(count):
        a, b = draw(st.lists(st.sampled_from(objects), min_size=2,
                             max_size=2, unique_by=lambda o: o.seq))
        pairs.append(Pair(a, b, draw(floats)))
    return pairs


@st.composite
def frames(draw) -> dict:
    d = draw(st.integers(1, 3))
    first = draw(pair_lists(d))
    second = draw(pair_lists(d))
    tick = draw(st.integers(0, 10**9))
    query = draw(st.sampled_from(["q1", "q27", "nsé/q\"3"]))
    request_id = draw(st.one_of(st.none(), st.integers(0, 10**6),
                                st.text(max_size=6)))
    shape = draw(st.sampled_from(["snapshot", "subscribe", "delta",
                                  "delta_log"]))
    if shape == "snapshot":
        return ok_frame("snapshot", request_id, tick=tick, answer=first)
    if shape == "subscribe":
        return ok_frame("subscribe", request_id, query=query, tick=tick,
                        answer=first)
    if shape == "delta":
        frame = {"event": "delta", "query": query, "tick": tick,
                 "entered": first, "left": second}
        if draw(st.booleans()):
            frame["trace"] = draw(st.text(min_size=1, max_size=8))
        return frame
    frame = {"query": query, "tick": tick, "entered": first,
             "left": second, "epoch": draw(st.integers(0, 5))}
    if draw(st.booleans()):
        frame["namespace"] = draw(st.text(min_size=1, max_size=8))
    return frame


class TestByteIdentity:
    @settings(max_examples=150, deadline=None)
    @given(frames())
    def test_cached_frames_equal_json_dumps(self, frame):
        want = reference(frame)
        assert encode_frame(frame) == want  # fills the pair caches
        assert encode_frame(frame) == want  # served from the caches

    @settings(max_examples=50, deadline=None)
    @given(frames())
    def test_lagged_splice_equals_json_dumps(self, frame):
        """A lagged subscriber's delta is the shared bytes with
        ``"lagged":true`` spliced in before the closing brace."""
        spliced = encode_frame(frame)[:-2] + server_module._LAGGED_TAIL
        assert spliced == reference({**frame, "lagged": True})


class _Writer:
    """Stands in for a connection's StreamWriter."""

    def __init__(self) -> None:
        self.frames: list[bytes] = []

    def write(self, data: bytes) -> None:
        self.frames.append(data)

    def get_extra_info(self, name):
        return None


def test_fan_out_and_snapshot_encode_each_pair_once(monkeypatch):
    calls: Counter = Counter()

    def counting_pair_to_wire(pair):
        calls[pair.uid] += 1
        return pair_to_wire(pair)

    monkeypatch.setattr(protocol, "pair_to_wire", counting_pair_to_wire)
    rng = random.Random(3)

    async def scenario():
        session = ServerMonitor(24, 2)
        server = ServeServer(session)
        ns = server.tenants.get(DEFAULT_NAMESPACE)
        handle = session.register("closest", 4, None)
        conns = [_Connection(None, _Writer(), 64) for _ in range(3)]
        for conn in conns:
            conn.namespace = ns
            conn.subscriptions.add(handle)
            server._subscribers.setdefault((ns.name, handle), set()).add(conn)
        conns[0].lagged.add(handle)
        enqueued = 0
        for _ in range(12):
            session.ingest([[rng.random(), rng.random()]
                            for _ in range(3)])
            enqueued += await server._fan_out_deltas(ns)
        await server._op_snapshot(conns[1], {"op": "snapshot",
                                             "query": handle}, 9)
        delivered = [[conn.events.get_nowait()
                      for _ in range(conn.events.qsize())]
                     for conn in conns]
        return session, handle, enqueued, delivered, conns[1].writer.frames

    session, handle, enqueued, delivered, replies = asyncio.run(scenario())
    lagged, *others = delivered
    assert len(lagged) > 1 and enqueued == 3 * len(lagged)
    assert others[0] == others[1]
    assert json.loads(lagged[0])["lagged"] is True
    assert lagged[0] == others[0][0][:-2] + b',"lagged":true}\n'
    assert lagged[1:] == others[0][1:]
    answer = session.results(handle)
    assert answer and all(calls[p.uid] == 1 for p in answer)
    assert set(calls.values()) == {1}
    (reply,) = replies
    assert reply == reference(ok_frame(
        "snapshot", 9, tick=session.monitor.manager.now_seq, answer=answer,
    ))
