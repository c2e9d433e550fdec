"""Client↔server round trips over a real loopback socket.

Pins the two serving-layer acceptance properties end-to-end:

* subscribe deltas replayed client-side equal polling ``results()``
  (here: the ``snapshot`` op) at every tick;
* a checkpoint taken over the wire mid-stream, restored into a fresh
  server, answers byte-identically — and the whole engine runs under
  ``audit=True`` in the property test, so every tick is also checked
  against the runtime invariant verifier.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.monitor import TopKPairsMonitor
from repro.serve.client import ServeClient, apply_delta
from repro.serve.server import BackgroundServer
from repro.serve.session import SCORING_NAMES, ServerMonitor


def rows(n, seed=0):
    rng = random.Random(seed)
    return [[rng.random(), rng.random()] for _ in range(n)]


@pytest.fixture()
def server():
    with BackgroundServer(ServerMonitor(48, 2)) as background:
        yield background


@pytest.fixture()
def client(server):
    with ServeClient(port=server.port) as c:
        yield c


class TestBasicOps:
    def test_hello_announces_protocol(self, client):
        assert client.hello["event"] == "hello"
        assert client.hello["protocol"] == 1
        assert client.hello["backpressure"] == "block"

    def test_ingest_acks_exact_count(self, client):
        ack = client.ingest(rows(7))
        assert ack["ingested"] == 7 and ack["now_seq"] == 7
        ack = client.ingest(rows(5, seed=1))
        assert ack["ingested"] == 5 and ack["now_seq"] == 12

    def test_ingest_with_timestamps(self, client):
        ack = client.ingest([[0.1, 0.2], [0.3, 0.4]],
                            timestamps=[1.0, 2.0])
        assert ack["ingested"] == 2

    def test_snapshot_matches_registered_results(self, client):
        client.ingest(rows(30))
        query = client.register("closest", k=4)
        adhoc = client.snapshot("closest", 4)
        registered = client.snapshot(query=query)
        assert json.dumps(adhoc) == json.dumps(registered)

    def test_stats_include_serve_section(self, client):
        stats = client.stats()
        assert stats["serve"]["protocol"] == 1
        assert stats["serve"]["connections"] == 1

    def test_two_clients_share_the_stream(self, server):
        with ServeClient(port=server.port) as a, \
                ServeClient(port=server.port) as b:
            a.ingest(rows(5))
            ack = b.ingest(rows(5, seed=1))
            assert ack["now_seq"] == 10


class TestDeltaReplay:
    def test_deltas_replay_to_polled_answer_every_tick(self, client):
        """Acceptance: baseline + deltas == snapshot at every tick."""
        query = client.register("closest", k=3)
        answer = client.subscribe(query)
        for row in rows(120, seed=7):
            ack = client.ingest([row])
            for _ in range(ack["deltas"]):
                event = client.next_event(timeout=5.0)
                assert event["event"] == "delta"
                assert event["tick"] == ack["now_seq"]
                apply_delta(answer, event)
            polled = {
                (p["older"], p["newer"]): p
                for p in client.snapshot(query=query)
            }
            assert answer == polled

    def test_batched_ingest_deltas_also_replay(self, client):
        query = client.register("furthest", k=3)
        answer = client.subscribe(query)
        for start in range(0, 90, 9):
            ack = client.ingest(rows(9, seed=start))
            for _ in range(ack["deltas"]):
                apply_delta(answer, client.next_event(timeout=5.0))
            polled = {
                (p["older"], p["newer"]): p
                for p in client.snapshot(query=query)
            }
            assert answer == polled

    def test_multi_row_ingest_sends_one_delta_per_subscription(self, client):
        """An ingest op is one engine tick: each subscription gets at
        most one delta for it, stamped with the ack's ``now_seq``, and
        the deltas still replay to the polled answers — for ops larger
        than the 48-row window too."""
        queries = [client.register(scoring, k=3)
                   for scoring in ("closest", "furthest", "dissimilar")]
        queries.append(client.register("closest", k=2, n=16))
        answers = {query: client.subscribe(query) for query in queries}
        for op, size in enumerate((1, 4, 9, 2, 53, 3, 16, 1, 7)):
            ack = client.ingest(rows(size, seed=100 + op))
            events = [client.next_event(timeout=5.0)
                      for _ in range(ack["deltas"])]
            assert len({event["query"] for event in events}) \
                == len(events) <= len(queries)
            for event in events:
                assert event["event"] == "delta"
                assert event["tick"] == ack["now_seq"]
                apply_delta(answers[event["query"]], event)
            for query in queries:
                polled = {
                    (p["older"], p["newer"]): p
                    for p in client.snapshot(query=query)
                }
                assert answers[query] == polled

    def test_two_subscribers_see_the_same_deltas(self, server):
        with ServeClient(port=server.port) as a, \
                ServeClient(port=server.port) as b:
            query = a.register("closest", k=3)
            answer_a = a.subscribe(query)
            answer_b = b.subscribe(query)
            for row in rows(40, seed=11):
                ack = a.ingest([row])
                for _ in range(ack["deltas"] // 2):
                    apply_delta(answer_a, a.next_event(timeout=5.0))
                    apply_delta(answer_b, b.next_event(timeout=5.0))
            assert answer_a == answer_b


class TestWireCheckpoint:
    def test_checkpoint_over_wire_restores_into_fresh_server(
            self, tmp_path, server, client):
        """Acceptance, end-to-end: ``checkpoint`` op mid-stream, restore
        into a *new server process-equivalent*, byte-identical answers
        for every registered query over the wire."""
        from repro.serve.checkpoint import restore_server_monitor

        client.ingest(rows(70))
        q1 = client.register("closest", k=3)
        q2 = client.register("dissimilar", k=2)
        client.ingest(rows(30, seed=3))
        path = str(tmp_path / "wire.ckpt.json")
        meta = client.checkpoint(path)
        assert meta["queries"] == 2
        before = {q: json.dumps(client.snapshot(query=q)) for q in (q1, q2)}

        restored = restore_server_monitor(path)
        with BackgroundServer(restored) as fresh:
            with ServeClient(port=fresh.port) as fresh_client:
                for q in (q1, q2):
                    assert json.dumps(
                        fresh_client.snapshot(query=q)) == before[q]

    def test_checkpoint_bad_path_is_structured_error(self, client):
        from repro.serve.client import ServeRequestError

        client.ingest(rows(5))
        with pytest.raises(ServeRequestError) as err:
            client.checkpoint("/nonexistent-dir-xyz/ck.json")
        assert err.value.code == "checkpoint_failed"


@settings(max_examples=12, deadline=None)
@given(
    data=st.lists(
        st.lists(st.floats(-50, 50, allow_nan=False, allow_infinity=False),
                 min_size=2, max_size=2),
        min_size=1, max_size=40,
    ),
    k=st.integers(1, 6),
    scoring=st.sampled_from(sorted(SCORING_NAMES)),
    window=st.integers(4, 24),
)
def test_property_wire_snapshot_equals_library_oracle(
        data, k, scoring, window):
    """Any stream pushed through the socket answers exactly like the
    library's ``snapshot_query`` oracle on an identical monitor — with
    the server's engine running under the runtime invariant auditor."""
    session = ServerMonitor(window, 2, audit=True)
    with BackgroundServer(session) as background:
        with ServeClient(port=background.port) as client:
            ack = client.ingest(data)
            assert ack["ingested"] == len(data)
            wire_answer = client.snapshot(scoring, k)

    oracle = TopKPairsMonitor(window, 2)
    oracle.extend(data)
    factory = SCORING_NAMES[scoring]
    expected = [
        {"older": p.older.seq, "newer": p.newer.seq, "score": p.score}
        for p in oracle.snapshot_query(factory(2), k)
    ]
    got = [
        {"older": p["older"], "newer": p["newer"], "score": p["score"]}
        for p in wire_answer
    ]
    assert got == expected
