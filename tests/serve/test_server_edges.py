"""Protocol edge cases against a live server: malformed input, broken
connections, backpressure.  The server must answer every bad frame with
a structured error and never die."""

from __future__ import annotations

import asyncio
import json
import socket
from time import perf_counter

import pytest

from repro.serve import server as server_module
from repro.serve.client import ServeClient, ServeRequestError
from repro.serve.server import BackgroundServer, ServeServer
from repro.serve.session import ServerMonitor


@pytest.fixture()
def server():
    with BackgroundServer(ServerMonitor(64, 2)) as background:
        yield background


@pytest.fixture()
def client(server):
    with ServeClient(port=server.port) as c:
        yield c


def raw_connection(server):
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=5.0)
    sock_file = sock.makefile("rwb")
    hello = json.loads(sock_file.readline())
    assert hello["event"] == "hello"
    return sock, sock_file


def roundtrip(sock_file, line: bytes) -> dict:
    sock_file.write(line)
    sock_file.flush()
    return json.loads(sock_file.readline())


class TestMalformedFrames:
    def test_malformed_json_gets_bad_json_error(self, server):
        sock, f = raw_connection(server)
        response = roundtrip(f, b"{not json at all\n")
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_json"
        # the connection survives: a good frame still works
        response = roundtrip(f, b'{"op":"stats","id":1}\n')
        assert response["ok"] is True
        sock.close()

    def test_non_object_frame_gets_bad_frame(self, server):
        sock, f = raw_connection(server)
        response = roundtrip(f, b"[1,2,3]\n")
        assert response["error"]["code"] == "bad_frame"
        sock.close()

    def test_missing_op_gets_bad_frame(self, server):
        sock, f = raw_connection(server)
        response = roundtrip(f, b'{"id":9}\n')
        assert response["error"]["code"] == "bad_frame"
        assert response["id"] == 9  # id echoed even on errors
        sock.close()

    def test_unknown_op_gets_unknown_op(self, server):
        sock, f = raw_connection(server)
        response = roundtrip(f, b'{"op":"frobnicate","id":2}\n')
        assert response["error"]["code"] == "unknown_op"
        assert "frobnicate" in response["error"]["message"]
        sock.close()

    def test_blank_lines_ignored(self, server):
        sock, f = raw_connection(server)
        f.write(b"\n\n")
        response = roundtrip(f, b'{"op":"stats","id":3}\n')
        assert response["ok"] is True
        sock.close()

    def test_bad_request_fields_get_bad_request(self, server):
        sock, f = raw_connection(server)
        response = roundtrip(f, b'{"op":"ingest","id":4}\n')
        assert response["error"]["code"] == "bad_request"
        response = roundtrip(
            f, b'{"op":"register","scoring":"closest","k":0,"id":5}\n'
        )
        assert response["error"]["code"] == "bad_request"
        sock.close()


class TestOversizedFrames:
    def test_oversized_frame_errors_and_closes(self):
        session = ServerMonitor(64, 2)
        with BackgroundServer(session, max_frame_bytes=4096) as background:
            sock, f = raw_connection(background)
            huge = b'{"op":"ingest","rows":[' \
                + b"[0.1,0.2]," * 2000 + b"[0.1,0.2]]}\n"
            assert len(huge) > 4096
            f.write(huge)
            f.flush()
            response = json.loads(f.readline())
            assert response["error"]["code"] == "frame_too_large"
            # the byte stream cannot be resynchronized: server closes
            assert f.readline() in (b"", None) or \
                json.loads(f.readline()).get("event") == "bye"
            sock.close()
            # and the server is still alive for other clients
            with ServeClient(port=background.port) as client:
                assert client.request("stats")["ok"] is True


class TestReceiveBuffer:
    def test_frame_spanning_receives_arrives_whole(self, server):
        """The server receives into one reused buffer: a frame longer
        than it, sent together with the next frame, still arrives whole
        and in order."""
        sock, f = raw_connection(server)
        rows = [[0.5, 0.25]] * 12000
        big = json.dumps({"op": "ingest", "rows": rows, "id": 1}).encode()
        assert len(big) > 2 * server_module.RECV_BUFFER_BYTES
        f.write(big + b'\n{"op":"stats","id":2}\n')
        f.flush()
        ack = json.loads(f.readline())
        assert (ack["id"], ack["ingested"]) == (1, 12000)
        assert json.loads(f.readline())["id"] == 2
        sock.close()


class TestDisconnects:
    def test_mid_frame_disconnect_leaves_server_alive(self, server):
        sock, f = raw_connection(server)
        f.write(b'{"op":"stats","id":1')  # no newline: half a frame
        f.flush()
        sock.close()
        with ServeClient(port=server.port) as client:
            assert client.request("stats")["ok"] is True

    def test_abrupt_close_while_subscribed(self, server):
        sock, f = raw_connection(server)
        response = roundtrip(
            f, b'{"op":"register","scoring":"closest","k":2,"id":1}\n'
        )
        query = response["query"]
        roundtrip(
            f,
            json.dumps({"op": "subscribe", "query": query,
                        "id": 2}).encode() + b"\n",
        )
        sock.close()  # vanish without unsubscribe
        with ServeClient(port=server.port) as client:
            # ingest fans out to (now dead) subscribers; must not hang
            ack = client.ingest([[0.1, 0.2], [0.3, 0.4], [0.11, 0.21]])
            assert ack["ingested"] == 3


class TestQueryLifecycleEdges:
    def test_double_register_yields_distinct_handles(self, client):
        first = client.register("closest", k=3)
        second = client.register("closest", k=3)
        assert first != second

    def test_unknown_query_snapshot(self, client):
        with pytest.raises(ServeRequestError) as err:
            client.snapshot(query="q404")
        assert err.value.code == "unknown_query"

    def test_subscribe_then_unregister_sends_closed_event(self, server):
        with ServeClient(port=server.port) as subscriber, \
                ServeClient(port=server.port) as other:
            query = subscriber.register("closest", k=2)
            subscriber.subscribe(query)
            other.unregister(query)
            event = subscriber.next_event(timeout=5.0)
            assert event == {"event": "closed", "query": query}
            # further ingest produces no deltas for the dead query
            other.ingest([[0.1, 0.2], [0.12, 0.22]])
            assert subscriber.next_event(timeout=0.2) is None

    def test_subscribe_unknown_query_rejected(self, client):
        with pytest.raises(ServeRequestError) as err:
            client.request("subscribe", query="q404")
        assert err.value.code == "unknown_query"

    def test_unsubscribe_without_subscription_is_ok(self, client):
        query = client.register("closest", k=2)
        assert client.unsubscribe(query)["ok"] is True


class TestDropBackpressure:
    def test_slow_subscriber_marked_lagged(self):
        session = ServerMonitor(64, 2)
        with BackgroundServer(session, backpressure="drop",
                              queue_depth=1) as background:
            with ServeClient(port=background.port) as slow, \
                    ServeClient(port=background.port) as producer:
                assert slow.hello["backpressure"] == "drop"
                # An ingest op yields at most one delta per query, so
                # three subscriptions (three skyband groups) let a single
                # op put up to three deltas into the depth-1 queue.
                for scoring in ("closest", "furthest", "similar"):
                    slow.subscribe(slow.register(scoring, k=3))
                # Flood without draining `slow`: its depth-1 queue must
                # overflow and drop deltas instead of stalling ingest.
                import random

                rng = random.Random(5)
                for _ in range(40):
                    producer.ingest(
                        [[rng.random(), rng.random()] for _ in range(4)]
                    )
                stats = producer.stats(metrics=True)
                dropped = stats["metrics"][
                    "repro_serve_deltas_dropped_total"]
                assert dropped > 0
                # the next delivered event carries the lagged marker
                lagged = []
                while True:
                    event = slow.next_event(timeout=0.5)
                    if event is None:
                        break
                    if event.get("event") == "delta":
                        lagged.append(event.get("lagged", False))
                assert any(lagged)


class TestShutdownDrain:
    def test_shutdown_sends_bye_to_other_clients(self, server):
        with ServeClient(port=server.port) as watcher, \
                ServeClient(port=server.port) as admin:
            admin.shutdown()
            deadline_events = [
                watcher.next_event(timeout=5.0) for _ in range(1)
            ]
            assert {"event": "bye", "reason": "shutdown"} in deadline_events


async def _stop_while_a_handler_closes(hold_seconds: float) -> dict:
    """Hang up one client and hold its handler inside its own
    ``_close_connection`` (at ``writer.wait_closed``) for
    ``hold_seconds``, calling ``stop()`` meanwhile."""
    server = ServeServer(ServerMonitor(16, 2))
    await server.start()
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    await reader.readline()  # hello: the handler is registered
    (conn,) = server._connections
    held = asyncio.Event()
    handler_tasks = []
    wait_closed = conn.writer.wait_closed

    async def held_wait_closed():
        handler_tasks.append(asyncio.current_task())
        held.set()
        await asyncio.sleep(hold_seconds)
        await wait_closed()

    conn.writer.wait_closed = held_wait_closed
    writer.close()
    await asyncio.wait_for(held.wait(), timeout=5.0)
    assert conn not in server._connections  # its own close is under way
    started = perf_counter()
    await server.stop()
    elapsed = perf_counter() - started
    (handler,) = handler_tasks
    result = {"elapsed": elapsed, "handler_done": handler.done()}
    await asyncio.wait_for(handler, timeout=10.0)
    return result


class TestStopWaitsForClosingHandlers:
    def test_stop_returns_after_the_handler_finishes(self):
        outcome = asyncio.run(_stop_while_a_handler_closes(0.3))
        assert outcome["handler_done"]
        assert 0.2 <= outcome["elapsed"] < server_module.CLOSE_TIMEOUT

    def test_stop_is_bounded(self, monkeypatch):
        monkeypatch.setattr(server_module, "CLOSE_TIMEOUT", 0.2)
        outcome = asyncio.run(_stop_while_a_handler_closes(1.0))
        assert not outcome["handler_done"]
        assert 0.15 <= outcome["elapsed"] < 0.9
