"""Warm-standby replication and failover.

Boots a real primary and a real standby (both on loopback TCP), checks
the standby bootstraps from the shipped checkpoint, tails the
replication feed byte-identically, refuses ingest until promoted, and —
the acceptance property — that a subscriber connected to the standby
sees every answer delta exactly once across bootstrap, replication and
promotion: no delta lost, none duplicated.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import socket
import time

import pytest

from repro.exceptions import ReplicationError
from repro.serve.client import ServeClient, ServeRequestError, apply_delta
from repro.serve.server import (
    RECV_BUFFER_BYTES,
    BackgroundServer,
    _RecvIntoProtocol,
)
from repro.serve.session import ServerMonitor
from repro.serve.standby import StandbyTailer, connect_standby
from repro.serve.tenancy import NamespaceRegistry, TenantSpec


def rows(n, seed=0):
    rng = random.Random(seed)
    return [[rng.random(), rng.random()] for _ in range(n)]


def wait_for_seq(client, target, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if client.epoch()["now_seq"] >= target:
            return
    raise AssertionError(f"standby never reached seq {target}")


@pytest.fixture()
def primary():
    session = ServerMonitor(32, 2, seed=5)
    with BackgroundServer(session) as background:
        with ServeClient(port=background.port) as client:
            client.register("closest", 3)
            client.register("furthest", 2)
            client.ingest(rows(80))
        yield background


def boot_standby(primary, **kwargs):
    registry, tailer = connect_standby("127.0.0.1", primary.port, **kwargs)
    background = BackgroundServer(registry, role="standby", standby=tailer)
    return background.start(), registry, tailer


class TestStandby:
    def test_bootstrap_matches_primary(self, primary):
        standby, registry, tailer = boot_standby(primary)
        try:
            with ServeClient(port=primary.port) as p, \
                    ServeClient(port=standby.port) as s:
                assert s.hello["role"] == "standby"
                assert p.hello["role"] == "primary"
                assert s.epoch()["now_seq"] == p.epoch()["now_seq"]
                assert s.snapshot(query="q1") == p.snapshot(query="q1")
        finally:
            standby.stop()

    def test_standby_tails_and_rejects_ingest(self, primary):
        standby, registry, tailer = boot_standby(primary)
        try:
            with ServeClient(port=primary.port) as p, \
                    ServeClient(port=standby.port) as s:
                with pytest.raises(ServeRequestError) as err:
                    s.ingest([[0.5, 0.5]])
                assert err.value.code == "not_primary"
                for offset in range(0, 60, 20):
                    ack = p.ingest(rows(20, seed=offset + 1))
                wait_for_seq(s, ack["now_seq"])
                for query in ("q1", "q2"):
                    assert json.dumps(s.snapshot(query=query)) == \
                        json.dumps(p.snapshot(query=query))
        finally:
            standby.stop()

    def test_feed_event_larger_than_the_receive_buffer(self, primary):
        """The feed receives into the server's reused buffer; a rows
        event spanning several receives arrives whole."""
        registry, tailer = connect_standby("127.0.0.1", primary.port)
        lines = []
        read_line = tailer._read_line

        async def recording(reader):
            line = await read_line(reader)
            lines.append(line)
            return line

        tailer._read_line = recording
        standby = BackgroundServer(registry, role="standby",
                                   standby=tailer).start()
        try:
            with ServeClient(port=primary.port) as p, \
                    ServeClient(port=standby.port) as s:
                ack = p.ingest(rows(3000, seed=21))
                wait_for_seq(s, ack["now_seq"])
                assert type(tailer._writer.transport.get_protocol()) \
                    is _RecvIntoProtocol
                assert max(len(line) for line in lines if line) \
                    > RECV_BUFFER_BYTES
                for query in ("q1", "q2"):
                    assert json.dumps(s.snapshot(query=query)) == \
                        json.dumps(p.snapshot(query=query))
        finally:
            standby.stop()

    def test_promote_after_primary_death(self, primary):
        """The failover drill: kill the primary, promote the standby,
        keep serving — subscribers lose no delta and see none twice."""
        standby, registry, tailer = boot_standby(primary)
        try:
            subscriber = ServeClient(port=standby.port)
            answer = subscriber.subscribe("q1")
            with ServeClient(port=primary.port) as p:
                ack = p.ingest(rows(40, seed=11))
            wait_for_seq(subscriber, ack["now_seq"])
            primary.stop()  # the primary goes away mid-stream

            control = ServeClient(port=standby.port)
            promoted = control.promote()
            assert promoted["epoch"] == 1
            assert promoted["role"] == "primary"
            # promote is idempotent-hostile by design: a second promote
            # is a client bug and says so
            with pytest.raises(ServeRequestError) as err:
                control.promote()
            assert err.value.code == "bad_request"

            # the promoted server accepts ingest and keeps the epoch
            ack = control.ingest(rows(20, seed=12))
            assert control.epoch()["epoch"] == 1

            # drain every delta the subscriber was sent; ticks must be
            # strictly increasing (no duplicates) and the final applied
            # answer must equal the server's own (no losses)
            ticks = []
            while True:
                event = subscriber.next_event(timeout=0.5)
                if event is None:
                    break
                if event.get("event") != "delta" \
                        or event.get("query") != "q1":
                    continue
                apply_delta(answer, event)
                ticks.append(event["tick"])
            assert ticks == sorted(set(ticks))
            served = {(p["older"], p["newer"]): p
                      for p in control.snapshot(query="q1")}
            assert answer == served
            subscriber.close()
            control.close()
        finally:
            standby.stop()

    def test_promote_on_primary_is_rejected(self):
        session = ServerMonitor(16, 2)
        with BackgroundServer(session) as background:
            with ServeClient(port=background.port) as client:
                with pytest.raises(ServeRequestError) as err:
                    client.promote()
                assert err.value.code == "bad_request"

    def test_delta_log_journal(self, primary, tmp_path):
        log_path = str(tmp_path / "deltas.jsonl")
        standby, registry, tailer = boot_standby(primary,
                                                 delta_log=log_path)
        try:
            with ServeClient(port=primary.port) as p, \
                    ServeClient(port=standby.port) as s:
                ack = p.ingest(rows(40, seed=21))
                wait_for_seq(s, ack["now_seq"])
            # The journal append runs on the executor after now_seq is
            # already visible, so give the write a moment to land; the
            # file exists from the executor's open() on, before its
            # write, so wait for data rather than for the file.
            deadline = time.monotonic() + 5.0
            while not (os.path.exists(log_path)
                       and os.path.getsize(log_path)) \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            records = [json.loads(line) for line in open(log_path)]
            assert records, "replicated deltas were not journaled"
            for record in records:
                assert set(record) == {"query", "tick", "entered",
                                       "left", "epoch"}
                assert record["query"] in ("q1", "q2")
        finally:
            standby.stop()

    def test_fenced_checkpoint_after_promote(self, primary, tmp_path):
        """After a failover the old primary cannot overwrite the
        promoted lineage's checkpoint file."""
        standby, registry, tailer = boot_standby(primary)
        try:
            path = str(tmp_path / "ck.json")
            with ServeClient(port=standby.port) as s:
                s.promote()
                s.checkpoint(path)  # epoch 1 on disk
            from repro.serve.checkpoint import (
                checkpoint_document, write_checkpoint_document,
            )
            old_primary_session = ServerMonitor(32, 2)
            document, _meta = checkpoint_document(old_primary_session)
            with pytest.raises(Exception) as err:
                write_checkpoint_document(document, path, 0)
            assert "epoch" in str(err.value)
        finally:
            standby.stop()


ALPHA_TOKEN = "alpha-secret-token"
ADMIN_TOKEN = "admin-secret-token"


def tenants_registry():
    return NamespaceRegistry(
        {"alpha": TenantSpec("alpha", ALPHA_TOKEN)},
        lambda name, spec: ServerMonitor(32, 2, seed=5),
        admin_token=ADMIN_TOKEN,
    )


def wait_until(probe, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if probe():
            return
        time.sleep(0.01)
    raise AssertionError("condition never held")


def knows(client, query):
    try:
        client.snapshot(query=query)
    except ServeRequestError as exc:
        assert exc.code == "unknown_query"
        return False
    return True


class TestQueryRegistryMirror:
    @pytest.mark.parametrize("multi", [False, True],
                             ids=["single_tenant", "multi_tenant"])
    def test_handles_survive_failover(self, multi):
        """Queries registered and dropped on the primary after the
        standby bootstrapped exist on the standby under the same
        handles; the standby hands out no handles of its own."""
        def connect(port, admin=False):
            client = ServeClient(port=port)
            if multi and admin:
                client.auth(token=ADMIN_TOKEN, admin=True)
            elif multi:
                client.auth("alpha", ALPHA_TOKEN)
            return client

        tenants = tenants_registry() if multi \
            else ServerMonitor(32, 2, seed=5)
        with BackgroundServer(tenants) as primary:
            writer = connect(primary.port)
            assert writer.register("closest", 3) == "q1"
            writer.ingest(rows(40))
            registry, tailer = connect_standby(
                "127.0.0.1", primary.port,
                registry=tenants_registry() if multi else None,
            )
            with BackgroundServer(registry, role="standby",
                                  standby=tailer) as standby:
                reader = connect(standby.port)
                watcher = connect(standby.port)
                assert writer.register("furthest", 2) == "q2"
                assert writer.register("similar", 4) == "q3"
                wait_until(lambda: knows(reader, "q3"))
                watcher.subscribe("q3")
                writer.unregister("q3")
                event = watcher.next_event(timeout=10.0)
                assert event == {"event": "closed", "query": "q3"}
                ack = writer.ingest(rows(20, seed=1))
                wait_for_seq(reader, ack["now_seq"])

                answer = writer.snapshot(query="q2")
                assert reader.snapshot(query="q2") == answer
                assert not knows(reader, "q3")
                for call in (lambda: reader.register("similar", 4),
                             lambda: reader.unregister("q2")):
                    with pytest.raises(ServeRequestError) as err:
                        call()
                    assert err.value.code == "not_primary"
                assert tailer.error is None

                primary.stop()
                with connect(standby.port, admin=True) as admin:
                    admin.promote()
                assert reader.snapshot(query="q2") == answer
                assert reader.register("similar", 4) == "q4"
                for client in (writer, reader, watcher):
                    client.close()


def crafted_tailer():
    """A tailer over an open registry holding ``q1`` at seq 10."""
    session = ServerMonitor(32, 2, seed=5)
    session.register("closest", 3)
    session.ingest(rows(10))
    left, right = socket.socketpair()
    right.close()
    return StandbyTailer(NamespaceRegistry.single(session), left), session


Q1 = {"handle": "q1", "scoring": "closest", "k": 3, "n": 32}
Q2 = {"handle": "q2", "scoring": "furthest", "k": 2, "n": 32}


def query_event(kind, spec, now_seq=10, next_handle=3, **extra):
    return {"event": kind, "namespace": "default", "epoch": 0,
            "now_seq": now_seq, "query": spec, "next_handle": next_handle,
            **extra}


def rows_event(first_seq, count, **extra):
    return {"event": "rows", "namespace": "default", "epoch": 0,
            "first_seq": first_seq, "now_seq": first_seq + count - 1,
            "rows": rows(count, seed=first_seq), "timestamps": None,
            **extra}


def decided(scoring="closest", K=3, added=(), size=0, digest=0):
    """A two-row op's shipped decisions: one tick, one group."""
    return {"decisions": [[{"scoring": scoring, "K": K,
                            "added": [list(pair) for pair in added],
                            "size": size, "digest": digest}]]}


#: crafted feed event -> (error substring or None, handles afterwards)
CRAFTED = {
    "register_held_same_spec": (
        query_event("register", Q1, next_handle=2), None, ["q1"]),
    "register_held_other_spec": (
        query_event("register", dict(Q1, k=5), next_handle=2),
        "handle mismatch", ["q1"]),
    "register_new": (query_event("register", Q2), None, ["q1", "q2"]),
    "register_dropped_before_ship": (
        query_event("register", Q2, now_seq=4, next_handle=1), None,
        ["q1"]),
    "register_at_other_seq": (
        query_event("register", Q2, now_seq=7), "replication desync",
        ["q1"]),
    "unregister_not_held": (query_event("unregister", Q2), None, ["q1"]),
    "unregister_held_other_spec": (
        query_event("unregister", dict(Q1, scoring="similar")),
        "handle mismatch", ["q1"]),
    "register_malformed": (
        query_event("register", {"k": 2}), "malformed register", ["q1"]),
    "register_other_epoch": (
        query_event("register", Q2, epoch=3), "epoch mismatch", ["q1"]),
    "rows_overlap": (rows_event(8, 3), None, ["q1"]),
    "rows_gap": (rows_event(12, 2), "replication gap", ["q1"]),
    "unknown_namespace_mid_stream": (
        rows_event(5, 2, namespace="ghost"), "mid-stream", ["q1"]),
    "unknown_namespace_on_open_registry": (
        query_event("register", Q2, now_seq=0, namespace="ghost"),
        "cannot create namespace", ["q1"]),
    # Shipped skyband decisions (docs/serving.md, "Warm standbys and
    # failover").
    "decisions_seq_outside_window": (
        rows_event(11, 2, **decided(added=[(500, 12, 0.1)])),
        "outside this standby's window", ["q1"]),
    "decisions_pair_not_kept": (
        rows_event(11, 2, **decided(added=[(1, 12, 1e9)])),
        "kept 0 of the 1 pair", ["q1"]),
    "decisions_digest_differs": (
        rows_event(11, 2, **decided()), "digest", ["q1"]),
    "decisions_tick_count_differs": (
        rows_event(11, 2, decisions=[[], []]),
        "decided 2 tick", ["q1"]),
    "decisions_malformed_pair": (
        rows_event(11, 2, **decided(added=[(1, 12)])),
        "malformed decisions", ["q1"]),
    "decisions_other_K_computed_here": (
        rows_event(11, 2, **decided(K=4)), None, ["q1"]),
    "decisions_for_a_group_not_held": (
        rows_event(11, 2, **decided(scoring="furthest")), None, ["q1"]),
}

#: the standby's seq after a crafted event that reached the engine
APPLIED = {case: 12 for case in CRAFTED
           if case.startswith("decisions_") and "tick_count" not in case}
#: crafted events whose one group tick computed its candidates here
COMPUTED = {"decisions_other_K_computed_here",
            "decisions_for_a_group_not_held"}


@pytest.mark.parametrize("case", sorted(CRAFTED))
def test_crafted_feed_events(case):
    event, error, handles = CRAFTED[case]
    tailer, session = crafted_tailer()
    try:
        if error is None:
            asyncio.run(tailer._apply(event))
        else:
            with pytest.raises(ReplicationError, match=error):
                asyncio.run(tailer._apply(event))
    finally:
        tailer.stop()  # closes the feed socket
    assert [record.handle_id for record in session.queries()] == handles
    assert session.monitor.manager.now_seq == APPLIED.get(case, 10)
    assert (tailer.shipped_group_ticks, tailer.computed_group_ticks) == \
        (0, int(case in COMPUTED))
