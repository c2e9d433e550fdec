"""Warm-standby replication: bootstrap, tail, promote.

A standby is a second ``repro serve`` process that keeps a *hot* copy of
a primary's engine state so failover costs an epoch bump instead of an
``O(N^2)`` replay bootstrap.  The protocol has three moves:

1. **bootstrap** — :func:`connect_standby` opens one synchronous
   connection to the primary and sends ``replicate`` *first*, then
   ``checkpoint`` with ``ship: true`` and ``scope: "all"``.  Both ops
   serialize on the primary's event loop, so every change made after
   the checkpoint snapshot is guaranteed to arrive on the replication
   feed — no gap, no double-apply window.  Each shipped namespace
   document is restored structurally
   (:func:`~repro.serve.checkpoint.restore_server_monitor`) into a
   fresh session of the standby's registry: window, skiplists,
   skybands, staircases, query registry, epoch.
2. **tail** — the bootstrap connection is *detached* from the sync
   client (:meth:`~repro.serve.client.ServeClient.detach`) and adopted
   by a :class:`StandbyTailer` on the standby server's event loop.  The
   tailer applies every ``rows`` event through the ordinary ingest path,
   merging the primary's shipped skyband decisions in place of
   candidate generation (:mod:`repro.serve.decisions`: the maintainer
   state stays exactly what the primary computes, and is checked
   against it after every tick), and every ``register``/``unregister``
   event through the ordinary query registry (so a client's query
   handles mean the same query on both), journals the answer deltas to
   an optional JSONL delta log, and fans them out to the standby's own
   subscribers.  Events the checkpoint already covers are skipped; a
   sequence gap, engine desync (a shipped decision this standby cannot
   apply included), handle mismatch or epoch mismatch raises
   :class:`~repro.exceptions.ReplicationError` — a standby that cannot
   prove it is byte-identical to the primary must not keep serving.
3. **promote** — the ``promote`` op stops the tailer, bumps the fencing
   epoch by one and flips the role to primary.  The old primary's
   checkpoints now carry a stale epoch and
   :func:`~repro.serve.checkpoint.write_checkpoint_document` refuses to
   let them overwrite the promoted lineage's files (the split-brain
   guard).

See docs/serving.md for the failover runbook.
"""

from __future__ import annotations

import asyncio
import json
import socket
from typing import Optional

from repro.exceptions import ProtocolError, ReplicationError, ServeError
from repro.serve.checkpoint import restore_server_monitor
from repro.serve.client import ServeClient
from repro.serve.decisions import DecisionApplier
from repro.serve.protocol import encode_frame
from repro.serve.server import _RecvIntoProtocol
from repro.serve.tenancy import DEFAULT_NAMESPACE, Namespace, NamespaceRegistry

__all__ = ["StandbyTailer", "connect_standby"]


def _append_lines(path: str, data: bytes) -> None:
    """Blocking JSONL append (runs on the executor, never the loop)."""
    with open(path, "ab") as handle:
        handle.write(data)


class StandbyTailer:
    """Applies a primary's replication feed to a restored registry.

    Owns the detached bootstrap socket; :meth:`run` adopts it onto the
    running event loop and consumes feed events until stopped,
    disconnected, or broken.  All engine access happens on the server's
    event loop, so replication applies serialize with client reads the
    same way primary-side ingests do.
    """

    def __init__(
        self,
        registry: NamespaceRegistry,
        sock: socket.socket,
        *,
        leftover: bytes = b"",
        pending_events: Optional[list[dict]] = None,
        delta_log: Optional[str] = None,
        primary: str = "?",
    ) -> None:
        #: the routing table: every feed event carries a ``namespace``
        #: field and applies to that namespace's session (an open
        #: registry's one ``default`` namespace on a single-tenant pair)
        self.registry = registry
        self.delta_log = delta_log
        self.primary = primary
        #: rows behind the primary at the last received event (0 when
        #: fully caught up; the ``epoch`` and ``stats`` replies carry it)
        self.lag_rows = 0
        self.events_applied = 0
        self.rows_applied = 0
        #: skyband group ticks whose candidates were the primary's
        #: shipped decisions, and those computed here (groups the
        #: primary holds at another K, or does not hold)
        self.shipped_group_ticks = 0
        self.computed_group_ticks = 0
        #: set when the feed ended without a stop() — the primary died
        #: or closed; the standby stays alive and promotable
        self.disconnected = False
        #: set when the tailer died on a ReplicationError
        self.error: Optional[str] = None
        self._sock: Optional[socket.socket] = sock
        self._buf = bytearray(leftover)
        self._pending = list(pending_events or ())
        self._server = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._stopped = False
        self._finished = False

    # ------------------------------------------------------------------
    def attach(self, server) -> None:
        """Give the tailer the server serving its registry, to fan
        replicated deltas out through and close the subscriptions of
        unregistered queries (called by :meth:`ServeServer.start`)."""
        self._server = server

    def stop(self) -> None:
        """Stop tailing: promote and shutdown paths.  Idempotent."""
        self._stopped = True
        if self._writer is not None:
            self._writer.close()
        elif self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def stats(self) -> dict:
        """JSON-able tailer state (the ``epoch`` op and ``stats``
        responses embed this)."""
        default = self.registry.get(DEFAULT_NAMESPACE) \
            if self.registry.open else None
        payload = {
            "primary": self.primary,
            "applied_seq": (
                default.session.monitor.manager.now_seq
                if default is not None else None
            ),
            "events_applied": self.events_applied,
            "rows_applied": self.rows_applied,
            "shipped_group_ticks": self.shipped_group_ticks,
            "computed_group_ticks": self.computed_group_ticks,
            "lag_rows": self.lag_rows,
            "tailing": not (self._stopped or self._finished),
            "disconnected": self.disconnected,
            "error": self.error,
            "delta_log": self.delta_log,
        }
        if not self.registry.open:
            payload["namespaces"] = {
                ns.name: ns.session.monitor.manager.now_seq
                for ns in self.registry.namespaces()
            }
        return payload

    # ------------------------------------------------------------------
    # The tailer is a single task: nothing else writes these attrs, but
    # the RA202 segmentation cannot see that, so the multi-segment
    # mutations live in synchronous helpers (atomic between awaits).
    def _finish(self, *, disconnected: bool = False) -> None:
        self._finished = True
        if disconnected and not self._stopped:
            self.disconnected = True

    def _buffered_line(self) -> Optional[bytes]:
        """Pop one complete line off the byte buffer, if any."""
        newline = self._buf.find(b"\n")
        if newline < 0:
            return None
        line = bytes(self._buf[:newline + 1])
        del self._buf[:newline + 1]
        return line

    def _buffered_feed(self, chunk: bytes) -> None:
        self._buf.extend(chunk)

    def _note_lag(self, ns: Namespace, primary_seq: int) -> None:
        self.lag_rows = max(
            0, primary_seq - ns.session.monitor.manager.now_seq
        )

    def _namespace_for(self, event: dict, start: int) -> Namespace:
        """The namespace a feed event applies to, after checking it is
        of the standby's lineage.  ``start`` is the namespace's seq just
        before the event.  A namespace born on the primary *after*
        bootstrap shows up as an unknown name at ``start`` 0 — the
        registry lazily creates it; any other unknown name is a routing
        bug."""
        name = event.get("namespace", DEFAULT_NAMESPACE)
        if not isinstance(name, str) or not name:
            raise ReplicationError(
                f"malformed namespace on {event.get('event')} event: "
                f"{event!r}"
            )
        ns = self.registry.get(name)
        if ns is None:
            if start != 0:
                raise ReplicationError(
                    f"feed references unknown namespace {name!r} "
                    f"mid-stream (at seq {start}); the bootstrap "
                    f"checkpoint should have covered it"
                )
            try:
                ns = self.registry.namespace(name)
            except ServeError as exc:
                raise ReplicationError(
                    f"cannot create namespace {name!r} for the "
                    f"replication feed: {exc}"
                ) from exc
        epoch = event.get("epoch")
        if isinstance(epoch, int) and epoch != ns.session.epoch:
            raise ReplicationError(
                f"epoch mismatch: the feed carries epoch {epoch} for "
                f"namespace {name!r} but this standby bootstrapped at "
                f"epoch {ns.session.epoch} — refusing to mix lineages"
            )
        return ns

    # ------------------------------------------------------------------
    async def run(self) -> None:
        """Consume the replication feed until stop, EOF, or error."""
        if self._sock is None:
            return
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader(loop=loop)
        # asyncio.open_connection's wiring, receiving into the server's
        # reused buffer instead of a fresh 256 KiB bytes per recv
        protocol = _RecvIntoProtocol(reader, loop=loop)
        try:
            transport, _ = await loop.create_connection(lambda: protocol,
                                                        sock=self._sock)
        except OSError:
            self._finish(disconnected=True)
            return
        writer = asyncio.StreamWriter(transport, protocol, reader, loop)
        self._writer = writer
        self._sock = None
        try:
            pending, self._pending = self._pending, []
            for event in pending:
                await self._apply(event)
            while not self._stopped:
                line = await self._read_line(reader)
                if line is None:
                    self._finish(disconnected=True)
                    break
                if not line.strip():
                    continue
                try:
                    event = json.loads(line)
                except ValueError as exc:
                    raise ReplicationError(
                        f"replication feed sent invalid JSON: {exc}"
                    ) from exc
                if isinstance(event, dict):
                    await self._apply(event)
        except (ConnectionError, OSError):
            self._finish(disconnected=True)
        except ReplicationError as exc:
            self.error = str(exc)
            raise
        finally:
            self._finish()
            writer.close()

    async def _read_line(self, reader: asyncio.StreamReader
                         ) -> Optional[bytes]:
        """One feed line, honoring bytes left over from the detached
        bootstrap client's buffer; ``None`` on EOF."""
        while True:
            line = self._buffered_line()
            if line is not None:
                return line
            chunk = await reader.read(65536)
            if not chunk:
                return None
            self._buffered_feed(chunk)

    async def _apply(self, event: dict) -> None:
        """Apply one feed frame.  ``rows`` events are ingested and
        ``register``/``unregister`` events change the query registry,
        each skipped when the checkpoint already covers it; any other
        discontinuity is fatal.  Other events (deltas meant for
        ordinary subscribers, ``bye``) are ignored."""
        kind = event.get("event")
        if kind == "rows":
            await self._apply_rows(event)
        elif kind == "register":
            self._apply_register(event)
        elif kind == "unregister":
            await self._apply_unregister(event)

    async def _apply_rows(self, event: dict) -> None:
        first = event.get("first_seq")
        now = event.get("now_seq")
        rows = event.get("rows")
        if not isinstance(first, int) or not isinstance(now, int) \
                or not isinstance(rows, list):
            raise ReplicationError(
                f"malformed rows event from the primary: {event!r}"
            )
        ns = self._namespace_for(event, first - 1)
        name, session = ns.name, ns.session
        timestamps = event.get("timestamps")
        decisions = event.get("decisions")
        applied = session.monitor.manager.now_seq
        self._note_lag(ns, now)
        if now <= applied:
            return  # the shipped checkpoint already covered this batch
        if first <= applied:
            # Partial overlap with the checkpoint: drop the covered
            # prefix, apply the rest.  Its ticks no longer line up with
            # the primary's, so every group computes its candidates.
            skip = applied - first + 1
            rows = rows[skip:]
            if timestamps is not None:
                timestamps = timestamps[skip:]
            first = applied + 1
            decisions = None
        if first != applied + 1:
            raise ReplicationError(
                f"replication gap: namespace {name!r} applied up to seq "
                f"{applied} but the next event starts at seq {first}"
            )
        applier = DecisionApplier(session, decisions, len(rows))
        count, now_seq = session.ingest(rows, timestamps=timestamps,
                                        decisions=applier)
        self.events_applied += 1
        self.rows_applied += count
        self.shipped_group_ticks += applier.shipped_group_ticks
        self.computed_group_ticks += applier.computed_group_ticks
        if now_seq != now:
            raise ReplicationError(
                f"replication desync: the primary reached seq {now} "
                f"for namespace {name!r} but this standby reached seq "
                f"{now_seq} applying the same batch"
            )
        deltas = session.drain_deltas()
        if self.delta_log is not None and deltas:
            lines = []
            for delta in deltas:
                entry = {
                    "query": delta.query,
                    "tick": delta.tick,
                    "entered": delta.entered,
                    "left": delta.left,
                    "epoch": session.epoch,
                }
                if not self.registry.open:
                    entry["namespace"] = name
                lines.append(encode_frame(entry))
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                None, _append_lines, self.delta_log, b"".join(lines),
            )
        if self._server is not None:
            await self._server._fan_out_delta_list(ns, deltas)
        self._note_lag(ns, now)

    def _query_change(self, event: dict
                      ) -> tuple[Namespace, dict, Optional[dict]]:
        """Check a ``register``/``unregister`` event; returns its
        namespace, the query's spec, and the spec this standby holds
        under that handle (``None`` when it holds none).  The same
        handle with another spec is fatal."""
        now = event.get("now_seq")
        spec = event.get("query")
        if not isinstance(now, int) \
                or not isinstance(event.get("next_handle"), int) \
                or not isinstance(spec, dict) \
                or not isinstance(spec.get("handle"), str):
            raise ReplicationError(
                f"malformed {event['event']} event from the primary: "
                f"{event!r}"
            )
        ns = self._namespace_for(event, now)
        try:
            held = ns.session.record(spec["handle"]).spec()
        except ProtocolError:
            held = None
        if held is not None and held != spec:
            raise ReplicationError(
                f"handle mismatch: namespace {ns.name!r} holds "
                f"{spec['handle']!r} as {held} but the primary's "
                f"{event['event']} names {spec}"
            )
        return ns, spec, held

    def _apply_register(self, event: dict) -> None:
        """Redo a primary-side ``register`` under the same handle.

        Skipped when the bootstrap checkpoint already holds it: the
        handle is held (with the same spec), or the checkpoint's handle
        counter is already past it (registered and dropped before the
        ship).  A new register at another ``now_seq`` than this
        standby's is fatal.
        """
        ns, spec, held = self._query_change(event)
        session = ns.session
        if held is not None or event["next_handle"] <= session._next_handle:
            return
        now = session.monitor.manager.now_seq
        if event["now_seq"] != now:
            raise ReplicationError(
                f"replication desync: the primary registered "
                f"{spec['handle']!r} in namespace {ns.name!r} at seq "
                f"{event['now_seq']} but this standby is at seq {now}"
            )
        try:
            session.register(spec.get("scoring"), spec.get("k"),
                             spec.get("n"), handle_id=spec["handle"])
        except ProtocolError as exc:
            raise ReplicationError(
                f"cannot mirror the primary's register of "
                f"{spec['handle']!r}: {exc}"
            ) from exc
        session._next_handle = max(session._next_handle,
                                   event["next_handle"])
        self.events_applied += 1

    async def _apply_unregister(self, event: dict) -> None:
        """Redo a primary-side ``unregister``, closing the standby's own
        subscriptions of the query; skipped when the bootstrap
        checkpoint already dropped the handle."""
        ns, spec, held = self._query_change(event)
        if held is None:
            return
        self.events_applied += 1
        await self._server._unregister(ns, spec["handle"])


def connect_standby(
    host: str,
    port: int,
    *,
    audit: Optional[bool] = None,
    recorder=None,
    delta_log: Optional[str] = None,
    timeout: float = 10.0,
    registry: Optional[NamespaceRegistry] = None,
    admin_token: Optional[str] = None,
):
    """Bootstrap a warm standby from a running primary.

    Subscribes to the replication feed *before* requesting the shipped
    checkpoint of every namespace (both on one connection, so the
    primary's event loop serializes them): every change made after the
    snapshot is on the feed, and changes the snapshot already covers
    are skipped by the tailer's overlap checks.

    Every namespace document in the shipped ``states`` map is restored
    and installed into ``registry``, and the returned ``(registry,
    tailer)`` pair — the tailer not yet running — plugs into
    ``ServeServer(registry, role="standby", standby=tailer)``.

    The registry's mode must match the primary's.  A single-tenant
    primary ships its one ``default`` namespace; pass an open registry,
    or none and an open one is built.  A multi-tenant primary (its
    hello carries ``multi_tenant: true``) needs the standby's own
    :class:`NamespaceRegistry`, built from the same tenants file, plus
    the primary's admin token (``replicate`` and ``checkpoint`` are
    admin ops there).  Namespaces born on the primary *after* bootstrap
    are created lazily by the tailer through the registry's session
    factory.
    """
    if registry is None:
        registry = NamespaceRegistry(open_default=True)
    client = ServeClient(host=host, port=port, timeout=timeout)
    try:
        multi = bool((client.hello or {}).get("multi_tenant"))
        if multi and registry.open:
            raise ServeError(
                "the primary is multi-tenant; pass the standby's "
                "namespace registry (and the primary's admin token) "
                "to bootstrap every namespace"
            )
        if not multi and not registry.open:
            raise ServeError(
                "a tenants registry was supplied but the primary is "
                "single-tenant; bootstrap it without one"
            )
        if multi:
            token = admin_token if admin_token is not None \
                else registry.admin_token
            client.auth(token=token, admin=True)
        client.replicate()
        reply = client.checkpoint(ship=True, scope="all")
        states = reply.get("states")
        if not isinstance(states, dict):
            raise ServeError(
                "primary did not ship a per-namespace states map"
            )
        for name in sorted(states):
            state = states[name]
            if not isinstance(state, dict):
                raise ServeError(
                    f"namespace {name!r} shipped a malformed "
                    f"checkpoint state document"
                )
            session = restore_server_monitor(
                state, audit=audit, recorder=recorder,
            )
            if session.namespace != name:
                raise ReplicationError(
                    f"shipped state keyed {name!r} embeds namespace "
                    f"{session.namespace!r} — refusing the "
                    f"misrouted document"
                )
            registry.install(name, session)
    except BaseException:
        client.close()
        raise
    sock, leftover, events = client.detach()
    tailer = StandbyTailer(
        registry,
        sock,
        leftover=leftover,
        pending_events=events,
        delta_log=delta_log,
        primary=f"{host}:{port}",
    )
    return registry, tailer
