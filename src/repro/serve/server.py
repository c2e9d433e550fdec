"""The asyncio TCP server (``repro serve``; protocol in docs/serving.md).

One :class:`ServeServer` owns one :class:`~repro.serve.session.ServerMonitor`
and speaks the NDJSON frame protocol of :mod:`repro.serve.protocol` to
any number of clients.  Design points:

* **single-threaded engine** — every op runs on the event loop, so the
  monitor needs no locking; each ingest op runs as one engine tick over
  all of its rows, serialized exactly like library use; concurrency
  lives in the I/O, not the engine;
* **delta fan-out with bounded queues** — each connection has one
  bounded event queue drained by a writer task.  When a subscriber's
  queue is full the configured backpressure policy decides:
  ``"block"`` (default) awaits queue space, which delays the ingest
  *ack* — producers slow to the slowest subscriber; ``"drop"`` discards
  the delta for that subscriber and marks it *lagged* — the next
  delivered event carries ``"lagged": true`` and the client must resync
  from a ``snapshot``;
* **graceful drain** — SIGINT/SIGTERM (or a ``shutdown`` op) stop the
  acceptor, flush every event queue, send a ``bye`` event and close;
  an optional checkpoint-on-exit persists the window on the way down;
* **observability** — connection/frame/error counters, delta fan-out
  and drop counters, per-op latency histograms, per-subscriber
  queue-depth/drop/lag series and checkpoint timings, all in a
  :class:`~repro.obs.metrics.MetricsRegistry` (shareable with the
  monitor's recorder, exported via the ``stats`` op and the HTTP
  sidecar);
* **request tracing** — a frame carrying a ``trace`` id runs its op
  handler under an ``op:<name>`` span, its ingest tick under a ``tick``
  span, and stamps the id onto every delta it caused (the end-to-end
  story ``/tracez`` tells; see docs/serving.md);
* **flight recorder + sidecar** — recent spans, tick summaries and
  error frames land in a :class:`~repro.obs.flight.FlightRecorder` that
  dumps JSONL on error frames, slow ticks and SIGUSR2; an optional
  :class:`~repro.obs.httpd.ObsHTTPServer` (``--obs-port``) serves
  ``/metrics``, ``/healthz``, ``/varz``, ``/tracez`` and ``/ticks`` on
  the same event loop.

* **multi-tenant namespaces** — given a
  :class:`~repro.serve.tenancy.NamespaceRegistry` (``repro serve
  --tenants``), every connection authenticates into a namespace (the
  ``auth`` op) owning a fully isolated session; per-namespace quotas
  reject with ``quota_exceeded`` frames, and ingest ticks run through a
  :class:`~repro.serve.tenancy.FairMultiplexer` so one tenant cannot
  head-of-line-block the rest.  A single-tenant server is the same code
  path serving one open ``default`` namespace.

Per-subscriber metric series are labelled by peer address with
*bounded* cardinality: at most ``max_peer_labels`` live peers get their
own series (the rest share an ``overflow`` label), and a peer's series
are evicted when it disconnects — label churn no longer grows the
registry without limit.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
from time import perf_counter
from typing import Optional

from repro.exceptions import ProtocolError, ReproError, TenantConfigError
from repro.obs.flight import FlightRecorder, RingLog
from repro.obs.httpd import ObsHTTPServer
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import NULL_SPANS
from repro.serve import checkpoint as checkpoint_module
from repro.serve.decisions import DecisionRecorder
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    OPS,
    PROTOCOL_VERSION,
    RawJSON,
    decode_frame,
    encode_frame,
    error_frame,
    ok_frame,
    trace_of,
)
# Frames carry ``Pair`` lists and ``encode_frame`` serializes them, so
# nothing here calls ``pair_to_wire``; the name stays bound because
# perfbench/launch.py wraps this module's copy when it traces a server.
from repro.serve.protocol import pair_to_wire  # noqa: F401
from repro.serve.session import ServerMonitor
from repro.serve.tenancy import (
    DEFAULT_NAMESPACE,
    FairMultiplexer,
    Namespace,
    NamespaceRegistry,
    load_tenants_file,
)

__all__ = ["BACKPRESSURE_POLICIES", "ROLES", "BackgroundServer",
           "ServeServer"]

BACKPRESSURE_POLICIES = ("block", "drop")

#: a server is either the ingest authority or a warm standby tailing one
#: (docs/serving.md, failover runbook).  A standby rejects ``ingest``
#: with ``not_primary`` until a ``promote`` op flips its role.
ROLES = ("primary", "standby")

#: per-ingest tick summaries the ``/ticks`` stream keeps
TICKS_CAPACITY = 256

#: seconds a closing connection's writer task gets to drain its queue,
#: and :meth:`ServeServer.stop` gives connection handlers to finish
#: their own close
CLOSE_TIMEOUT = 5.0

_CLOSE = object()  # event-queue sentinel terminating a writer task

#: what a lagged subscriber's delta frame ends with in place of ``}\n``
_LAGGED_TAIL = b',"lagged":true}\n'


class _Connection:
    """Per-connection state: writer, subscriptions, event queue."""

    __slots__ = ("reader", "writer", "events", "subscriptions", "lagged",
                 "pump", "name", "namespace", "admin", "metrics_label")

    def __init__(self, reader, writer, queue_depth: int) -> None:
        self.reader = reader
        self.writer = writer
        #: bounded per-subscriber queue (the backpressure boundary)
        self.events: asyncio.Queue = asyncio.Queue(maxsize=queue_depth)
        #: query handles this connection subscribed to
        self.subscriptions: set[str] = set()
        #: queries whose deltas were dropped since the last delivery
        self.lagged: set[str] = set()
        self.pump: Optional[asyncio.Task] = None
        peer = writer.get_extra_info("peername")
        self.name = f"{peer[0]}:{peer[1]}" if peer else "?"
        #: the namespace this connection authenticated into (pre-set to
        #: the default namespace on single-tenant servers; ``None``
        #: until a successful ``auth`` op on multi-tenant ones)
        self.namespace: Optional[Namespace] = None
        #: authenticated with the file-level admin token (pre-set on
        #: single-tenant servers, where every connection is admin)
        self.admin = False
        #: the per-peer metric label this connection resolved to
        #: (``None`` until first use; ``"overflow"`` past the cap)
        self.metrics_label: Optional[str] = None


class ServeServer:
    """Asyncio TCP server publishing top-k pair answers and deltas.

    ``tenants`` is the :class:`NamespaceRegistry` holding every session
    the server serves; a bare :class:`ServerMonitor` is wrapped as an
    open single-tenant registry (:meth:`NamespaceRegistry.single`).
    """

    def __init__(
        self,
        tenants: NamespaceRegistry | ServerMonitor,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        backpressure: str = "block",
        queue_depth: int = 64,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        checkpoint_dir: Optional[str] = None,
        registry: Optional[MetricsRegistry] = None,
        spans=None,
        flight: Optional[FlightRecorder] = None,
        obs_port: Optional[int] = None,
        obs_host: str = "127.0.0.1",
        role: str = "primary",
        standby=None,
        max_peer_labels: int = 64,
        mux_pending: int = 4,
    ) -> None:
        if backpressure not in BACKPRESSURE_POLICIES:
            raise ProtocolError(
                "bad_request",
                f"backpressure must be one of {BACKPRESSURE_POLICIES}, "
                f"got {backpressure!r}",
            )
        if queue_depth < 1:
            raise ProtocolError(
                "bad_request", f"queue_depth must be >= 1, got {queue_depth}"
            )
        if role not in ROLES:
            raise ProtocolError(
                "bad_request", f"role must be one of {ROLES}, got {role!r}"
            )
        if standby is not None and role != "standby":
            raise ProtocolError(
                "bad_request", "a standby tailer requires role='standby'"
            )
        if max_peer_labels < 1:
            raise ProtocolError(
                "bad_request",
                f"max_peer_labels must be >= 1, got {max_peer_labels}",
            )
        if isinstance(tenants, ServerMonitor):
            tenants = NamespaceRegistry.single(tenants)
        #: the namespace registry.  An open one is single-tenant mode:
        #: one ``default`` namespace, no auth, no quotas, no multiplexer
        #: hop — the same code path otherwise.
        self.tenants: NamespaceRegistry = tenants
        #: fair round-robin tick scheduler (multi-tenant only)
        self.mux: Optional[FairMultiplexer] = (
            None if tenants.open
            else FairMultiplexer(max_pending=mux_pending, spawn=self._spawn)
        )
        self.max_peer_labels = max_peer_labels
        self.role = role
        #: the :class:`~repro.serve.standby.StandbyTailer` feeding this
        #: server's registry (standbys only); started with the server
        #: and stopped by ``promote`` or shutdown.
        self.standby = standby
        self.host = host
        self.port = port
        self.backpressure = backpressure
        self.queue_depth = queue_depth
        self.max_frame_bytes = max_frame_bytes
        self.checkpoint_dir = checkpoint_dir
        if tenants.open:
            # A registry that can neither hold nor build the open
            # namespace fails here, not on every connection.  Its
            # session's span recorder is adopted when no explicit one is
            # given, so op spans and engine tick spans share a single
            # ring (never test recorder truthiness — an *empty* ring is
            # falsy).
            default = tenants.namespace(DEFAULT_NAMESPACE)
            if spans is None:
                spans = default.session.spans
        self.spans = spans if spans is not None else NULL_SPANS
        self.flight = flight
        self.obs_port = obs_port
        self.obs_host = obs_host
        self.obs: Optional[ObsHTTPServer] = None
        #: recent per-ingest tick summaries (the ``/ticks`` stream)
        self.ticks = RingLog(TICKS_CAPACITY)
        self._last_tick_at: Optional[float] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set[_Connection] = set()
        #: running connection handler tasks; a handler leaves
        #: ``_connections`` as soon as its own close starts, so stop()
        #: waits on these instead
        self._handlers: set[asyncio.Task] = set()
        #: subscribers keyed by ``(namespace, query_handle)`` — query
        #: handles are only unique within one namespace's registry
        self._subscribers: dict[tuple[str, str], set[_Connection]] = {}
        #: connections registered via ``replicate`` (warm standbys);
        #: every ingested batch and query registry change is mirrored to
        #: them as a feed event
        self._replicas: set[_Connection] = set()
        self._stopping = False
        self._stopped = asyncio.Event()
        #: strong references to background tasks (pumps, shutdown);
        #: without them a task can be garbage-collected mid-flight and
        #: its exception silently dropped
        self._background: set[asyncio.Task] = set()
        # -- metrics ---------------------------------------------------
        r = registry if registry is not None else MetricsRegistry()
        self.registry = r
        self._m_connections = r.counter(
            "repro_serve_connections_total", "client connections accepted"
        )
        self._m_active = r.gauge(
            "repro_serve_active_connections", "currently open connections"
        )
        self._m_frames = r.counter(
            "repro_serve_frames_total", "request frames handled, by op",
            labelnames=("op",),
        )
        self._m_errors = r.counter(
            "repro_serve_errors_total", "error frames sent, by code",
            labelnames=("code",),
        )
        self._m_ingested = r.counter(
            "repro_serve_ingested_rows_total", "rows admitted via ingest ops"
        )
        self._m_deltas = r.counter(
            "repro_serve_deltas_sent_total",
            "subscription delta events enqueued to subscribers",
        )
        self._m_dropped = r.counter(
            "repro_serve_deltas_dropped_total",
            "delta events discarded by the drop backpressure policy",
        )
        self._m_replicated = r.counter(
            "repro_serve_replicated_rows_total",
            "rows mirrored to replication subscribers",
        )
        self._m_subscribers = r.gauge(
            "repro_serve_subscribers", "active (connection, query) "
            "subscriptions"
        )
        self._m_queue_depth = r.gauge(
            "repro_serve_event_queue_depth",
            "deepest per-subscriber event queue at the last fan-out",
        )
        self._m_checkpoint_seconds = r.histogram(
            "repro_serve_checkpoint_seconds",
            "wall seconds per checkpoint save",
        )
        self._m_task_errors = r.counter(
            "repro_serve_task_errors_total",
            "background tasks (pumps, shutdown) that died on an "
            "unhandled exception",
        )
        self._m_op_seconds = r.histogram(
            "repro_serve_op_seconds",
            "request handling seconds, by op (validation to response)",
            labelnames=("op",),
        )
        self._m_sub_queue = r.gauge(
            "repro_serve_subscriber_queue_depth",
            "event-queue depth per subscriber at the last fan-out",
            labelnames=("peer",),
        )
        self._m_sub_drops = r.counter(
            "repro_serve_subscriber_dropped_total",
            "delta events dropped per subscriber (drop policy)",
            labelnames=("peer",),
        )
        self._m_sub_lagged = r.gauge(
            "repro_serve_subscriber_lagged_queries",
            "queries currently marked lagged per subscriber",
            labelnames=("peer",),
        )
        self._m_ns_ingested = r.counter(
            "repro_serve_ns_ingested_rows_total",
            "rows admitted per namespace",
            labelnames=("ns",),
        )
        self._m_ns_deltas = r.counter(
            "repro_serve_ns_deltas_sent_total",
            "delta events enqueued per namespace",
            labelnames=("ns",),
        )
        self._m_ns_quota = r.counter(
            "repro_serve_ns_quota_rejections_total",
            "requests rejected (or cut short) by a namespace quota",
            labelnames=("ns", "quota"),
        )
        self._m_ns_queries = r.gauge(
            "repro_serve_ns_queries",
            "registered continuous queries per namespace",
            labelnames=("ns",),
        )
        self._m_ns_window = r.gauge(
            "repro_serve_ns_window_objects",
            "objects currently in the window per namespace",
            labelnames=("ns",),
        )
        self._m_auth_failures = r.counter(
            "repro_serve_auth_failures_total",
            "rejected auth attempts (namespace or admin)",
        )
        self._m_tenant_reloads = r.counter(
            "repro_serve_tenant_reloads_total",
            "tenants-file hot reloads, by outcome",
            labelnames=("outcome",),
        )

    # ------------------------------------------------------------------
    # background tasks
    # ------------------------------------------------------------------
    def _spawn(self, coro) -> asyncio.Task:
        """Run a coroutine in the background *accountably*: the task is
        strongly referenced until done, and its exception — if any — is
        retrieved and counted instead of rotting unobserved."""
        task = asyncio.ensure_future(coro)
        self._background.add(task)
        task.add_done_callback(self._reap_background)
        return task

    def _reap_background(self, task: asyncio.Task) -> None:
        self._background.discard(task)
        if task.cancelled():
            return
        exc = task.exception()
        if exc is not None:
            self._m_task_errors.inc()

    # ------------------------------------------------------------------
    # tenancy helpers
    # ------------------------------------------------------------------
    def _require_namespace(self, conn: _Connection) -> Namespace:
        """The namespace this connection operates in; ``unauthorized``
        when a multi-tenant connection has not authenticated yet."""
        if conn.namespace is None:
            raise ProtocolError(
                "unauthorized",
                "authenticate first: send {\"op\": \"auth\", "
                "\"namespace\": ..., \"token\": ...}",
            )
        return conn.namespace

    def _require_admin(self, conn: _Connection, what: str) -> None:
        if not conn.admin:
            raise ProtocolError(
                "unauthorized",
                f"{what} needs admin authentication "
                f"({{\"op\": \"auth\", \"admin\": true, ...}})",
            )

    def _quota_reject(self, ns: Namespace, quota: str,
                      message: str, **details) -> ProtocolError:
        """Count a quota rejection and build its error (caller raises
        or sends it; ``details`` land under ``error.details``)."""
        self._m_ns_quota.labels(ns.name, quota).inc()
        exc = ProtocolError("quota_exceeded", message)
        exc.details = {"quota": quota, **details}
        return exc

    @staticmethod
    def _seq_state(ns: Namespace) -> dict:
        return {"epoch": ns.session.epoch,
                "now_seq": ns.session.monitor.manager.now_seq}

    def _namespace_states(self, *, detail: bool = False,
                          limit: Optional[int] = None) -> dict:
        """The fencing epoch and sequence number of every namespace:
        flat ``epoch``/``now_seq`` fields on a single-tenant server, a
        ``namespaces`` map otherwise.  ``detail`` adds each namespace's
        window size and query count; past ``limit`` entries the rest
        are only counted, as ``namespaces_truncated``."""
        if self.tenants.open:
            return self._seq_state(self.tenants.get(DEFAULT_NAMESPACE))
        namespaces: dict[str, dict] = {}
        truncated = 0
        for ns in self.tenants.namespaces():
            if limit is not None and len(namespaces) >= limit:
                truncated += 1
                continue
            entry = namespaces[ns.name] = self._seq_state(ns)
            if detail:
                entry["window_size"] = len(ns.session.monitor.manager)
                entry["queries"] = len(ns.session.queries())
        state: dict = {"namespaces": namespaces}
        if truncated:
            state["namespaces_truncated"] = truncated
        return state

    def _refresh_ns_gauges(self, ns: Namespace) -> None:
        self._m_ns_queries.labels(ns.name).set(len(ns.session.queries()))
        self._m_ns_window.labels(ns.name).set(
            len(ns.session.monitor.manager)
        )

    # ------------------------------------------------------------------
    # per-peer metric labels (bounded cardinality)
    # ------------------------------------------------------------------
    def _peer_label(self, conn: _Connection) -> str:
        """The metric label for one peer: its address while fewer than
        ``max_peer_labels`` peers hold live series, the shared
        ``overflow`` label beyond — so churning peers cannot grow the
        label space without bound."""
        if conn.metrics_label is None:
            if (conn.name in self._m_sub_queue
                    or len(self._m_sub_queue) < self.max_peer_labels):
                conn.metrics_label = conn.name
            else:
                conn.metrics_label = "overflow"
        return conn.metrics_label

    def _evict_peer_labels(self, conn: _Connection) -> None:
        """Drop a disconnected peer's metric series (the ``overflow``
        aggregate stays; so do the unlabelled totals)."""
        label = conn.metrics_label
        if label is None or label == "overflow":
            return
        self._m_sub_queue.remove(label)
        self._m_sub_drops.remove(label)
        self._m_sub_lagged.remove(label)
        conn.metrics_label = None

    # ------------------------------------------------------------------
    # tenants-file hot reload (SIGHUP)
    # ------------------------------------------------------------------
    async def reload_tenants(self) -> list[str]:
        """Re-read the tenants file and apply it; returns the names of
        namespaces whose connections were closed (revoked/removed).

        A malformed file keeps the old config — a typo in a SIGHUP edit
        must not take the server down.  Driven by SIGHUP in ``repro
        serve``; callable directly (tests, embeddings).
        """
        if self.tenants.path is None:
            return []
        loop = asyncio.get_running_loop()
        try:
            specs, admin_token = await loop.run_in_executor(
                None, load_tenants_file, self.tenants.path
            )
        except TenantConfigError:
            self._m_tenant_reloads.labels("error").inc()
            return []
        stale = set(self.tenants.reload(specs, admin_token))
        self._m_tenant_reloads.labels("ok").inc()
        if not stale:
            return []
        evicted = [
            conn for conn in list(self._connections)
            if conn.namespace is not None
            and conn.namespace.name in stale
        ]
        bye = encode_frame({"event": "bye", "reason": "unauthorized"})
        for conn in evicted:
            await self._close_connection(conn, farewell=bye)
        return sorted(stale)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting; resolves :attr:`port` when 0.

        When :attr:`obs_port` is set the telemetry HTTP sidecar starts
        on the same event loop, sharing the server's registry, span
        ring, flight recorder and tick log.
        """
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=self.max_frame_bytes,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.obs_port is not None:
            self.obs = ObsHTTPServer(
                registry=self.registry,
                spans=self.spans,
                flight=self.flight,
                ticks=self.ticks,
                health=self._health_probe,
                host=self.obs_host,
                port=self.obs_port,
            )
            self.obs_port = await self.obs.start()
        if self.standby is not None:
            # The tailer shares the event loop with the op handlers, so
            # replication applies serialize with reads exactly like
            # primary-side ingests do.
            self.standby.attach(self)
            self._spawn(self.standby.run())

    async def serve_until_stopped(self) -> None:
        """Run until :meth:`stop` completes (signal, op, or caller)."""
        if self._server is None:
            await self.start()
        await self._stopped.wait()

    def install_signal_handlers(self) -> None:
        """Graceful SIGINT/SIGTERM drain (best-effort on platforms or
        loops that do not support signal handlers)."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum, lambda: self._spawn(self.stop())
                )
            except (NotImplementedError, RuntimeError):
                return
        # SIGUSR2 = operator-requested flight dump (forced past the rate
        # limit); absent on platforms without user signals.
        sigusr2 = getattr(signal, "SIGUSR2", None)
        if sigusr2 is not None and self.flight is not None:
            try:
                loop.add_signal_handler(
                    sigusr2,
                    lambda: self._maybe_dump("sigusr2", force=True),
                )
            except (NotImplementedError, RuntimeError):
                pass
        # SIGHUP = hot-reload the tenants file (multi-tenant only).
        sighup = getattr(signal, "SIGHUP", None)
        if sighup is not None and self.tenants.path is not None:
            try:
                loop.add_signal_handler(
                    sighup, lambda: self._spawn(self.reload_tenants())
                )
            except (NotImplementedError, RuntimeError):
                pass

    async def stop(self) -> None:
        """Drain and shut down: stop accepting, flush every subscriber
        queue, say ``bye``, close all connections."""
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        if self.mux is not None:
            self.mux.stop()
        if self.standby is not None:
            self.standby.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        bye = encode_frame({"event": "bye", "reason": "shutdown"})
        for conn in list(self._connections):
            await self._close_connection(conn, farewell=bye)
        # A handler whose peer hung up first may still be inside its own
        # _close_connection; stopping under it would let the loop's
        # teardown cancel it mid-close.
        if self._handlers:
            await asyncio.wait(list(self._handlers), timeout=CLOSE_TIMEOUT)
        if self.obs is not None:
            await self.obs.stop()
        self._stopped.set()

    async def _close_connection(self, conn: _Connection,
                                farewell: Optional[bytes] = None) -> None:
        if conn not in self._connections:
            return
        self._connections.discard(conn)
        self._replicas.discard(conn)
        for query in conn.subscriptions:
            key = (conn.namespace.name, query)
            subscribers = self._subscribers.get(key)
            if subscribers is not None:
                subscribers.discard(conn)
                if not subscribers:
                    del self._subscribers[key]
        self._m_subscribers.dec(len(conn.subscriptions))
        if conn.namespace is not None:
            conn.namespace.subscriptions -= len(conn.subscriptions)
        conn.subscriptions.clear()
        self._evict_peer_labels(conn)
        self._m_active.dec()
        if conn.pump is not None:
            # Let the pump drain what is already queued, then stop it.
            try:
                await asyncio.wait_for(conn.events.put(_CLOSE),
                                       timeout=CLOSE_TIMEOUT)
            except asyncio.TimeoutError:
                conn.pump.cancel()
            try:
                await conn.pump
            except asyncio.CancelledError:
                pass
            except Exception:
                # A pump that died on a bug was already counted by the
                # _spawn done-callback; its failure must not also abort
                # the reader's cleanup path.
                pass
        try:
            if farewell is not None:
                conn.writer.write(farewell)
            conn.writer.close()
            await conn.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        handler = asyncio.current_task()
        self._handlers.add(handler)
        handler.add_done_callback(self._handlers.discard)
        conn = _Connection(reader, writer, self.queue_depth)
        if self.tenants.open:
            # Single-tenant: every connection implicitly operates in
            # the open default namespace with admin rights (the
            # pre-tenancy contract, unchanged on the wire).
            conn.namespace = self.tenants.get(DEFAULT_NAMESPACE)
            conn.admin = True
        self._connections.add(conn)
        self._m_connections.inc()
        self._m_active.inc()
        conn.pump = self._spawn(self._event_pump(conn))
        hello = {
            "event": "hello",
            "protocol": PROTOCOL_VERSION,
            "backpressure": self.backpressure,
            "queue_depth": self.queue_depth,
            "role": self.role,
            "multi_tenant": not self.tenants.open,
        }
        if conn.namespace is not None:
            hello["epoch"] = conn.namespace.session.epoch
        writer.write(encode_frame(hello))
        try:
            while not self._stopping:
                try:
                    line = await reader.readline()
                except ValueError:
                    # The frame outgrew the reader limit; the byte stream
                    # can no longer be resynchronized -> error and close.
                    self._send(conn, error_frame(
                        "frame_too_large",
                        f"frame exceeds {self.max_frame_bytes} bytes",
                    ))
                    self._m_errors.labels("frame_too_large").inc()
                    break
                if not line.endswith(b"\n"):
                    # EOF; a non-empty remainder is a mid-frame
                    # disconnect and is discarded silently.
                    break
                await self._handle_line(conn, line)
        except (ConnectionError, OSError):
            pass  # peer vanished; cleanup below
        finally:
            await self._close_connection(conn)

    async def _handle_line(self, conn: _Connection, line: bytes) -> None:
        if not line.strip():
            return  # blank keep-alive lines are ignored
        try:
            frame = decode_frame(line)
        except ProtocolError as exc:
            self._send_error(conn, exc.code, str(exc))
            return
        request_id = frame.get("id")
        op = frame.get("op")
        if not isinstance(op, str):
            self._send_error(conn, "bad_frame",
                             "frame must carry an 'op' string",
                             request_id=request_id)
            return
        if op not in OPS:
            self._send_error(conn, "unknown_op",
                             f"unknown op {op!r}; expected one of {OPS}",
                             request_id=request_id, op=op)
            return
        if self._stopping and op != "shutdown":
            self._send_error(conn, "shutting_down",
                             "server is draining; op rejected",
                             request_id=request_id, op=op)
            return
        self._m_frames.labels(op).inc()
        handler = getattr(self, f"_op_{op}")
        span = None
        if self.spans.enabled:
            trace = frame.get("trace")
            if isinstance(trace, str) and trace:
                # The op span opens even for a trace id the handler will
                # later reject — a failed traced request must still show
                # up in /tracez.
                span = self.spans.span(f"op:{op}", trace=trace,
                                       op=op, peer=conn.name)
        started = perf_counter()
        try:
            await handler(conn, frame, request_id)
        except ProtocolError as exc:
            if span is not None:
                span.attrs["error"] = exc.code
            self._send_error(conn, exc.code, str(exc),
                             request_id=request_id, op=op,
                             details=getattr(exc, "details", None))
        except ReproError as exc:
            if span is not None:
                span.attrs["error"] = "bad_request"
            self._send_error(conn, "bad_request", str(exc),
                             request_id=request_id, op=op)
        except (ConnectionError, OSError):
            raise
        except Exception as exc:  # the server must never die on a frame
            if span is not None:
                span.attrs["error"] = "internal"
            self._send_error(conn, "internal",
                             f"{type(exc).__name__}: {exc}",
                             request_id=request_id, op=op)
        finally:
            self._m_op_seconds.labels(op).observe(perf_counter() - started)
            if span is not None:
                span.finish()

    def _send(self, conn: _Connection, frame: dict) -> None:
        conn.writer.write(encode_frame(frame))

    def _send_error(self, conn: _Connection, code: str, message: str,
                    *, request_id=None, op: Optional[str] = None,
                    details: Optional[dict] = None) -> None:
        self._m_errors.labels(code).inc()
        if code == "unauthorized":
            self._m_auth_failures.inc()
        if self.flight is not None:
            self.flight.record_error(code, message, op=op, peer=conn.name)
            self._maybe_dump(f"error_{code}")
        self._send(conn, error_frame(code, message, request_id=request_id,
                                     op=op, details=details))

    # ------------------------------------------------------------------
    # flight recorder + health
    # ------------------------------------------------------------------
    def _maybe_dump(self, reason: str, *, force: bool = False) -> None:
        """Kick off a flight-recorder dump in the background (subject to
        the recorder's rate limit unless ``force``)."""
        if self.flight is None:
            return
        path = self.flight.plan_dump(reason, force=force)
        if path is not None:
            self._spawn(self._write_flight_dump(path, reason))

    async def _write_flight_dump(self, path: str, reason: str) -> None:
        # Blocking file I/O leaves the loop, same as checkpoint writes.
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.flight.dump, path, reason)

    def _health_probe(self) -> dict:
        """The ``/healthz`` payload (cheap, synchronous).

        Single-tenant keys are unchanged from pre-tenancy servers;
        multi-tenant probes add a bounded per-namespace breakdown
        (at most 32 namespaces listed, totals always exact).
        """
        last = self._last_tick_at
        namespaces = list(self.tenants.namespaces())
        payload = {
            "protocol": PROTOCOL_VERSION,
            "role": self.role,
            "window_size": sum(
                len(ns.session.monitor.manager) for ns in namespaces
            ),
            "last_tick_age_seconds": (
                perf_counter() - last if last is not None else None
            ),
            "connections": len(self._connections),
            "subscribers": sum(
                len(s) for s in self._subscribers.values()
            ),
            "queries": sum(len(ns.session.queries()) for ns in namespaces),
        }
        if not self.tenants.open:
            payload["multi_tenant"] = True
        payload.update(self._namespace_states(detail=True, limit=32))
        return payload

    # ------------------------------------------------------------------
    # event fan-out
    # ------------------------------------------------------------------
    async def _event_pump(self, conn: _Connection) -> None:
        """Single writer task draining one connection's event queue.

        After a write failure the pump keeps *consuming* (and
        discarding) frames until the close sentinel arrives — a blocked
        producer awaiting queue space on a dead connection must never
        hang the ingest path.
        """
        failed = False
        while True:
            frame = await conn.events.get()
            if frame is _CLOSE:
                return
            if failed:
                continue
            try:
                conn.writer.write(frame)
                await conn.writer.drain()
            except (ConnectionError, OSError):
                failed = True  # reader side will clean the connection up

    async def _fan_out_deltas(self, ns: Namespace) -> int:
        """Deliver one namespace's pending answer deltas to its
        subscribers; returns the number of delta events enqueued.

        Under the ``block`` policy this awaits queue space, so the
        caller's ingest ack is delayed until every subscriber queue took
        the delta; under ``drop`` the delta is discarded and the
        subscriber marked lagged.
        """
        return await self._fan_out_delta_list(ns, ns.session.drain_deltas())

    async def _fan_out_delta_list(self, ns: Namespace, deltas) -> int:
        """Enqueue an already-drained delta list to ``ns``'s subscribers
        (the standby tailer drains deltas itself so it can journal them,
        then hands them here).  Each delta is encoded once, whatever the
        subscriber count."""
        if not deltas:
            return 0
        enqueued = 0
        deepest = 0
        for delta in deltas:
            subscribers = self._subscribers.get((ns.name, delta.query))
            if not subscribers:
                continue
            event = {
                "event": "delta",
                "query": delta.query,
                "tick": delta.tick,
                "entered": delta.entered,
                "left": delta.left,
            }
            if delta.trace is not None:
                event["trace"] = delta.trace
            encoded = encode_frame(event)
            for conn in list(subscribers):
                payload = encoded
                if delta.query in conn.lagged:
                    # ``lagged`` is the frame's last key: splice it in
                    # before the closing brace instead of re-encoding.
                    payload = encoded[:-2] + _LAGGED_TAIL
                if self.backpressure == "block":
                    # Bookkeeping precedes the await: the frame above
                    # already consumed the lagged flag, and no other
                    # handler may observe it half-updated while this
                    # one waits for queue space.
                    conn.lagged.discard(delta.query)
                    await conn.events.put(payload)
                    self._m_deltas.inc()
                    enqueued += 1
                else:
                    try:
                        conn.events.put_nowait(payload)
                    except asyncio.QueueFull:
                        conn.lagged.add(delta.query)
                        self._m_dropped.inc()
                        self._m_sub_drops.labels(
                            self._peer_label(conn)
                        ).inc()
                    else:
                        conn.lagged.discard(delta.query)
                        self._m_deltas.inc()
                        enqueued += 1
                deepest = max(deepest, conn.events.qsize())
                label = self._peer_label(conn)
                self._m_sub_queue.labels(label).set(conn.events.qsize())
                self._m_sub_lagged.labels(label).set(len(conn.lagged))
        self._m_queue_depth.set(deepest)
        if enqueued:
            self._m_ns_deltas.labels(ns.name).inc(enqueued)
        return enqueued

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    def _require_primary(self, op: str) -> None:
        """Writes (ingest, register, unregister) belong to the primary;
        a standby takes them from the replication feed only."""
        if self.role != "primary":
            raise ProtocolError(
                "not_primary",
                f"this server is a standby; {op} on the primary or "
                "promote this server first",
            )

    async def _op_ingest(self, conn, frame, request_id) -> None:
        self._require_primary("ingest")
        ns = self._require_namespace(conn)
        rows = frame.get("rows")
        if not isinstance(rows, list):
            raise ProtocolError("bad_request",
                                "ingest needs a 'rows' list")
        timestamps = frame.get("timestamps")
        if timestamps is not None and not isinstance(timestamps, list):
            raise ProtocolError("bad_request",
                                "'timestamps' must be a list when present")
        # The whole batch is checked before any quota token is spent or
        # any row enters the stream: a bad row rejects it atomically.
        ns.session.check_batch(rows, timestamps)
        trace = trace_of(frame)
        requested = len(rows)
        granted = ns.grant(requested)
        if granted < requested:
            # Partial grant: admit exactly the affordable prefix, then
            # report the cut — Monitor.extend semantics on the wire
            # (the 'ingested' detail really entered the stream).
            rows = rows[:granted]
            if timestamps is not None:
                timestamps = timestamps[:granted]
        if granted:
            count, now_seq, deltas = await self._run_tick(
                ns, rows, timestamps, trace,
            )
        else:
            count = deltas = 0
            now_seq = ns.session.monitor.manager.now_seq
        if granted < requested:
            raise self._quota_reject(
                ns, "ingest_rows_per_sec",
                f"ingest rate quota: {requested} rows requested, "
                f"{count} admitted",
                requested=requested, ingested=count, now_seq=now_seq,
            )
        ack = ok_frame("ingest", request_id, ingested=count,
                       now_seq=now_seq, deltas=deltas)
        if trace is not None:
            ack["trace"] = trace
        self._send(conn, ack)

    async def _run_tick(self, ns: Namespace, rows, timestamps, trace
                        ) -> tuple[int, int, int]:
        """One engine tick in ``ns``'s scheduling lane.

        Multi-tenant servers route through the fair multiplexer (round
        robin over ready namespaces, one in-flight tick per namespace);
        single-tenant servers call straight through — identical
        semantics, no scheduling hop.
        """
        if self.mux is None:
            return await self._ingest_tick(ns, rows, timestamps, trace)
        result = await self.mux.submit(
            ns.name,
            lambda: self._ingest_tick(ns, rows, timestamps, trace),
        )
        return result

    async def _ingest_tick(self, ns: Namespace, rows, timestamps, trace
                           ) -> tuple[int, int, int]:
        """Ingest + replicate + fan out one batch; returns
        ``(count, now_seq, delta_events)``."""
        started = perf_counter()
        # Standbys merge the primary's skyband decisions instead of
        # re-running candidate generation, so they are recorded while
        # any replica listens (docs/serving.md, "Warm standbys").
        decisions = DecisionRecorder(ns.session) if self._replicas else None
        count, now_seq = ns.session.ingest(
            rows, timestamps=timestamps, trace=trace, decisions=decisions,
        )
        self._m_ingested.inc(count)
        self._m_ns_ingested.labels(ns.name).inc(count)
        if count > 0 and decisions is not None:
            await self._replicate(ns, {
                "event": "rows",
                "first_seq": now_seq - count + 1,
                "rows": [list(row) for row in rows],
                "timestamps": (list(timestamps)
                               if timestamps is not None else None),
                "decisions": decisions.ticks,
            }, count)
        deltas = await self._fan_out_deltas(ns)
        elapsed = perf_counter() - started
        tick_record = {"tick": now_seq, "rows": count,
                       "deltas": deltas, "seconds": elapsed}
        if not self.tenants.open:
            tick_record["ns"] = ns.name
        if trace is not None:
            tick_record["trace"] = trace
        self.ticks.append(tick_record)
        self._last_tick_at = perf_counter()
        self._refresh_ns_gauges(ns)
        if self.flight is not None:
            self.flight.record_tick(tick_record)
            if self.flight.is_slow_tick(elapsed):
                self._maybe_dump("slow_tick")
        return count, now_seq, deltas

    async def _replicate(self, ns: Namespace, event: dict,
                         rows: int = 0) -> None:
        """Mirror one change in ``ns`` to every replication subscriber:
        an admitted batch (``rows``) or a query registry change
        (``register``/``unregister``).  The event is stamped with the
        namespace, its epoch and its ``now_seq``.  Callers test
        ``self._replicas`` first, so a primary without standbys builds
        no payload.

        Replication always *blocks* for queue space regardless of the
        delta backpressure policy: a standby that missed an event would
        hit a sequence gap or a handle mismatch and die, so losslessness
        beats latency here.  The op's ack therefore waits until every
        replica queue took the event — same contract as the ``block``
        delta policy.
        """
        event.update(namespace=ns.name, **self._seq_state(ns))
        payload = encode_frame(event)
        for replica in list(self._replicas):
            await replica.events.put(payload)
            self._m_replicated.inc(rows)

    async def _op_auth(self, conn, frame, request_id) -> None:
        """Authenticate this connection into a namespace (or as admin).

        Multi-tenant only; a single-tenant server rejects the op — its
        connections already own the open default namespace.
        """
        if self.tenants.open:
            raise ProtocolError(
                "bad_request", "this server has no tenants configured"
            )
        if frame.get("admin"):
            self.tenants.authenticate_admin(frame.get("token"))
            conn.admin = True
            self._send(conn, ok_frame("auth", request_id, admin=True,
                                      role=self.role))
            return
        name = frame.get("namespace")
        self.tenants.authenticate(name, frame.get("token"))
        ns = self.tenants.namespace(name)
        conn.namespace = ns
        self._send(conn, ok_frame("auth", request_id, namespace=ns.name,
                                  **self._seq_state(ns)))

    async def _op_register(self, conn, frame, request_id) -> None:
        self._require_primary("register")
        ns = self._require_namespace(conn)
        max_queries = ns.spec.quotas.max_queries
        if max_queries is not None \
                and len(ns.session.queries()) >= max_queries:
            raise self._quota_reject(
                ns, "max_queries",
                f"namespace {ns.name!r} already has {max_queries} "
                f"registered queries",
                limit=max_queries,
            )
        handle_id = ns.session.register(
            frame.get("scoring"), frame.get("k"), frame.get("n"),
        )
        self._refresh_ns_gauges(ns)
        if self._replicas:
            # The standby redoes the registration (and the group
            # bootstrap) at the same point of the feed, under the same
            # handle.
            await self._replicate(ns, {
                "event": "register",
                "query": ns.session.record(handle_id).spec(),
                "next_handle": ns.session._next_handle,
            })
        self._send(conn, ok_frame("register", request_id, query=handle_id))

    async def _op_unregister(self, conn, frame, request_id) -> None:
        self._require_primary("unregister")
        ns = self._require_namespace(conn)
        handle_id = frame.get("query")
        await self._unregister(ns, handle_id)
        self._send(conn, ok_frame("unregister", request_id,
                                  query=handle_id))

    async def _unregister(self, ns: Namespace, handle_id) -> None:
        """Drop a query and close its subscriptions (the ``unregister``
        op, and a standby applying the primary's unregister)."""
        spec = ns.session.record(handle_id).spec()  # raises unknown_query
        ns.session.unregister(handle_id)
        # Subscribers of a query that just vanished get a closed event
        # (subscribe-then-unregister must not strand them waiting).
        subscribers = self._subscribers.pop((ns.name, handle_id), set())
        closed = encode_frame({"event": "closed", "query": handle_id})
        # All registry bookkeeping completes before the first await so
        # a handler scheduled at the put() below never sees a
        # half-unregistered query.
        for subscriber in subscribers:
            subscriber.subscriptions.discard(handle_id)
            subscriber.lagged.discard(handle_id)
            self._m_subscribers.dec()
        ns.subscriptions -= len(subscribers)
        self._refresh_ns_gauges(ns)
        if self.role == "primary" and self._replicas:
            await self._replicate(ns, {
                "event": "unregister",
                "query": spec,
                "next_handle": ns.session._next_handle,
            })
        for subscriber in subscribers:
            await subscriber.events.put(closed)

    async def _op_snapshot(self, conn, frame, request_id) -> None:
        ns = self._require_namespace(conn)
        handle_id = frame.get("query")
        if handle_id is not None:
            answer = ns.session.results(handle_id)
        else:
            answer = ns.session.snapshot(
                frame.get("scoring"), frame.get("k"), frame.get("n"),
            )
        self._send(conn, ok_frame(
            "snapshot", request_id,
            tick=ns.session.monitor.manager.now_seq,
            answer=answer,
        ))

    async def _op_subscribe(self, conn, frame, request_id) -> None:
        ns = self._require_namespace(conn)
        handle_id = frame.get("query")
        record = ns.session.record(handle_id)  # raises unknown_query
        if handle_id not in conn.subscriptions:
            max_subscribers = ns.spec.quotas.max_subscribers
            if max_subscribers is not None \
                    and ns.subscriptions >= max_subscribers:
                raise self._quota_reject(
                    ns, "max_subscribers",
                    f"namespace {ns.name!r} already has "
                    f"{max_subscribers} active subscriptions",
                    limit=max_subscribers,
                )
            conn.subscriptions.add(handle_id)
            self._subscribers.setdefault(
                (ns.name, handle_id), set()
            ).add(conn)
            ns.subscriptions += 1
            self._m_subscribers.inc()
        # The baseline answer ships in the ack: deltas replayed on top
        # of it reproduce results() at every later tick.
        answer = ns.session.results(record.handle_id)
        self._send(conn, ok_frame(
            "subscribe", request_id, query=handle_id,
            tick=ns.session.monitor.manager.now_seq,
            answer=answer,
        ))

    async def _op_unsubscribe(self, conn, frame, request_id) -> None:
        ns = self._require_namespace(conn)
        handle_id = frame.get("query")
        if handle_id in conn.subscriptions:
            conn.subscriptions.discard(handle_id)
            conn.lagged.discard(handle_id)
            subscribers = self._subscribers.get((ns.name, handle_id))
            if subscribers is not None:
                subscribers.discard(conn)
                if not subscribers:
                    del self._subscribers[(ns.name, handle_id)]
            ns.subscriptions -= 1
            self._m_subscribers.dec()
        self._send(conn, ok_frame("unsubscribe", request_id,
                                  query=handle_id))

    def _checkpoint_document(self, ns: Namespace) -> tuple[str, dict]:
        # The snapshot happens synchronously on the event loop (so no
        # ingest can interleave and the document is tick-consistent);
        # only the blocking file write leaves the loop.
        try:
            return checkpoint_module.checkpoint_document(ns.session)
        except ReproError as exc:
            raise ProtocolError("checkpoint_failed", str(exc)) from exc

    async def _op_checkpoint(self, conn, frame, request_id) -> None:
        scope = frame.get("scope")
        if scope not in (None, "all"):
            raise ProtocolError("bad_request",
                                "'scope' must be \"all\" when present")
        if scope == "all":
            await self._checkpoint_all(conn, frame, request_id)
            return
        ns = self._require_namespace(conn)
        ship = bool(frame.get("ship"))
        default_name = "checkpoint.json" if self.tenants.open \
            else f"{ns.name}.ckpt"
        path = frame.get("path", default_name)
        if not ship and (not isinstance(path, str) or not path):
            raise ProtocolError("bad_request",
                                "'path' must be a non-empty string")
        if not ship and not self.tenants.open \
                and os.path.basename(path) != path:
            # Tenants name their checkpoint inside the server's
            # checkpoint dir; absolute/relative paths would let one
            # namespace overwrite another's files (or anything else).
            raise ProtocolError(
                "bad_request",
                "'path' must be a bare file name on a multi-tenant "
                "server (it lands in the server's checkpoint dir)",
            )
        if self.checkpoint_dir is not None and not os.path.isabs(path):
            path = os.path.join(self.checkpoint_dir, path)
        start = perf_counter()
        document, meta = self._checkpoint_document(ns)
        if ship:
            # Bootstrap path for standbys: the document travels inline
            # on this connection instead of touching disk.  Issued right
            # after ``replicate`` on the same connection, it is
            # guaranteed consistent with the replication feed — both
            # serialize on the event loop.
            elapsed = perf_counter() - start
            meta["seconds"] = elapsed
            self._send(conn, ok_frame("checkpoint", request_id,
                                      state=RawJSON(document), **meta))
            return
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(
                None,
                checkpoint_module.write_checkpoint_document,
                document, path, ns.session.epoch,
            )
        except OSError as exc:
            raise ProtocolError("checkpoint_failed",
                                f"cannot write {path!r}: {exc}") from exc
        elapsed = perf_counter() - start
        self._m_checkpoint_seconds.observe(elapsed)
        meta["path"] = path
        meta["seconds"] = elapsed
        self._send(conn, ok_frame("checkpoint", request_id, **meta))

    async def _checkpoint_all(self, conn, frame, request_id) -> None:
        """Checkpoint every live namespace (admin only on multi-tenant
        servers): per-namespace ``<ns>.ckpt`` files in the checkpoint
        dir, or — with ``ship`` — an inline ``states`` map (the standby
        bootstrap)."""
        self._require_admin(conn, "checkpoint scope \"all\"")
        ship = bool(frame.get("ship"))
        namespaces = list(self.tenants.namespaces())
        start = perf_counter()
        documents = [
            (ns, *self._checkpoint_document(ns)) for ns in namespaces
        ]
        if ship:
            # Each document already is compact JSON: splice the texts
            # into one ``{name: state}`` object instead of parsing them
            # back for the frame encoder to re-encode.
            states = RawJSON("{" + ",".join(
                f"{json.dumps(ns.name)}:{doc}" for ns, doc, _ in documents
            ) + "}")
            self._send(conn, ok_frame(
                "checkpoint", request_id, states=states,
                namespaces=sorted(ns.name for ns in namespaces),
                seconds=perf_counter() - start,
            ))
            return
        if self.checkpoint_dir is None:
            raise ProtocolError(
                "bad_request",
                "checkpoint scope \"all\" needs the server started "
                "with a checkpoint dir (repro serve --checkpoint-dir)",
            )
        loop = asyncio.get_running_loop()
        saved = {}
        for ns, document, meta in documents:
            path = os.path.join(self.checkpoint_dir, f"{ns.name}.ckpt")
            try:
                await loop.run_in_executor(
                    None,
                    checkpoint_module.write_checkpoint_document,
                    document, path, ns.session.epoch,
                )
            except OSError as exc:
                raise ProtocolError(
                    "checkpoint_failed",
                    f"cannot write {path!r}: {exc}",
                ) from exc
            meta["path"] = path
            saved[ns.name] = meta
        elapsed = perf_counter() - start
        self._m_checkpoint_seconds.observe(elapsed)
        self._send(conn, ok_frame(
            "checkpoint", request_id, namespaces=sorted(saved),
            saved=saved, seconds=elapsed,
        ))

    async def _op_replicate(self, conn, frame, request_id) -> None:
        """Register this connection as a replication subscriber: every
        batch admitted from now on is mirrored to it as a ``rows``
        event, every query registration change as a ``register`` or
        ``unregister`` event.  The ack carries ``now_seq`` so the
        standby knows where the feed starts relative to the checkpoint
        it bootstraps from.
        """
        self._require_admin(conn, "replicate")
        self._replicas.add(conn)
        self._send(conn, ok_frame("replicate", request_id, role=self.role,
                                  **self._namespace_states()))

    async def _op_promote(self, conn, frame, request_id) -> None:
        """Promote a standby to primary: stop tailing, bump the fencing
        epoch, start accepting ingest.  The epoch bump fences the old
        primary — its checkpoints now carry a lower epoch and
        :func:`~repro.serve.checkpoint.write_checkpoint_document`
        refuses to let them clobber the promoted lineage's files.
        """
        self._require_admin(conn, "promote")
        if self.role == "primary":
            raise ProtocolError("bad_request",
                                "this server is already the primary")
        if self.standby is not None:
            self.standby.stop()
        for ns in self.tenants.namespaces():
            ns.session.epoch += 1
        self.role = "primary"
        self._send(conn, ok_frame("promote", request_id, role=self.role,
                                  **self._namespace_states()))

    async def _op_epoch(self, conn, frame, request_id) -> None:
        """Cheap liveness/catch-up probe: role, fencing epoch, and the
        engine's current sequence number (what failover drills poll).

        On a multi-tenant server an authenticated connection gets its
        own namespace's epoch/seq; an admin additionally gets the full
        per-namespace map; an unauthenticated probe learns only the
        role (liveness without tenant enumeration).
        """
        payload: dict = {"role": self.role}
        if conn.namespace is not None and not self.tenants.open:
            payload["namespace"] = conn.namespace.name
            payload.update(self._seq_state(conn.namespace))
        if conn.admin:
            payload.update(self._namespace_states())
        if self.standby is not None:
            payload["standby"] = self.standby.stats()
        self._send(conn, ok_frame("epoch", request_id, **payload))

    async def _op_stats(self, conn, frame, request_id) -> None:
        ns = None if conn.admin and conn.namespace is None \
            else self._require_namespace(conn)
        payload = ns.session.stats() if ns is not None else {}
        payload["serve"] = {
            "protocol": PROTOCOL_VERSION,
            "role": self.role,
            "epoch": ns.session.epoch if ns is not None else None,
            "backpressure": self.backpressure,
            "queue_depth": self.queue_depth,
            "connections": len(self._connections),
            "subscriptions": sum(
                len(s) for s in self._subscribers.values()
            ),
            "replicas": len(self._replicas),
            "obs_port": self.obs.port if self.obs is not None else None,
            "tracing": bool(self.spans.enabled),
        }
        if not self.tenants.open:
            tenancy: dict = {}
            if ns is not None:
                tenancy.update(
                    namespace=ns.name,
                    quotas=ns.spec.quotas.spec(),
                    subscriptions=ns.subscriptions,
                )
            if conn.admin:
                tenancy["namespaces"] = {
                    other.name: {
                        "window_size": len(other.session.monitor.manager),
                        "now_seq": other.session.monitor.manager.now_seq,
                        "epoch": other.session.epoch,
                        "queries": len(other.session.queries()),
                        "subscriptions": other.subscriptions,
                    }
                    for other in self.tenants.namespaces()
                }
                if self.mux is not None:
                    tenancy["mux"] = self.mux.stats()
            payload["serve"]["tenancy"] = tenancy
        if self.standby is not None:
            payload["serve"]["standby"] = self.standby.stats()
        if frame.get("metrics"):
            payload["metrics"] = self.registry.snapshot()
        self._send(conn, ok_frame("stats", request_id, stats=payload))

    async def _op_shutdown(self, conn, frame, request_id) -> None:
        self._require_admin(conn, "shutdown")
        self._send(conn, ok_frame("shutdown", request_id))
        try:
            await conn.writer.drain()
        except (ConnectionError, OSError):
            pass
        self._spawn(self.stop())


class BackgroundServer:
    """A :class:`ServeServer` on a daemon thread with its own event loop.

    The process-embedding used by tests, the benchmark and notebook
    experiments::

        with BackgroundServer(session) as server:
            client = ServeClient(port=server.port)

    The first argument is a :class:`NamespaceRegistry` or a bare
    session, as for :class:`ServeServer`.  ``repro serve`` itself runs
    the server on the main thread instead (signal handlers only work
    there).
    """

    def __init__(self, tenants: NamespaceRegistry | ServerMonitor,
                 **server_kwargs) -> None:
        self.server = ServeServer(tenants, **server_kwargs)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def obs_port(self) -> Optional[int]:
        """The sidecar's resolved port (``None`` when not started)."""
        return self.server.obs_port

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise TimeoutError("server did not start within 10s")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        async def main() -> None:
            try:
                await self.server.start()
            except BaseException as exc:
                self._startup_error = exc
                self._started.set()
                raise
            self._loop = asyncio.get_running_loop()
            self._started.set()
            await self.server.serve_until_stopped()

        try:
            asyncio.run(main())
        except BaseException:
            if not self._started.is_set():
                self._started.set()

    def stop(self) -> None:
        if self._loop is not None and self._thread is not None \
                and self._thread.is_alive():
            future = asyncio.run_coroutine_threadsafe(
                self.server.stop(), self._loop
            )
            try:
                future.result(timeout=10.0)
            except (TimeoutError, asyncio.CancelledError):
                pass
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
