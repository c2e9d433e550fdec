"""The serving session layer: one :class:`ServerMonitor` per server.

Sits between the wire (:mod:`repro.serve.server`) and the engine
(:class:`~repro.core.monitor.TopKPairsMonitor`):

* owns the monitor plus a **query registry** keyed by client-visible
  string handles (``"q1"``, ``"q2"``, ...) — clients never see
  :class:`~repro.core.monitor.QueryHandle` objects;
* names scoring functions by the CLI's factory vocabulary (``closest`` /
  ``furthest`` / ``similar`` / ``dissimilar``) and shares one function
  *instance* per name, so queries registered over the wire land in the
  same skyband group exactly like library callers sharing an instance;
* runs each ingest op as **one engine tick** over all of its rows (one
  per :attr:`ServerMonitor.tick_rows` rows of a larger op), and
  extracts the op's **answer deltas**: every continuous query gets an
  ``on_change`` listener (via
  :meth:`~repro.core.monitor.TopKPairsMonitor.set_on_change`) that
  records each tick's entered/left pairs, merged into the op's net
  change stamped with the op's last sequence number; the server drains
  them after each ingest and fans them out to subscribers;
* carries **trace context** through the engine: a traced ingest runs
  under a ``tick`` span (:mod:`repro.obs.spans`) and stamps its trace id
  onto every :class:`DeltaEvent` the tick produced — the listener fires
  synchronously inside ``extend``, so the active trace is plain
  call-stack state, no thread-locals needed.

Everything here is synchronous and asyncio-free, so the whole session
layer is testable without a socket and reusable by the checkpoint
machinery.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional, Sequence

from repro.core.monitor import QueryHandle, TopKPairsMonitor
from repro.core.pair import Pair
from repro.exceptions import InvalidParameterError, ProtocolError
from repro.obs.spans import NULL_SPANS
from repro.scoring.base import ScoringFunction
from repro.scoring.library import (
    k_closest_pairs,
    k_furthest_pairs,
    top_k_dissimilar_pairs,
    top_k_similar_pairs,
)
from repro.stream.manager import checked_values
from repro.stream.object import is_finite_real

__all__ = ["DeltaEvent", "QueryRecord", "SCORING_NAMES", "ServerMonitor"]

#: wire-level scoring-function vocabulary -> factory (paper s1..s4).
SCORING_NAMES = {
    "closest": k_closest_pairs,
    "furthest": k_furthest_pairs,
    "similar": top_k_similar_pairs,
    "dissimilar": top_k_dissimilar_pairs,
}


_score_key = attrgetter("score_key")


class DeltaEvent:
    """One continuous query's net answer change over one ingest op, at
    the op's last sequence number ``tick``.

    ``trace`` is the id of the traced ingest that caused the change
    (``None`` for untraced ingests) — the hand-off that lets one client
    request be followed to every subscriber it touched.
    """

    __slots__ = ("query", "tick", "entered", "left", "trace")

    def __init__(self, query: str, tick: int,
                 entered: list[Pair], left: list[Pair],
                 trace: Optional[str] = None) -> None:
        self.query = query
        self.tick = tick
        self.entered = entered
        self.left = left
        self.trace = trace

    def __repr__(self) -> str:
        return (
            f"DeltaEvent(query={self.query!r}, tick={self.tick}, "
            f"+{len(self.entered)}/-{len(self.left)})"
        )


class QueryRecord:
    """Registry entry: the wire-visible spec plus the engine handle."""

    __slots__ = ("handle_id", "scoring", "k", "n", "handle")

    def __init__(self, handle_id: str, scoring: str, k: int, n: int,
                 handle: QueryHandle) -> None:
        self.handle_id = handle_id
        self.scoring = scoring
        self.k = k
        self.n = n
        self.handle = handle

    def spec(self) -> dict:
        """The JSON-able registration spec (checkpoint + stats view)."""
        return {
            "handle": self.handle_id,
            "scoring": self.scoring,
            "k": self.k,
            "n": self.n,
        }


class ServerMonitor:
    """A :class:`TopKPairsMonitor` wrapped for network serving."""

    #: rows per engine tick.  A tick's staircase cannot prune the pairs
    #: formed among the tick's own rows (each is younger than every
    #: staircase pair), so a tick of ``r`` rows keeps all ``r (r - 1) /
    #: 2`` of them; an ingest op of more rows runs as several ticks, and
    #: their answer deltas are merged into one per query.
    tick_rows = 16

    def __init__(
        self,
        window_size: int,
        num_attributes: int,
        *,
        time_horizon: Optional[float] = None,
        strategy: str = "auto",
        seed: int = 0,
        audit: Optional[bool] = None,
        recorder=None,
        spans=None,
    ) -> None:
        # The constructor arguments are kept verbatim: they are the
        # "monitor" section of every checkpoint this session writes.
        self.config = {
            "window_size": window_size,
            "num_attributes": num_attributes,
            "time_horizon": time_horizon,
            "strategy": strategy,
            "seed": seed,
        }
        self.monitor = TopKPairsMonitor(
            window_size, num_attributes, strategy=strategy,
            time_horizon=time_horizon, seed=seed, audit=audit,
            recorder=recorder,
        )
        #: the span recorder traced ingests report to (the server adopts
        #: this instance so op spans and tick spans share one ring)
        self.spans = spans if spans is not None else NULL_SPANS
        #: the tenancy namespace this session serves (multi-tenant
        #: servers set it; checkpoints record it so a restore can route
        #: the document back to its namespace).  ``"default"`` matches
        #: single-tenant servers and pre-tenancy checkpoints.
        self.namespace = "default"
        #: fencing epoch (monotonic across failovers): checkpoints carry
        #: it in their header, a promoted standby bumps it by one, and
        #: checkpoint writers refuse to clobber a higher-epoch file — the
        #: split-brain guard for the warm-standby protocol.
        self.epoch = 0
        self._scoring_instances: dict[str, ScoringFunction] = {}
        self._queries: dict[str, QueryRecord] = {}
        self._next_handle = 1
        self._pending_deltas: list[DeltaEvent] = []
        self._active_trace: Optional[str] = None

    # ------------------------------------------------------------------
    # query registry
    # ------------------------------------------------------------------
    def scoring_for(self, name: str) -> ScoringFunction:
        """The session-wide shared instance for a named scoring function
        (shared instances keep wire queries in one skyband group)."""
        if name not in SCORING_NAMES:
            raise ProtocolError(
                "bad_request",
                f"unknown scoring {name!r}; expected one of "
                f"{sorted(SCORING_NAMES)}",
            )
        instance = self._scoring_instances.get(name)
        if instance is None:
            factory = SCORING_NAMES[name]
            instance = factory(self.config["num_attributes"])
            self._scoring_instances[name] = instance
        return instance

    def register(self, scoring: str, k: int, n: Optional[int] = None,
                 *, handle_id: Optional[str] = None) -> str:
        """Register a continuous query; returns its wire handle.

        Registering the same spec twice is allowed and yields two
        independent handles (they share one skyband, so the duplicate is
        cheap) — clients that crash and re-register must never be turned
        away.  ``handle_id`` pins the wire handle explicitly (checkpoint
        restore re-registers queries under their saved names).
        """
        self._check_spec(k, n)
        scoring_fn = self.scoring_for(scoring)
        if handle_id is None:
            handle_id = f"q{self._next_handle}"
            self._next_handle += 1
            while handle_id in self._queries:  # skip pinned handles
                handle_id = f"q{self._next_handle}"
                self._next_handle += 1
        elif handle_id in self._queries:
            raise ProtocolError(
                "bad_request", f"handle {handle_id!r} is already registered"
            )
        handle = self.monitor.register_query(
            scoring_fn, k=k, n=n, continuous=True,
        )
        self.monitor.set_on_change(
            handle, self._make_listener(handle_id)
        )
        record = QueryRecord(
            handle_id, scoring, k,
            n if n is not None else self.config["window_size"], handle,
        )
        self._queries[handle_id] = record
        return handle_id

    def _check_spec(self, k, n) -> None:
        """The ``k``/``n`` rule shared by ``register`` and ``snapshot``:
        ``k`` an int >= 1, ``n`` (optional) an int from 2 to the window
        size; bools are not ints here."""
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ProtocolError("bad_request", f"k must be an int >= 1, got {k!r}")
        window = self.config["window_size"]
        if n is not None and (not isinstance(n, int) or isinstance(n, bool)
                              or not 2 <= n <= window):
            raise ProtocolError(
                "bad_request",
                f"n must be an int from 2 to the window size {window}, "
                f"got {n!r}",
            )

    def _make_listener(self, handle_id: str):
        def on_change(entered: list[Pair], left: list[Pair]) -> None:
            self._pending_deltas.append(DeltaEvent(
                handle_id, self.monitor.manager.now_seq, entered, left,
                self._active_trace,
            ))
        return on_change

    def unregister(self, handle_id: str) -> None:
        record = self._queries.pop(handle_id, None)
        if record is None:
            raise ProtocolError(
                "unknown_query", f"no registered query {handle_id!r}"
            )
        self.monitor.unregister_query(record.handle)

    def record(self, handle_id: str) -> QueryRecord:
        record = self._queries.get(handle_id)
        if record is None:
            raise ProtocolError(
                "unknown_query", f"no registered query {handle_id!r}"
            )
        return record

    def queries(self) -> list[QueryRecord]:
        """Registered queries in registration order."""
        return list(self._queries.values())

    # ------------------------------------------------------------------
    # ingest + delta extraction
    # ------------------------------------------------------------------
    def check_batch(self, rows: list, timestamps: Optional[list]) -> None:
        """Raise ``bad_request`` unless every row of a wire batch can
        enter the stream, so a rejected batch ingests nothing.

        Each row is a list of ``num_attributes`` finite real values.
        ``timestamps``, when given, has one finite real per row; a time
        window needs them, non-decreasing from its newest timestamp on.
        """
        num_attributes = self.config["num_attributes"]
        for index, row in enumerate(rows):
            if not isinstance(row, list):
                raise ProtocolError(
                    "bad_request", f"row {index} is not a list: {row!r}"
                )
            try:
                checked_values(row, num_attributes)
            except InvalidParameterError as exc:
                raise ProtocolError("bad_request",
                                    f"row {index}: {exc}") from None
        time_window = self.config["time_horizon"] is not None
        if timestamps is None:
            if time_window and rows:
                raise ProtocolError(
                    "bad_request", "a time window needs 'timestamps'"
                )
            return
        if len(timestamps) != len(rows):
            raise ProtocolError(
                "bad_request",
                f"{len(timestamps)} timestamps for {len(rows)} rows",
            )
        newest = self.monitor.manager.newest()
        previous = None
        if time_window and newest is not None:
            previous = newest.timestamp
        for index, timestamp in enumerate(timestamps):
            if not is_finite_real(timestamp):
                raise ProtocolError(
                    "bad_request",
                    f"timestamp {index} is not a finite real number: "
                    f"{timestamp!r}",
                )
            if time_window:
                if previous is not None and timestamp < previous:
                    raise ProtocolError(
                        "bad_request",
                        f"timestamp {index} ({timestamp!r}) is before "
                        f"the stream's newest ({previous!r})",
                    )
                previous = timestamp

    def ingest(
        self,
        rows: Sequence[Sequence[float]],
        *,
        timestamps: Optional[Sequence[float]] = None,
        trace: Optional[str] = None,
        decisions=None,
    ) -> tuple[int, int]:
        """Admit one op's rows, one engine tick per :attr:`tick_rows` of
        them; returns ``(ingested, now_seq)``.

        The rows become visible together: an op of up to
        :attr:`tick_rows` rows is one tick, in which every skyband group
        runs one maintainer tick over all of them and every continuous
        query refreshes once.  Each query's answer delta (accumulated
        for :meth:`drain_deltas`) is the op's net change, stamped with
        the op's ``now_seq``.  Since the K-skyband is a function of the
        window alone, the state equals what one tick per row would
        reach.  The precise count comes from
        :meth:`~repro.core.monitor.TopKPairsMonitor.extend`'s return
        value — the server acknowledges exactly what entered the stream.

        A non-``None`` ``trace`` runs the op under a ``tick`` span and
        stamps the id onto every delta it produces; the untraced path is
        byte-identical to before tracing existed.

        ``decisions`` runs every group's maintainer tick through a
        :mod:`repro.serve.decisions` object: a primary with standbys
        passes a :class:`~repro.serve.decisions.DecisionRecorder` (each
        tick's kept candidates, for the ``rows`` replication event), a
        standby a :class:`~repro.serve.decisions.DecisionApplier` (the
        primary's, merged in place of candidate generation).
        """
        mark = len(self._pending_deltas)
        if trace is None or not self.spans.enabled:
            count = self.monitor.extend(rows, timestamps=timestamps,
                                        batch_size=self.tick_rows,
                                        decisions=decisions)
        else:
            self._active_trace = trace
            span = self.spans.span("tick", trace=trace)
            try:
                with span:
                    count = self.monitor.extend(
                        rows, timestamps=timestamps,
                        batch_size=self.tick_rows, decisions=decisions,
                    )
                    span.attrs["rows"] = count
                    span.attrs["now_seq"] = self.monitor.manager.now_seq
            finally:
                self._active_trace = None
        if count > self.tick_rows:
            self._merge_deltas(mark)
        return count, self.monitor.manager.now_seq

    def _merge_deltas(self, mark: int) -> None:
        """Fold the deltas of one op's ticks (``_pending_deltas[mark:]``)
        into one per query, stamped with the op's last sequence number:
        a pair that entered and left within the op is in neither list."""
        merged: dict[str, tuple[dict, dict, Optional[str]]] = {}
        for delta in self._pending_deltas[mark:]:
            entered, left, _ = merged.setdefault(
                delta.query, ({}, {}, delta.trace)
            )
            for pair in delta.left:
                if entered.pop(pair.uid, None) is None:
                    left[pair.uid] = pair
            for pair in delta.entered:
                if left.pop(pair.uid, None) is None:
                    entered[pair.uid] = pair
        now = self.monitor.manager.now_seq
        self._pending_deltas[mark:] = [
            DeltaEvent(query, now, sorted(entered.values(), key=_score_key),
                       sorted(left.values(), key=_score_key), trace)
            for query, (entered, left, trace) in merged.items()
            if entered or left
        ]

    def drain_deltas(self) -> list[DeltaEvent]:
        """The answer deltas since the last drain (oldest first);
        draining transfers ownership to the caller."""
        deltas = self._pending_deltas
        self._pending_deltas = []
        return deltas

    # ------------------------------------------------------------------
    # answers + diagnostics
    # ------------------------------------------------------------------
    def results(self, handle_id: str) -> list[Pair]:
        """Current answer of a registered query, ascending by score."""
        return self.monitor.results(self.record(handle_id).handle)

    def snapshot(self, scoring: str, k: int,
                 n: Optional[int] = None) -> list[Pair]:
        """One-off snapshot answer (Algorithm 2) for an ad-hoc spec."""
        self._check_spec(k, n)
        return self.monitor.snapshot_query(self.scoring_for(scoring), k, n)

    def stats(self, *, include_metrics: bool = False) -> dict:
        """Engine stats plus the wire-level query registry."""
        payload = self.monitor.stats(include_metrics=include_metrics)
        payload["queries"] = [record.spec() for record in self.queries()]
        return payload
