"""The top-level framework (paper §III-B, Fig 2).

:class:`TopKPairsMonitor` wires the three modules together:

* the **stream manager** stores the ``N`` most recent objects and the
  ``D + 1`` sorted lists (``O(ND)`` — the Theorem 4 lower bound);
* the **skyband maintenance module** keeps one K-skyband per *unique
  scoring function*, where ``K`` is the largest ``k`` among the queries
  sharing that function;
* the **query answering module** serves snapshot queries from the
  skyband's PST (Algorithm 2) and refreshes continuous queries
  incrementally (§IV-B).

Usage::

    monitor = TopKPairsMonitor(window_size=10_000, num_attributes=3)
    closest = k_closest_pairs(3)
    handle = monitor.register_query(closest, k=5, n=1_000)
    for row in stream:
        monitor.append(row)
        top5 = monitor.results(handle)
"""

from __future__ import annotations

import os
from itertools import islice
from time import perf_counter
from typing import Iterable, Iterator, Optional, Sequence

from repro.core.continuous import ContinuousQueryState
from repro.core.maintenance import (
    SCaseMaintainer,
    SkybandDelta,
    SkybandMaintainer,
    TAMaintainer,
)
from repro.core.pair import Pair
from repro.core.query import TopKPairsQuery, answer_snapshot
from repro.exceptions import InvalidParameterError, UnknownQueryError
from repro.obs.cost_model import Counters
from repro.obs.recorder import NULL_RECORDER
from repro.scoring.base import ScoringFunction
from repro.stream.manager import ArrivalEvent, StreamManager

__all__ = ["TopKPairsMonitor", "QueryHandle"]

_STRATEGIES = ("auto", "scase", "ta", "basic")


class QueryHandle:
    """Opaque handle for a registered query."""

    __slots__ = ("query", "state")

    def __init__(
        self, query: TopKPairsQuery, state: Optional[ContinuousQueryState]
    ) -> None:
        self.query = query
        self.state = state

    def __repr__(self) -> str:
        return f"QueryHandle({self.query!r})"


class _SkybandGroup:
    """One skyband shared by all queries using the same scoring function
    and pair filter (§III-B; the filter extension refines the sharing
    key)."""

    __slots__ = ("scoring_function", "maintainer", "queries", "strategy",
                 "pair_filter")

    def __init__(
        self,
        scoring_function: ScoringFunction,
        maintainer: SkybandMaintainer,
        strategy: str,
        pair_filter=None,
    ) -> None:
        self.scoring_function = scoring_function
        self.maintainer = maintainer
        self.strategy = strategy
        self.pair_filter = pair_filter
        self.queries: dict[int, QueryHandle] = {}

    @property
    def K(self) -> int:
        return self.maintainer.K


class TopKPairsMonitor:
    """Continuous top-k pairs monitoring over a sliding window."""

    def __init__(
        self,
        window_size: int,
        num_attributes: int,
        *,
        strategy: str = "auto",
        time_horizon: Optional[float] = None,
        counters: Optional[Counters] = None,
        seed: int = 0,
        audit: Optional[bool] = None,
        audit_interval: int = 1,
        audit_cross_check_interval: int = 0,
        recorder=None,
    ) -> None:
        if strategy not in _STRATEGIES:
            raise InvalidParameterError(
                f"strategy must be one of {_STRATEGIES}, got {strategy!r}"
            )
        # Observability (repro.obs): the default NullRecorder makes every
        # hot-path hook a single attribute check; pass a MetricsRecorder
        # to collect counters, phase timings and per-tick trace events.
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.manager = StreamManager(
            window_size, num_attributes, time_horizon=time_horizon, seed=seed,
            recorder=self.recorder,
        )
        self.window_size = window_size
        self.strategy = strategy
        self.counters = counters
        self._groups: dict[int, _SkybandGroup] = {}
        self._handles: dict[int, QueryHandle] = {}
        # Opt-in runtime invariant verification (repro.audit): explicit
        # ``audit=True``/``False`` wins; when unset, the REPRO_AUDIT
        # environment variable turns the auditor on process-wide.
        if audit is None:
            audit = os.environ.get("REPRO_AUDIT", "") not in ("", "0")
        self.auditor = None
        if audit:
            # Imported lazily: repro.audit imports core modules, so a
            # module-level import here would be cyclic.
            from repro.audit.invariants import MonitorAuditor

            self.auditor = MonitorAuditor(
                self,
                interval=audit_interval,
                cross_check_interval=audit_cross_check_interval,
            )

    # ------------------------------------------------------------------
    # query management
    # ------------------------------------------------------------------
    def register_query(
        self,
        scoring_function: ScoringFunction,
        k: int,
        n: Optional[int] = None,
        *,
        continuous: bool = True,
        pair_filter=None,
        on_change=None,
    ) -> QueryHandle:
        """Register a query ``Q(k, n, scoring_function)``.

        ``n`` defaults to the monitor's maximum window.  Queries passing
        the same scoring-function *instance* (and the same ``pair_filter``
        instance, if any) share one skyband; if this query's ``k``
        exceeds the group's current ``K``, the skyband is re-bootstrapped
        at the larger depth (an ``O(N^2 log K)`` one-off).

        ``pair_filter(a, b) -> bool`` restricts the query to pairs the
        symmetric predicate accepts (e.g. same-sector stocks only).

        ``on_change(entered, left)`` (continuous queries only) is invoked
        after every stream tick that changed the answer set, with the
        pairs that entered and left it.
        """
        n = self.window_size if n is None else n
        if n > self.window_size:
            raise InvalidParameterError(
                f"query window n={n} exceeds the monitor's maximum "
                f"window N={self.window_size}"
            )
        query = TopKPairsQuery(scoring_function, k, n, continuous=continuous,
                               pair_filter=pair_filter)
        group = self._group_for(scoring_function, minimum_K=k,
                                pair_filter=pair_filter)
        state = None
        if continuous:
            state = ContinuousQueryState(
                query, counters=self.counters, on_change=on_change
            )
            state.initialize(group.maintainer.pst, self.manager.now_seq)
        handle = QueryHandle(query, state)
        group.queries[query.query_id] = handle
        self._handles[query.query_id] = handle
        return handle

    def set_on_change(self, handle: QueryHandle, callback) -> None:
        """Attach, replace or detach (``None``) the ``on_change(entered,
        left)`` delta listener of a registered continuous query.

        This is the hook the :mod:`repro.serve` subscription layer uses
        to extract per-tick answer deltas without re-reading the whole
        answer: after every stream tick that changed the query's answer
        set, ``callback`` receives the pairs that entered and left it.
        """
        if handle.query.query_id not in self._handles:
            raise UnknownQueryError(handle.query.query_id)
        if handle.state is None:
            raise InvalidParameterError(
                "on_change requires a continuous query"
            )
        handle.state.on_change = callback

    def unregister_query(self, handle: QueryHandle) -> None:
        """Remove a query; drops its skyband group when it was the last
        user (the group's K is kept as-is otherwise — shrinking K would
        require a rebuild for no correctness gain)."""
        query_id = handle.query.query_id
        if query_id not in self._handles:
            raise UnknownQueryError(query_id)
        del self._handles[query_id]
        key = _group_key(handle.query.scoring_function,
                         handle.query.pair_filter)
        group = self._groups[key]
        del group.queries[query_id]
        if not group.queries:
            del self._groups[key]

    def _group_for(
        self,
        scoring_function: ScoringFunction,
        minimum_K: int,
        pair_filter=None,
    ) -> _SkybandGroup:
        key = _group_key(scoring_function, pair_filter)
        group = self._groups.get(key)
        if group is not None and group.K >= minimum_K:
            return group
        strategy = self._resolve_strategy(scoring_function)
        maintainer = self._make_maintainer(
            scoring_function, minimum_K, strategy, pair_filter
        )
        maintainer.bootstrap(self.manager)
        if group is None:
            group = _SkybandGroup(scoring_function, maintainer, strategy,
                                  pair_filter)
            self._groups[key] = group
        else:
            # K grew: swap in the deeper maintainer, keep the queries —
            # and rebuild every live continuous answer against the new
            # PST, or they would serve the old maintainer's snapshot
            # until unrelated churn happened to refresh them.
            group.maintainer = maintainer
            now = self.manager.now_seq
            for handle in group.queries.values():
                if handle.state is not None:
                    handle.state.initialize(maintainer.pst, now)
        return group

    def maintainer_for(
        self,
        scoring_function: ScoringFunction,
        pair_filter=None,
    ) -> Optional[SkybandMaintainer]:
        """The live maintainer of the skyband group for this scoring
        function (and filter) instance, or ``None`` when no query has
        created one.  Read-only view used by the checkpoint layer to
        serialize maintainer state."""
        group = self._groups.get(_group_key(scoring_function, pair_filter))
        return group.maintainer if group is not None else None

    def restore_group(
        self,
        scoring_function: ScoringFunction,
        K: int,
        skyband: list,
        staircase,
        *,
        pair_filter=None,
    ) -> None:
        """Install a pre-built skyband group, bypassing :meth:`bootstrap`.

        Checkpoint structural restore deserializes each group's skyband
        (score-ascending :class:`~repro.core.pair.Pair` list over live
        window objects) and staircase and installs them here *before*
        re-registering the saved queries — ``_group_for`` then reuses
        the group as long as ``K`` covers the queries' ``k``, so no
        ``O(N^2)`` re-enumeration happens.  Raises
        :class:`~repro.exceptions.InvalidParameterError` when the group
        already exists (restoring over live state would silently discard
        it).
        """
        key = _group_key(scoring_function, pair_filter)
        if key in self._groups:
            raise InvalidParameterError(
                "cannot restore a skyband group that already exists; "
                "restore into a fresh monitor"
            )
        strategy = self._resolve_strategy(scoring_function)
        maintainer = self._make_maintainer(
            scoring_function, K, strategy, pair_filter
        )
        maintainer.load_state(skyband, staircase)
        self._groups[key] = _SkybandGroup(
            scoring_function, maintainer, strategy, pair_filter
        )

    def _resolve_strategy(self, scoring_function: ScoringFunction) -> str:
        if self.strategy != "auto":
            return self.strategy
        return "ta" if scoring_function.is_global() else "scase"

    def _make_maintainer(
        self,
        scoring_function: ScoringFunction,
        K: int,
        strategy: str,
        pair_filter=None,
    ) -> SkybandMaintainer:
        if strategy == "ta":
            return TAMaintainer(scoring_function, K, counters=self.counters,
                                pair_filter=pair_filter,
                                recorder=self.recorder)
        if strategy == "basic":
            from repro.baselines.basic import BasicMaintainer

            return BasicMaintainer(scoring_function, K,
                                   counters=self.counters,
                                   pair_filter=pair_filter,
                                   recorder=self.recorder)
        return SCaseMaintainer(scoring_function, K, counters=self.counters,
                               pair_filter=pair_filter,
                               recorder=self.recorder)

    # ------------------------------------------------------------------
    # stream ingestion
    # ------------------------------------------------------------------
    def append(
        self,
        values: Sequence[float],
        *,
        timestamp: Optional[float] = None,
        payload: object = None,
    ) -> ArrivalEvent:
        """Admit one object and refresh every skyband and every continuous
        query: a one-row tick."""
        return self._tick([(values, timestamp, payload)])[0]

    def extend(
        self,
        rows: Iterable,
        *,
        batch_size: Optional[int] = None,
        timestamps: Optional[Iterable[float]] = None,
        decisions=None,
    ) -> int:
        """Admit many objects; returns the number of rows ingested.

        ``rows`` is any iterable (a generator is consumed lazily, chunk
        by chunk).  Each row is either a plain value sequence or a
        ``(values, timestamp)`` / ``(values, timestamp, payload)`` tuple;
        alternatively ``timestamps`` supplies one timestamp per plain
        row.  Mixing both timestamp channels is rejected.

        Each chunk of ``batch_size`` rows (default 1: a tick per row) is
        one tick: skybands and continuous answers are refreshed once per
        chunk, with one Algorithm 4 sweep per skyband, amortizing the
        per-arrival bookkeeping — a throughput / result-latency
        trade-off.  Within a chunk, intermediate results are never
        observable, and since the K-skyband is a function of the window
        alone, chunked and per-row ingestion agree at every chunk
        boundary.

        The returned count is exact even when ``rows`` is a generator —
        batch consumers (e.g. the :mod:`repro.serve` ingest op) use it to
        acknowledge precisely how many objects entered the stream.

        ``decisions`` (the serving layer's replication hook,
        :mod:`repro.serve.decisions`) runs each group's maintainer tick
        in place of the plain call: every tick calls its
        ``begin_tick()`` once, then ``on_tick(group, manager, arrivals,
        expired)`` per skyband group, which returns the group's
        :class:`~repro.core.maintenance.SkybandDelta`.
        """
        normalized = _normalize_rows(rows, timestamps)
        size = max(batch_size or 1, 1)
        count = 0
        while True:
            chunk = list(islice(normalized, size))
            if not chunk:
                return count
            self._tick(chunk, decisions)
            count += len(chunk)

    def _tick(self, rows: list[tuple],
              decisions=None) -> list[ArrivalEvent]:
        """One stream tick admitting ``rows`` (normalized ``(values,
        timestamp, payload)``, at least one): every skyband group runs
        one maintainer tick and refreshes its continuous queries once."""
        obs = self.recorder
        if obs.enabled:
            obs.begin_tick()
        tick_start = perf_counter()
        manager = self.manager
        events: list[ArrivalEvent] = []
        rejected: Optional[Exception] = None
        for values, timestamp, payload in rows:
            try:
                events.append(manager.append(values, timestamp=timestamp,
                                             payload=payload))
            except Exception as error:
                # A row the window rejects ends the tick early: the rows
                # admitted before it are merged all the same, so the
                # error propagates with every skyband in step with the
                # window.
                if not events:
                    raise
                rejected = error
                break
        expired = [gone for event in events for gone in event.expired]
        gone_seqs = {gone.seq for gone in expired}
        # An object that arrived and expired within this very tick (more
        # rows than the window holds, or a later timestamp past the
        # horizon) never becomes visible.
        arrived = [event.new for event in events
                   if event.new.seq not in gone_seqs]
        if obs.enabled:
            obs.phase("window", perf_counter() - tick_start)
            obs.on_window(len(events), len(expired))
        now = manager.now_seq
        if decisions is not None:
            decisions.begin_tick()
        for group in self._groups.values():
            if decisions is None:
                delta = group.maintainer.on_tick(manager, arrived, expired)
            else:
                delta = decisions.on_tick(group, manager, arrived, expired)
            self._refresh_queries(group, delta, now)
        # One audit per tick — intermediate states are never observable,
        # so there is nothing to check between a tick's rows.
        self._close_tick(tick_start, now)
        if rejected is not None:
            raise rejected
        return events

    def _refresh_queries(
        self, group: _SkybandGroup, delta: SkybandDelta, now: int
    ) -> None:
        """Apply one group's skyband delta to its continuous answers (the
        ``queries`` phase)."""
        obs = self.recorder
        if obs.enabled:
            start = perf_counter()
        pst = group.maintainer.pst
        for handle in group.queries.values():
            if handle.state is not None:
                handle.state.apply(delta, pst, now)
        if obs.enabled:
            obs.phase("queries", perf_counter() - start)

    def _close_tick(self, tick_start: float, now: int) -> None:
        """Run the auditor, then close the tick on the recorder."""
        if self.auditor is not None:
            self.auditor.after_tick()
        obs = self.recorder
        if obs.enabled:
            self._end_tick(obs, perf_counter() - tick_start, now)

    def _end_tick(self, obs, seconds: float, now: int) -> None:
        """Close one instrumented tick (sizes summed across groups)."""
        skyband_size = 0
        staircase_size = 0
        for group in self._groups.values():
            skyband_size += len(group.maintainer)
            staircase_size += len(group.maintainer.staircase)
        obs.end_tick(
            seconds,
            now_seq=now,
            skyband_size=skyband_size,
            staircase_size=staircase_size,
            window_occupancy=len(self.manager),
        )

    # ------------------------------------------------------------------
    # answers
    # ------------------------------------------------------------------
    def results(self, handle: QueryHandle) -> list[Pair]:
        """The current answer of a query, ascending by score.

        Continuous queries return their incrementally maintained answer;
        snapshot queries are evaluated on the spot with Algorithm 2.
        """
        if handle.query.query_id not in self._handles:
            raise UnknownQueryError(handle.query.query_id)
        obs = self.recorder
        if not obs.enabled:
            return self._results(handle)
        start = perf_counter()
        answer = self._results(handle)
        obs.observe_results(perf_counter() - start)
        return answer

    def _results(self, handle: QueryHandle) -> list[Pair]:
        if handle.state is not None:
            return list(handle.state.answer)
        group = self._groups[_group_key(handle.query.scoring_function,
                                        handle.query.pair_filter)]
        return answer_snapshot(
            group.maintainer.pst,
            handle.query.k,
            handle.query.n,
            self.manager.now_seq,
            counters=self.counters,
        )

    def snapshot_query(
        self,
        scoring_function: ScoringFunction,
        k: int,
        n: Optional[int] = None,
        *,
        pair_filter=None,
    ) -> list[Pair]:
        """One-off top-k pairs query.

        Reuses the scoring function's skyband group when one exists with
        sufficient depth; otherwise bootstraps one (``O(N^2)`` one-off)
        that subsequent ticks keep maintained.
        """
        n = self.window_size if n is None else n
        if n > self.window_size:
            raise InvalidParameterError(
                f"query window n={n} exceeds the monitor's maximum "
                f"window N={self.window_size}"
            )
        group = self._group_for(scoring_function, minimum_K=k,
                                pair_filter=pair_filter)
        return answer_snapshot(
            group.maintainer.pst, k, n, self.manager.now_seq,
            counters=self.counters,
        )

    # ------------------------------------------------------------------
    def skyband_size(self, scoring_function: ScoringFunction,
                     pair_filter=None) -> int:
        """Current K-skyband size for a scoring function (diagnostics)."""
        group = self._groups.get(_group_key(scoring_function, pair_filter))
        return len(group.maintainer) if group is not None else 0

    def stats(self, *, include_metrics: bool = False) -> dict[str, object]:
        """A diagnostics snapshot of the whole framework (Fig 2 view):
        window occupancy plus, per skyband group, the scoring function,
        strategy, depth K, skyband size and query count.

        With ``include_metrics=True`` the snapshot gains a ``"metrics"``
        key holding the recorder's registry snapshot (see
        :meth:`repro.obs.MetricsRegistry.snapshot`), or ``{}`` when the
        monitor runs with the default :class:`~repro.obs.NullRecorder`.
        """
        snapshot: dict[str, object] = {
            "window_size": self.window_size,
            "window_occupancy": len(self.manager),
            "now_seq": self.manager.now_seq,
            "num_queries": len(self._handles),
            "groups": [
                {
                    "scoring_function": group.scoring_function.name,
                    "filtered": group.pair_filter is not None,
                    "strategy": group.strategy,
                    "K": group.K,
                    "skyband_size": len(group.maintainer),
                    "staircase_size": len(group.maintainer.staircase),
                    "queries": len(group.queries),
                }
                for group in self._groups.values()
            ],
        }
        if include_metrics:
            registry = self.recorder.registry
            snapshot["metrics"] = (
                registry.snapshot() if registry is not None else {}
            )
        return snapshot

    def check_invariants(self) -> None:
        """Validate every group's structures (test helper)."""
        for group in self._groups.values():
            group.maintainer.check_invariants(self.manager)


def _normalize_row(row) -> tuple:
    """``row`` → ``(values, timestamp, payload)``.

    A row whose first element is itself a sequence is a rich
    ``(values, timestamp[, payload])`` tuple; anything else is a plain
    value sequence.
    """
    if (
        isinstance(row, tuple)
        and row
        and isinstance(row[0], (list, tuple))
    ):
        if len(row) > 3:
            raise InvalidParameterError(
                f"row tuples are (values, timestamp[, payload]); "
                f"got {len(row)} elements"
            )
        values = row[0]
        timestamp = row[1] if len(row) > 1 else None
        payload = row[2] if len(row) > 2 else None
        return values, timestamp, payload
    return row, None, None


def _normalize_rows(rows: Iterable, timestamps) -> "Iterator[tuple]":
    """Lazily yield ``(values, timestamp, payload)`` for every row."""
    if timestamps is None:
        for row in rows:
            yield _normalize_row(row)
        return
    timestamp_iter = iter(timestamps)
    for row in rows:
        values, row_timestamp, payload = _normalize_row(row)
        if row_timestamp is not None:
            raise InvalidParameterError(
                "pass timestamps either inline in row tuples or via "
                "timestamps=, not both"
            )
        try:
            timestamp = next(timestamp_iter)
        except StopIteration:
            raise InvalidParameterError(
                "timestamps iterable exhausted before rows"
            ) from None
        yield values, timestamp, payload


def _group_key(scoring_function: ScoringFunction, pair_filter) -> tuple:
    """Skyband sharing key: same scoring-function instance + same filter
    instance (``None`` filter = the unfiltered pair universe)."""
    return (
        id(scoring_function),
        id(pair_filter) if pair_filter is not None else None,
    )
