"""Instrumentation fan-in: the null and live recorders.

Every instrumented component (stream manager, skip lists, PST, skyband
maintainers, the monitor) holds a *recorder*.  The default is the shared
:data:`NULL_RECORDER`, whose ``enabled`` class attribute is ``False`` —
instrumented blocks are guarded with ``if obs.enabled:`` so the disabled
cost is one attribute check, no call, no allocation.  A
:class:`MetricsRecorder` flips ``enabled`` to ``True``, funnels every
hook into a :class:`~repro.obs.metrics.MetricsRegistry`, and (optionally)
builds one :class:`~repro.obs.trace.TickEvent` per stream tick.

Hook protocol (all methods exist on both recorders):

* tick lifecycle — ``begin_tick()`` … ``end_tick(seconds, ...)``, driven
  by the monitor per append / batch boundary;
* phase timings — ``phase(name, seconds)`` accumulates into the current
  tick event and a per-phase histogram;
* structure events — ``on_window``, ``on_candidates``,
  ``on_skyband_delta``, ``on_pst_insert`` / ``on_pst_delete`` /
  ``on_pst_rebuild``, ``on_skiplist_traversal``, ``on_sweep``;
* query answering — ``observe_results(seconds)``.

Metric names and buckets are catalogued in ``docs/observability.md``.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Union

from repro.obs.metrics import DEFAULT_SIZE_BUCKETS, MetricsRegistry
from repro.obs.trace import TickEvent

__all__ = [
    "MetricsRecorder",
    "NULL_RECORDER",
    "NullRecorder",
]


class NullRecorder:
    """The do-nothing recorder every component defaults to.

    ``enabled`` is a class attribute, so the disabled-instrumentation
    cost in a hot path is a single attribute check that fails.  All hook
    methods exist (and do nothing) so a recorder can always be called
    unconditionally from cold paths.
    """

    __slots__ = ()

    enabled = False
    registry = None
    events: tuple = ()

    def begin_tick(self) -> None:
        pass

    def phase(self, name: str, seconds: float) -> None:
        pass

    def on_window(self, arrivals: int, evictions: int) -> None:
        pass

    def on_candidates(self, count: int) -> None:
        pass

    def on_skyband_delta(self, added: int, removed: int,
                         expired: int) -> None:
        pass

    def on_pst_insert(self) -> None:
        pass

    def on_pst_delete(self) -> None:
        pass

    def on_pst_rebuild(self, size: int, seconds: float,
                       partial: bool) -> None:
        pass

    def on_skiplist_traversal(self, steps: int) -> None:
        pass

    def on_sweep(self, pairs: int, kept: int) -> None:
        pass

    def on_apply_path(self, path: str) -> None:
        pass

    def observe_results(self, seconds: float) -> None:
        pass

    def end_tick(
        self,
        seconds: float,
        *,
        now_seq: int = 0,
        skyband_size: int = 0,
        staircase_size: int = 0,
        window_occupancy: int = 0,
    ) -> None:
        pass


#: the process-wide shared no-op recorder (stateless, safe to share)
NULL_RECORDER = NullRecorder()


class MetricsRecorder:
    """The live recorder: registry metrics plus an optional tick trace.

    Parameters
    ----------
    registry:
        The :class:`MetricsRegistry` to register into (a fresh private
        one by default).  Sharing a registry across recorders is allowed
        as long as metric definitions agree.
    trace:
        When true (default), one :class:`TickEvent` per stream tick is
        appended to :attr:`events`.
    trace_capacity:
        Bound the tick trace to the most recent ``trace_capacity`` events
        (a ring buffer); ``None`` keeps everything.
    """

    enabled = True

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        *,
        trace: bool = True,
        trace_capacity: Optional[int] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self.events: Union[deque, list] = (
            deque(maxlen=trace_capacity) if trace_capacity is not None
            else []
        )
        self._trace = trace
        # -- pre-resolved instruments (hot paths touch these directly) --
        self._ticks = r.counter(
            "repro_ticks_total", "stream ticks (appends or batch boundaries)"
        )
        self._objects = r.counter(
            "repro_objects_total", "objects admitted to the stream"
        )
        self._evictions = r.counter(
            "repro_evictions_total", "objects expired from the window"
        )
        self._candidates = r.counter(
            "repro_candidate_pairs_total",
            "non-dominated new pairs surviving staircase pruning",
        )
        self._skyband_inserts = r.counter(
            "repro_skyband_inserts_total", "pairs that entered a K-skyband"
        )
        self._skyband_removals = r.counter(
            "repro_skyband_removals_total",
            "pairs dominated out of a K-skyband",
        )
        self._skyband_expirations = r.counter(
            "repro_skyband_expirations_total",
            "skyband pairs dropped because their older member expired",
        )
        self._pst_inserts = r.counter(
            "repro_pst_inserts_total", "priority search tree insertions"
        )
        self._pst_deletes = r.counter(
            "repro_pst_deletes_total", "priority search tree deletions"
        )
        self._pst_rebuilds = r.counter(
            "repro_pst_rebuilds_total",
            "PST scapegoat partial rebuilds plus full rebuilds",
        )
        self._pst_rebuild_size = r.histogram(
            "repro_pst_rebuild_size",
            "points re-inserted per PST rebuild",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._pst_rebuild_seconds = r.histogram(
            "repro_pst_rebuild_seconds", "wall seconds per PST rebuild"
        )
        self._skiplist_traversals = r.counter(
            "repro_skiplist_node_traversals_total",
            "skip-list nodes stepped over during insert/remove descents",
        )
        self._sweeps = r.counter(
            "repro_sweeps_total", "Algorithm 4 skyband/staircase sweeps"
        )
        self._sweep_pairs = r.counter(
            "repro_sweep_pairs_total", "pairs examined by Algorithm 4 sweeps"
        )
        self._apply_path_family = r.counter(
            "repro_apply_path_total",
            "candidate merges by maintenance path (incremental vs sweep)",
            labelnames=("path",),
        )
        self._apply_paths: dict = {}
        self._append_seconds = r.histogram(
            "repro_append_seconds", "wall seconds per monitor append / batch"
        )
        self._results_seconds = r.histogram(
            "repro_results_seconds", "wall seconds per results() call"
        )
        self._skyband_size = r.gauge(
            "repro_skyband_size", "total K-skyband size across groups"
        )
        self._staircase_size = r.gauge(
            "repro_staircase_size", "total K-staircase size across groups"
        )
        self._window_occupancy = r.gauge(
            "repro_window_occupancy", "objects currently in the window"
        )
        self._phase_family = r.histogram(
            "repro_phase_seconds",
            "wall seconds per pipeline phase invocation",
            labelnames=("phase",),
        )
        self._phase_hists: dict = {}
        # -- per-tick accumulators --
        self._tick_phases: dict[str, float] = {}
        self._tick_counts = [0, 0, 0, 0, 0, 0, 0]
        # indices: arrivals, evictions, candidates, added, removed,
        #          expired, pst_rebuilds

    # ------------------------------------------------------------------
    # tick lifecycle
    # ------------------------------------------------------------------
    def begin_tick(self) -> None:
        self._tick_phases = {}
        self._tick_counts = [0, 0, 0, 0, 0, 0, 0]

    def end_tick(
        self,
        seconds: float,
        *,
        now_seq: int = 0,
        skyband_size: int = 0,
        staircase_size: int = 0,
        window_occupancy: int = 0,
    ) -> None:
        self._ticks.inc()
        self._append_seconds.observe(seconds)
        self._skyband_size.set(skyband_size)
        self._staircase_size.set(staircase_size)
        self._window_occupancy.set(window_occupancy)
        if self._trace:
            counts = self._tick_counts
            self.events.append(TickEvent(
                tick=now_seq,
                seconds=seconds,
                arrivals=counts[0],
                evictions=counts[1],
                candidates=counts[2],
                skyband_added=counts[3],
                skyband_removed=counts[4],
                skyband_expired=counts[5],
                pst_rebuilds=counts[6],
                skyband_size=skyband_size,
                staircase_size=staircase_size,
                window_occupancy=window_occupancy,
                phases=self._tick_phases,
            ))
        self._tick_phases = {}
        self._tick_counts = [0, 0, 0, 0, 0, 0, 0]

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def phase(self, name: str, seconds: float) -> None:
        hist = self._phase_hists.get(name)
        if hist is None:
            hist = self._phase_hists[name] = self._phase_family.labels(name)
        hist.observe(seconds)
        acc = self._tick_phases
        acc[name] = acc.get(name, 0.0) + seconds

    def on_window(self, arrivals: int, evictions: int) -> None:
        self._objects.inc(arrivals)
        counts = self._tick_counts
        counts[0] += arrivals
        if evictions:
            self._evictions.inc(evictions)
            counts[1] += evictions

    def on_candidates(self, count: int) -> None:
        self._candidates.inc(count)
        self._tick_counts[2] += count

    def on_skyband_delta(self, added: int, removed: int,
                         expired: int) -> None:
        counts = self._tick_counts
        if added:
            self._skyband_inserts.inc(added)
            counts[3] += added
        if removed:
            self._skyband_removals.inc(removed)
            counts[4] += removed
        if expired:
            self._skyband_expirations.inc(expired)
            counts[5] += expired

    def on_pst_insert(self) -> None:
        self._pst_inserts.inc()

    def on_pst_delete(self) -> None:
        self._pst_deletes.inc()

    def on_pst_rebuild(self, size: int, seconds: float,
                       partial: bool) -> None:
        self._pst_rebuilds.inc()
        self._pst_rebuild_size.observe(size)
        self._pst_rebuild_seconds.observe(seconds)
        self._tick_counts[6] += 1
        self.phase("pst_rebuild", seconds)

    def on_skiplist_traversal(self, steps: int) -> None:
        self._skiplist_traversals.inc(steps)

    def on_sweep(self, pairs: int, kept: int) -> None:
        self._sweeps.inc()
        self._sweep_pairs.inc(pairs)

    def on_apply_path(self, path: str) -> None:
        counter = self._apply_paths.get(path)
        if counter is None:
            counter = self._apply_paths[path] = (
                self._apply_path_family.labels(path)
            )
        counter.inc()

    def observe_results(self, seconds: float) -> None:
        self._results_seconds.observe(seconds)
