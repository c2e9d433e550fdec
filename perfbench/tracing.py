"""In-memory spans for the traced benchmark run.

Both sides of the traced run use one :class:`SpanLog`: the load
generator wraps the client library, and ``launch.py`` wraps the public
functions of every server layer before handing argv to ``repro serve``.
A span is one call of a wrapped function: name, start, end (both
``time.perf_counter``, which is ``CLOCK_MONOTONIC`` and so comparable
across the processes of one host), the span that was open when it
started, and one integer ``value`` (the request id of a decoded frame,
the byte size of an encoded one, ``-1`` otherwise).  Event records carry
the engine's own phase timings and counts, stamped with the time they
were reported.  Everything stays in parallel ``array`` columns until
:meth:`SpanLog.dump` pickles it at exit.

The parent is tracked with a :class:`contextvars.ContextVar`, so a span
opened inside an asyncio task that another span's task spawned (the
fair multiplexer runs ingest ticks that way) still finds its parent.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import pickle
from array import array
from time import perf_counter

__all__ = ["SpanLog", "frame_id", "load", "summarize"]


def frame_id(frame) -> int:
    """The request id a frame carries, or -1."""
    rid = frame.get("id") if isinstance(frame, dict) else None
    return rid if isinstance(rid, int) and not isinstance(rid, bool) else -1


class SpanLog:
    """Spans and timestamped events of one process, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self.ev_name = array("H")
        self.ev_time = array("d")
        self.ev_value = array("d")
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=-1
        )
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def current(self) -> int:
        """Index of the innermost open span in this context (-1: none)."""
        return self._current.get()

    def record(self, name: str, start: float, end: float, parent: int,
               value: int = -1) -> None:
        """Add a span measured by the caller (waits, not calls)."""
        self.name.append(self.name_id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        self.value.append(value)

    def event(self, name: str, value: float) -> None:
        """A timestamped engine report (a phase's seconds or a count)."""
        self.ev_name.append(self.name_id(name))
        self.ev_time.append(perf_counter())
        self.ev_value.append(value)

    def _open(self, nid: int) -> tuple[int, contextvars.Token]:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._current.get())
        self.end.append(0.0)
        self.value.append(-1)
        token = self._current.set(idx)
        self.start.append(perf_counter())
        return idx, token

    def wrap(self, name: str, fn, value_of=None):
        """``fn`` recording one span per call; ``value_of(result)``
        fills the span's value."""
        nid = self.name_id(name)
        ends, values, current = self.end, self.value, self._current

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                idx, token = self._open(nid)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    ends[idx] = perf_counter()
                    current.reset(token)
                if value_of is not None:
                    values[idx] = value_of(result)
                return result
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, token = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                current.reset(token)
            if value_of is not None:
                values[idx] = value_of(result)
            return result
        return traced

    def patch(self, owner, attr: str, name: str, value_of=None) -> None:
        """Replace ``owner.attr`` (a module global or class attribute,
        patched where its callers look it up) with a traced wrapper."""
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, value_of))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def snapshot(self, **meta) -> dict:
        return {
            "meta": meta,
            "names": list(self.names),
            "spans": (self.name, self.parent, self.start, self.end,
                      self.value),
            "events": (self.ev_name, self.ev_time, self.ev_value),
        }

    def dump(self, path: str, **meta) -> None:
        with open(path, "wb") as handle:
            pickle.dump(self.snapshot(**meta), handle,
                        protocol=pickle.HIGHEST_PROTOCOL)


def load(path: str) -> dict:
    """A dump written by :meth:`SpanLog.dump` (this benchmark's own
    launcher wrote it)."""
    with open(path, "rb") as handle:
        return pickle.load(handle)


def summarize(dump: dict, lo: float, hi: float) -> dict:
    """Totals per name over the spans and events that start in
    ``[lo, hi]``.

    Returns ``{"spans": {name: [total_s, self_s, calls, value_sum]},
    "events": {name: [value_sum, count]}}``.  Self time is a span's
    duration minus the durations of its direct children (children of
    one span never overlap: each process runs one request at a time).
    """
    names = dump["names"]
    name, parent, start, end, value = dump["spans"]
    covered = [0.0] * len(start)
    for i in range(len(start)):
        p = parent[i]
        if p >= 0:
            covered[p] += end[i] - start[i]
    spans: dict[str, list] = {}
    for i in range(len(start)):
        if not lo <= start[i] <= hi:
            continue
        row = spans.setdefault(names[name[i]], [0.0, 0.0, 0, 0])
        duration = end[i] - start[i]
        row[0] += duration
        row[1] += duration - covered[i]
        row[2] += 1
        if value[i] > 0:
            row[3] += value[i]
    events: dict[str, list] = {}
    ev_name, ev_time, ev_value = dump["events"]
    for i in range(len(ev_time)):
        if lo <= ev_time[i] <= hi:
            row = events.setdefault(names[ev_name[i]], [0.0, 0])
            row[0] += ev_value[i]
            row[1] += 1
    return {"spans": spans, "events": events}
