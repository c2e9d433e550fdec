"""Structured per-tick tracing.

Two layers of per-tick history live here:

* :class:`TickEvent` — one structured record per stream tick produced by
  a :class:`~repro.obs.recorder.MetricsRecorder`: total append wall time,
  a phase-timing breakdown (:data:`PHASES`), the skyband delta, PST
  rebuild count and the end-of-tick structure sizes.  Exported as
  JSON-lines or CSV via :mod:`repro.obs.export`.
* :class:`TraceRecorder` — the original skyband-dynamics recorder (one
  dict row per observed maintainer tick), kept byte-compatible with its
  historical CSV schema.

The phase keys, in the order the pipeline runs them:

=============  =========================================================
``window``     stream-manager eviction + skip-list insertion of the
               arrival (§III-B module 1)
``expire``     dropping skyband pairs whose older member expired,
               including the staircase repair below (§V expiry handling)
``staircase``  the Algorithm 4 sweep refreshing the staircase from the
               surviving skyband after expiry (subset of ``expire``)
``generate``   new-pair generation: Algorithm 3's window scan or
               Algorithm 5's TA round-robin (§V-A/§V-B)
``insert``     merging surviving candidates: Algorithm 4 over the merged
               set plus the PST/index diff (§V-A.2)
``queries``    refreshing continuous answers from the skyband delta
               (§IV-B)
``pst_rebuild``  scapegoat partial rebuilds plus full rebuilds of the
               priority search tree (overlaps ``insert``/``expire``)
=============  =========================================================

``staircase`` and ``pst_rebuild`` time is *also* contained in the phase
that triggered it, so the phases do not sum exactly to ``seconds``; the
remainder of ``seconds`` is monitor bookkeeping and (when enabled) the
runtime auditor.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING, Optional

from repro.obs.cost_model import Counters

if TYPE_CHECKING:  # imported for annotations only: core imports obs
    from repro.core.maintenance import SkybandDelta, SkybandMaintainer

__all__ = ["PHASES", "TickEvent", "TraceRecorder"]

#: canonical phase order for tabular exports
PHASES = (
    "window",
    "expire",
    "staircase",
    "generate",
    "insert",
    "queries",
    "pst_rebuild",
)


@dataclass
class TickEvent:
    """Everything one stream tick did, with wall-clock phase timings."""

    tick: int                   #: stream sequence number at tick end
    seconds: float              #: total wall time of the append / batch
    arrivals: int               #: objects admitted this tick
    evictions: int              #: objects expired from the window
    candidates: int             #: non-dominated new pairs collected
    skyband_added: int          #: pairs that entered the K-skyband
    skyband_removed: int        #: pairs dominated out of the K-skyband
    skyband_expired: int        #: pairs dropped because a member expired
    pst_rebuilds: int           #: PST partial + full rebuilds triggered
    skyband_size: int           #: total skyband size across groups
    staircase_size: int         #: total staircase size across groups
    window_occupancy: int       #: objects in the window at tick end
    phases: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        """A JSON-able record (phase timings nested under ``phases``)."""
        return {
            "tick": self.tick,
            "seconds": self.seconds,
            "arrivals": self.arrivals,
            "evictions": self.evictions,
            "candidates": self.candidates,
            "skyband_added": self.skyband_added,
            "skyband_removed": self.skyband_removed,
            "skyband_expired": self.skyband_expired,
            "pst_rebuilds": self.pst_rebuilds,
            "skyband_size": self.skyband_size,
            "staircase_size": self.staircase_size,
            "window_occupancy": self.window_occupancy,
            "phases": dict(self.phases),
        }

    def to_row(self) -> dict[str, object]:
        """A flat record for CSV export: one ``phase_<name>`` column per
        :data:`PHASES` entry (missing phases are 0.0)."""
        row = self.to_dict()
        phases = row.pop("phases")
        for name in PHASES:
            row[f"phase_{name}"] = phases.get(name, 0.0)
        return row


#: CSV header for :meth:`TickEvent.to_row`
TICK_FIELDS = (
    "tick", "seconds", "arrivals", "evictions", "candidates",
    "skyband_added", "skyband_removed", "skyband_expired", "pst_rebuilds",
    "skyband_size", "staircase_size", "window_occupancy",
) + tuple(f"phase_{name}" for name in PHASES)
__all__.append("TICK_FIELDS")


_FIELDS = (
    "tick",
    "skyband_size",
    "staircase_size",
    "added",
    "removed",
    "expired",
    "score_evaluations",
    "pairs_considered",
    "candidate_pairs",
)


class TraceRecorder:
    """Records one row of skyband dynamics per observed tick.

    The original ad-hoc trace layer, absorbed into :mod:`repro.obs`.  A
    recorder subscribes to a maintainer (or is fed deltas manually) and
    records one plain-dict row per stream tick: skyband size, staircase
    size, pairs added / removed / expired, and optionally the
    :class:`Counters` deltas.  Useful for plotting skyband dynamics
    against the Theorem 3 expectation, regression-testing steady-state
    behaviour, and debugging a live monitor (attach, run, dump).
    :meth:`to_csv` keeps its historical column set.
    """

    def __init__(self, counters: Optional[Counters] = None) -> None:
        self.counters = counters
        self.rows: list[dict[str, int]] = []
        self._tick = 0
        self._last_counter_snapshot = (
            counters.snapshot() if counters is not None else None
        )

    def __len__(self) -> int:
        return len(self.rows)

    def observe(
        self, maintainer: "SkybandMaintainer", delta: "SkybandDelta"
    ) -> dict[str, int]:
        """Record the outcome of one tick; returns the recorded row."""
        self._tick += 1
        row = {
            "tick": self._tick,
            "skyband_size": len(maintainer),
            "staircase_size": len(maintainer.staircase),
            "added": len(delta.added),
            "removed": len(delta.removed),
            "expired": len(delta.expired),
            "score_evaluations": 0,
            "pairs_considered": 0,
            "candidate_pairs": 0,
        }
        if self.counters is not None:
            snapshot = self.counters.snapshot()
            previous = self._last_counter_snapshot
            for field_name in ("score_evaluations", "pairs_considered",
                               "candidate_pairs"):
                row[field_name] = snapshot[field_name] - previous[field_name]
            self._last_counter_snapshot = snapshot
        self.rows.append(row)
        return row

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def mean(self, field_name: str) -> float:
        """Average of one recorded field across all ticks."""
        if not self.rows:
            raise ValueError("no rows recorded")
        return sum(row[field_name] for row in self.rows) / len(self.rows)

    def series(self, field_name: str) -> list[int]:
        return [row[field_name] for row in self.rows]

    def steady_state(self, skip_fraction: float = 0.5) -> "TraceRecorder":
        """A view over the later rows only (warm-up discarded)."""
        view = TraceRecorder()
        view.rows = self.rows[int(len(self.rows) * skip_fraction):]
        view._tick = self._tick
        return view

    def to_csv(self, handle: IO[str]) -> None:
        """Write all rows as CSV (header included)."""
        writer = csv.DictWriter(handle, fieldnames=_FIELDS)
        writer.writeheader()
        writer.writerows(self.rows)
