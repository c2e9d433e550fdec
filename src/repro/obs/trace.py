"""Structured per-tick tracing.

:class:`TickEvent` is one structured record per stream tick produced by
a :class:`~repro.obs.recorder.MetricsRecorder`: total append wall time,
a phase-timing breakdown (:data:`PHASES`), the skyband delta (pairs
added, removed and expired), PST rebuild count and the end-of-tick
skyband, staircase and window sizes.  Exported as JSON-lines or CSV via
:mod:`repro.obs.export`.

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

from dataclasses import dataclass, field

__all__ = ["PHASES", "TickEvent"]

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
