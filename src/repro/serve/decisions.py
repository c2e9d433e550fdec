"""Shipped skyband decisions: a warm standby applies its primary's merges.

Theorems 1-2 make the K-skyband the complete maintainer state, and
Algorithm 4 decides it with a sweep whose heap only ever holds the ages
of *kept* pairs: a candidate the sweep discards changes nothing for any
other pair.  A merge of just the candidates another maintainer's merge
kept, from the same skyband at the same ``K``, therefore reproduces that
maintainer's skyband, staircase, removed set and answer deltas exactly,
with no candidate generation (Algorithm 5's TA walk) at all.

The primary records, for each engine tick of a replicated ingest op and
each skyband group, the pairs its merge added (:class:`DecisionRecorder`),
and the op's ``rows`` replication event carries them::

    "decisions": [                  # one entry per engine tick of the op
      [{"scoring": "closest", "K": 5,
        "added": [[older_seq, newer_seq, score], ...],   # score order
        "size": <|SKB| after the tick>,
        "digest": <the skyband's pair uids summed mod 2**64>},
       ...],                        # one entry per skyband group
      ...
    ]

A standby (:class:`DecisionApplier`) hands each group it holds at the
same ``(scoring, K)`` the shipped pairs, rebuilt on its own window
objects, as :meth:`~repro.core.maintenance.SkybandMaintainer.on_tick`'s
candidates; expiry and the merge run unchanged.  Any other group (a K
raised by a ``snapshot`` on either side, a group only a standby
``snapshot`` created, an event without decisions) computes its
candidates locally, as the primary did.  A shipped pair outside the
standby's window, a shipped pair its merge does not keep, a post-tick
size or digest that differs, or a number of decided ticks other than the
ticks the op runs raises :class:`~repro.exceptions.ReplicationError`.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Optional

from repro.core.maintenance import SkybandDelta
from repro.core.pair import Pair
from repro.exceptions import ReplicationError

__all__ = ["DecisionApplier", "DecisionRecorder"]

_DIGEST_MASK = (1 << 64) - 1
_uid = attrgetter("uid")


def _skyband_digest(skyband) -> int:
    """The pairs' uids summed mod ``2**64``: the post-tick check a
    standby compares against its primary's."""
    return sum(map(_uid, skyband)) & _DIGEST_MASK


def _scoring_names(session) -> dict[int, str]:
    """Wire scoring name by the ``id`` of the session's shared scoring
    instance (a skyband group's sharing key)."""
    return {id(fn): name for name, fn in session._scoring_instances.items()}


def _is_int(value) -> bool:
    return type(value) is int


class DecisionRecorder:
    """The primary's side: record each group's kept candidates per tick.

    Passed as ``decisions`` to :meth:`ServerMonitor.ingest
    <repro.serve.session.ServerMonitor.ingest>` only while the server
    has replication subscribers; afterwards :attr:`ticks` is the
    ``decisions`` field of the op's ``rows`` event.
    """

    def __init__(self, session) -> None:
        self._names = _scoring_names(session)
        #: one list of group decisions per engine tick of the op
        self.ticks: list[list[dict]] = []

    def begin_tick(self) -> None:
        self.ticks.append([])

    def on_tick(self, group, manager, arrived, expired) -> SkybandDelta:
        maintainer = group.maintainer
        delta = maintainer.on_tick(manager, arrived, expired)
        name = self._names.get(id(group.scoring_function))
        if name is not None:
            self.ticks[-1].append({
                "scoring": name,
                "K": maintainer.K,
                "added": [[pair.older.seq, pair.newer.seq, pair.score]
                          for pair in delta.added],
                "size": len(maintainer),
                "digest": _skyband_digest(maintainer.skyband),
            })
        return delta


class DecisionApplier:
    """A standby's side: apply one ``rows`` event's shipped decisions.

    ``ticks`` is the event's ``decisions`` field (``None`` when it has
    none: every group then computes its candidates) and ``rows`` the
    number of rows the standby ingests for the op.  Counts the group
    ticks by where their candidates came from.
    """

    def __init__(self, session, ticks: Optional[list], rows: int) -> None:
        self._namespace = session.namespace
        self._names = _scoring_names(session)
        if ticks is not None:
            expected = -(-rows // session.tick_rows)
            if not isinstance(ticks, list) or len(ticks) != expected:
                raise ReplicationError(
                    f"namespace {self._namespace!r}: the primary decided "
                    f"{len(ticks) if isinstance(ticks, list) else ticks!r}"
                    f" tick(s) for an op this standby runs as {expected}"
                )
            ticks = iter(ticks)
        self._ticks = ticks
        self._decided: dict[tuple, dict] = {}
        self.shipped_group_ticks = 0
        self.computed_group_ticks = 0

    def begin_tick(self) -> None:
        if self._ticks is None:
            return
        groups = next(self._ticks, None)
        if not isinstance(groups, list):
            raise self._malformed(groups)
        decided = {}
        for entry in groups:
            if not isinstance(entry, dict) \
                    or not isinstance(entry.get("scoring"), str) \
                    or not _is_int(entry.get("K")) \
                    or not isinstance(entry.get("added"), list):
                raise self._malformed(entry)
            decided[entry["scoring"], entry["K"]] = entry
        self._decided = decided

    def on_tick(self, group, manager, arrived, expired) -> SkybandDelta:
        maintainer = group.maintainer
        entry = self._decided.get(
            (self._names.get(id(group.scoring_function)), maintainer.K)
        )
        if entry is None:
            self.computed_group_ticks += 1
            return maintainer.on_tick(manager, arrived, expired)
        candidates = self._shipped_pairs(entry, manager)
        delta = maintainer.on_tick(manager, arrived, expired, candidates)
        if len(delta.added) != len(candidates):
            raise self._desync(
                entry, manager,
                f"this standby's merge kept {len(delta.added)} of the "
                f"{len(candidates)} pair(s) the primary's kept",
            )
        size, digest = len(maintainer), _skyband_digest(maintainer.skyband)
        if size != entry.get("size") or digest != entry.get("digest"):
            raise self._desync(
                entry, manager,
                f"the skyband holds {size} pair(s) with digest {digest} "
                f"after the tick, the primary's {entry.get('size')!r} "
                f"with digest {entry.get('digest')!r}",
            )
        self.shipped_group_ticks += 1
        return delta

    def _shipped_pairs(self, entry: dict, manager) -> list[Pair]:
        """The entry's pairs, rebuilt on this standby's window objects."""
        pairs = []
        object_at = manager.object_at
        for item in entry["added"]:
            if not isinstance(item, list) or len(item) != 3:
                raise self._malformed(item)
            older, newer, score = item
            if not _is_int(older) or not _is_int(newer) or older == newer \
                    or isinstance(score, bool) \
                    or not isinstance(score, (int, float)):
                raise self._malformed(item)
            a, b = object_at(older), object_at(newer)
            if a is None or b is None:
                raise self._desync(
                    entry, manager,
                    f"the primary kept pair ({older}, {newer}) but seq "
                    f"{older if a is None else newer} is outside this "
                    f"standby's window",
                )
            pairs.append(Pair(a, b, score))
        return pairs

    def _desync(self, entry: dict, manager, message: str
                ) -> ReplicationError:
        return ReplicationError(
            f"replication desync (namespace {self._namespace!r}, group "
            f"{entry['scoring']!r} K={entry['K']}, seq "
            f"{manager.now_seq}): {message}"
        )

    def _malformed(self, part) -> ReplicationError:
        return ReplicationError(
            f"malformed decisions on a rows event for namespace "
            f"{self._namespace!r}: {part!r}"
        )
