"""The stream manager (paper §III-B, module 1).

Maintains the ``N`` most recent objects and ``D + 1`` sorted lists over
them:

* for every attribute ``0 <= i < D`` an indexable skip list sorted on the
  objects' i-th attribute values (ties broken by recency), used by the
  TA-based maintenance (Algorithm 5, Fig 6) to enumerate a new object's
  pairs in ascending local-score order;
* one list sorted on age, which is simply the window deque itself (objects
  arrive in age order, so no extra structure is needed).

Storage is ``O(N * D)``, which Theorem 4 proves is the lower bound: no
object inside the window may be dropped because a future arrival could form
a top-ranked pair with it, and all ``D`` attributes must be kept because
any subset may appear in a future scoring function.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.exceptions import InvalidParameterError
from repro.stream.object import StreamObject, is_finite_real
from repro.stream.window import CountBasedWindow, TimeBasedWindow
from repro.structures.skiplist import SkipList, SkipNode

__all__ = ["StreamManager", "ArrivalEvent", "checked_values"]


def checked_values(values: Sequence[float], num_attributes: int) -> tuple:
    """``values`` as a tuple, after checking it holds exactly
    ``num_attributes`` finite real numbers (no str, None, bool, NaN or
    infinity); raises :class:`InvalidParameterError` otherwise."""
    values = tuple(values)
    if len(values) != num_attributes:
        raise InvalidParameterError(
            f"expected {num_attributes} attribute values, "
            f"got {len(values)}"
        )
    for value in values:
        if not is_finite_real(value):
            raise InvalidParameterError(
                f"attribute values must be finite real numbers, "
                f"got {value!r}"
            )
    return values


class ArrivalEvent:
    """What happened when one object was appended to the stream."""

    __slots__ = ("new", "expired")

    def __init__(self, new: StreamObject, expired: list[StreamObject]) -> None:
        self.new = new
        self.expired = expired

    def __repr__(self) -> str:
        gone = [o.seq for o in self.expired]
        return f"ArrivalEvent(new={self.new.seq}, expired={gone})"


class StreamManager:
    """Window storage plus the ``D + 1`` sorted attribute lists."""

    def __init__(
        self,
        window_size: int,
        num_attributes: int,
        *,
        time_horizon: Optional[float] = None,
        seed: int = 0,
        recorder=None,
    ) -> None:
        if num_attributes < 1:
            raise InvalidParameterError(
                f"need at least one attribute, got {num_attributes}"
            )
        self.num_attributes = num_attributes
        if time_horizon is not None:
            self._window: CountBasedWindow | TimeBasedWindow = TimeBasedWindow(
                time_horizon
            )
            self.window_size = window_size  # upper bound used for sanity only
        else:
            self._window = CountBasedWindow(window_size)
            self.window_size = window_size
        # One skip list per attribute, keyed (value, seq) so duplicates of a
        # value keep a deterministic order and node removal is exact.
        self._seed = seed
        self._obs = recorder
        self._attribute_lists: list[SkipList] = [
            SkipList(
                key=lambda obj, i=i: (obj.values[i], obj.seq),
                seed=seed + i,
                recorder=recorder,
            )
            for i in range(num_attributes)
        ]
        self._nodes: dict[int, list[SkipNode]] = {}
        self._next_seq = 1

    # ------------------------------------------------------------------
    @property
    def now_seq(self) -> int:
        """Sequence number of the most recent object (0 before any)."""
        return self._next_seq - 1

    def __len__(self) -> int:
        return len(self._window)

    def __iter__(self) -> Iterator[StreamObject]:
        """Window objects, oldest first (= the age-sorted list)."""
        return iter(self._window)

    def newest_first(self) -> Iterator[StreamObject]:
        """Window objects, most recent first."""
        return self._window.newest_first()

    def objects(self) -> list[StreamObject]:
        return list(self._window)

    def oldest(self) -> Optional[StreamObject]:
        return self._window.oldest()

    def newest(self) -> Optional[StreamObject]:
        return self._window.newest()

    def attribute_list(self, attribute: int) -> SkipList:
        """The skip list sorted on ``attribute`` (0-based)."""
        return self._attribute_lists[attribute]

    def node_for(self, obj: StreamObject, attribute: int) -> SkipNode:
        """The skip-list node of ``obj`` in the list of ``attribute``."""
        return self._nodes[obj.seq][attribute]

    def object_at(self, seq: int) -> Optional[StreamObject]:
        """The window object with sequence number ``seq``, or ``None``
        when no such object is in the window."""
        nodes = self._nodes.get(seq)
        return nodes[0].value if nodes is not None else None

    def seed_sequence(self, next_seq: int) -> None:
        """Fast-forward the arrival counter so the *next* appended object
        gets sequence number ``next_seq``.

        Checkpoint restore (:mod:`repro.serve.checkpoint`) replays the
        saved window into a fresh manager; the replayed objects must keep
        their original sequence numbers or every derived pair key (uid,
        age_key, score_key tie-breaks) would change.  Only allowed on a
        manager that has never admitted an object.
        """
        if self._next_seq != 1 or self._nodes:
            raise InvalidParameterError(
                "seed_sequence is only allowed on a fresh stream manager"
            )
        if next_seq < 1:
            raise InvalidParameterError(
                f"next_seq must be >= 1, got {next_seq}"
            )
        self._next_seq = next_seq

    def load_window(self, objects: Sequence[StreamObject]) -> None:
        """Bulk-install a restored window into a fresh manager.

        The checkpoint structural-restore path rebuilds the window
        without replaying arrivals: objects (oldest first, strictly
        increasing seqs) go straight into the window, and each of the
        ``D`` attribute lists is built with
        :meth:`~repro.structures.skiplist.SkipList.bulk_load` from one
        sorted pass — ``O(N D log N)`` for the sorts instead of ``N``
        incremental inserts *plus* the ``O(N^2)`` skyband bootstraps
        replay would trigger downstream.  Objects are pushed through the
        window's own admission (so capacity/timestamp rules still
        apply); any eviction means the window never fit its
        configuration and raises.
        """
        if self._next_seq != 1 or self._nodes:
            raise InvalidParameterError(
                "load_window is only allowed on a fresh stream manager"
            )
        objects = list(objects)
        previous_seq = 0
        for obj in objects:
            if len(obj.values) != self.num_attributes:
                raise InvalidParameterError(
                    f"expected {self.num_attributes} attribute values, "
                    f"got {len(obj.values)} (seq {obj.seq})"
                )
            if obj.seq <= previous_seq:
                raise InvalidParameterError(
                    f"window seqs must be strictly increasing: {obj.seq} "
                    f"after {previous_seq}"
                )
            previous_seq = obj.seq
            if self._window.push(obj):
                raise InvalidParameterError(
                    "window objects do not fit the window configuration "
                    "(bulk load evicted an object)"
                )
        nodes_by_seq: dict[int, list[SkipNode]] = {
            obj.seq: [None] * self.num_attributes for obj in objects
        }
        for attribute in range(self.num_attributes):
            ordered = sorted(
                objects, key=lambda obj: (obj.values[attribute], obj.seq)
            )
            skiplist = SkipList.bulk_load(
                ordered,
                key=lambda obj, i=attribute: (obj.values[i], obj.seq),
                seed=self._seed + attribute,
                recorder=self._obs,
            )
            self._attribute_lists[attribute] = skiplist
            node = skiplist.first_node()
            while node is not None:
                nodes_by_seq[node.value.seq][attribute] = node
                node = node.next_at(0)
        self._nodes = nodes_by_seq
        if objects:
            self._next_seq = objects[-1].seq + 1

    # ------------------------------------------------------------------
    def append(
        self,
        values: Sequence[float],
        *,
        timestamp: Optional[float] = None,
        payload: object = None,
    ) -> ArrivalEvent:
        """Admit one new object; returns it plus any expired objects.

        Expired objects are removed from every sorted list before the
        event is returned, so consumers always see a consistent window
        that *includes* the new object and *excludes* the expired ones.
        Values that fail :func:`checked_values`, and a timestamp a time
        window refuses, raise before anything changes.
        """
        values = checked_values(values, self.num_attributes)
        obj = StreamObject(self._next_seq, values, timestamp, payload)
        expired = self._window.push(obj)
        self._next_seq += 1
        for gone in expired:
            nodes = self._nodes.pop(gone.seq)
            for attribute, node in enumerate(nodes):
                self._attribute_lists[attribute].remove_node(node)
        self._nodes[obj.seq] = [
            self._attribute_lists[attribute].insert(obj)
            for attribute in range(self.num_attributes)
        ]
        return ArrivalEvent(obj, expired)

    def extend(self, rows: Sequence[Sequence[float]]) -> list[ArrivalEvent]:
        """Append many rows; returns one event per row."""
        return [self.append(values) for values in rows]
