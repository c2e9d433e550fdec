"""Sliding windows.

Paper §II-B defines two window flavours.  The algorithms are developed for
*count-based* windows (the most recent ``N`` objects); the paper remarks
the techniques also apply to *time-based* windows (objects younger than
``T`` time units).  Both are implemented here as thin policy objects that
the stream manager consults to decide which objects expire on arrival.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Optional

from repro.exceptions import WindowError
from repro.stream.object import StreamObject, is_finite_real

__all__ = ["CountBasedWindow", "TimeBasedWindow"]


class CountBasedWindow:
    """Holds the most recent ``capacity`` objects, oldest first."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise WindowError(f"window capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._objects: deque[StreamObject] = deque()

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[StreamObject]:
        """Oldest to newest."""
        return iter(self._objects)

    def __contains__(self, obj: StreamObject) -> bool:
        return bool(self._objects) and self._objects[0].seq <= obj.seq <= self._objects[-1].seq

    def newest_first(self) -> Iterator[StreamObject]:
        return reversed(self._objects)

    def oldest(self) -> Optional[StreamObject]:
        return self._objects[0] if self._objects else None

    def newest(self) -> Optional[StreamObject]:
        return self._objects[-1] if self._objects else None

    def push(self, obj: StreamObject) -> list[StreamObject]:
        """Admit ``obj``; return the objects that expire (0 or 1 of them)."""
        self._objects.append(obj)
        expired: list[StreamObject] = []
        while len(self._objects) > self.capacity:
            expired.append(self._objects.popleft())
        return expired


class TimeBasedWindow:
    """Holds the objects whose timestamp is within ``horizon`` of the
    newest timestamp.  Timestamps must be non-decreasing.

    This realizes the paper's §II-B remark: the same pair algorithms run
    unchanged because expiry is still strictly oldest-first, which is the
    only property they rely on.
    """

    def __init__(self, horizon: float) -> None:
        if horizon <= 0:
            raise WindowError(f"time horizon must be > 0, got {horizon}")
        self.horizon = horizon
        self._objects: deque[StreamObject] = deque()

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator[StreamObject]:
        return iter(self._objects)

    def newest_first(self) -> Iterator[StreamObject]:
        return reversed(self._objects)

    def oldest(self) -> Optional[StreamObject]:
        return self._objects[0] if self._objects else None

    def newest(self) -> Optional[StreamObject]:
        return self._objects[-1] if self._objects else None

    def push(self, obj: StreamObject) -> list[StreamObject]:
        """Admit ``obj``; return every object that falls off the horizon."""
        if obj.timestamp is None:
            raise WindowError("time-based windows require object timestamps")
        if not is_finite_real(obj.timestamp):
            raise WindowError(
                f"timestamps must be finite real numbers, got {obj.timestamp!r}"
            )
        if self._objects and obj.timestamp < self._objects[-1].timestamp:
            raise WindowError(
                "timestamps must be non-decreasing: "
                f"{obj.timestamp} after {self._objects[-1].timestamp}"
            )
        self._objects.append(obj)
        cutoff = obj.timestamp - self.horizon
        expired: list[StreamObject] = []
        while self._objects and self._objects[0].timestamp < cutoff:
            expired.append(self._objects.popleft())
        return expired
