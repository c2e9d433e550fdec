"""Stream objects.

Every element of the data stream is a :class:`StreamObject`: an immutable
record with a strictly increasing arrival *sequence number*, a tuple of
``D`` numeric attribute values, an optional timestamp (for time-based
windows) and an optional opaque payload for the application (stock symbol,
auction id, sensor id, ...).

The paper's *age* (§II-B: the i-th most recent object has age ``i``) shifts
on every arrival; storing the sequence number instead makes all age
comparisons time-invariant:

    ``age(now) = now - seq + 1``

so ``a`` is older than ``b`` exactly when ``a.seq < b.seq``.
"""

from __future__ import annotations

import math
from numbers import Real
from typing import Any, Optional, Sequence

__all__ = ["StreamObject", "is_finite_real"]


def is_finite_real(value: Any) -> bool:
    """Whether ``value`` is a finite real number (bools are not)."""
    if isinstance(value, bool) or not isinstance(value, Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


class StreamObject:
    """One element of the data stream."""

    __slots__ = ("seq", "values", "timestamp", "payload")

    def __init__(
        self,
        seq: int,
        values: Sequence[float],
        timestamp: Optional[float] = None,
        payload: Any = None,
    ) -> None:
        self.seq = seq
        self.values = tuple(values)
        self.timestamp = timestamp
        self.payload = payload

    def age(self, now_seq: int) -> int:
        """The paper's age: 1 for the most recent object."""
        return now_seq - self.seq + 1

    def __getitem__(self, attribute: int) -> float:
        """Value of the object on ``attribute`` (0-based)."""
        return self.values[attribute]

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamObject):
            return NotImplemented
        return self.seq == other.seq

    def __hash__(self) -> int:
        return hash(self.seq)

    def __repr__(self) -> str:
        extra = f", payload={self.payload!r}" if self.payload is not None else ""
        return f"StreamObject(seq={self.seq}, values={self.values!r}{extra})"
