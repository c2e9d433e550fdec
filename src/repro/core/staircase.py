"""The K-staircase (paper §V-A.1).

Given the current K-skyband, the K-staircase is a score-sorted list of
virtual points such that a pair is dominated by at least K skyband pairs
*iff* it is dominated by at least one staircase point.  Each staircase
point sits at ``(score of a skyband pair p, K-th smallest age among the
skyband pairs with score <= p.score)``; ages along the staircase are
non-increasing as scores grow, so a single binary search answers the
dominance test in ``O(log |SKB|)`` (the naive count is ``O(|SKB|)``).

Keys follow the library's perturbed total order: staircase points store
the originating pair's ``score_key`` tuple and an ``age_key`` threshold.
A query point with key ``q_key`` and age ``q_age_key`` is dominated iff
the staircase point with the largest ``score_key < q_key`` has
``age_key <= q_age_key`` (that point carries the smallest age threshold
among all eligible ones, so no other needs checking).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Sequence

__all__ = ["KStaircase"]


class KStaircase:
    """An immutable score-sorted staircase supporting dominance tests."""

    __slots__ = ("_score_keys", "_age_keys")

    def __init__(self, points: Sequence[tuple[Any, int]] = ()) -> None:
        """``points`` are ``(score_key, age_key)``, ascending in score_key
        with non-increasing ages, as Algorithm 4 produces them; they are
        not checked here (:meth:`check_invariants` does that).
        """
        score_keys, age_keys = zip(*points) if points else ((), ())
        self._score_keys = list(score_keys)
        self._age_keys = list(age_keys)

    def __len__(self) -> int:
        return len(self._score_keys)

    def __bool__(self) -> bool:
        return bool(self._score_keys)

    def points(self) -> list[tuple[Any, int]]:
        return list(zip(self._score_keys, self._age_keys))

    def prefix_points(self, count: int) -> list[tuple[Any, int]]:
        """The first ``count`` points ``(score_key, age_key)``.

        Used by the incremental maintenance fast path: when every skyband
        change sits at score positions >= ``idx``, the staircase points of
        the untouched prefix (there are ``max(0, idx - K + 1)`` of them)
        carry over verbatim and only the suffix is re-swept.
        """
        return list(zip(self._score_keys[:count], self._age_keys[:count]))

    def dominates(self, score_key: Any, age_key: int) -> bool:
        """Whether the K-skyband (via this staircase) dominates the point
        ``(score_key, age_key)`` — i.e. at least K skyband pairs do.

        ``score_key`` may be a pair's full key tuple or any tuple that
        compares against them (the TA threshold uses
        ``(score, -inf, -inf)`` as a conservative lower bound).
        """
        # Index of the first staircase key >= score_key; everything before
        # it has a strictly smaller score key.
        idx = bisect_left(self._score_keys, score_key)
        if idx == 0:
            return False
        return self._age_keys[idx - 1] <= age_key

    def check_invariants(self) -> None:
        """Scores strictly ascending, age thresholds non-increasing."""
        keys = self._score_keys
        ages = self._age_keys
        for i in range(1, len(keys)):
            assert keys[i - 1] < keys[i], "staircase scores out of order"
            assert ages[i - 1] >= ages[i], "staircase ages must not increase"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KStaircase(size={len(self)})"
