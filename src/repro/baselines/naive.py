"""The "naive" competitor (paper §VI-B).

The first naive idea — keep all ``O(N^2)`` pairs sorted — is dismissed by
the paper as too slow and too large.  The evaluated naive uses ``O(KN)``
space instead:

* for each newly arrived object, compute its K best pairs over the older
  window partners and keep them (every globally top-``k<=K`` pair is among
  the K best pairs of its *newer* member, so this is exact for ``n = N``);
* keep all stored pairs in one global score-sorted list for queries;
* when an object expires, delete its pairs; every unexpired object whose
  best-list referenced it must then *recompute* its K best pairs from
  scratch — the ``O(N)`` rescans that make naive orders of magnitude
  slower than the skyband approach.

``naive++`` (paper Fig 9) is this same algorithm instantiated per query
with ``K = k`` and ``window_size = n`` — see :meth:`NaiveAlgorithm.plus_plus`.

Exactness caveat (documented in DESIGN.md §3): the stored per-object
best-lists are computed against the *full* window, so answers are exact
for ``n = N`` (and for naive++, which is built with ``N = n``); the paper
uses the same construction.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

from repro.core.pair import Pair, make_pair
from repro.obs.cost_model import Counters
from repro.scoring.base import ScoringFunction
from repro.stream.object import StreamObject
from repro.structures.selection import quickselect_smallest
from repro.structures.skiplist import SkipList

__all__ = ["NaiveAlgorithm"]


class NaiveAlgorithm:
    """O(KN)-space naive top-k pairs monitoring."""

    def __init__(
        self,
        scoring_function: ScoringFunction,
        K: int,
        window_size: int,
        *,
        counters: Optional[Counters] = None,
    ) -> None:
        self.scoring_function = scoring_function
        self.K = K
        self.window_size = window_size
        self.counters = counters
        self._window: deque[StreamObject] = deque()
        self._best: dict[int, list[Pair]] = {}
        self._global = SkipList(key=lambda p: p.score_key)
        self._next_seq = 1

    @classmethod
    def plus_plus(
        cls,
        scoring_function: ScoringFunction,
        k: int,
        n: int,
        *,
        counters: Optional[Counters] = None,
    ) -> "NaiveAlgorithm":
        """The paper's naive++: built for one known query ``(k, n)``."""
        return cls(scoring_function, k, n, counters=counters)

    # ------------------------------------------------------------------
    @property
    def now_seq(self) -> int:
        return self._next_seq - 1

    @property
    def stored_pairs(self) -> int:
        return len(self._global)

    def append(self, values: Sequence[float]) -> StreamObject:
        """Admit one object: expire, then store the newcomer's K best."""
        obj = StreamObject(self._next_seq, values)
        self._next_seq += 1
        self._window.append(obj)
        while len(self._window) > self.window_size:
            self._expire(self._window.popleft())
        self._best[obj.seq] = []
        self._recompute_best(obj)
        return obj

    def _recompute_best(self, obj: StreamObject) -> None:
        """Set ``obj``'s best-list to its K smallest pairs over the older
        window partners, updating the global list accordingly."""
        for stale in self._best[obj.seq]:
            self._global.remove(stale)
        older = [p for p in self._window if p.seq < obj.seq]
        pairs = [
            make_pair(obj, partner, self.scoring_function, self.counters)
            for partner in older
        ]
        best = quickselect_smallest(pairs, self.K, key=lambda p: p.score_key)
        self._best[obj.seq] = best
        for pair in best:
            self._global.insert(pair)

    def _expire(self, gone: StreamObject) -> None:
        """Drop the expired object's pairs and refill damaged best-lists."""
        for pair in self._best.pop(gone.seq, []):
            self._global.remove(pair)
        # Pairs referencing `gone` as the older member live in the
        # best-lists of newer objects; those lists must be recomputed.
        damaged = [
            seq
            for seq, best in self._best.items()
            if any(pair.older.seq == gone.seq for pair in best)
        ]
        for seq in damaged:
            owner = next(o for o in self._window if o.seq == seq)
            self._recompute_best(owner)

    # ------------------------------------------------------------------
    def top_k(self, k: int, n: Optional[int] = None) -> list[Pair]:
        """Scan the global score-sorted list for the k best in-window
        pairs.  Exact for ``n = window_size`` (see module docstring)."""
        n = self.window_size if n is None else n
        answer: list[Pair] = []
        now = self.now_seq
        for pair in self._global:
            if self.counters is not None:
                self.counters.answer_scans += 1
            if pair.in_window(now, n):
                answer.append(pair)
                if len(answer) == k:
                    break
        return answer

    def check_invariants(self) -> None:
        """Every stored pair appears exactly once in the global list."""
        stored = [p for best in self._best.values() for p in best]
        assert len(stored) == len(self._global)
        assert {p.uid for p in stored} == {p.uid for p in self._global}
        window_seqs = {o.seq for o in self._window}
        for pair in stored:
            assert pair.older.seq in window_seqs
            assert pair.newer.seq in window_seqs
