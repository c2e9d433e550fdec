"""Continuous query answering (paper §IV-B).

A continuous query keeps its current top-k answer in two orders — by score
(to know the k-th best score) and by age (to detect pairs sliding out of
the query's window) — and refreshes it incrementally on every stream tick:

1. drop answer pairs that left the skyband (expired from the maximum
   window or dominated out);
2. drop answer pairs whose age exceeded the query's own window ``n``;
3. merge the tick's newly added skyband pairs, which arrive sorted
   ascending by score: a new in-window pair enters while the answer is
   short or while it beats the current k-th best score, evicting the worst
   member; the merge stops at the first pair that cannot enter;
4. if fewer than ``k`` pairs remain, recompute from scratch with the
   snapshot algorithm — the paper shows this happens with probability
   only ``O(k/n)`` per update, so the expected amortized cost stays
   ``O(k/n (log |SKB| + k))``.
"""

from __future__ import annotations

from bisect import insort
from typing import Optional

from repro.core.maintenance import SkybandDelta
from repro.core.pair import Pair
from repro.core.query import TopKPairsQuery, answer_snapshot
from repro.obs.cost_model import Counters
from repro.structures.pst import PrioritySearchTree

__all__ = ["ContinuousQueryState"]


class ContinuousQueryState:
    """The live answer of one continuous top-k pairs query."""

    def __init__(
        self,
        query: TopKPairsQuery,
        *,
        counters: Optional[Counters] = None,
        on_change=None,
    ) -> None:
        self.query = query
        self.counters = counters
        self.recompute_count = 0
        #: optional ``on_change(entered, left)`` callback, invoked after a
        #: tick whose refresh changed the answer set (lists of pairs)
        self.on_change = on_change
        self._by_score: list[Pair] = []  # ascending score_key
        self._by_age: list[Pair] = []    # ascending age_key (newest first)

    # ------------------------------------------------------------------
    @property
    def answer(self) -> list[Pair]:
        """The current top-k pairs, ascending by score (do not mutate)."""
        return self._by_score

    def __len__(self) -> int:
        return len(self._by_score)

    # ------------------------------------------------------------------
    def initialize(self, pst: PrioritySearchTree, now_seq: int) -> None:
        """Compute the initial answer with the snapshot algorithm."""
        answer = answer_snapshot(
            pst, self.query.k, self.query.n, now_seq, counters=self.counters
        )
        self._by_score = list(answer)
        self._by_age = sorted(answer, key=lambda p: p.age_key)

    def apply(
        self,
        delta: SkybandDelta,
        pst: PrioritySearchTree,
        now_seq: int,
    ) -> list[Pair]:
        """Refresh the answer after one stream tick; returns it."""
        k, n = self.query.k, self.query.n
        before = (
            {p.uid: p for p in self._by_score}
            if self.on_change is not None
            else None
        )
        self._drop_departed(delta)
        self._drop_out_of_window(now_seq, n)
        if len(self._by_score) < k:
            # A slot opened: the rightful occupant may be an *old* skyband
            # pair that merging new arrivals would never surface, so fall
            # back to the snapshot algorithm (probability O(k/n) per
            # update — paper §IV-B).
            if self.counters is not None:
                self.counters.recomputations += 1
            self.recompute_count += 1
            self.initialize(pst, now_seq)
        else:
            self._merge_added(delta.added, now_seq, k, n)
        if before is not None:
            after = {p.uid: p for p in self._by_score}
            entered = [p for uid, p in after.items() if uid not in before]
            left = [p for uid, p in before.items() if uid not in after]
            if entered or left:
                self.on_change(entered, left)
        return self._by_score

    # ------------------------------------------------------------------
    def _drop_departed(self, delta: SkybandDelta) -> None:
        """Remove answer pairs that left the skyband this tick."""
        if not delta.removed and not delta.expired:
            return
        departed = delta.departed_uids
        if any(p.uid in departed for p in self._by_score):
            self._by_score = [
                p for p in self._by_score if p.uid not in departed
            ]
            self._by_age = [p for p in self._by_age if p.uid not in departed]

    def _drop_out_of_window(self, now_seq: int, n: int) -> None:
        """Remove answer pairs older than the query's own window."""
        by_age = self._by_age
        # Oldest pairs sit at the back of the age-key-ascending list.
        while by_age and by_age[-1].age(now_seq) > n:
            gone = by_age.pop()
            self._by_score.remove(gone)

    def _merge_added(
        self, added: list[Pair], now_seq: int, k: int, n: int
    ) -> None:
        """Paper §IV-B: scan the score-ascending list of new skyband pairs
        and admit those that beat the current k-th best score."""
        by_score = self._by_score
        for pair in added:
            if len(by_score) >= k and pair.score_key >= by_score[-1].score_key:
                break  # all remaining new pairs score even worse
            if not pair.in_window(now_seq, n):
                continue
            insort(by_score, pair, key=lambda p: p.score_key)
            insort(self._by_age, pair, key=lambda p: p.age_key)
            if len(by_score) > k:
                worst = by_score.pop()
                self._by_age.remove(worst)
