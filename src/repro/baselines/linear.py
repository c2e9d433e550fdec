"""The "linear" query answering competitor (paper §VI-C.1).

Scans the K-skyband in ascending score order, skipping pairs outside the
query window, and stops after ``k`` hits — ``O(|SKB|)`` worst case versus
Algorithm 2's ``O(log |SKB| + k)``.  When ``n`` is close to ``N`` almost
every scanned pair is a hit, so this scan degenerates to ``O(k)`` and can
even beat the PST traversal (paper Fig 10(d)); the benchmarks reproduce
that crossover.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.pair import Pair
from repro.obs.cost_model import Counters

__all__ = ["linear_top_k"]


def linear_top_k(
    skyband_by_score: Sequence[Pair],
    k: int,
    n: int,
    now_seq: int,
    *,
    counters: Optional[Counters] = None,
) -> list[Pair]:
    """Top-``k`` in-window pairs by a linear scan of the skyband."""
    answer: list[Pair] = []
    for pair in skyband_by_score:
        if counters is not None:
            counters.answer_scans += 1
        if pair.in_window(now_seq, n):
            answer.append(pair)
            if len(answer) == k:
                break
    return answer
