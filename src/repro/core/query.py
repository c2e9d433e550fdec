"""Snapshot query answering (paper §IV-A).

A snapshot query ``Q(k, n, s)`` is answered from the K-skyband of ``s``:
the priority search tree over the skyband is traversed in the paper's
modified post-order (Algorithm 2), which visits only in-window nodes and
stops after ``k`` post-order visits; the answer is selected from the
visited nodes plus the marked ancestors still on the stack, giving
``O(log |SKB| + k)`` worst case and ``O(log log n + log K + k)`` expected.

The module also carries the query descriptor shared by snapshot and
continuous execution.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.core.pair import Pair, window_age_key_bound
from repro.exceptions import InvalidParameterError
from repro.obs.cost_model import Counters
from repro.structures.pst import PrioritySearchTree

__all__ = ["TopKPairsQuery", "answer_snapshot"]

_query_ids = itertools.count(1)


class TopKPairsQuery:
    """The descriptor of one top-k pairs query ``Q(k, n, s)``."""

    __slots__ = ("query_id", "scoring_function", "k", "n", "continuous",
                 "pair_filter")

    def __init__(
        self,
        scoring_function,
        k: int,
        n: int,
        *,
        continuous: bool = False,
        pair_filter=None,
    ) -> None:
        if k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        if n < 2:
            raise InvalidParameterError(
                f"n must be >= 2 (a window with fewer than two objects "
                f"holds no pairs), got {n}"
            )
        self.query_id = next(_query_ids)
        self.scoring_function = scoring_function
        self.k = k
        self.n = n
        self.continuous = continuous
        self.pair_filter = pair_filter

    def __repr__(self) -> str:
        kind = "continuous" if self.continuous else "snapshot"
        return (
            f"TopKPairsQuery(id={self.query_id}, k={self.k}, n={self.n}, "
            f"s={self.scoring_function.name!r}, {kind})"
        )


def answer_snapshot(
    pst: PrioritySearchTree,
    k: int,
    n: int,
    now_seq: int,
    *,
    counters: Optional[Counters] = None,
) -> list[Pair]:
    """Paper Algorithm 2 over the skyband's PST.

    Returns the top-``k`` pairs with age at most ``n`` at stream time
    ``now_seq``, ascending by score.
    """
    if counters is not None:
        counters.answer_scans += 1
    return pst.top_k(k, window_age_key_bound(now_seq, n))
