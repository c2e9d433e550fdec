"""Algorithm 4: joint K-skyband and K-staircase computation.

Given a score-sorted set of pairs, one sweep decides skyband membership
with a max-heap over the ages of the pairs kept so far (after Tsaparas et
al.'s ranked-join index construction [22]) and emits the matching
staircase point for every kept pair:

* while fewer than K pairs are kept, every pair joins the skyband (it has
  fewer than K potential dominators in total);
* afterwards, a pair whose age is at least the K-th smallest age seen so
  far is dominated by those K earlier (hence lower-score) pairs and is
  discarded; otherwise it joins, displaces the largest of the K tracked
  ages, and contributes the staircase point
  ``(its score key, new K-th smallest age)``.

Cost: ``O(|P| log K)`` for ``|P|`` input pairs.

Age keys are plain ints (``-older.seq``), so the max-heap is a
:mod:`heapq` min-heap of negated age keys: every heap operation runs in C
with no key-function calls, which is the bulk of the sweep's cost in pure
Python.  :func:`sweep_skyband` also accepts a *seed* for incremental
maintenance: because the heap state at any position depends only on the
kept pairs before it, a sweep may start mid-skyband when handed the age
keys of the K smallest-age prefix pairs.  The prefix's own membership and
staircase points are unchanged by construction, so only the suffix is
re-swept.
"""

from __future__ import annotations

from heapq import heapify, heappush, heappushpop
from typing import Sequence

from repro.core.pair import Pair
from repro.core.staircase import KStaircase
from repro.obs.cost_model import Counters

__all__ = [
    "sweep_skyband",
    "update_skyband_and_staircase",
]


def sweep_skyband(
    pairs_sorted: Sequence[Pair],
    K: int,
    *,
    seed: Sequence[int] = (),
    counters: Counters | None = None,
    recorder=None,
) -> tuple[list[Pair], list[tuple]]:
    """One (optionally seeded) Algorithm 4 sweep.

    Parameters
    ----------
    pairs_sorted:
        Candidate pairs in ascending ``score_key`` order.
    K:
        Skyband depth.
    seed:
        The *age keys* of the ``min(K, prefix size)`` smallest-age pairs
        of an untouched, already-kept prefix whose every member has a
        score key below ``pairs_sorted[0]``'s.  The sweep then behaves
        exactly as if it had processed that prefix first, but emits
        membership decisions and staircase points only for
        ``pairs_sorted``.  An empty seed is a plain full sweep.

    Returns
    -------
    ``(kept, points)`` — the kept pairs in ascending score order and the
    staircase points ``(score_key, age_key)`` they contributed.
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    # Min-heap of negated age keys == max-heap of age keys; heap[0] is
    # the negated K-th smallest age among the kept pairs so far.
    heap = [-age_key for age_key in seed]
    heapify(heap)
    size = len(heap)
    kept: list[Pair] = []
    points: list[tuple[tuple, int]] = []
    for pair in pairs_sorted:
        if counters is not None:
            counters.dominance_checks += 1
        if size < K:
            kept.append(pair)
            heappush(heap, -pair.age_key)
            size += 1
            if counters is not None:
                counters.heap_ops += 1
            if size == K:
                points.append((pair.score_key, -heap[0]))
        else:
            negated = -pair.age_key
            if negated <= heap[0]:
                # K earlier pairs have smaller score keys and ages <=
                # this pair's age: dominated, discard.
                continue
            kept.append(pair)
            heappushpop(heap, negated)
            if counters is not None:
                counters.heap_ops += 1
            points.append((pair.score_key, -heap[0]))
    if recorder is not None and recorder.enabled:
        recorder.on_sweep(len(pairs_sorted), len(kept))
    return kept, points


def update_skyband_and_staircase(
    pairs_sorted: Sequence[Pair],
    K: int,
    *,
    counters: Counters | None = None,
    recorder=None,
) -> tuple[list[Pair], KStaircase]:
    """Paper Algorithm 4.

    Parameters
    ----------
    pairs_sorted:
        Candidate pairs in ascending ``score_key`` order (the caller keeps
        the skyband sorted and merges new candidates in, so this order is
        available without re-sorting).
    K:
        Skyband depth — the largest ``k`` any sharing query may use.

    Returns
    -------
    ``(skyband, staircase)`` where ``skyband`` is the K-skyband in
    ascending score order and ``staircase`` the matching
    :class:`~repro.core.staircase.KStaircase`.
    """
    skyband, points = sweep_skyband(
        pairs_sorted, K, counters=counters, recorder=recorder
    )
    return skyband, KStaircase(points)
