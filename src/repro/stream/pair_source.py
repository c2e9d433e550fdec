"""Incremental sorted-pair retrieval (paper §V-B.1, Fig 6).

When a new object ``o`` arrives, the TA-based maintenance (Algorithm 5)
needs, for every local term, the pairs of ``o`` enumerated in *ascending
local score* order without materializing all of them.  The stream
manager's sorted attribute lists make this possible:

* the partners sit in a skip list sorted on the attribute, with ``o``'s
  own node known, so partners above/below ``o`` form two sorted runs;
* the local function's declared trends say, per side, whether the best
  partner is the nearest one (walk *outward* from ``o``) or the farthest
  one (walk *inward* from the list's end);
* merging the two sides' cursors yields partners in ascending local
  score.

A third source enumerates pairs of ``o`` in ascending *age*: the pair
``(o, o_j)`` has age ``o_j.age`` (``o`` is the newest object), so newest
partners first.
"""

from __future__ import annotations

from typing import Iterator

from repro.scoring.local import (
    AbsoluteDifference,
    LocalScoringFunction,
    NegatedAbsoluteDifference,
    Trend,
)
from repro.stream.manager import StreamManager
from repro.stream.object import StreamObject
from repro.structures.skiplist import SkipList, SkipNode

__all__ = ["iter_pairs_by_local_score", "iter_pairs_by_age"]


def iter_pairs_by_local_score(
    manager: StreamManager,
    obj: StreamObject,
    attribute: int,
    local_fn: LocalScoringFunction,
) -> Iterator[tuple[StreamObject, float]]:
    """Yield ``(partner, local_score)`` for all pairs of ``obj`` on
    ``attribute`` in ascending local-score order.

    ``obj`` must already be inserted in the stream manager (it is the
    freshly arrived object).  Each window partner is yielded exactly once.
    Each side of ``obj``'s node has one cursor, best local score first:
    ``INCREASING_AWAY`` walks outward from the node to the list's end,
    ``DECREASING_AWAY`` inward from that end to the node.  On equal
    scores the partner above ``obj`` comes first.

    ``AbsoluteDifference`` and ``NegatedAbsoluteDifference`` themselves
    (not subclasses, which may override ``score``) get cursors that
    compute ``abs(reference - v)`` and ``-abs(reference - v)`` inline
    instead of calling ``score``: same order, same floats.
    """
    skiplist = manager.attribute_list(attribute)
    own_node = manager.node_for(obj, attribute)
    reference = obj.values[attribute]
    kind = type(local_fn)
    if kind is AbsoluteDifference:
        return _nearest_first(own_node, reference, attribute)
    if kind is NegatedAbsoluteDifference:
        return _farthest_first(skiplist, own_node, reference, attribute)
    return _by_trends(skiplist, own_node, reference, attribute, local_fn)


def _by_trends(
    skiplist: SkipList,
    own_node: SkipNode,
    reference: float,
    attribute: int,
    local_fn: LocalScoringFunction,
) -> Iterator[tuple[StreamObject, float]]:
    """The cursor of any local function, from its declared trends."""
    score = local_fn.score
    above_outward = local_fn.trend_above is Trend.INCREASING_AWAY
    below_outward = local_fn.trend_below is Trend.INCREASING_AWAY
    if above_outward:
        above, above_end = own_node.forward[0], None
    else:
        above, above_end = skiplist.node_at(-1), own_node
    if below_outward:
        below, below_end = own_node.prev, None
    else:
        below, below_end = skiplist.first_node(), own_node
    if above is not above_end:
        above_score = score(reference, above.value.values[attribute])
    if below is not below_end:
        below_score = score(reference, below.value.values[attribute])
    while above is not above_end and below is not below_end:
        if above_score <= below_score:
            yield above.value, above_score
            above = above.forward[0] if above_outward else above.prev
            if above is not above_end:
                above_score = score(reference, above.value.values[attribute])
        else:
            yield below.value, below_score
            below = below.prev if below_outward else below.forward[0]
            if below is not below_end:
                below_score = score(reference, below.value.values[attribute])
    while above is not above_end:
        yield above.value, above_score
        above = above.forward[0] if above_outward else above.prev
        if above is not above_end:
            above_score = score(reference, above.value.values[attribute])
    while below is not below_end:
        yield below.value, below_score
        below = below.prev if below_outward else below.forward[0]
        if below is not below_end:
            below_score = score(reference, below.value.values[attribute])


def _nearest_first(
    own_node: SkipNode, reference: float, attribute: int
) -> Iterator[tuple[StreamObject, float]]:
    """``AbsoluteDifference``'s cursor: both sides walk outward."""
    above = own_node.forward[0]
    below = own_node.prev
    if above is not None:
        above_score = abs(reference - above.value.values[attribute])
    if below is not None:
        below_score = abs(reference - below.value.values[attribute])
    while above is not None and below is not None:
        if above_score <= below_score:
            yield above.value, above_score
            above = above.forward[0]
            if above is not None:
                above_score = abs(reference - above.value.values[attribute])
        else:
            yield below.value, below_score
            below = below.prev
            if below is not None:
                below_score = abs(reference - below.value.values[attribute])
    while above is not None:
        yield above.value, above_score
        above = above.forward[0]
        if above is not None:
            above_score = abs(reference - above.value.values[attribute])
    while below is not None:
        yield below.value, below_score
        below = below.prev
        if below is not None:
            below_score = abs(reference - below.value.values[attribute])


def _farthest_first(
    skiplist: SkipList, own_node: SkipNode, reference: float, attribute: int
) -> Iterator[tuple[StreamObject, float]]:
    """``NegatedAbsoluteDifference``'s cursor: both sides walk inward
    from the list's ends to ``own_node``."""
    above = skiplist.node_at(-1)
    below = skiplist.first_node()
    if above is not own_node:
        above_score = -abs(reference - above.value.values[attribute])
    if below is not own_node:
        below_score = -abs(reference - below.value.values[attribute])
    while above is not own_node and below is not own_node:
        if above_score <= below_score:
            yield above.value, above_score
            above = above.prev
            if above is not own_node:
                above_score = -abs(reference - above.value.values[attribute])
        else:
            yield below.value, below_score
            below = below.forward[0]
            if below is not own_node:
                below_score = -abs(reference - below.value.values[attribute])
    while above is not own_node:
        yield above.value, above_score
        above = above.prev
        if above is not own_node:
            above_score = -abs(reference - above.value.values[attribute])
    while below is not own_node:
        yield below.value, below_score
        below = below.forward[0]
        if below is not own_node:
            below_score = -abs(reference - below.value.values[attribute])


def iter_pairs_by_age(
    manager: StreamManager, obj: StreamObject
) -> Iterator[StreamObject]:
    """Yield partners of ``obj`` in ascending *pair age* order.

    Since ``obj`` is the most recent object, the age of the pair
    ``(obj, partner)`` is the partner's age — so most recent partners
    come first.
    """
    for partner in manager.newest_first():
        if partner.seq != obj.seq:
            yield partner
