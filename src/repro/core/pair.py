"""Pairs of stream objects in the (age, score) space.

Paper §III maps every pair ``(o_i, o_j)`` to a two-dimensional point:

* ``score`` — the value of the scoring function on the pair;
* ``age``   — ``max(o_i.age, o_j.age)``, i.e. the age of the *older*
  member, so a pair expires exactly when its older member expires.

Because every object's age shifts by +1 per arrival, we store the older
member's sequence number and derive the age on demand.  All algorithms only
ever *compare* ages, so they use the time-invariant ``age_key``:

    ``age_key = -oldest_seq``   (larger ``age_key``  <=>  older pair)

Footnote 1 of the paper resolves (score, age) ties by perturbing scores by
an infinitesimal based on the objects' ids.  We realize that as the total
order ``score_key = (score, age_key, uid)``: among equal raw scores the
*more recent* pair ranks first (which preserves classical dominance — a
pair with equal score and smaller age must still dominate), and the unique
integer ``uid`` breaks the remaining ties deterministically.

Dominance under this perturbation is:

    ``p dominates q  <=>  p.score_key < q.score_key and
                          p.age_key <= q.age_key``
"""

from __future__ import annotations

from typing import Any, Optional

from repro.stream.object import StreamObject

__all__ = ["Pair", "dominates", "pair_score_key", "window_age_key_bound"]

_UID_SHIFT = 40  # seq numbers stay far below 2**40 in any realistic run


def pair_score_key(score: float, older_seq: int,
                   newer_seq: int) -> tuple[float, int, int]:
    """The footnote-1 key ``(score, age_key, uid)`` of a pair.

    Lets a hot loop test the staircase on a pair it has not built yet;
    :class:`Pair` derives its own key here too.
    """
    return (score, -older_seq, (older_seq << _UID_SHIFT) | newer_seq)


class Pair:
    """An unordered pair of stream objects with its score.

    The pair is canonicalized so that ``older`` is the member with the
    smaller sequence number (``a.id < b.id`` in the paper's SQL example).
    """

    __slots__ = ("older", "newer", "score", "score_key", "age_key", "uid")

    def __init__(self, a: StreamObject, b: StreamObject, score: float) -> None:
        if a.seq == b.seq:
            raise ValueError("a pair needs two distinct objects")
        if a.seq < b.seq:
            self.older, self.newer = a, b
        else:
            self.older, self.newer = b, a
        self.score = score
        self.score_key = key = pair_score_key(
            score, self.older.seq, self.newer.seq
        )
        #: time-invariant age coordinate: larger means older
        self.age_key = key[1]
        #: a unique integer id for the (unordered) pair of objects
        self.uid = key[2]

    # ------------------------------------------------------------------
    @property
    def oldest_seq(self) -> int:
        """Sequence number of the older member (controls expiry)."""
        return self.older.seq

    def age(self, now_seq: int) -> int:
        """The paper's age at stream time ``now_seq``."""
        return now_seq - self.older.seq + 1

    def in_window(self, now_seq: int, n: int) -> bool:
        """Whether the pair lies in the sliding window of size ``n``."""
        return self.age(now_seq) <= n

    def objects(self) -> tuple[StreamObject, StreamObject]:
        return (self.older, self.newer)

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pair):
            return NotImplemented
        return self.uid == other.uid

    def __hash__(self) -> int:
        return hash(self.uid)

    def __lt__(self, other: "Pair") -> bool:
        """Pairs order by their perturbed score key (footnote 1)."""
        return self.score_key < other.score_key

    def __repr__(self) -> str:
        return (
            f"Pair(older={self.older.seq}, newer={self.newer.seq}, "
            f"score={self.score:.6g})"
        )


def dominates(p: Pair, q: Pair) -> bool:
    """Whether ``p`` dominates ``q`` in the perturbed (age, score) space."""
    return p.score_key < q.score_key and p.age_key <= q.age_key


def window_age_key_bound(now_seq: int, n: int) -> int:
    """The largest ``age_key`` still inside the window of size ``n``.

    A pair is in the window iff ``age <= n`` iff
    ``oldest_seq >= now_seq - n + 1`` iff ``age_key <= n - now_seq - 1``.
    """
    return n - now_seq - 1


def make_pair(
    a: StreamObject,
    b: StreamObject,
    scoring_function: Any,
    counters: Optional[Any] = None,
) -> Pair:
    """Build a scored pair, charging one score evaluation to ``counters``."""
    if counters is not None:
        counters.score_evaluations += 1
    return Pair(a, b, scoring_function.score(a, b))


__all__.append("make_pair")
