"""Priority search tree over (age, score) points.

Paper §IV-A indexes the K-skyband pairs in a priority search tree
(McCreight [20]): a binary tree that is simultaneously

* a *min-heap on ages* — a node's point is at least as recent as every
  point below it (paper property 1), and
* a *search tree on scores* — every node carries a ``split`` key; all points
  in its left subtree have score keys ``<= split`` and all points in its
  right subtree have score keys ``> split`` (paper property 2: a node's
  score is larger than all its left cousins' and smaller than all its right
  cousins').

Construction follows the paper's Algorithm 1 (pull out the minimum-age
point, split the rest at the median score).  The skyband maintenance module
also needs ``O(log |SKB|)`` *insert* and *delete*:

* ``insert`` descends by score key, swapping the carried point with the
  resident point whenever the carried one is more recent (the classic PST
  sift-down), and attaches a fresh leaf at the end of the path;
* ``delete`` finds the point by score key and fills the hole by repeatedly
  promoting the more-recent child point (classic PST deletion).

Both operations preserve the heap and split invariants but can skew the
tree, so the tree is rebalanced scapegoat-style (Galperin and Rivest).
Subtree sizes are tracked.  An insert whose new leaf lands at a depth
(edges from the root) above ``log(m) / log(1/ALPHA)``, ``m`` the size
after the insert, rebuilds with Algorithm 1 the *highest* node on its
path whose child outweighs ``ALPHA`` times the node (such a node exists:
were every node on the path balanced, the leaf's weight 1 would be at most
``ALPHA**depth * m``).  Shallow inserts rebuild nothing: on the served
skyband churn 1-2 % of inserts rebuild, where testing balance on every
insert path rebuilt about one in five (amortized ``O(log^2 m)`` per
update, ``m = |SKB|``, which is tiny — the expected skyband size is
``O(K log(N/K))``).  Deletions trigger a full rebuild once more points
were deleted since the last full rebuild than remain (and more than 8),
the standard scapegoat deletion rule.

Height bound.  Every insert leaves each leaf within ``log(m') /
log(1/ALPHA)`` edges of the root, ``m'`` the size at that insert: the
ancestors of the rebuilt node are balanced, which puts it at depth at
most ``log(m'/s) / log(1/ALPHA)`` for a subtree of ``s`` points, and
Algorithm 1 rebuilds it at most ``log2(s)`` deep.  Deletions only remove
leaves, and since the last full rebuild at most ``max(8, m)`` points were
deleted, so ``m' <= max(2m, m + 8)`` and the tree has at most
``1 + log(max(2m, m + 8)) / log(1/ALPHA)`` levels.

Points are duck-typed: anything exposing a totally ordered ``score_key``
and an integer-ordered ``age_key`` works.  In this library smaller
``age_key`` means *more recent* (see :mod:`repro.core.pair`).
"""

from __future__ import annotations

from math import log
from operator import attrgetter
from time import perf_counter
from typing import Any, Iterator, Optional, Protocol, Sequence

from repro.exceptions import ItemNotFoundError
from repro.obs.recorder import NULL_RECORDER
from repro.structures.selection import quickselect_smallest

__all__ = ["AgeScorePoint", "PrioritySearchTree", "PSTNode"]

ALPHA = 0.70  # weight-balance factor for scapegoat rebuilds
_LOG_INV_ALPHA = log(1 / ALPHA)

_score_key = attrgetter("score_key")
_age_key = attrgetter("age_key")


class AgeScorePoint(Protocol):
    """Structural type of the points a :class:`PrioritySearchTree` stores."""

    @property
    def score_key(self) -> Any: ...

    @property
    def age_key(self) -> Any: ...


class PSTNode:
    """A tree node: one point, a score split key, children and a size."""

    __slots__ = ("point", "split", "left", "right", "size")

    def __init__(self, point: AgeScorePoint, split: Any) -> None:
        self.point = point
        self.split = split
        self.left: Optional[PSTNode] = None
        self.right: Optional[PSTNode] = None
        self.size = 1

    def is_leaf(self) -> bool:
        return self.left is None and self.right is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PSTNode(point={self.point!r}, split={self.split!r}, size={self.size})"


class PrioritySearchTree:
    """A dynamic priority search tree on (age, score) points.

    Score keys must be unique across stored points (the library guarantees
    this via the footnote-1 tie-breaking key); ages may repeat freely.
    """

    def __init__(
        self,
        points: Sequence[AgeScorePoint] = (),
        *,
        recorder=None,
    ) -> None:
        self._root: Optional[PSTNode] = None
        self._obs = recorder if recorder is not None else NULL_RECORDER
        self._deletions_since_rebuild = 0
        if points:
            self._root = _build(sorted(points, key=_score_key))

    @classmethod
    def from_sorted(
        cls,
        points: Sequence[AgeScorePoint],
        *,
        recorder=None,
    ) -> "PrioritySearchTree":
        """Build from points already in ascending ``score_key`` order.

        Skips the constructor's re-sort — Algorithm 1 itself is ``O(m)``
        on sorted input (plus the age selections), so this is the path
        the skyband maintainer and the checkpoint structural restore use
        when they hold a score-sorted skyband.  Raises
        :class:`ValueError` when the input is out of order (a corrupt
        checkpoint must not become a silently broken tree).
        """
        for index in range(1, len(points)):
            if points[index].score_key <= points[index - 1].score_key:
                raise ValueError(
                    "from_sorted requires strictly ascending score keys: "
                    f"violation at position {index}"
                )
        tree = cls(recorder=recorder)
        if points:
            tree._root = _build(list(points))
        return tree

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._root.size if self._root is not None else 0

    def __bool__(self) -> bool:
        return self._root is not None

    def __iter__(self) -> Iterator[AgeScorePoint]:
        yield from self.points()

    def points(self) -> Iterator[AgeScorePoint]:
        """All stored points, in unspecified order."""
        stack = [self._root] if self._root is not None else []
        while stack:
            node = stack.pop()
            yield node.point
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)

    @property
    def root(self) -> Optional[PSTNode]:
        return self._root

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, point: AgeScorePoint) -> None:
        """Insert ``point`` in amortized ``O(log^2 m)``."""
        if self._obs.enabled:
            self._obs.on_pst_insert()
        if self._root is None:
            self._root = PSTNode(point, point.score_key)
            return
        path: list[PSTNode] = []
        node = self._root
        carried = point
        while True:
            path.append(node)
            node.size += 1
            if carried.age_key < node.point.age_key:
                carried, node.point = node.point, carried
            if carried.score_key <= node.split:
                if node.left is None:
                    node.left = PSTNode(carried, carried.score_key)
                    break
                node = node.left
            else:
                if node.right is None:
                    node.right = PSTNode(carried, carried.score_key)
                    break
                node = node.right
        if len(path) > log(self._root.size) / _LOG_INV_ALPHA:
            self._rebalance_path(path)

    def delete(self, point: AgeScorePoint) -> None:
        """Delete the point with ``point.score_key``; raises
        :class:`ItemNotFoundError` if absent.  Amortized ``O(log m)``."""
        target_key = point.score_key
        parent: Optional[PSTNode] = None
        node = self._root
        went_left = False
        path: list[PSTNode] = []
        while node is not None:
            path.append(node)
            if node.point.score_key == target_key:
                break
            parent = node
            went_left = target_key <= node.split
            node = node.left if went_left else node.right
        if node is None:
            raise ItemNotFoundError(point)
        if self._obs.enabled:
            self._obs.on_pst_delete()
        for ancestor in path:
            ancestor.size -= 1
        empty = _fill_hole(node)
        if empty:
            if parent is None:
                self._root = None
            elif went_left:
                parent.left = None
            else:
                parent.right = None
        self._deletions_since_rebuild += 1
        if self._root is not None and self._deletions_since_rebuild > max(
            8, self._root.size
        ):
            self.rebuild()

    def rebuild(self) -> None:
        """Rebuild the whole tree with Algorithm 1 (perfect balance)."""
        start = perf_counter()
        pts = sorted(self.points(), key=_score_key)
        self._root = _build(pts)
        self._deletions_since_rebuild = 0
        if self._obs.enabled:
            self._obs.on_pst_rebuild(
                len(pts), perf_counter() - start, partial=False
            )

    def _rebalance_path(self, path: list[PSTNode]) -> None:
        """Rebuild the *highest* α-unbalanced subtree on the insert path."""
        for i, node in enumerate(path):
            threshold = ALPHA * node.size
            left = node.left.size if node.left is not None else 0
            right = node.right.size if node.right is not None else 0
            if left > threshold or right > threshold:
                start = perf_counter()
                rebuilt = _build(sorted(_collect(node), key=_score_key))
                if i == 0:
                    self._root = rebuilt
                else:
                    parent = path[i - 1]
                    if parent.left is node:
                        parent.left = rebuilt
                    else:
                        parent.right = rebuilt
                if self._obs.enabled:
                    self._obs.on_pst_rebuild(
                        rebuilt.size, perf_counter() - start, partial=True
                    )
                return

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def top_k(self, k: int, max_age_key: Any) -> list[AgeScorePoint]:
        """Paper Algorithm 2: the ``k`` smallest-score points among those
        with ``age_key <= max_age_key``, in ascending score order.

        Runs the modified post-order traversal (skip out-of-window nodes,
        stop after ``k`` post-order visits), then selects the ``k`` best
        from the visited nodes plus the marked ancestors left on the stack,
        in time ``O(log m + k)``.
        """
        if k <= 0 or self._root is None:
            return []
        if self._root.point.age_key > max_age_key:
            # The root is the most recent point; if even it is outside the
            # window, every point is.
            return []
        stack: list[PSTNode] = [self._root]
        marked: set[int] = set()
        visited: list[PSTNode] = []
        while len(visited) < k and stack:
            node = stack[-1]
            if node.is_leaf() or id(node) in marked:
                visited.append(node)
                stack.pop()
            else:
                marked.add(id(node))
                right = node.right
                if right is not None and right.point.age_key <= max_age_key:
                    stack.append(right)
                left = node.left
                if left is not None and left.point.age_key <= max_age_key:
                    stack.append(left)
        candidates = [n.point for n in visited]
        candidates.extend(n.point for n in stack if id(n) in marked)
        return quickselect_smallest(candidates, k, key=lambda p: p.score_key)

    def find(self, score_key: Any) -> Optional[AgeScorePoint]:
        """The stored point with this exact score key, or ``None``."""
        node = self._root
        while node is not None:
            if node.point.score_key == score_key:
                return node.point
            node = node.left if score_key <= node.split else node.right
        return None

    def min_score_point(self) -> Optional[AgeScorePoint]:
        """The stored point with the globally smallest score key.

        When a node has a left child, everything in its right subtree is
        larger than its split and hence than the left subtree's minimum, so
        the global minimum is the node's own point or lives down the left
        child; when the left child is missing it is the point or lives down
        the right child.  One root-to-leaf walk suffices.
        """
        best: Optional[AgeScorePoint] = None
        node = self._root
        while node is not None:
            if best is None or node.point.score_key < best.score_key:
                best = node.point
            node = node.left if node.left is not None else node.right
        return best

    # ------------------------------------------------------------------
    # validation (test helper)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert heap order, split partition and size bookkeeping."""
        if self._root is None:
            return
        _check(self._root, None, None, None)

    def height(self) -> int:
        def rec(node: Optional[PSTNode]) -> int:
            if node is None:
                return 0
            return 1 + max(rec(node.left), rec(node.right))

        return rec(self._root)


def _build(pts_sorted: list[AgeScorePoint]) -> Optional[PSTNode]:
    """Paper Algorithm 1 on a score-sorted list of points."""
    if not pts_sorted:
        return None
    ages = list(map(_age_key, pts_sorted))
    min_index = ages.index(min(ages))  # the youngest; ties: the first
    point = pts_sorted[min_index]
    rest = pts_sorted[:min_index] + pts_sorted[min_index + 1:]
    if not rest:
        return PSTNode(point, point.score_key)
    mid = (len(rest) - 1) // 2
    node = PSTNode(point, rest[mid].score_key)
    node.left = _build(rest[: mid + 1])
    node.right = _build(rest[mid + 1:])
    node.size = len(pts_sorted)
    return node


def _collect(node: PSTNode) -> list[AgeScorePoint]:
    out: list[AgeScorePoint] = []
    stack = [node]
    while stack:
        cur = stack.pop()
        out.append(cur.point)
        if cur.left is not None:
            stack.append(cur.left)
        if cur.right is not None:
            stack.append(cur.right)
    return out


def _fill_hole(node: PSTNode) -> bool:
    """Classic PST deletion: promote the more-recent child point upward
    until the hole reaches a leaf.  Returns ``True`` when the *original*
    ``node`` itself became an empty leaf that the caller must unlink."""
    while True:
        left, right = node.left, node.right
        if left is None and right is None:
            return node.size == 0
        if right is None or (
            left is not None and left.point.age_key <= right.point.age_key
        ):
            child = left
            is_left = True
        else:
            child = right
            is_left = False
        assert child is not None
        node.point = child.point
        child.size -= 1
        if child.is_leaf():
            if is_left:
                node.left = None
            else:
                node.right = None
            return False
        node = child


def _check(
    node: PSTNode,
    min_age_key: Any,
    lo: Any,
    hi: Any,
) -> int:
    """Recursive invariant check; returns subtree size."""
    if min_age_key is not None:
        assert node.point.age_key >= min_age_key, "heap order violated"
    if lo is not None:
        assert node.point.score_key > lo, "score below subtree range"
    if hi is not None:
        assert node.point.score_key <= hi, "score above subtree range"
    size = 1
    if node.left is not None:
        size += _check(node.left, node.point.age_key, lo, node.split)
    if node.right is not None:
        size += _check(node.right, node.point.age_key, node.split, hi)
    assert size == node.size, f"size mismatch: {size} != {node.size}"
    return size
