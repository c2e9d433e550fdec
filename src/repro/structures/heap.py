"""Binary heaps with explicit min/max orientation and optional key.

Paper Algorithm 4 ("UpdateSkybandAndStaircase") maintains a *max-heap keyed
on the ages* of the K pairs with the smallest ages seen so far; ``top()``
then yields the K-th smallest age.  The standard library only ships a
min-heap over raw lists, so this module provides a small, well-tested heap
class with explicit orientation and key.  The production sweep
(:func:`~repro.core.skyband_update.sweep_skyband`) runs :mod:`heapq` on
negated integer age keys instead; the test suite's reference sweep runs on
:class:`MaxHeap` as its oracle.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Optional

from repro.exceptions import EmptyStructureError

__all__ = ["Heap", "MaxHeap", "MinHeap"]


class Heap:
    """An array-backed binary heap.

    Parameters
    ----------
    items:
        Initial items, heapified in ``O(n)``.
    key:
        Extracts the comparison key from an item (default: identity).
    max_heap:
        ``True`` for a max-heap (largest key on top), ``False`` for min.
    """

    def __init__(
        self,
        items: Iterable[Any] = (),
        *,
        key: Optional[Callable[[Any], Any]] = None,
        max_heap: bool = False,
    ) -> None:
        self._key = key if key is not None else _identity
        self._max = max_heap
        self._data: list[Any] = list(items)
        self._heapify()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._data)

    def __bool__(self) -> bool:
        return bool(self._data)

    def __iter__(self) -> Iterator[Any]:
        """Iterate items in arbitrary (heap) order."""
        return iter(self._data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "max" if self._max else "min"
        return f"Heap({kind}, size={len(self._data)})"

    # ------------------------------------------------------------------
    def _higher(self, a: Any, b: Any) -> bool:
        """Whether item ``a`` should sit above item ``b``."""
        ka, kb = self._key(a), self._key(b)
        return ka > kb if self._max else ka < kb

    def _heapify(self) -> None:
        for i in range(len(self._data) // 2 - 1, -1, -1):
            self._sift_down(i)

    def _sift_up(self, i: int) -> None:
        data = self._data
        item = data[i]
        while i > 0:
            parent = (i - 1) >> 1
            if self._higher(item, data[parent]):
                data[i] = data[parent]
                i = parent
            else:
                break
        data[i] = item

    def _sift_down(self, i: int) -> None:
        data = self._data
        size = len(data)
        item = data[i]
        while True:
            left = 2 * i + 1
            if left >= size:
                break
            best = left
            right = left + 1
            if right < size and self._higher(data[right], data[left]):
                best = right
            if self._higher(data[best], item):
                data[i] = data[best]
                i = best
            else:
                break
        data[i] = item

    # ------------------------------------------------------------------
    def push(self, item: Any) -> None:
        """Insert an item in ``O(log n)``."""
        self._data.append(item)
        self._sift_up(len(self._data) - 1)

    def peek(self) -> Any:
        """The top item (smallest key for a min-heap, largest for max)."""
        if not self._data:
            raise EmptyStructureError("heap is empty")
        return self._data[0]

    def pop(self) -> Any:
        """Remove and return the top item in ``O(log n)``."""
        if not self._data:
            raise EmptyStructureError("heap is empty")
        data = self._data
        top = data[0]
        last = data.pop()
        if data:
            data[0] = last
            self._sift_down(0)
        return top

    def pushpop(self, item: Any) -> Any:
        """Push then pop, faster than the two calls; returns the popped top."""
        if self._data and self._higher(self._data[0], item):
            item, self._data[0] = self._data[0], item
            self._sift_down(0)
        return item

    def replace_top(self, item: Any) -> Any:
        """Pop the top and push ``item`` in one ``O(log n)`` step."""
        if not self._data:
            raise EmptyStructureError("heap is empty")
        top = self._data[0]
        self._data[0] = item
        self._sift_down(0)
        return top

    def clear(self) -> None:
        self._data.clear()

    def check_invariants(self) -> None:
        """Validate the heap property (test helper)."""
        data = self._data
        for i in range(1, len(data)):
            parent = (i - 1) >> 1
            assert not self._higher(data[i], data[parent]), (
                f"heap property violated at index {i}"
            )


class MaxHeap(Heap):
    """A max-heap: :meth:`peek` returns the item with the *largest* key."""

    def __init__(self, items: Iterable[Any] = (), *,
                 key: Optional[Callable[[Any], Any]] = None) -> None:
        super().__init__(items, key=key, max_heap=True)


class MinHeap(Heap):
    """A min-heap: :meth:`peek` returns the item with the *smallest* key."""

    def __init__(self, items: Iterable[Any] = (), *,
                 key: Optional[Callable[[Any], Any]] = None) -> None:
        super().__init__(items, key=key, max_heap=False)


def _identity(value: Any) -> Any:
    return value
