"""Operation counters — the machine-independent cost model.

The paper's "supreme" competitor (§VI-B) assumes an oracle that performs
all bookkeeping for free, so only *chargeable* operations (score and age
computations, the O(k) answer scan) count toward its cost.  To make that
accounting concrete — and to report costs that do not depend on the Python
interpreter's constant factors — every algorithm in this library can be
handed a :class:`Counters` instance and will tally its primitive
operations into it.

The counters also power the benchmark harness's operation-count mode and
the complexity-trend tests (e.g. "maintenance cost grows ~linearly in N").

The cost model is part of the :mod:`repro.obs` observability layer.
Wall-clock metrics (the :class:`~repro.obs.metrics.MetricsRegistry` fed
by a :class:`~repro.obs.recorder.MetricsRecorder`) complement rather
than replace these machine-independent tallies; when a monitor carries
both, the overlapping counts agree (see ``tests/obs/test_compat.py``).
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["Counters", "CountingScoringFunction"]


class Counters:
    """Tallies of the primitive operations the paper's analysis counts."""

    __slots__ = (
        "score_evaluations",
        "pairs_considered",
        "pair_filter_calls",
        "candidate_pairs",
        "dominance_checks",
        "staircase_checks",
        "skyband_inserts",
        "skyband_removals",
        "pst_inserts",
        "pst_deletes",
        "heap_ops",
        "answer_scans",
        "recomputations",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for field in self.__slots__:
            setattr(self, field, 0)

    def total(self) -> int:
        """A single scalar summary (sum of all tallies)."""
        return sum(getattr(self, field) for field in self.__slots__)

    def snapshot(self) -> dict[str, int]:
        return {field: getattr(self, field) for field in self.__slots__}

    def items(self) -> Iterator[tuple[str, int]]:
        for field in self.__slots__:
            yield field, getattr(self, field)

    def __repr__(self) -> str:
        nonzero = ", ".join(f"{k}={v}" for k, v in self.items() if v)
        return f"Counters({nonzero})"


class CountingScoringFunction:
    """Wraps a scoring function, charging each evaluation to a counter.

    Duck-types as a :class:`~repro.scoring.base.ScoringFunction`; also
    forwards the global-scoring-function surface (``terms``, ``combine``)
    when the wrapped function has it, so the TA path works through the
    wrapper too.
    """

    def __init__(self, inner, counters: Counters) -> None:
        self.inner = inner
        self.counters = counters
        self.name = f"counted({inner.name})"

    def score(self, a, b) -> float:
        self.counters.score_evaluations += 1
        return self.inner.score(a, b)

    def is_global(self) -> bool:
        return self.inner.is_global()

    @property
    def attributes(self):
        return self.inner.attributes

    @property
    def terms(self):
        return self.inner.terms

    def combine(self, local_scores) -> float:
        return self.inner.combine(local_scores)

    def __call__(self, a, b) -> float:
        return self.score(a, b)

    def __repr__(self) -> str:
        return f"CountingScoringFunction({self.inner!r})"
