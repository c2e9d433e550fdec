"""The "supreme" lower-bound competitor (paper §VI-B).

The supreme algorithm assumes an oracle that answers questions in zero
time, letting it meet the cost lower bounds:

* **maintenance** — on every arrival it must still compute the score and
  age of each new pair (Algorithm 3 lines 2-3; Theorem-4-style arguments
  make ``O(N)`` unavoidable for arbitrary scoring functions), but all
  skyband bookkeeping is done by the oracle for free;
* **snapshot answering** — the oracle hands over the window-filtered,
  score-sorted skyband; supreme reads the first ``k`` pairs: ``O(k)``;
* **continuous answering** — the oracle notifies it of every change to
  the answer; supreme merely applies the diff.

Here the "oracle" is a real :class:`~repro.core.maintenance.SCaseMaintainer`
(so supreme stays exact), and the *chargeable* work is isolated: it is
timed into :attr:`chargeable_seconds` and counted into the supplied
:class:`~repro.obs.cost_model.Counters`, while oracle work is neither.
Benchmarks report only the chargeable cost, mirroring the paper's
accounting.  ``supreme++`` (Fig 9) is the same algorithm instantiated per
query with ``K = k`` and ``window_size = n``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional, Sequence

from repro.core.maintenance import SCaseMaintainer
from repro.core.pair import Pair
from repro.obs.cost_model import Counters
from repro.scoring.base import ScoringFunction
from repro.stream.manager import StreamManager

__all__ = ["SupremeAlgorithm"]


class SupremeAlgorithm:
    """Oracle-assisted lower-bound top-k pairs monitoring."""

    def __init__(
        self,
        scoring_function: ScoringFunction,
        K: int,
        window_size: int,
        num_attributes: int,
        *,
        counters: Optional[Counters] = None,
    ) -> None:
        self.scoring_function = scoring_function
        self.K = K
        self.window_size = window_size
        self.counters = counters
        #: accumulated wall time of all chargeable work
        self.chargeable_seconds = 0.0
        #: the query-answering share of :attr:`chargeable_seconds`
        self.chargeable_query_seconds = 0.0
        self._manager = StreamManager(window_size, num_attributes)
        # The oracle: a full maintainer that does the real bookkeeping.
        # Its work is deliberately *not* timed or counted.
        self.oracle = SCaseMaintainer(scoring_function, K)
        self._answers: dict[int, list[Pair]] = {}
        self._query_params: dict[int, tuple[int, int]] = {}

    @classmethod
    def plus_plus(
        cls,
        scoring_function: ScoringFunction,
        k: int,
        n: int,
        num_attributes: int,
        *,
        counters: Optional[Counters] = None,
    ) -> "SupremeAlgorithm":
        """The paper's supreme++: built for one known query ``(k, n)``."""
        return cls(scoring_function, k, n, num_attributes, counters=counters)

    # ------------------------------------------------------------------
    @property
    def now_seq(self) -> int:
        return self._manager.now_seq

    def append(self, values: Sequence[float]) -> None:
        """One stream tick: chargeable score/age pass, then oracle work."""
        # -- chargeable: lines 2-3 of Algorithm 3 ------------------------
        start = perf_counter()
        event = self._manager.append(values)
        new = event.new
        scoring = self.scoring_function.score
        scores = [
            scoring(new, partner)
            for partner in self._manager
            if partner.seq != new.seq
        ]
        self.chargeable_seconds += perf_counter() - start
        if self.counters is not None:
            self.counters.score_evaluations += len(scores)
            self.counters.pairs_considered += len(scores)
        # -- oracle: everything else, free -------------------------------
        self.oracle.on_tick(self._manager, (new,), event.expired)
        for query_id in list(self._answers):
            k, n = self._query_params[query_id]
            new_answer = self._oracle_top_k(k, n)
            self._apply_diff(query_id, new_answer)

    # ------------------------------------------------------------------
    # snapshot answering
    # ------------------------------------------------------------------
    def top_k(self, k: int, n: Optional[int] = None) -> list[Pair]:
        """Chargeable ``O(k)`` read of the oracle-prepared answer list."""
        n = self.window_size if n is None else n
        prepared = self._oracle_prepared_list(n)  # oracle work, free
        start = perf_counter()
        answer = prepared[:k]
        elapsed = perf_counter() - start
        self.chargeable_seconds += elapsed
        self.chargeable_query_seconds += elapsed
        if self.counters is not None:
            self.counters.answer_scans += len(answer)
        return answer

    def _oracle_prepared_list(self, n: int) -> list[Pair]:
        """Oracle: window-filtered, score-sorted skyband (free)."""
        now = self._manager.now_seq
        return [p for p in self.oracle.skyband if p.in_window(now, n)]

    def _oracle_top_k(self, k: int, n: int) -> list[Pair]:
        return self._oracle_prepared_list(n)[:k]

    # ------------------------------------------------------------------
    # continuous answering
    # ------------------------------------------------------------------
    def register_continuous(self, query_id: int, k: int, n: int) -> None:
        """Track a continuous query; the oracle pushes answer diffs."""
        self._query_params[query_id] = (k, n)
        self._answers[query_id] = self._oracle_top_k(k, n)

    def answer(self, query_id: int) -> list[Pair]:
        return list(self._answers[query_id])

    def _apply_diff(self, query_id: int, new_answer: list[Pair]) -> None:
        """Chargeable: apply the oracle's notified changes to the answer."""
        old = self._answers[query_id]
        old_uids = {p.uid for p in old}
        new_uids = {p.uid for p in new_answer}
        additions = [p for p in new_answer if p.uid not in old_uids]
        deletions = [p for p in old if p.uid not in new_uids]
        start = perf_counter()
        if additions or deletions:
            self._answers[query_id] = new_answer
        elapsed = perf_counter() - start
        self.chargeable_seconds += elapsed
        self.chargeable_query_seconds += elapsed
        if self.counters is not None:
            self.counters.answer_scans += len(additions) + len(deletions)
