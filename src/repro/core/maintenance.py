"""The skyband maintenance module (paper §V).

One maintainer exists per unique scoring function (Fig 2).  It owns:

* the K-skyband as a score-sorted list (rebuilt by Algorithm 4 sweeps),
* the K-staircase for ``O(log |SKB|)`` dominance tests,
* the priority search tree indexing the skyband for query answering,
* an index of skyband pairs by their older member's sequence number, so
  expiry removes exactly the right pairs in ``O(K log |SKB|)``.

Three maintenance strategies are provided:

* :class:`SCaseMaintainer` — paper Algorithm 3: on arrival, consider all
  ``O(N)`` new pairs, keep those not dominated by the staircase, then run
  Algorithm 4 over the merged candidate set.  Works for arbitrary scoring
  functions; expected cost ``O(N (log log N + log K))``.
* :class:`TAMaintainer` — paper Algorithm 5: for *global* scoring
  functions, consume the per-attribute sorted pair streams round-robin and
  stop once the TA threshold point is dominated by the staircase,
  examining only ``M = (d+1) N^{d/(d+1)} K^{1/(d+1)}`` pairs in
  expectation.
* :class:`BasicMaintainer` (in :mod:`repro.baselines.basic`) — Algorithm 3
  *without* the staircase, using dominance counting with early exit; the
  paper's "basic" competitor in Fig 12.

Expiry handling is shared: remove the expired objects' skyband pairs and
refresh the staircase from the surviving skyband (expiry can never add
skyband members — a dominator always has age at most its dominatee's, and
all maximal-age pairs expire together — but a stale staircase could keep
counting expired dominators, so it must be refreshed before the next
arrival's dominance tests).

Incremental maintenance
-----------------------
Every tick runs the paper's procedure once: expire, collect candidates,
re-run Algorithm 4.  A naive implementation pays a full Algorithm 4
rebuild per expired object and a full sweep + whole-skyband set diff per
arrival.  Both are avoidable because a sweep's heap state at position
``i`` depends only on the kept pairs before ``i``:

* **Coalesced expiry** — all of a tick's expiries drop their pairs in
  one pass, and the staircase is refreshed once: the prefix below the
  first removed position keeps its points verbatim, the heap is re-seeded
  with the ``K`` smallest-age prefix pairs (a C-speed
  ``heapq.nsmallest``), and only the suffix is re-swept.  A tick with
  ``E`` expiries costs one ``O(|SKB| log K)`` refresh instead of ``E``.
* **Incremental candidate insertion** — when the candidate set is small
  relative to ``|SKB|``, the same seeded suffix re-sweep merges the
  candidates in place of the full-skyband sweep, and the added/removed
  diff is computed over the suffix only.  When the delta is large the
  code falls back to the classic full sweep (same results, better
  constants at that size).

Both produce bit-identical skybands and staircases to a from-scratch
sweep over every window pair — enforced by ``repro.audit``'s STAIR-SYNC
/ SKB-* invariants, the brute-force cross-check and the test suite's
reference-sweep oracle.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left
from heapq import nsmallest
from operator import attrgetter
from time import perf_counter
from typing import Optional, Sequence

from repro.core.pair import (
    Pair,
    dominates,
    make_pair,
    pair_score_key,
)
from repro.core.skyband_update import (
    sweep_skyband,
    update_skyband_and_staircase,
)
from repro.core.staircase import KStaircase
from repro.exceptions import InvalidParameterError, ScoringFunctionError
from repro.obs.cost_model import Counters
from repro.obs.recorder import NULL_RECORDER
from repro.stream.manager import StreamManager
from repro.stream.object import StreamObject
from repro.stream.pair_source import iter_pairs_by_age, iter_pairs_by_local_score
from repro.structures.pst import PrioritySearchTree

__all__ = [
    "SkybandDelta",
    "SkybandMaintainer",
    "SCaseMaintainer",
    "TAMaintainer",
]

_score_key = attrgetter("score_key")
_age_key = attrgetter("age_key")


class SkybandDelta:
    """What changed in the K-skyband during one stream tick.

    ``added`` is sorted ascending by score key — the order the continuous
    query answering module consumes (paper §IV-B).
    """

    __slots__ = ("added", "removed", "expired", "_departed_uids")

    def __init__(
        self,
        added: list[Pair],
        removed: list[Pair],
        expired: list[Pair],
    ) -> None:
        self.added = added
        self.removed = removed
        self.expired = expired
        self._departed_uids: set[int] | None = None

    @property
    def departed_uids(self) -> set[int]:
        """Uids of all pairs that left the skyband this tick (removed or
        expired), computed once and shared by every query's update."""
        if self._departed_uids is None:
            departed = {p.uid for p in self.removed}
            departed.update(p.uid for p in self.expired)
            self._departed_uids = departed
        return self._departed_uids

    def __repr__(self) -> str:
        return (
            f"SkybandDelta(+{len(self.added)}, -{len(self.removed)}, "
            f"expired {len(self.expired)})"
        )


class SkybandMaintainer(ABC):
    """Shared skeleton of all skyband maintenance strategies.

    ``pair_filter`` (optional) restricts the pair universe: only pairs
    ``(a, b)`` with ``pair_filter(a, b)`` true exist for this maintainer
    — e.g. "same sector only".  The K-skyband is then the skyband *of the
    filtered pair set*, which answers every query sharing the same
    (scoring function, filter) combination.  Filters must be symmetric
    and time-invariant for a given pair of objects.
    """

    #: use the incremental insertion path when
    #: ``len(candidates) * incremental_ratio <= len(skyband)``; beyond
    #: that the classic full sweep has better constants.
    incremental_ratio = 4

    def __init__(
        self,
        scoring_function,
        K: int,
        *,
        counters: Optional[Counters] = None,
        pair_filter=None,
        recorder=None,
    ) -> None:
        if K < 1:
            raise InvalidParameterError(f"K must be >= 1, got {K}")
        self.scoring_function = scoring_function
        self.K = K
        self.counters = counters
        self.pair_filter = pair_filter
        self._obs = recorder if recorder is not None else NULL_RECORDER
        self._skyband: list[Pair] = []
        self._score_keys: list[tuple] = []
        self._age_keys: list[int] = []
        self._staircase = KStaircase()
        self._pst = PrioritySearchTree(recorder=self._obs)
        self._by_oldest: dict[int, list[Pair]] = {}

    # ------------------------------------------------------------------
    # read access
    # ------------------------------------------------------------------
    @property
    def skyband(self) -> list[Pair]:
        """The K-skyband in ascending score order (do not mutate)."""
        return self._skyband

    @property
    def staircase(self) -> KStaircase:
        return self._staircase

    @property
    def pst(self) -> PrioritySearchTree:
        return self._pst

    def __len__(self) -> int:
        return len(self._skyband)

    # ------------------------------------------------------------------
    # stream tick
    # ------------------------------------------------------------------
    def on_tick(
        self,
        manager: StreamManager,
        new_objs: Sequence[StreamObject],
        expired: list[StreamObject],
        candidates: Optional[list[Pair]] = None,
    ) -> SkybandDelta:
        """Process one stream tick: ``expired`` objects leave, then the
        ``new_objs`` arrivals (one or more, oldest first) are merged with
        one Algorithm 4 sweep.

        The skyband (and any continuous answers) is refreshed once per
        tick, over the pairs whose members are both alive in the tick's
        *final* window.  Candidate collection for each arrival sees only
        older partners (so each pair among the arrivals is collected
        exactly once, by its newer member), and the staircase from the
        tick's start is used for pruning — stale after the first arrival
        but conservative, since all of its implied dominators survive
        the tick's expiries (they are removed first, below).  A
        multi-row tick amortizes the merge / Algorithm 4 / PST-diff
        work over its arrivals; throughput vs latency is measured in
        bench_ablation.

        ``candidates``, when given, replaces candidate generation: the
        pairs, built on this window's objects, that the merge of another
        maintainer at the same ``K`` kept at this tick from the same
        state (a warm standby applying its primary's decisions).  The
        sweep's heap only ever holds kept pairs, so merging just those
        reproduces that maintainer's skyband, staircase and diff.
        """
        obs = self._obs
        enabled = obs.enabled
        if enabled:
            start = perf_counter()
        expired_pairs = self._expire(expired)
        if enabled:
            obs.phase("expire", perf_counter() - start)
            start = perf_counter()
        if candidates is None:
            candidates = []
            for new_obj in new_objs:
                candidates.extend(self._collect_candidates(manager, new_obj))
            if enabled:
                obs.phase("generate", perf_counter() - start)
                obs.on_candidates(len(candidates))
                start = perf_counter()
        added, removed = self._apply_candidates(candidates)
        if enabled:
            obs.phase("insert", perf_counter() - start)
            obs.on_skyband_delta(len(added), len(removed),
                                 len(expired_pairs))
        return SkybandDelta(added, removed, expired_pairs)

    # ------------------------------------------------------------------
    # expiry
    # ------------------------------------------------------------------
    def _expire(self, expired: list[StreamObject]) -> list[Pair]:
        """Drop the skyband pairs of every expired object, refreshing the
        staircase once for the whole tick."""
        if not expired:
            return []
        by_oldest = self._by_oldest
        dropped: list[Pair] = []
        for gone in expired:
            found = by_oldest.pop(gone.seq, None)
            if found:
                dropped.extend(found)
        if not dropped:
            return []
        pst = self._pst
        counters = self.counters
        for pair in dropped:
            pst.delete(pair)
        if counters is not None:
            counters.pst_deletes += len(dropped)
            counters.skyband_removals += len(dropped)
        # Membership cannot change on expiry, but the staircase must be
        # refreshed or it would keep counting expired dominators.  Only
        # the suffix from the first removed position onward can differ.
        dropped_uids = {p.uid for p in dropped}
        score_keys = self._score_keys
        idx = min(bisect_left(score_keys, p.score_key) for p in dropped)
        skyband = self._skyband
        survivors = [p for p in skyband[idx:] if p.uid not in dropped_uids]
        obs = self._obs
        if obs.enabled:
            start = perf_counter()
        self._refresh_suffix(idx, survivors)
        if obs.enabled:
            obs.phase("staircase", perf_counter() - start)
        return dropped

    def _refresh_suffix(
        self,
        idx: int,
        suffix_sorted: list[Pair],
        counters: Optional[Counters] = None,
    ) -> list[Pair]:
        """Replace the skyband from position ``idx`` on with a re-sweep of
        ``suffix_sorted``, keeping the untouched prefix's staircase points
        and seeding the sweep heap from the prefix; returns the kept
        suffix pairs.  ``idx == 0`` is a plain full sweep."""
        K = self.K
        seed = nsmallest(K, self._age_keys[:idx])
        kept, points = sweep_skyband(
            suffix_sorted, K, seed=seed, counters=counters, recorder=self._obs
        )
        self._skyband[idx:] = kept
        self._score_keys[idx:] = map(_score_key, kept)
        self._age_keys[idx:] = map(_age_key, kept)
        prefix_count = idx - K + 1
        if prefix_count > 0:
            points = self._staircase.prefix_points(prefix_count) + points
        self._staircase = KStaircase(points)
        return kept

    # ------------------------------------------------------------------
    # arrival
    # ------------------------------------------------------------------
    def _apply_candidates(
        self, candidates: list[Pair]
    ) -> tuple[list[Pair], list[Pair]]:
        """Merge candidate pairs into the skyband.

        The skyband prefix below the smallest candidate's score position
        ``idx`` cannot change (no candidate can dominate a lower-score
        pair), so only ``skyband[idx:]`` merged with the candidates is
        re-swept, against a heap seeded with the K smallest-age prefix
        pairs.  A candidate set large relative to the skyband (where
        seeding would be pure overhead), or one holding a new best pair,
        takes ``idx = 0``: the classic full Algorithm 4 sweep.  Both give
        identical skybands, staircases and diffs.
        """
        if not candidates:
            return [], []
        candidates.sort(key=_score_key)
        size = len(self._skyband)
        idx = 0
        if size and len(candidates) * self.incremental_ratio <= size:
            idx = bisect_left(self._score_keys, candidates[0].score_key)
        if self._obs.enabled:
            self._obs.on_apply_path("incremental" if idx else "sweep")
        suffix = self._skyband[idx:]
        kept = self._refresh_suffix(
            idx, _merge_by_score(suffix, candidates), self.counters
        )
        added, removed = _diff(suffix, kept, candidates)
        self._commit_diff(added, removed)
        return added, removed

    def _commit_diff(self, added: list[Pair], removed: list[Pair]) -> None:
        """Apply a skyband diff to the PST and the expiry index."""
        by_oldest = self._by_oldest
        for pair in removed:
            self._pst.delete(pair)
            by_oldest[pair.oldest_seq].remove(pair)
            if not by_oldest[pair.oldest_seq]:
                del by_oldest[pair.oldest_seq]
        for pair in added:
            self._pst.insert(pair)
            by_oldest.setdefault(pair.oldest_seq, []).append(pair)
        if self.counters is not None:
            self.counters.pst_deletes += len(removed)
            self.counters.skyband_removals += len(removed)
            self.counters.pst_inserts += len(added)
            self.counters.skyband_inserts += len(added)

    def _set_skyband(self, skyband: list[Pair], staircase: KStaircase) -> None:
        self._skyband = skyband
        self._score_keys = list(map(_score_key, skyband))
        self._age_keys = list(map(_age_key, skyband))
        self._staircase = staircase

    def bootstrap(self, manager: StreamManager) -> None:
        """(Re)build the skyband from scratch over the current window.

        Used when a query creates the group or raises its K.  Every
        window pair is scored once, in ``O(N + K)`` memory: a pair's
        dominators all have the same or a younger older member, so one
        pass walks the older member from the newest object to the
        oldest, keeps the K smallest score keys of each such group, and
        admits a key iff its rank in its group plus the number of
        smaller keys among the K smallest of all younger groups is below
        K.  Only members become :class:`Pair` objects; re-sweeping them
        through Algorithm 4 yields the staircase a sweep over every
        window pair would.
        """
        objects = manager.objects()
        keep = self.pair_filter
        score = self.scoring_function.score
        counters = self.counters
        K = self.K
        best: list[tuple] = []  # sorted K smallest keys of younger groups
        members: list[Pair] = []
        for i in range(len(objects) - 2, -1, -1):
            older = objects[i]
            seq = older.seq
            scored = [
                (pair_score_key(score(older, newer), seq, newer.seq), newer)
                for newer in objects[i + 1:]
                if keep is None or keep(older, newer)
            ]
            if counters is not None:
                counters.score_evaluations += len(scored)
            group = nsmallest(K, scored)
            for rank, (key, newer) in enumerate(group):
                if rank + bisect_left(best, key) >= K:
                    break  # so is every larger key of this group
                members.append(Pair(older, newer, key[0]))
            best = sorted(best + [key for key, _ in group])[:K]
        members.sort(key=_score_key)
        skyband, staircase = update_skyband_and_staircase(members, K)
        self._install_state(skyband, staircase)

    def load_state(self, skyband: list[Pair], staircase: KStaircase) -> None:
        """Install an externally reconstructed skyband wholesale.

        The checkpoint structural-restore path deserializes the skyband
        (score-ascending) and its staircase and installs them directly,
        skipping :meth:`bootstrap`'s ``O(N^2)`` pair scoring — the
        paper's point that the K-skyband is the *complete* maintainer
        state.  The caller is responsible for having validated the pairs
        against the live window (``restore_server_monitor`` re-sweeps
        them through Algorithm 4 before calling this); the PST is built
        with the sorted-input fast path and raises on out-of-order
        input.
        """
        self._install_state(skyband, staircase)

    def _install_state(
        self, skyband: list[Pair], staircase: KStaircase
    ) -> None:
        self._set_skyband(skyband, staircase)
        self._pst = PrioritySearchTree.from_sorted(
            skyband, recorder=self._obs
        )
        self._by_oldest = {}
        for pair in skyband:
            self._by_oldest.setdefault(pair.oldest_seq, []).append(pair)

    # ------------------------------------------------------------------
    @abstractmethod
    def _collect_candidates(
        self, manager: StreamManager, new_obj: StreamObject
    ) -> list[Pair]:
        """New pairs of ``new_obj`` that are *not* dominated by the current
        K-skyband (checked against the strategy's dominance structure)."""

    # ------------------------------------------------------------------
    # introspection (debugging / analysis helpers)
    # ------------------------------------------------------------------
    def dominators_of(self, pair: Pair) -> list[Pair]:
        """The skyband pairs dominating ``pair`` (ascending score).

        Explains membership decisions: a pair is (or would be) outside
        the K-skyband exactly when this list reaches length K, because
        the K smallest-score dominators of any pair are always skyband
        members (docs/design_notes.md §3).  ``O(|SKB|)`` — a debugging
        aid, not a hot path.
        """
        return [q for q in self._skyband if dominates(q, pair)]

    def contains(self, pair: Pair) -> bool:
        """Whether ``pair`` is currently a skyband member."""
        return any(
            q.uid == pair.uid
            for q in self._by_oldest.get(pair.oldest_seq, ())
        )

    def check_invariants(self, manager: StreamManager) -> None:
        """Cross-validate skyband, staircase, PST and index (test helper)."""
        assert self._score_keys == [p.score_key for p in self._skyband]
        assert self._age_keys == [p.age_key for p in self._skyband]
        assert sorted(self._score_keys) == self._score_keys
        self._staircase.check_invariants()
        self._pst.check_invariants()
        assert len(self._pst) == len(self._skyband)
        pst_uids = {p.uid for p in self._pst.points()}
        assert pst_uids == {p.uid for p in self._skyband}
        indexed = [p for pairs in self._by_oldest.values() for p in pairs]
        assert {p.uid for p in indexed} == pst_uids
        window_seqs = {o.seq for o in manager}
        for pair in self._skyband:
            assert pair.older.seq in window_seqs
            assert pair.newer.seq in window_seqs


class SCaseMaintainer(SkybandMaintainer):
    """Paper Algorithm 3: arbitrary scoring functions, staircase pruning."""

    def _collect_candidates(
        self, manager: StreamManager, new_obj: StreamObject
    ) -> list[Pair]:
        candidates: list[Pair] = []
        staircase = self._staircase
        counters = self.counters
        keep = self.pair_filter
        for partner in manager:
            if partner.seq >= new_obj.seq:
                continue  # a pair of two arrivals is its newer member's
            pair = make_pair(new_obj, partner, self.scoring_function, counters)
            if counters is not None:
                counters.pairs_considered += 1
                counters.staircase_checks += 1
            if staircase.dominates(pair.score_key, pair.age_key):
                # Dominated pairs are pruned regardless of the filter, so
                # the O(log |SKB|) staircase test runs first and the
                # (potentially expensive, user-supplied) filter is only
                # paid on surviving pairs.
                continue
            if keep is not None:
                if counters is not None:
                    counters.pair_filter_calls += 1
                if not keep(new_obj, partner):
                    continue
            candidates.append(pair)
            if counters is not None:
                counters.candidate_pairs += 1
        return candidates


class TAMaintainer(SkybandMaintainer):
    """Paper Algorithm 5: global scoring functions, threshold termination.

    Accesses the ``d`` local-score pair streams plus the age stream in
    round-robin order; stops as soon as the dummy threshold point —
    smallest possible score and age of any unseen pair — is dominated by
    the staircase (then every unseen pair is too), or as soon as any one
    stream is exhausted (each stream enumerates *all* partners, so one
    exhausted stream means every pair has been examined).
    """

    def __init__(
        self,
        scoring_function,
        K: int,
        *,
        counters: Optional[Counters] = None,
        schedule: str = "round-robin",
        pair_filter=None,
        recorder=None,
    ) -> None:
        if not scoring_function.is_global():
            raise ScoringFunctionError(
                "TAMaintainer requires a global scoring function; "
                f"{scoring_function.name!r} is not one"
            )
        if schedule not in ("round-robin", "adaptive"):
            raise InvalidParameterError(
                f"schedule must be 'round-robin' or 'adaptive', "
                f"got {schedule!r}"
            )
        super().__init__(scoring_function, K, counters=counters,
                         pair_filter=pair_filter, recorder=recorder)
        self.schedule = schedule

    def _collect_candidates(
        self, manager: StreamManager, new_obj: StreamObject
    ) -> list[Pair]:
        scoring_function = self.scoring_function
        terms = scoring_function.terms
        num_terms = len(terms)
        # The d local lists, then the age list: one access of each per
        # round (Algorithm 5's round robin).
        sources = [
            iter_pairs_by_local_score(manager, new_obj, attr, fn)
            for attr, fn in terms
        ]
        sources.append(iter_pairs_by_age(manager, new_obj))
        last_local: list[Optional[float]] = [None] * num_terms
        last_age_key: Optional[int] = None
        initialized = False
        seen: set[int] = set()
        candidates: list[Pair] = []
        staircase = self._staircase
        # bounds[seq - first]: the score above which the staircase
        # dominates a pair whose older member is seq (KStaircase
        # .score_bounds); equal scores compare full keys.
        first = manager.oldest().seq
        bounds = staircase.score_bounds(first, manager.now_seq)
        combine = scoring_function.combine
        score = scoring_function.score
        keep = self.pair_filter
        adaptive = self.schedule == "adaptive"
        every_term = range(num_terms)
        every_source = range(num_terms + 1)
        new_seq = new_obj.seq
        threshold_tests = filter_calls = 0
        done = False

        while not done:
            # Once every source has reported a frontier, it stays set.
            initialized = initialized or (
                last_age_key is not None and None not in last_local
            )
            indices = every_source
            if initialized:
                threshold_tests += 1
                # The threshold key (c, -inf, -inf) loses every tie.
                if combine(last_local) > bounds[-last_age_key - first]:
                    break  # the staircase dominates every unseen pair
                if adaptive:
                    # Advance only the local list currently holding the
                    # threshold down — the one with the smallest frontier
                    # score — instead of all d lists (§V-B extension).
                    indices = (min(every_term, key=last_local.__getitem__),
                               num_terms)
            for i in indices:
                item = next(sources[i], None)
                if item is None:
                    # Every list enumerates all partners, so one exhausted
                    # list means every pair has been examined.
                    done = True
                    break
                if i < num_terms:
                    partner, last_local[i] = item
                    seq = partner.seq
                else:
                    partner = item
                    seq = partner.seq
                    if seq < new_seq:
                        last_age_key = -seq
                    # A newer partner (a multi-row tick) leaves the age
                    # frontier alone, which only weakens the threshold.
                if seq >= new_seq or seq in seen:
                    # A newer partner's pair is its newer member's to
                    # collect; a partner seen on another list is scored.
                    continue
                seen.add(seq)
                value = score(new_obj, partner)
                # Most accessed pairs are dominated, so a Pair is built
                # only for the survivors.
                bound = bounds[seq - first]
                if value > bound or value == bound and staircase.dominates(
                        pair_score_key(value, seq, new_seq), -seq):
                    continue
                if keep is not None:
                    # As in SCase: prune on the cheap dominance test
                    # before paying the user-supplied filter.
                    filter_calls += 1
                    if not keep(new_obj, partner):
                        continue
                candidates.append(Pair(new_obj, partner, value))
        counters = self.counters
        if counters is not None:
            considered = len(seen)  # each scored pair entered seen once
            counters.score_evaluations += considered
            counters.pairs_considered += considered
            counters.staircase_checks += considered + threshold_tests
            counters.pair_filter_calls += filter_calls
            counters.candidate_pairs += len(candidates)
        return candidates


def _merge_by_score(a: list[Pair], b: list[Pair]) -> list[Pair]:
    """Merge two score-sorted pair lists into one sorted list (the sort
    finds the two runs and merges them; score keys are unique)."""
    merged = a + b
    merged.sort(key=_score_key)
    return merged


def _diff(
    before: list[Pair], after: list[Pair], candidates: list[Pair]
) -> tuple[list[Pair], list[Pair]]:
    """``(added, removed)`` when ``after`` was swept from ``before``
    merged with ``candidates``.  Candidates are new pairs, never members
    of ``before``, so the kept candidates are exactly the added pairs,
    and a member of ``before`` left only if fewer of them were kept."""
    candidate_ids = set(map(id, candidates))
    added = [p for p in after if id(p) in candidate_ids]
    if len(after) - len(added) == len(before):
        return added, []
    kept_ids = set(map(id, after))
    return added, [p for p in before if id(p) not in kept_ids]
