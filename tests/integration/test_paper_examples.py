"""The paper's worked examples and stated claims, as executable tests."""

from __future__ import annotations

import random

from repro.baselines.brute import BruteForceReference
from repro.core.maintenance import SCaseMaintainer
from repro.core.pair import dominates, window_age_key_bound
from repro.core.skyband_update import update_skyband_and_staircase
from repro.scoring.library import k_closest_pairs
from repro.stream.manager import StreamManager
from repro.structures.pst import PrioritySearchTree

from tests.conftest import make_pair_at


class TestFigure1:
    """Six points in (age, score) space; p6 is dominated by p3 and p4."""

    POINTS = {
        "p1": (1, 9.0), "p2": (3, 6.0), "p3": (4, 4.0),
        "p4": (6, 2.0), "p5": (9, 1.0), "p6": (8, 5.0),
    }

    def pairs(self):
        return {name: make_pair_at(c) for name, c in self.POINTS.items()}

    def test_p6_has_exactly_two_dominators(self):
        pairs = self.pairs()
        dominators = [
            name
            for name, p in pairs.items()
            if name != "p6" and dominates(p, pairs["p6"])
        ]
        assert sorted(dominators) == ["p3", "p4"]

    def test_two_skyband_is_p1_to_p5(self):
        pairs = self.pairs()
        ordered = sorted(pairs.values(), key=lambda p: p.score_key)
        skyband, _ = update_skyband_and_staircase(ordered, K=2)
        assert {p.uid for p in skyband} == {
            pairs[n].uid for n in ("p1", "p2", "p3", "p4", "p5")
        }


class TestTheorem1And2:
    """K-skyband is sufficient (Thm 1) and minimal (Thm 2)."""

    def setup_method(self):
        self.sf = k_closest_pairs(2)
        self.N, self.K = 18, 4
        self.manager = StreamManager(self.N, 2)
        self.maintainer = SCaseMaintainer(self.sf, self.K)
        self.ref = BruteForceReference(self.sf, self.N)
        rng = random.Random(30)
        for _ in range(60):
            row = (rng.random(), rng.random())
            event = self.manager.append(row)
            self.maintainer.on_tick(self.manager, (event.new,), event.expired)
            self.ref.append(row)

    def test_theorem1_sufficiency(self):
        skyband_uids = {p.uid for p in self.maintainer.skyband}
        for k in range(1, self.K + 1):
            for n in range(2, self.N + 1):
                for pair in self.ref.top_k(k, n):
                    assert pair.uid in skyband_uids

    def test_theorem2_minimality(self):
        """Every skyband pair is the answer to *some* query
        Q(K, p.age, s) — so none can be dropped."""
        now = self.manager.now_seq
        for pair in self.maintainer.skyband:
            n = pair.age(now)
            answer_uids = {p.uid for p in self.ref.top_k(self.K, n)}
            assert pair.uid in answer_uids


class TestAlgorithm2Example:
    """Example 1's mechanics: a top-2 query over a window of size 7 on an
    eight-pair 2-skyband must skip the age-8 pair and return the two
    smallest in-window scores."""

    def test_example_mechanics(self):
        age_scores = [
            (1, 6.0), (2, 5.0), (3, 5.5), (4, 5.2),
            (5, 4.0), (6, 3.0), (7, 1.0), (8, 2.0),
        ]
        pairs = [make_pair_at(c, now_seq=100) for c in age_scores]
        pst = PrioritySearchTree(pairs)
        top2 = pst.top_k(2, window_age_key_bound(100, 7))
        assert [p.age(100) for p in top2] == [7, 6]
        assert [p.score for p in top2] == [1.0, 3.0]
        # The age-8 pair has the second-smallest score overall but is
        # outside the window, so it must not appear.
        assert all(p.age(100) <= 7 for p in top2)


class TestStorageLowerBound:
    """Theorem 4 flavour: dropping any in-window object breaks some
    future query, so the stream manager must keep the full window."""

    def test_every_window_object_can_form_the_top_pair(self):
        sf = k_closest_pairs(1)
        N = 10
        manager = StreamManager(N, 1)
        for v in range(N):
            manager.append((float(10 * v),))
        # For any surviving object, a newcomer at distance 0 makes it the
        # top-1 pair: so none was safe to delete.
        # objects()[0] is about to expire when the newcomer arrives, so
        # aim at the oldest *surviving* object.
        target = manager.objects()[1]
        maintainer = SCaseMaintainer(sf, K=1)
        maintainer.bootstrap(manager)
        event = manager.append((target.values[0],))
        maintainer.on_tick(manager, (event.new,), event.expired)
        best = maintainer.skyband[0]
        assert best.score == 0.0
        assert target.seq in (best.older.seq, best.newer.seq)
