"""Tests for the priority search tree (paper Algorithms 1 and 2)."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pair import Pair, window_age_key_bound
from repro.exceptions import ItemNotFoundError
from repro.obs import MetricsRecorder
from repro.serve.session import ServerMonitor
from repro.stream.object import StreamObject
from repro.structures.pst import ALPHA, PrioritySearchTree

from tests.conftest import make_pair_at

NOW = 100


def build_pairs(age_scores):
    return [make_pair_at(age_score, now_seq=NOW) for age_score in age_scores]


def brute_top_k(pairs, k, n):
    in_window = [p for p in pairs if p.age(NOW) <= n]
    return sorted(in_window, key=lambda p: p.score_key)[:k]


def assert_same_pairs(got, want):
    assert [p.uid for p in got] == [p.uid for p in want]


class TestConstruction:
    def test_empty(self):
        pst = PrioritySearchTree()
        assert len(pst) == 0
        assert not pst
        assert pst.top_k(3, 0) == []

    def test_single_point(self):
        pairs = build_pairs([(1, 5.0)])
        pst = PrioritySearchTree(pairs)
        assert len(pst) == 1
        pst.check_invariants()

    def test_root_holds_minimum_age(self):
        pairs = build_pairs([(3, 1.0), (1, 9.0), (2, 5.0)])
        pst = PrioritySearchTree(pairs)
        assert pst.root.point.age(NOW) == 1

    def test_heap_and_split_invariants(self):
        pairs = build_pairs([(i, float((i * 37) % 11)) for i in range(1, 30)])
        pst = PrioritySearchTree(pairs)
        pst.check_invariants()

    def test_balanced_height(self):
        pairs = build_pairs([(i, float(i)) for i in range(1, 129)])
        pst = PrioritySearchTree(pairs)
        # A median-split PST over 128 points has height <= ~2 log2(128).
        assert pst.height() <= 14

    def test_points_iteration_complete(self):
        pairs = build_pairs([(i, float(i % 7)) for i in range(1, 20)])
        pst = PrioritySearchTree(pairs)
        assert {p.uid for p in pst.points()} == {p.uid for p in pairs}


class TestAlgorithm2:
    """The modified post-order top-k traversal."""

    @pytest.fixture
    def example(self):
        """A 2-skyband-like configuration in the spirit of paper Fig 3/4:
        eight pairs, age of pair i is i."""
        return build_pairs(
            [(1, 6.0), (2, 5.0), (3, 5.5), (4, 5.2),
             (5, 4.0), (6, 3.0), (7, 1.0), (8, 2.0)]
        )

    def test_all_k_n_combinations(self, example):
        pst = PrioritySearchTree(example)
        for k in range(1, 10):
            for n in range(1, 10):
                got = pst.top_k(k, window_age_key_bound(NOW, n))
                assert_same_pairs(got, brute_top_k(example, k, n))

    def test_out_of_window_subtree_skipped(self, example):
        """With n = 7 the age-8 pair must never appear (paper Example 1)."""
        pst = PrioritySearchTree(example)
        got = pst.top_k(8, window_age_key_bound(NOW, 7))
        assert all(p.age(NOW) <= 7 for p in got)
        assert len(got) == 7

    def test_k_larger_than_size(self, example):
        pst = PrioritySearchTree(example)
        got = pst.top_k(50, window_age_key_bound(NOW, 100))
        assert len(got) == 8

    def test_window_excludes_everything(self, example):
        pst = PrioritySearchTree(example)
        assert pst.top_k(3, window_age_key_bound(NOW, 0)) == []

    def test_result_sorted_by_score(self, example):
        pst = PrioritySearchTree(example)
        got = pst.top_k(5, window_age_key_bound(NOW, 8))
        keys = [p.score_key for p in got]
        assert keys == sorted(keys)

    def test_k_zero(self, example):
        pst = PrioritySearchTree(example)
        assert pst.top_k(0, window_age_key_bound(NOW, 8)) == []

    def test_random_configurations(self):
        rng = random.Random(3)
        for trial in range(25):
            size = rng.randint(1, 60)
            pairs = build_pairs(
                [(i, rng.uniform(0, 10)) for i in range(1, size + 1)]
            )
            pst = PrioritySearchTree(pairs)
            pst.check_invariants()
            for _ in range(10):
                k = rng.randint(1, size + 2)
                n = rng.randint(1, size + 2)
                got = pst.top_k(k, window_age_key_bound(NOW, n))
                assert_same_pairs(got, brute_top_k(pairs, k, n))

    def test_duplicate_ages(self):
        """Several pairs may share one age (pairs of one old object)."""
        pairs = build_pairs([(5, 1.0), (5, 2.0), (5, 3.0), (2, 9.0)])
        pst = PrioritySearchTree(pairs)
        pst.check_invariants()
        got = pst.top_k(2, window_age_key_bound(NOW, 5))
        assert_same_pairs(got, brute_top_k(pairs, 2, 5))

    def test_duplicate_scores_distinguished_by_key(self):
        pairs = build_pairs([(1, 4.0), (2, 4.0), (3, 4.0)])
        pst = PrioritySearchTree(pairs)
        got = pst.top_k(3, window_age_key_bound(NOW, 3))
        assert len(got) == 3
        assert len({p.uid for p in got}) == 3


class TestDynamicOperations:
    def test_insert_into_empty(self):
        pst = PrioritySearchTree()
        pair = make_pair_at((1, 5.0), now_seq=NOW)
        pst.insert(pair)
        assert len(pst) == 1
        pst.check_invariants()

    def test_incremental_inserts_match_bulk_build(self):
        rng = random.Random(17)
        pairs = build_pairs([(i, rng.uniform(0, 5)) for i in range(1, 40)])
        pst = PrioritySearchTree()
        for pair in pairs:
            pst.insert(pair)
            pst.check_invariants()
        for k in (1, 3, 10):
            for n in (5, 20, 40):
                got = pst.top_k(k, window_age_key_bound(NOW, n))
                assert_same_pairs(got, brute_top_k(pairs, k, n))

    def test_delete_leaf(self):
        pairs = build_pairs([(1, 1.0), (2, 2.0), (3, 3.0)])
        pst = PrioritySearchTree(pairs)
        pst.delete(pairs[2])
        assert len(pst) == 2
        pst.check_invariants()

    def test_delete_root(self):
        pairs = build_pairs([(1, 5.0), (2, 2.0), (3, 8.0)])
        pst = PrioritySearchTree(pairs)
        root_pair = pst.root.point
        pst.delete(root_pair)
        assert len(pst) == 2
        pst.check_invariants()
        assert root_pair.uid not in {p.uid for p in pst.points()}

    def test_delete_missing_raises(self):
        pairs = build_pairs([(1, 1.0)])
        pst = PrioritySearchTree(pairs)
        ghost = make_pair_at((2, 9.0), now_seq=NOW)
        with pytest.raises(ItemNotFoundError):
            pst.delete(ghost)

    def test_delete_everything(self):
        pairs = build_pairs([(i, float(i * 3 % 7)) for i in range(1, 25)])
        pst = PrioritySearchTree(pairs)
        for pair in pairs:
            pst.delete(pair)
            pst.check_invariants()
        assert len(pst) == 0

    def test_mixed_workload_matches_brute(self):
        rng = random.Random(23)
        pst = PrioritySearchTree()
        alive: list = []
        next_age = 1
        for step in range(400):
            if rng.random() < 0.65 or not alive:
                pair = make_pair_at(
                    (rng.randint(1, 50), rng.uniform(0, 10)), now_seq=NOW
                )
                next_age += 1
                pst.insert(pair)
                alive.append(pair)
            else:
                pair = alive.pop(rng.randrange(len(alive)))
                pst.delete(pair)
            if step % 25 == 0:
                pst.check_invariants()
                k = rng.randint(1, 10)
                n = rng.randint(1, 60)
                got = pst.top_k(k, window_age_key_bound(NOW, n))
                assert_same_pairs(got, brute_top_k(alive, k, n))
        pst.check_invariants()

    def test_rebuild_preserves_contents(self):
        pairs = build_pairs([(i, float(i % 5)) for i in range(1, 30)])
        pst = PrioritySearchTree(pairs)
        pst.rebuild()
        pst.check_invariants()
        assert {p.uid for p in pst.points()} == {p.uid for p in pairs}

    def test_find(self):
        pairs = build_pairs([(1, 3.0), (2, 1.0)])
        pst = PrioritySearchTree(pairs)
        assert pst.find(pairs[0].score_key).uid == pairs[0].uid
        assert pst.find((99.0, 0, 0)) is None

    def test_min_score_point(self):
        rng = random.Random(31)
        pairs = build_pairs([(i, rng.uniform(0, 9)) for i in range(1, 35)])
        pst = PrioritySearchTree(pairs)
        want = min(pairs, key=lambda p: p.score_key)
        assert pst.min_score_point().uid == want.uid

    def test_min_score_point_after_mutations(self):
        rng = random.Random(37)
        pst = PrioritySearchTree()
        alive = []
        for i in range(60):
            pair = make_pair_at((rng.randint(1, 20), rng.uniform(0, 9)),
                                now_seq=NOW)
            pst.insert(pair)
            alive.append(pair)
            if rng.random() < 0.3:
                gone = alive.pop(rng.randrange(len(alive)))
                pst.delete(gone)
            want = min(alive, key=lambda p: p.score_key)
            assert pst.min_score_point().uid == want.uid


class TestRebuildRule:
    """Scapegoat rebuilds run only on inserts that land deep."""

    def test_skyband_churn(self):
        """Skyband-shaped churn: every insert carries the newest age key
        (so it sifts down from the root), deletes hit random members, and
        the size climbs from 1 to 400 and falls back to 1.

        After every operation the tree holds its invariants, answers
        Algorithm 2 like a brute-force selection, and has at most
        ``1 + log(max(2m, m + 8)) / log(1/ALPHA)`` levels for ``m``
        points: an insert leaves every leaf within ``log(m') /
        log(1/ALPHA)`` edges of the root (``m'`` its size then), and the
        deletion rule keeps ``m' <= max(2m, m + 8)`` until the next full
        rebuild (pst.py's module docstring has the argument).
        """
        rng = random.Random(41)
        pst = PrioritySearchTree()
        alive: list[Pair] = []
        older_seq = 0
        growing = True
        step = 0
        while growing or len(alive) > 1:
            step += 1
            growing = growing and len(alive) < 400
            if not alive or rng.random() < (0.8 if growing else 0.2):
                older_seq += rng.random() < 0.8  # equal age keys now and then
                pair = Pair(StreamObject(older_seq, (0.0,)),
                            StreamObject(10_000 + step, (0.0,)),
                            rng.choice((rng.random(), 0.5)))
                pst.insert(pair)
                alive.append(pair)
            else:
                pst.delete(alive.pop(rng.randrange(len(alive))))
            pst.check_invariants()
            size = len(alive)
            assert len(pst) == size
            if size:
                bound = 1 + math.log(max(2 * size, size + 8)) / -math.log(ALPHA)
                assert pst.height() <= bound, (step, size, pst.height())
            by_score = sorted(alive, key=lambda p: p.score_key)
            for k, age_key in ((1, -older_seq), (5, -older_seq // 2),
                               (20, -older_seq // 2), (50, 0)):
                want = [p for p in by_score if p.age_key <= age_key][:k]
                assert_same_pairs(pst.top_k(k, age_key), want)

    def test_served_rebuild_rate(self):
        """A seeded stream of 4-row ops with perfbench ``ingest_fanout``'s
        four queries: at most one PST insert in 20 triggers a rebuild
        (testing balance at every node of every insert path rebuilt
        after about one in five)."""
        rng = random.Random(7)
        recorder = MetricsRecorder(trace=False)
        session = ServerMonitor(256, 2, recorder=recorder)
        session.ingest([[rng.random(), rng.random()] for _ in range(256)])
        for scoring, k, n in (("closest", 5, None), ("closest", 20, 256),
                              ("furthest", 10, None), ("similar", 5, None)):
            session.register(scoring, k, n)
        registry = recorder.registry
        inserts = registry.value("repro_pst_inserts_total")
        rebuilds = registry.value("repro_pst_rebuilds_total")
        for _ in range(100):
            session.ingest([[rng.random(), rng.random()] for _ in range(4)])
        inserts = registry.value("repro_pst_inserts_total") - inserts
        rebuilds = registry.value("repro_pst_rebuilds_total") - rebuilds
        assert inserts > 4000
        assert rebuilds / inserts < 0.05, (rebuilds, inserts)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 30), st.floats(0, 100)),
        min_size=1,
        max_size=40,
    ),
    st.integers(1, 12),
    st.integers(1, 35),
)
def test_property_topk_matches_brute(age_scores, k, n):
    pairs = build_pairs(age_scores)
    pst = PrioritySearchTree(pairs)
    pst.check_invariants()
    got = pst.top_k(k, window_age_key_bound(NOW, n))
    assert_same_pairs(got, brute_top_k(pairs, k, n))
