"""Tests for snapshot query answering (Algorithm 2 via the skyband PST)."""

from __future__ import annotations

import random

import pytest

from repro.baselines.brute import BruteForceReference
from repro.baselines.linear import linear_top_k
from repro.core.maintenance import SCaseMaintainer
from repro.core.query import TopKPairsQuery, answer_snapshot
from repro.exceptions import InvalidParameterError
from repro.obs.cost_model import Counters
from repro.scoring.library import k_closest_pairs, paper_scoring_functions
from repro.stream.manager import StreamManager


def build_state(rows, N, K, sf=None, d=2):
    sf = sf if sf is not None else k_closest_pairs(d)
    manager = StreamManager(N, d)
    maintainer = SCaseMaintainer(sf, K)
    ref = BruteForceReference(sf, N)
    for row in rows:
        event = manager.append(row)
        maintainer.on_tick(manager, (event.new,), event.expired)
        ref.append(row)
    return manager, maintainer, ref


def random_rows(count, d, seed):
    rng = random.Random(seed)
    return [tuple(rng.random() for _ in range(d)) for _ in range(count)]


class TestQueryDescriptor:
    def test_valid(self):
        q = TopKPairsQuery(k_closest_pairs(1), k=3, n=10)
        assert (q.k, q.n) == (3, 10)
        assert not q.continuous

    def test_ids_unique(self):
        sf = k_closest_pairs(1)
        a, b = TopKPairsQuery(sf, 1, 5), TopKPairsQuery(sf, 1, 5)
        assert a.query_id != b.query_id

    def test_k_validated(self):
        with pytest.raises(InvalidParameterError):
            TopKPairsQuery(k_closest_pairs(1), k=0, n=10)

    def test_n_validated(self):
        with pytest.raises(InvalidParameterError):
            TopKPairsQuery(k_closest_pairs(1), k=1, n=1)


class TestSnapshotAnswering:
    def test_matches_brute_force_over_k_n_grid(self):
        N, K = 30, 10
        manager, maintainer, ref = build_state(
            random_rows(90, 2, seed=1), N, K
        )
        now = manager.now_seq
        for k in (1, 2, 5, 10):
            for n in (2, 5, 15, 30):
                got = answer_snapshot(maintainer.pst, k, n, now)
                want = ref.top_k(k, n)
                assert [p.uid for p in got] == [p.uid for p in want], (k, n)

    def test_matches_linear_scan(self):
        N, K = 25, 6
        manager, maintainer, ref = build_state(
            random_rows(70, 2, seed=2), N, K
        )
        now = manager.now_seq
        for k in (1, 3, 6):
            for n in (3, 10, 25):
                pst_answer = answer_snapshot(maintainer.pst, k, n, now)
                scan_answer = linear_top_k(maintainer.skyband, k, n, now)
                assert [p.uid for p in pst_answer] == [
                    p.uid for p in scan_answer
                ]

    def test_every_paper_scoring_function(self):
        for sf in paper_scoring_functions(3):
            manager, maintainer, ref = build_state(
                random_rows(60, 3, seed=4), N=20, K=5, sf=sf, d=3
            )
            got = answer_snapshot(maintainer.pst, 5, 12, manager.now_seq)
            assert [p.uid for p in got] == [p.uid for p in ref.top_k(5, 12)]

    def test_short_stream_returns_what_exists(self):
        manager, maintainer, _ = build_state(
            random_rows(3, 2, seed=5), N=20, K=5
        )
        got = answer_snapshot(maintainer.pst, 10, 20, manager.now_seq)
        assert len(got) == 3  # 3 objects -> 3 pairs

    def test_empty_window(self):
        manager = StreamManager(10, 2)
        maintainer = SCaseMaintainer(k_closest_pairs(2), 3)
        assert answer_snapshot(maintainer.pst, 5, 10, 0) == []

    def test_counters_charged(self):
        counters = Counters()
        manager, maintainer, _ = build_state(
            random_rows(20, 2, seed=6), N=10, K=3
        )
        answer_snapshot(maintainer.pst, 2, 10, manager.now_seq,
                        counters=counters)
        assert counters.answer_scans == 1

    def test_snapshot_theorem1_uses_only_skyband(self):
        """Theorem 1: the K-skyband alone answers every Q(k<=K, n<=N)."""
        N, K = 20, 6
        manager, maintainer, ref = build_state(
            random_rows(100, 2, seed=7), N, K
        )
        skyband_uids = {p.uid for p in maintainer.skyband}
        now = manager.now_seq
        for k in (1, 3, 6):
            for n in (2, 10, 20):
                for pair in ref.top_k(k, n):
                    assert pair.uid in skyband_uids
