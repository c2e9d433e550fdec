"""Tests for the maintainer's introspection helpers."""

from __future__ import annotations

import random

from repro.core.maintenance import SCaseMaintainer
from repro.core.pair import dominates, make_pair
from repro.scoring.library import k_closest_pairs
from repro.stream.manager import StreamManager


def build(N=20, K=3, ticks=70, seed=1):
    rng = random.Random(seed)
    sf = k_closest_pairs(2)
    manager = StreamManager(N, 2)
    maintainer = SCaseMaintainer(sf, K)
    for _ in range(ticks):
        event = manager.append((rng.random(), rng.random()))
        maintainer.on_tick(manager, (event.new,), event.expired)
    return manager, maintainer, sf


class TestDominatorsOf:
    def test_members_have_fewer_than_K_dominators(self):
        _, maintainer, _ = build()
        for pair in maintainer.skyband:
            assert len(maintainer.dominators_of(pair)) < maintainer.K

    def test_nonmembers_have_at_least_K_dominators(self):
        manager, maintainer, sf = build()
        member_uids = {p.uid for p in maintainer.skyband}
        objects = manager.objects()
        outsiders = [
            make_pair(a, b, sf)
            for i, a in enumerate(objects)
            for b in objects[i + 1:]
            if ((a.seq << 40) | b.seq) not in member_uids
        ]
        assert outsiders
        for pair in outsiders[:25]:
            assert len(maintainer.dominators_of(pair)) >= maintainer.K

    def test_result_sorted_and_actually_dominating(self):
        manager, maintainer, sf = build()
        objects = manager.objects()
        probe = make_pair(objects[0], objects[-1], sf)
        dominators = maintainer.dominators_of(probe)
        keys = [p.score_key for p in dominators]
        assert keys == sorted(keys)
        for q in dominators:
            assert dominates(q, probe)


class TestContains:
    def test_members_contained(self):
        _, maintainer, _ = build()
        for pair in maintainer.skyband:
            assert maintainer.contains(pair)

    def test_foreign_pair_not_contained(self):
        manager, maintainer, sf = build()
        member_uids = {p.uid for p in maintainer.skyband}
        objects = manager.objects()
        for i, a in enumerate(objects):
            for b in objects[i + 1:]:
                pair = make_pair(a, b, sf)
                if pair.uid not in member_uids:
                    assert not maintainer.contains(pair)
                    return
