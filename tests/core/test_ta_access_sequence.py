"""Pins TA's exact access sequence (paper Algorithm 5).

The complexity tests only fit exponents, so a change to how
:class:`~repro.core.maintenance.TAMaintainer` walks its sorted lists
(access order, tie handling, the threshold test, when a candidate is
built) could keep every answer right and still do different work.  This
test drives TA over seeded streams and compares every
:class:`~repro.obs.cost_model.Counters` field, plus a digest of the
skyband and staircase after every step, with figures recorded from the
implementation before its hot loop was optimised.

The streams cover both schedules, d in {1, 2, 3}, continuous values and a
4-level value grid (so scores and local scores tie often), one
multi-row ``on_tick`` step in the middle of each stream, and a filtered
group.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.maintenance import TAMaintainer
from repro.obs.cost_model import Counters
from repro.scoring.library import paper_scoring_functions
from repro.stream.manager import StreamManager

WINDOW = 20
ROWS = 70
K = 4
#: rows [BATCH_AT, BATCH_AT + BATCH_ROWS) arrive as one on_tick step
BATCH_AT = 40
BATCH_ROWS = 6


def _rows(d: int, values: str, seed: int) -> list[tuple[float, ...]]:
    rng = random.Random(seed)
    if values == "grid":
        return [tuple(rng.choice((0.0, 0.25, 0.5, 1.0)) for _ in range(d))
                for _ in range(ROWS)]
    return [tuple(rng.random() for _ in range(d)) for _ in range(ROWS)]


def _every_third_excluded(a, b) -> bool:
    return (a.seq + b.seq) % 3 != 0


def _state(maintainer: TAMaintainer) -> str:
    skyband = [(p.older.seq, p.newer.seq) for p in maintainer.skyband]
    return f"{skyband}|{maintainer.staircase.points()}"


def drive(schedule: str, d: int, values: str, seed: int) -> dict[str, tuple]:
    """Run five TA groups over one stream; per group, return a digest of
    the skyband and staircase after every step and the Counters fields
    (in ``Counters.__slots__`` order)."""
    manager = StreamManager(WINDOW, d)
    groups = {}
    functions = paper_scoring_functions(d)
    for sf in functions:
        groups[sf.name.split("(")[0]] = TAMaintainer(
            sf, K, counters=Counters(), schedule=schedule)
    groups["s1-filtered"] = TAMaintainer(
        functions[0], K, counters=Counters(), schedule=schedule,
        pair_filter=_every_third_excluded)
    digests = {name: hashlib.sha256() for name in groups}

    def step(new_objs, expired):
        for name, maintainer in groups.items():
            maintainer.on_tick(manager, new_objs, expired)
            digests[name].update(_state(maintainer).encode())

    rows = _rows(d, values, seed)
    position = 0
    while position < len(rows):
        if position == BATCH_AT:
            events = [manager.append(row)
                      for row in rows[position:position + BATCH_ROWS]]
            expired = [gone for event in events for gone in event.expired]
            gone_seqs = {gone.seq for gone in expired}
            step([e.new for e in events if e.new.seq not in gone_seqs],
                 expired)
            position += BATCH_ROWS
            continue
        event = manager.append(rows[position])
        step([event.new], event.expired)
        position += 1
    for maintainer in groups.values():
        maintainer.check_invariants(manager)
    return {
        name: (digests[name].hexdigest()[:16],
               tuple(maintainer.counters.snapshot().values()))
        for name, maintainer in groups.items()
    }


CASES = [
    (schedule, d, values, seed)
    for schedule in ("round-robin", "adaptive")
    for d, seed in ((1, 101), (2, 102), (3, 103))
    for values in ("uniform", "grid")
]

# Recorded by running ``drive`` on the implementation that built a Pair
# for every partner TA considered.  Counter order: score_evaluations,
# pairs_considered, pair_filter_calls, candidate_pairs, dominance_checks,
# staircase_checks, skyband_inserts, skyband_removals, pst_inserts,
# pst_deletes, heap_ops, answer_scans, recomputations.
EXPECTED: dict[tuple, dict[str, tuple]] = {
    ('round-robin', 1, 'uniform'): {
        's1-closest': ('57bb28f649aac89d',
                       (640, 640, 0, 337, 1128, 1034, 257, 245, 257, 245, 826, 0, 0)),
        's2-furthest': ('621962db118b6a10',
                        (679, 679, 0, 367, 1047, 1104, 285, 264, 285, 264, 726, 0, 0)),
        's3-similar': ('57bb28f649aac89d',
                       (640, 640, 0, 337, 1128, 1034, 257, 245, 257, 245, 826, 0, 0)),
        's4-dissimilar': ('621962db118b6a10',
                          (679, 679, 0, 367, 1047, 1104, 285, 264, 285, 264, 726, 0, 0)),
        's1-filtered': ('0f20c9f7eb6bc744',
                        (689, 689, 385, 254, 917, 1121, 206, 194, 206, 194, 691, 0, 0)),
    },
    ('round-robin', 1, 'grid'): {
        's1-closest': ('6b26a2ae1b3ca528',
                       (724, 724, 0, 280, 789, 1176, 209, 201, 209, 201, 517, 0, 0)),
        's2-furthest': ('d2102e2f586c981a',
                        (716, 716, 0, 288, 859, 1179, 211, 205, 211, 205, 577, 0, 0)),
        's3-similar': ('6b26a2ae1b3ca528',
                       (724, 724, 0, 280, 789, 1176, 209, 201, 209, 201, 517, 0, 0)),
        's4-dissimilar': ('469e2d8156900eca',
                          (716, 716, 0, 288, 859, 1179, 211, 205, 211, 205, 577, 0, 0)),
        's1-filtered': ('d5f11d08b193fd29',
                        (762, 762, 306, 203, 651, 1247, 166, 158, 166, 158, 456, 0, 0)),
    },
    ('round-robin', 2, 'uniform'): {
        's1-closest': ('772b26d9e44ac088',
                       (865, 865, 0, 354, 1189, 1310, 278, 260, 278, 260, 875, 0, 0)),
        's2-furthest': ('05983ff219df99eb',
                        (854, 854, 0, 343, 1104, 1298, 260, 246, 260, 246, 785, 0, 0)),
        's3-similar': ('2aea53208ac5b4ec',
                       (825, 825, 0, 360, 1209, 1238, 278, 264, 278, 264, 883, 0, 0)),
        's4-dissimilar': ('ae1962f46715f3df',
                          (873, 873, 0, 345, 1099, 1335, 261, 247, 261, 247, 778, 0, 0)),
        's1-filtered': ('ef8d1322e54b3e74',
                        (905, 905, 414, 279, 980, 1391, 233, 210, 233, 210, 747, 0, 0)),
    },
    ('round-robin', 2, 'grid'): {
        's1-closest': ('6bc3ac369f1611d9',
                       (925, 925, 0, 322, 978, 1424, 237, 225, 237, 225, 668, 0, 0)),
        's2-furthest': ('dda3558ad66dc89c',
                        (895, 895, 0, 297, 927, 1383, 212, 200, 212, 200, 649, 0, 0)),
        's3-similar': ('a5b02882b23982ba',
                       (924, 924, 0, 258, 650, 1424, 187, 179, 187, 179, 400, 0, 0)),
        's4-dissimilar': ('3b40e622948d2f9e',
                          (888, 888, 0, 304, 921, 1372, 217, 205, 217, 205, 636, 0, 0)),
        's1-filtered': ('eb79d82f9814fcc3',
                        (966, 966, 374, 246, 821, 1513, 196, 183, 196, 183, 588, 0, 0)),
    },
    ('round-robin', 3, 'uniform'): {
        's1-closest': ('03528b054d5f33a7',
                       (980, 980, 0, 358, 1225, 1449, 281, 264, 281, 264, 903, 0, 0)),
        's2-furthest': ('8bcb85777e85a1b4',
                        (955, 955, 0, 345, 1116, 1412, 255, 238, 255, 238, 807, 0, 0)),
        's3-similar': ('8ebe01fe1e4e1428',
                       (934, 934, 0, 352, 1186, 1353, 265, 251, 265, 251, 864, 0, 0)),
        's4-dissimilar': ('f24be413b14573c7',
                          (979, 979, 0, 345, 1115, 1464, 253, 235, 253, 235, 807, 0, 0)),
        's1-filtered': ('c9d8bbaebd776827',
                        (999, 999, 409, 273, 977, 1499, 228, 210, 228, 210, 740, 0, 0)),
    },
    ('round-robin', 3, 'grid'): {
        's1-closest': ('688cf4b162267023',
                       (979, 979, 0, 308, 1005, 1454, 228, 218, 228, 218, 719, 0, 0)),
        's2-furthest': ('7e06af8aa4dde1c0',
                        (1004, 1004, 0, 320, 979, 1507, 229, 213, 229, 213, 689, 0, 0)),
        's3-similar': ('a9f074986fab7e82',
                       (967, 967, 0, 247, 597, 1420, 170, 166, 170, 166, 354, 0, 0)),
        's4-dissimilar': ('f2b7ae409935102f',
                          (1010, 1010, 0, 325, 985, 1521, 232, 218, 232, 218, 689, 0, 0)),
        's1-filtered': ('08f365c376844d2c',
                        (1003, 1003, 353, 232, 797, 1514, 196, 184, 196, 184, 589, 0, 0)),
    },
    ('adaptive', 1, 'uniform'): {
        's1-closest': ('57bb28f649aac89d',
                       (640, 640, 0, 337, 1128, 1034, 257, 245, 257, 245, 826, 0, 0)),
        's2-furthest': ('621962db118b6a10',
                        (679, 679, 0, 367, 1047, 1104, 285, 264, 285, 264, 726, 0, 0)),
        's3-similar': ('57bb28f649aac89d',
                       (640, 640, 0, 337, 1128, 1034, 257, 245, 257, 245, 826, 0, 0)),
        's4-dissimilar': ('621962db118b6a10',
                          (679, 679, 0, 367, 1047, 1104, 285, 264, 285, 264, 726, 0, 0)),
        's1-filtered': ('0f20c9f7eb6bc744',
                        (689, 689, 385, 254, 917, 1121, 206, 194, 206, 194, 691, 0, 0)),
    },
    ('adaptive', 1, 'grid'): {
        's1-closest': ('6b26a2ae1b3ca528',
                       (724, 724, 0, 280, 789, 1176, 209, 201, 209, 201, 517, 0, 0)),
        's2-furthest': ('d2102e2f586c981a',
                        (716, 716, 0, 288, 859, 1179, 211, 205, 211, 205, 577, 0, 0)),
        's3-similar': ('6b26a2ae1b3ca528',
                       (724, 724, 0, 280, 789, 1176, 209, 201, 209, 201, 517, 0, 0)),
        's4-dissimilar': ('469e2d8156900eca',
                          (716, 716, 0, 288, 859, 1179, 211, 205, 211, 205, 577, 0, 0)),
        's1-filtered': ('d5f11d08b193fd29',
                        (762, 762, 306, 203, 651, 1247, 166, 158, 166, 158, 456, 0, 0)),
    },
    ('adaptive', 2, 'uniform'): {
        's1-closest': ('772b26d9e44ac088',
                       (836, 836, 0, 354, 1189, 1419, 278, 260, 278, 260, 875, 0, 0)),
        's2-furthest': ('05983ff219df99eb',
                        (811, 811, 0, 343, 1104, 1355, 260, 246, 260, 246, 785, 0, 0)),
        's3-similar': ('2aea53208ac5b4ec',
                       (764, 764, 0, 360, 1209, 1266, 278, 264, 278, 264, 883, 0, 0)),
        's4-dissimilar': ('ae1962f46715f3df',
                          (837, 837, 0, 345, 1099, 1413, 261, 247, 261, 247, 778, 0, 0)),
        's1-filtered': ('ef8d1322e54b3e74',
                        (879, 879, 414, 279, 980, 1520, 233, 210, 233, 210, 747, 0, 0)),
    },
    ('adaptive', 2, 'grid'): {
        's1-closest': ('6bc3ac369f1611d9',
                       (854, 854, 0, 322, 978, 1451, 237, 225, 237, 225, 668, 0, 0)),
        's2-furthest': ('dda3558ad66dc89c',
                        (828, 828, 0, 297, 927, 1411, 212, 200, 212, 200, 649, 0, 0)),
        's3-similar': ('a5b02882b23982ba',
                       (939, 939, 0, 258, 650, 1661, 187, 179, 187, 179, 400, 0, 0)),
        's4-dissimilar': ('3b40e622948d2f9e',
                          (830, 830, 0, 304, 921, 1415, 217, 205, 217, 205, 636, 0, 0)),
        's1-filtered': ('eb79d82f9814fcc3',
                        (887, 887, 374, 246, 821, 1522, 196, 183, 196, 183, 588, 0, 0)),
    },
    ('adaptive', 3, 'uniform'): {
        's1-closest': ('03528b054d5f33a7',
                       (972, 972, 0, 358, 1225, 1729, 281, 264, 281, 264, 903, 0, 0)),
        's2-furthest': ('8bcb85777e85a1b4',
                        (900, 900, 0, 345, 1116, 1564, 255, 238, 255, 238, 807, 0, 0)),
        's3-similar': ('8ebe01fe1e4e1428',
                       (859, 859, 0, 352, 1186, 1433, 265, 251, 265, 251, 864, 0, 0)),
        's4-dissimilar': ('f24be413b14573c7',
                          (942, 942, 0, 345, 1115, 1681, 253, 235, 253, 235, 807, 0, 0)),
        's1-filtered': ('c9d8bbaebd776827',
                        (1005, 1005, 409, 273, 977, 1823, 228, 210, 228, 210, 740, 0, 0)),
    },
    ('adaptive', 3, 'grid'): {
        's1-closest': ('688cf4b162267023',
                       (942, 942, 0, 308, 1005, 1667, 228, 218, 228, 218, 719, 0, 0)),
        's2-furthest': ('7e06af8aa4dde1c0',
                        (894, 894, 0, 320, 979, 1553, 229, 213, 229, 213, 689, 0, 0)),
        's3-similar': ('a9f074986fab7e82',
                       (1032, 1032, 0, 247, 597, 1909, 170, 166, 170, 166, 354, 0, 0)),
        's4-dissimilar': ('f2b7ae409935102f',
                          (907, 907, 0, 325, 985, 1588, 232, 218, 232, 218, 689, 0, 0)),
        's1-filtered': ('08f365c376844d2c',
                        (966, 966, 353, 232, 797, 1731, 196, 184, 196, 184, 589, 0, 0)),
    },
}


@pytest.mark.parametrize(
    "schedule,d,values,seed", CASES,
    ids=[f"{s}-d{d}-{v}" for s, d, v, _ in CASES],
)
def test_access_sequence_is_pinned(schedule, d, values, seed):
    assert drive(schedule, d, values, seed) == \
        EXPECTED[(schedule, d, values)]
