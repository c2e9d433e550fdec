"""Host-speed probe: a fixed stdlib workload timed on the servers' CPU.

On a shared host the speed of one vCPU moves by up to 2x in stretches of
seconds to tens of seconds as neighbours come and go, and the
hypervisor's steal counter shows little of it.  The generator and the
servers share one CPU (``run.pin_to_one_cpu``), so the probe, timed
between two chunks of the closed loop, sees the speed the chunk ran at.
Every end-to-end time is multiplied by ``factor``: it then reads as the
time on a host where the probe takes ``REFERENCE_S``.

The probe does what the engine spends its time on: it builds small
objects, pushes them through a heap, sorts, bisects and looks them up in
a dict.  It uses no program code, so no change to the program can move
it.  On a 2-vCPU VM, over 150-200 s of fresh sets of ``snapshot_reads``
and of ``ingest_fanout`` in each of two host stretches, scaling by it
cut the coefficient of variation of per-set rates from 0.15-0.21 to
0.044-0.061.  A JSON round trip did as well in one stretch and worse in
the other (0.041-0.077); a counting loop was worse in both (0.067-0.086).
"""

from __future__ import annotations

import bisect
import heapq
import random
from time import perf_counter

__all__ = ["REFERENCE_S", "factor", "probe"]

#: the probe's time on the 2-vCPU VM the bounds were set on, when its
#: vCPU ran at full speed; a constant unit that cancels out of every
#: comparison
REFERENCE_S = 200e-6
#: the probe is the fastest of PASSES passes: the first pass finds the
#: caches full of the servers' data, and a server whose working set grew
#: must not make the probe slower
PASSES = 3

_rng = random.Random("perfbench:probe")
_SCORES = [_rng.random() for _ in range(300)]


class _Point:
    __slots__ = ("score", "seq")

    def __init__(self, score: float, seq: int) -> None:
        self.score = score
        self.seq = seq


def _work() -> None:
    points = [_Point(score, seq) for seq, score in enumerate(_SCORES)]
    heap: list = []
    for point in points:
        heapq.heappush(heap, (point.score, point.seq))
    keys = sorted(point.score for point in points)
    for point in points[:100]:
        bisect.bisect_left(keys, point.score)
    by_seq = {point.seq: point for point in points}
    sum(by_seq[seq].score for seq in range(0, len(points), 3))


def factor(*probes: float) -> float:
    """What turns a time measured between these probes into the time on
    the reference host."""
    return REFERENCE_S / (sum(probes) / len(probes))


def probe() -> float:
    """Seconds one pass of the fixed workload takes now."""
    best = float("inf")
    for _ in range(PASSES):
        started = perf_counter()
        _work()
        best = min(best, perf_counter() - started)
    return best
