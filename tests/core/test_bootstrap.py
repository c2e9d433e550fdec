"""``SkybandMaintainer.bootstrap`` against the plain enumeration.

The production bootstrap never materializes the ``C(N, 2)`` window
pairs: it keeps each older member's K smallest score keys and admits a
key by rank.  :func:`reference_bootstrap` is the straightforward
algorithm it replaced — build every window pair, sort, run Algorithm 4 —
and both must agree on the skyband (in order), the staircase points and
every :class:`~repro.obs.cost_model.Counters` field.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from repro.core.maintenance import SCaseMaintainer, TAMaintainer
from repro.core.monitor import TopKPairsMonitor
from repro.core.pair import make_pair
from repro.core.skyband_update import update_skyband_and_staircase
from repro.obs.cost_model import Counters
from repro.scoring.library import paper_scoring_functions
from repro.stream.manager import StreamManager


def reference_bootstrap(maintainer, manager) -> None:
    """Enumerate every window pair, sort, sweep: the obviously correct
    oracle for the production bootstrap."""
    objects = manager.objects()
    keep = maintainer.pair_filter
    pairs = [
        make_pair(objects[i], objects[j], maintainer.scoring_function,
                  maintainer.counters)
        for i in range(len(objects))
        for j in range(i + 1, len(objects))
        if keep is None or keep(objects[i], objects[j])
    ]
    pairs.sort(key=lambda pair: pair.score_key)
    skyband, staircase = update_skyband_and_staircase(pairs, maintainer.K)
    maintainer.load_state(skyband, staircase)


def _every_third_excluded(a, b) -> bool:
    return (a.seq + b.seq) % 3 != 0


def _rows(count: int, d: int, values: str, seed: int) -> list[tuple]:
    rng = random.Random(seed)
    if values == "grid":
        return [tuple(rng.choice((0.0, 0.25, 0.5, 1.0)) for _ in range(d))
                for _ in range(count)]
    return [tuple(rng.random() for _ in range(d)) for _ in range(count)]


def _filled(d: int, values: str, seed: int, window: str) -> StreamManager:
    """A manager past its first expiries: 24 objects by count, or about
    that many by a time horizon over irregular timestamps."""
    rows = _rows(60, d, values, seed)
    if window == "count":
        manager = StreamManager(24, d)
        for row in rows:
            manager.append(row)
        return manager
    manager = StreamManager(60, d, time_horizon=12.0)
    clock = random.Random(seed + 1)
    now = 0.0
    for row in rows:
        now += clock.choice((0.25, 0.5, 0.5, 1.0))
        manager.append(row, timestamp=now)
    return manager


def _state(maintainer) -> tuple:
    return ([p.uid for p in maintainer.skyband],
            maintainer.staircase.points(),
            maintainer.counters.snapshot())


def _assert_matches_reference(cls, sf, K, manager, pair_filter=None):
    got = cls(sf, K, counters=Counters(), pair_filter=pair_filter)
    want = cls(sf, K, counters=Counters(), pair_filter=pair_filter)
    got.bootstrap(manager)
    reference_bootstrap(want, manager)
    assert _state(got) == _state(want)
    got.check_invariants(manager)


CASES = [
    (cls, d, values, window, seed)
    for cls in (SCaseMaintainer, TAMaintainer)
    for d, seed in ((1, 201), (2, 202), (3, 203))
    for values in ("uniform", "grid")
    for window in ("count", "time")
]


@pytest.mark.parametrize(
    "cls,d,values,window,seed", CASES,
    ids=[f"{c.__name__}-d{d}-{v}-{w}" for c, d, v, w, _ in CASES],
)
class TestBootstrapMatchesEnumeration:
    @pytest.mark.parametrize("K", [1, 4, 13])
    def test_every_scoring_function(self, cls, d, values, window, seed, K):
        manager = _filled(d, values, seed, window)
        for sf in paper_scoring_functions(d):
            _assert_matches_reference(cls, sf, K, manager)

    def test_pair_filter(self, cls, d, values, window, seed):
        manager = _filled(d, values, seed, window)
        sf = paper_scoring_functions(d)[0]
        _assert_matches_reference(cls, sf, 5, manager,
                                  pair_filter=_every_third_excluded)

    def test_k_at_or_above_the_pair_count(self, cls, d, values, window,
                                          seed):
        manager = _filled(d, values, seed, window)
        pairs = len(manager) * (len(manager) - 1) // 2
        sf = paper_scoring_functions(d)[1]
        for K in (pairs, pairs + 7):
            _assert_matches_reference(cls, sf, K, manager)
            member = cls(sf, K)
            member.bootstrap(manager)
            assert len(member.skyband) == pairs


@pytest.mark.parametrize("K", [1, 2, 5])
def test_tiny_windows(K):
    """Windows of 0, 1, 2 and 3 objects (no pair, one pair, three)."""
    sf = paper_scoring_functions(2)[0]
    for size in range(4):
        manager = StreamManager(10, 2)
        for row in _rows(size, 2, "uniform", size):
            manager.append(row)
        _assert_matches_reference(SCaseMaintainer, sf, K, manager)


@pytest.mark.parametrize("strategy", ["scase", "ta"])
def test_k_raise_rebootstraps_like_the_enumeration(strategy):
    """A query with a larger k swaps in a freshly bootstrapped, deeper
    maintainer mid-stream; it must hold the enumeration's skyband and
    staircase at that tick."""
    sf = paper_scoring_functions(2)[0]
    monitor = TopKPairsMonitor(30, 2, strategy=strategy)
    monitor.register_query(sf, k=3)
    rows = _rows(80, 2, "grid", 7)
    for row in rows[:50]:
        monitor.append(row)
    monitor.register_query(sf, k=11)
    for row in rows[50:]:
        monitor.append(row)
    monitor.register_query(sf, k=17)
    maintainer = monitor.maintainer_for(sf)
    assert maintainer.K == 17
    want = type(maintainer)(sf, 17)
    reference_bootstrap(want, monitor.manager)
    assert [p.uid for p in maintainer.skyband] == \
        [p.uid for p in want.skyband]
    assert maintainer.staircase.points() == want.staircase.points()


_REGISTER_PEAK = """
import random
from repro.serve.session import ServerMonitor


def peak_kb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])


rng = random.Random(5)
session = ServerMonitor(512, 2)
session.ingest([[rng.random(), rng.random()] for _ in range(512)])
before = peak_kb()
session.register("closest", 20, None)
print(peak_kb() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status for VmHWM")
def test_register_keeps_peak_memory_flat():
    """Registering on a full 512-row window must not build its C(N, 2)
    = 130,816 pairs at once: that alone raised the process's peak RSS
    by about 33 MB.  Run in a fresh interpreter so no other test's
    allocations set the peak."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    result = subprocess.run(
        [sys.executable, "-c", _REGISTER_PEAK],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
    )
    assert result.returncode == 0, result.stderr
    rise_kb = int(result.stdout)
    assert rise_kb < 8 * 1024, f"peak RSS rose {rise_kb} kB on register"
