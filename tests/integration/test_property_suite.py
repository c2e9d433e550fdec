"""Cross-cutting hypothesis property tests.

These cover interactions that the per-module property tests cannot:
arbitrary loose-monotonic trend combinations flowing through the pair
source into TA maintenance, and batched vs per-tick ingestion over
arbitrary streams and batch shapes.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.brute import BruteForceReference
from repro.core.maintenance import TAMaintainer
from repro.core.monitor import TopKPairsMonitor
from repro.scoring.combiners import SumCombiner
from repro.scoring.composite import GlobalScoringFunction
from repro.scoring.local import CustomLocal, Trend
from repro.stream.manager import StreamManager
from repro.stream.pair_source import iter_pairs_by_local_score

# The four loose-monotonic trend archetypes, as concrete functions whose
# declared trends are correct by construction.
_ARCHETYPES = {
    (Trend.INCREASING_AWAY, Trend.INCREASING_AWAY):
        lambda x, y: abs(x - y),
    (Trend.DECREASING_AWAY, Trend.DECREASING_AWAY):
        lambda x, y: -abs(x - y),
    (Trend.INCREASING_AWAY, Trend.DECREASING_AWAY):
        lambda x, y: x + y,
    (Trend.DECREASING_AWAY, Trend.INCREASING_AWAY):
        lambda x, y: -(x + y),
}

trend = st.sampled_from([Trend.INCREASING_AWAY, Trend.DECREASING_AWAY])
values = st.floats(-100, 100, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    above=trend,
    below=trend,
    stream=st.lists(values, min_size=0, max_size=25),
    newcomer=values,
)
def test_property_pair_source_ascending_for_all_trend_combos(
    above, below, stream, newcomer
):
    """Every (trend_above, trend_below) combination must yield partners
    in ascending local-score order, covering each partner exactly once."""
    local = CustomLocal(
        _ARCHETYPES[(above, below)], above, below, validate=False
    )
    manager = StreamManager(len(stream) + 1, 1)
    for v in stream:
        manager.append((v,))
    new = manager.append((newcomer,)).new
    out = list(iter_pairs_by_local_score(manager, new, 0, local))
    scores = [s for _, s in out]
    assert scores == sorted(scores)
    assert len(out) == len(stream)
    assert len({p.seq for p, _ in out}) == len(stream)
    for partner, score in out:
        assert math.isclose(
            score, local.score(newcomer, partner.values[0])
        )


@settings(max_examples=30, deadline=None)
@given(
    above=trend,
    below=trend,
    seed_rows=st.lists(
        st.tuples(values, values), min_size=10, max_size=40
    ),
    K=st.integers(1, 4),
)
def test_property_ta_exact_for_all_trend_combos(above, below, seed_rows, K):
    """TA maintenance stays exact for arbitrary trend combinations."""
    local_fn = _ARCHETYPES[(above, below)]
    N = 12

    def build_sf():
        return GlobalScoringFunction(
            [
                (0, CustomLocal(local_fn, above, below, validate=False)),
                (1, CustomLocal(local_fn, above, below, validate=False)),
            ],
            SumCombiner(),
        )

    sf = build_sf()
    manager = StreamManager(N, 2)
    maintainer = TAMaintainer(sf, K)
    ref = BruteForceReference(sf, N)
    for row in seed_rows:
        event = manager.append(row)
        maintainer.on_tick(manager, (event.new,), event.expired)
        ref.append(row)
    assert {p.uid for p in maintainer.skyband} == {
        p.uid for p in ref.skyband(K)
    }


@settings(max_examples=25, deadline=None)
@given(
    rows=st.lists(st.tuples(values, values), min_size=1, max_size=60),
    batch_size=st.integers(2, 12),
    N=st.integers(3, 15),
    k=st.integers(1, 4),
)
def test_property_batched_equals_per_tick(rows, batch_size, N, k):
    """For arbitrary streams, windows and batch shapes, batched ingestion
    agrees with per-tick ingestion at every batch boundary."""
    from repro.scoring.library import k_closest_pairs

    sf_a, sf_b = k_closest_pairs(2), k_closest_pairs(2)
    n = max(2, N - 1)
    per_tick = TopKPairsMonitor(N, 2, strategy="scase")
    batched = TopKPairsMonitor(N, 2, strategy="scase")
    h_tick = per_tick.register_query(sf_a, k=k, n=n)
    h_batch = batched.register_query(sf_b, k=k, n=n)
    for start in range(0, len(rows), batch_size):
        chunk = rows[start:start + batch_size]
        for row in chunk:
            per_tick.append(row)
        batched.extend(chunk, batch_size=batch_size)
        assert [p.uid for p in batched.results(h_batch)] == [
            p.uid for p in per_tick.results(h_tick)
        ]
