"""Exactness of the K-staircase's per-seq score-bound table.

``KStaircase.score_bounds`` tabulates, per window seq, the raw score of
the first staircase point whose age threshold admits a pair with that
older member (NaN where none does), and TA (Algorithm 5) tests its
partners and its threshold point against that table instead of
bisecting the staircase.  These properties draw staircases from real
skybands (d = 1-3, uniform, 4-level grid and +-1e308 values, count and
time windows, K = 1-20, 1- to 3-row ticks) and check, at every
candidate collection:

* each table entry against the staircase points directly;
* both table tests against :meth:`KStaircase.dominates`, for every
  window seq and for scores at, just below and just above every
  staircase score (and +-inf);
* TA's candidates against every older partner the staircase does not
  dominate, which is what the table must reproduce inside the loop.

On a staircase Algorithm 4 built, a score tie with the bound is always
dominated (the bound's own pair is among the K youngest of its prefix,
so it is at least as young as the pair tested), so the tie check and
TA's threshold never meet an undominated tie there.  A second property therefore also installs
arbitrary valid staircases over the window's own pair keys, where such
ties occur.
"""

from __future__ import annotations

import math
import struct
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.maintenance import TAMaintainer
from repro.core.monitor import TopKPairsMonitor
from repro.core.pair import pair_score_key
from repro.core.staircase import KStaircase
from repro.scoring.library import paper_scoring_functions

GRID = (0.0, 0.25, 0.5, 1.0)
HUGE = (1e308, -1e308)


def _bits(value: float) -> bytes:
    return struct.pack("d", value)


def _probes(staircase: KStaircase) -> list[float]:
    """Every staircase score, its two float neighbours, and +-inf."""
    probes = {math.inf, -math.inf, 0.0}
    for key, _ in staircase.points():
        score = key[0]
        probes.update((score, math.nextafter(score, -math.inf),
                       math.nextafter(score, math.inf)))
    return sorted(probes)


def check_table(staircase: KStaircase, first: int, last: int,
                new_seq: int) -> None:
    points = staircase.points()
    bounds = staircase.score_bounds(first, last)
    assert len(bounds) == last + 1 - first
    assert staircase.score_bounds(first, last) is bounds  # cached
    probes = _probes(staircase)
    for seq in range(first, last + 1):
        admitting = [key[0] for key, age_key in points if age_key <= -seq]
        expected = admitting[0] if admitting else math.nan
        bound = bounds[seq - first]
        assert _bits(bound) == _bits(expected), (seq, bound, expected)
        for value in probes:
            key = pair_score_key(value, seq, new_seq)
            by_table = value > bound or (
                value == bound and staircase.dominates(key, -seq))
            assert by_table == staircase.dominates(key, -seq), (seq, value)
            threshold = (value, -math.inf, -math.inf)
            assert (value > bound) == staircase.dominates(threshold, -seq)


def check_collection(maintainer, manager, new_obj) -> list:
    """Collect ``new_obj``'s candidates after checking the table, and
    check them against every older partner the staircase does not
    dominate."""
    staircase = maintainer.staircase
    check_table(staircase, manager.oldest().seq, manager.now_seq,
                new_obj.seq)
    got = TAMaintainer._collect_candidates(maintainer, manager, new_obj)
    want = set()
    for partner in manager:
        if partner.seq >= new_obj.seq:
            continue
        value = maintainer.scoring_function.score(new_obj, partner)
        key = pair_score_key(value, partner.seq, new_obj.seq)
        if not staircase.dominates(key, -partner.seq):
            want.add((partner.seq, _bits(value)))
    assert {(p.older.seq, _bits(p.score)) for p in got} == want
    assert len(got) == len(want)
    return got


@st.composite
def streams(draw):
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("uniform", "grid", "huge")))
    if kind == "grid":
        value = st.sampled_from(GRID)
    else:
        value = st.floats(0.0, 1.0)
    first = st.sampled_from(HUGE) | value if kind == "huge" else value
    # +-1e308 on the first attribute only: two finite distances that
    # large would overflow the sum's fsum.
    row = st.tuples(first, *[value] * (d - 1))
    rows = draw(st.lists(row, min_size=1, max_size=40))
    ticks = draw(st.lists(st.integers(1, 3), min_size=len(rows),
                          max_size=len(rows)))
    timed = draw(st.booleans())
    gaps = draw(st.lists(st.sampled_from((0.5, 1.0, 2.0)),
                         min_size=len(rows), max_size=len(rows)))
    return {
        "d": d,
        "huge": kind == "huge",
        "rows": rows,
        "ticks": ticks,
        "window": draw(st.integers(2, 24)),
        "horizon": draw(st.sampled_from((3.0, 10.0))) if timed else None,
        "gaps": gaps,
        "K": draw(st.integers(1, 20)),
        "scorer": draw(st.integers(0, 3)),
    }


def run_stream(stream, *, checked: bool):
    """Stream the rows through a TA monitor with one query; with
    ``checked``, every candidate collection goes through
    :func:`check_collection`.  Returns the monitor, its maintainer and
    the last timestamp."""
    d = stream["d"]
    # s3/s4 multiply an infinite distance by a zero one into NaN, so the
    # +-1e308 streams use the sum scorers (s1, s2) only.
    scorer = stream["scorer"] % 2 if stream["huge"] else stream["scorer"]
    scoring = paper_scoring_functions(d)[scorer]
    monitor = TopKPairsMonitor(stream["window"], d, strategy="ta",
                               time_horizon=stream["horizon"])
    monitor.register_query(scoring, k=stream["K"])
    maintainer = monitor.maintainer_for(scoring)
    if checked:
        maintainer._collect_candidates = partial(check_collection,
                                                 maintainer)
    rows, now, start = stream["rows"], 0.0, 0
    for size in stream["ticks"]:
        chunk = rows[start:start + size]
        if not chunk:
            break
        start += len(chunk)
        stamps = []
        for gap in stream["gaps"][:len(chunk)]:
            now += gap
            stamps.append(now)
        monitor.extend(chunk, batch_size=len(chunk),
                       timestamps=stamps if stream["horizon"] else None)
    return monitor, maintainer, now


@settings(max_examples=150, deadline=None)
@given(streams())
def test_table_and_ta_candidates_match_the_staircase(stream):
    run_stream(stream, checked=True)


@settings(max_examples=150, deadline=None)
@given(streams(), st.data())
def test_ta_is_exact_on_any_valid_staircase(stream, data):
    """One more arrival, collected against a staircase drawn from the
    window's pair keys with arbitrary non-increasing age thresholds."""
    monitor, maintainer, now = run_stream(stream, checked=False)
    manager = monitor.manager
    new_obj = manager.append(stream["rows"][0], timestamp=(
        now + 0.5 if stream["horizon"] else None)).new
    objects = manager.objects()
    score = maintainer.scoring_function.score
    keys = sorted(pair_score_key(score(a, b), a.seq, b.seq)
                  for i, a in enumerate(objects) for b in objects[i + 1:])
    chosen = sorted(data.draw(st.lists(st.sampled_from(keys), unique=True,
                                       max_size=12))) if keys else []
    seqs = [obj.seq for obj in objects]
    thresholds = sorted(data.draw(st.lists(
        st.sampled_from(seqs), min_size=len(chosen), max_size=len(chosen))))
    maintainer._staircase = KStaircase(
        [(key, -seq) for key, seq in zip(chosen, thresholds)])
    maintainer.staircase.check_invariants()
    check_collection(maintainer, manager, new_obj)


def test_empty_staircase_table_is_all_nan():
    bounds = KStaircase().score_bounds(5, 9)
    assert len(bounds) == 5
    assert all(math.isnan(b) for b in bounds)


def test_one_object_window():
    staircase = KStaircase([((1.0, -3, 3 << 40 | 4), -3)])
    assert staircase.score_bounds(3, 3) == [1.0]
    assert math.isnan(staircase.score_bounds(4, 4)[0])


def test_table_follows_the_thresholds():
    """Points admit seqs up to their threshold seq; later seqs fall to
    the next point, and seqs past the last threshold to NaN."""
    staircase = KStaircase([
        ((1.0, -2, 0), -4), ((2.0, -5, 0), -4), ((3.0, -6, 0), -6),
        ((4.0, -7, 0), -8),
    ])
    bounds = staircase.score_bounds(2, 10)
    assert bounds[:7] == [1.0, 1.0, 1.0, 3.0, 3.0, 4.0, 4.0]
    assert math.isnan(bounds[7]) and math.isnan(bounds[8])
    # a new range rebuilds, the same range reuses
    assert staircase.score_bounds(5, 6) == [3.0, 3.0]
    assert staircase.score_bounds(5, 6) is staircase.score_bounds(5, 6)
