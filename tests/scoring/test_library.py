"""Tests for the paper's scoring-function suite (s1..s4 and the sensor
function, §VI-A)."""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.scoring.library import (
    k_closest_pairs,
    k_furthest_pairs,
    paper_scoring_functions,
    sensor_scoring_function,
    top_k_dissimilar_pairs,
    top_k_similar_pairs,
)
from repro.stream.object import StreamObject


def obj(seq, *values):
    return StreamObject(seq, values)


vec = st.lists(st.floats(-50, 50), min_size=3, max_size=3)


class TestS1ToS4Definitions:
    """Each s_i must equal its closed-form definition from §VI-A."""

    @settings(max_examples=60, deadline=None)
    @given(x=vec, y=vec)
    def test_s1_is_manhattan(self, x, y):
        a, b = obj(1, *x), obj(2, *y)
        want = sum(abs(xi - yi) for xi, yi in zip(x, y))
        assert math.isclose(k_closest_pairs(3).score(a, b), want)

    @settings(max_examples=60, deadline=None)
    @given(x=vec, y=vec)
    def test_s2_is_negated_manhattan(self, x, y):
        a, b = obj(1, *x), obj(2, *y)
        want = -sum(abs(xi - yi) for xi, yi in zip(x, y))
        assert math.isclose(k_furthest_pairs(3).score(a, b), want)

    @settings(max_examples=60, deadline=None)
    @given(x=vec, y=vec)
    def test_s3_is_product_of_diffs(self, x, y):
        a, b = obj(1, *x), obj(2, *y)
        want = math.prod(abs(xi - yi) for xi, yi in zip(x, y))
        assert math.isclose(top_k_similar_pairs(3).score(a, b), want)

    @settings(max_examples=60, deadline=None)
    @given(x=vec, y=vec)
    def test_s4_is_negated_product(self, x, y):
        a, b = obj(1, *x), obj(2, *y)
        want = -math.prod(abs(xi - yi) for xi, yi in zip(x, y))
        assert math.isclose(top_k_dissimilar_pairs(3).score(a, b), want)


#: signed zeros, the smallest subnormal, tiny, huge and integral values
_EDGE = st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300,
     1.0, -1.0, 2.0, 3.0, 1e16, 0.1])
_VALUE = st.one_of(_EDGE, st.floats(-1e6, 1e6),
                   st.integers(-9, 9).map(float))
_LIBRARY = [k_closest_pairs, k_furthest_pairs, top_k_similar_pairs,
            top_k_dissimilar_pairs]


@st.composite
def _rows(draw):
    """``(d, a_values, b_values)``: up to two attributes past ``d``, and
    ``b`` a random row, ``a`` repeated or all zeros (so the distances
    are ``a``'s values exactly)."""
    d = draw(st.integers(1, 3))
    width = d + draw(st.integers(0, 2))
    row = st.lists(_VALUE, min_size=width, max_size=width)
    a_values = draw(row)
    b_values = draw(st.one_of(row, st.just(a_values),
                              st.just([0.0] * width)))
    return d, a_values, b_values


class TestFusedScoreIsTheComposition:
    """s1..s4 score without per-term Python calls; the result must be
    bit-identical to the generic term-by-term composition, signed zeros
    included (scores reach the wire)."""

    @settings(max_examples=300, deadline=None)
    @given(_rows())
    # equal rows: s2 is fsum([-0.0, -0.0]) == 0.0, not -0.0
    @example((2, [0.25, -0.0], [0.25, -0.0]))
    # fsum rounds once: -1e16 - 1 - 1 added pairwise reads -1e16
    @example((3, [1e16, 1.0, 1.0], [0.0, 0.0, 0.0]))
    def test_bit_identical(self, rows):
        d, a_values, b_values = rows
        a, b = obj(1, *a_values), obj(2, *b_values)
        for make in _LIBRARY:
            fn = make(d)
            want = fn.combiner.combine(
                [local.score(a.values[i], b.values[i])
                 for i, local in fn.terms])
            got = fn.score(a, b)
            assert struct.pack("d", got) == struct.pack("d", want), (
                fn.name, a_values, b_values, got, want)

    def test_equal_rows_keep_furthest_zero_positive(self):
        a, b = obj(1, 0.5, 0.25), obj(2, 0.5, 0.25)
        assert struct.pack("d", k_furthest_pairs(2).score(a, b)) == \
            struct.pack("d", 0.0)
        assert struct.pack("d", top_k_dissimilar_pairs(2).score(a, b)) == \
            struct.pack("d", -0.0)

    def test_extra_attributes_ignored(self):
        a, b = obj(1, 0.5, 0.25, 9.0), obj(2, 0.0, 0.0, -9.0)
        for make in _LIBRARY:
            assert make(2).score(a, b) == make(2).score(
                obj(1, 0.5, 0.25), obj(2, 0.0, 0.0))


class TestSuite:
    def test_four_functions(self):
        suite = paper_scoring_functions(2)
        assert len(suite) == 4
        assert all(sf.is_global() for sf in suite)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_arity_matches_d(self, d):
        for sf in paper_scoring_functions(d):
            assert sf.num_terms == d
            assert sf.attributes == tuple(range(d))


class TestSensorFunction:
    def test_formula(self):
        sf = sensor_scoring_function()
        a = obj(1, 100.0, 20.0, 50.0)
        b = obj(2, 130.0, 25.0, 40.0)
        # |dt| / (|dtemp| * |dhum|) = 30 / (5 * 10)
        assert math.isclose(sf.score(a, b), 30.0 / 50.0)

    def test_prefers_close_in_time_far_in_readings(self):
        sf = sensor_scoring_function()
        base = obj(1, 0.0, 20.0, 50.0)
        anomaly = obj(2, 10.0, 35.0, 80.0)    # near in time, far in readings
        mundane = obj(3, 500.0, 20.5, 50.5)   # far in time, near in readings
        assert sf.score(base, anomaly) < sf.score(base, mundane)

    def test_identical_readings_guarded_by_epsilon(self):
        sf = sensor_scoring_function()
        a = obj(1, 0.0, 20.0, 50.0)
        b = obj(2, 10.0, 20.0, 50.0)
        score = sf.score(a, b)
        assert math.isfinite(score)
        assert score > 0

    def test_not_global(self):
        assert not sensor_scoring_function().is_global()

    def test_custom_attribute_positions(self):
        sf = sensor_scoring_function(time_attr=2, temp_attr=0, humidity_attr=1)
        a = obj(1, 20.0, 50.0, 100.0)
        b = obj(2, 25.0, 40.0, 130.0)
        assert math.isclose(sf.score(a, b), 30.0 / 50.0)
