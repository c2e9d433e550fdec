"""Ready-made scoring functions, including the paper's experiment suite.

Paper §VI-A evaluates four global scoring functions over ``d`` attributes:

* ``s1`` — Manhattan k-closest pairs:      ``sum_i |x_i - y_i|``
* ``s2`` — Manhattan k-furthest pairs:     ``-sum_i |x_i - y_i|``
* ``s3`` — top-k similar pairs:            ``prod_i |x_i - y_i|``
* ``s4`` — top-k dissimilar pairs:         ``-prod_i |x_i - y_i|``

plus, on the sensor data, the arbitrary (non-global) function

    ``|t_x - t_y| / (|temp_x - temp_y| * |hum_x - hum_y|)``

All are constructed here.  ``s1``..``s4`` are global scoring functions so
both the SCase and the TA maintenance paths apply to them; the sensor
function is arbitrary, exercising the general path.
"""

from __future__ import annotations

from math import fsum, prod
from operator import neg, sub

from repro.scoring.base import LambdaScoringFunction, ScoringFunction
from repro.scoring.combiners import (
    NegatedProductOfNegationsCombiner,
    ProductCombiner,
    SumCombiner,
)
from repro.scoring.composite import GlobalScoringFunction
from repro.scoring.local import AbsoluteDifference, NegatedAbsoluteDifference
from repro.stream.object import StreamObject

__all__ = [
    "k_closest_pairs",
    "k_furthest_pairs",
    "top_k_similar_pairs",
    "top_k_dissimilar_pairs",
    "paper_scoring_functions",
    "sensor_scoring_function",
]


class _LibraryFunction(GlobalScoringFunction):
    """``s1``..``s4``: one local term per attribute ``i < d`` and a
    ``score`` that folds the distances ``|a_i - b_i|`` in one C-level
    pass instead of one Python call per term.

    The fused ``score`` hands the same floats to the same ``fsum`` or
    ``prod``, in the same order, as the term-by-term composition, so the
    two are bit-identical.  Attributes past the first ``d`` are ignored,
    as the terms ignore them; ``combine`` (the TA threshold) stays
    generic.
    """

    def __init__(self, d: int, local_type, combiner, name: str) -> None:
        super().__init__([(i, local_type()) for i in range(d)], combiner,
                         name=name)
        # values[:d] is values itself when there are exactly d of them
        self._own = slice(0, d)


class _Closest(_LibraryFunction):
    def score(self, a: StreamObject, b: StreamObject) -> float:
        return fsum(map(abs, map(sub, a.values[self._own], b.values)))


class _Furthest(_LibraryFunction):
    def score(self, a: StreamObject, b: StreamObject) -> float:
        # Negating the sum instead of each term would turn fsum's 0.0
        # for two equal rows into -0.0.
        return fsum(map(neg, map(abs, map(sub, a.values[self._own],
                                          b.values))))


class _Similar(_LibraryFunction):
    def score(self, a: StreamObject, b: StreamObject) -> float:
        return prod(map(abs, map(sub, a.values[self._own], b.values)))


class _Dissimilar(_LibraryFunction):
    def score(self, a: StreamObject, b: StreamObject) -> float:
        # -prod(-l_i) over l_i = -|a_i - b_i|, with -(-|x|) == |x|.
        return -prod(map(abs, map(sub, a.values[self._own], b.values)))


def k_closest_pairs(num_attributes: int) -> GlobalScoringFunction:
    """The paper's ``s1``: Manhattan distance over ``num_attributes``."""
    return _Closest(num_attributes, AbsoluteDifference, SumCombiner(),
                    f"s1-closest(d={num_attributes})")


def k_furthest_pairs(num_attributes: int) -> GlobalScoringFunction:
    """The paper's ``s2``: negated Manhattan distance."""
    return _Furthest(num_attributes, NegatedAbsoluteDifference,
                     SumCombiner(), f"s2-furthest(d={num_attributes})")


def top_k_similar_pairs(num_attributes: int) -> GlobalScoringFunction:
    """The paper's ``s3``: product of absolute differences."""
    return _Similar(num_attributes, AbsoluteDifference, ProductCombiner(),
                    f"s3-similar(d={num_attributes})")


def top_k_dissimilar_pairs(num_attributes: int) -> GlobalScoringFunction:
    """The paper's ``s4``: negated product of absolute differences.

    Realized monotonically as ``-prod(-l_i)`` over the non-positive locals
    ``l_i = -|x_i - y_i|`` (see the combiner's docstring).
    """
    return _Dissimilar(num_attributes, NegatedAbsoluteDifference,
                       NegatedProductOfNegationsCombiner(),
                       f"s4-dissimilar(d={num_attributes})")


def paper_scoring_functions(num_attributes: int) -> list[GlobalScoringFunction]:
    """``[s1, s2, s3, s4]`` over ``num_attributes`` attributes."""
    return [
        k_closest_pairs(num_attributes),
        k_furthest_pairs(num_attributes),
        top_k_similar_pairs(num_attributes),
        top_k_dissimilar_pairs(num_attributes),
    ]


def sensor_scoring_function(
    time_attr: int = 0,
    temp_attr: int = 1,
    humidity_attr: int = 2,
    *,
    epsilon: float = 1e-9,
) -> ScoringFunction:
    """The paper's Intel-lab scoring function (§VI-A).

    ``|t_x - t_y| / (|temp_x - temp_y| * |hum_x - hum_y|)`` prefers pairs
    of readings taken close in time that report very different temperature
    and humidity — i.e. anomalies.  ``epsilon`` guards the division when
    two readings coincide exactly.

    The function is *not* a global scoring function (the division is not a
    monotonic combiner), so it exercises the arbitrary-function path.
    """

    def score(a: StreamObject, b: StreamObject) -> float:
        dt = abs(a.values[time_attr] - b.values[time_attr])
        dtemp = abs(a.values[temp_attr] - b.values[temp_attr])
        dhum = abs(a.values[humidity_attr] - b.values[humidity_attr])
        return dt / max(dtemp * dhum, epsilon)

    return LambdaScoringFunction(
        score,
        name="sensor-anomaly",
        attributes=(time_attr, temp_attr, humidity_attr),
    )
