"""Tests for the empirical complexity-trend fitting, including fits of
the library's own measured behaviour against the paper's claims."""

from __future__ import annotations

import math
import random

import pytest

from repro.analysis.complexity import doubling_ratios, fit_power_law
from repro.core.maintenance import SCaseMaintainer, TAMaintainer
from repro.obs.cost_model import Counters
from repro.scoring.library import k_closest_pairs
from repro.stream.manager import StreamManager


class TestFitPowerLaw:
    def test_exact_linear(self):
        fit = fit_power_law([1, 2, 4, 8], [3, 6, 12, 24])
        assert math.isclose(fit.exponent, 1.0)
        assert math.isclose(fit.coefficient, 3.0)
        assert math.isclose(fit.r_squared, 1.0)

    def test_exact_quadratic(self):
        fit = fit_power_law([1, 2, 3], [2, 8, 18])
        assert math.isclose(fit.exponent, 2.0)
        assert math.isclose(fit.coefficient, 2.0)

    def test_flat_series(self):
        fit = fit_power_law([1, 10, 100], [5, 5, 5])
        assert math.isclose(fit.exponent, 0.0, abs_tol=1e-12)

    def test_predict_roundtrip(self):
        fit = fit_power_law([2, 4, 8], [10, 20, 40])
        assert math.isclose(fit.predict(16), 80, rel_tol=1e-9)

    def test_noise_tolerated(self):
        rng = random.Random(1)
        xs = [2 ** i for i in range(3, 12)]
        ys = [7 * x ** 1.5 * rng.uniform(0.9, 1.1) for x in xs]
        fit = fit_power_law(xs, ys)
        assert 1.35 < fit.exponent < 1.65
        assert fit.r_squared > 0.95

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [1.0])
        with pytest.raises(ValueError):
            fit_power_law([1], [1.0])
        with pytest.raises(ValueError):
            fit_power_law([0, 1], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [-1.0, 2.0])
        with pytest.raises(ValueError):
            fit_power_law([3, 3], [1.0, 2.0])


class TestDoublingRatios:
    def test_values(self):
        assert doubling_ratios([1, 2, 8]) == [2.0, 4.0]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            doubling_ratios([1, 0])


def _pairs_considered(maintainer_cls, N, K, ticks, seed=0):
    """Pairs examined per arrival at steady state."""
    rng = random.Random(seed)
    counters = Counters()
    sf = k_closest_pairs(2)
    manager = StreamManager(N, 2)
    maintainer = maintainer_cls(sf, K, counters=counters)
    for _ in range(N):
        event = manager.append((rng.random(), rng.random()))
        maintainer.on_tick(manager, (event.new,), event.expired)
    counters.reset()
    for _ in range(ticks):
        event = manager.append((rng.random(), rng.random()))
        maintainer.on_tick(manager, (event.new,), event.expired)
    return counters.pairs_considered / ticks


class TestMeasuredTrends:
    """The paper's access-complexity claims, verified on op counts (which
    are deterministic and machine-independent, unlike wall time)."""

    def test_scase_examines_theta_N_pairs(self):
        Ns = [50, 100, 200, 400]
        ys = [_pairs_considered(SCaseMaintainer, N, 5, 80) for N in Ns]
        fit = fit_power_law(Ns, ys)
        assert 0.9 < fit.exponent < 1.1  # exactly N - 1 per arrival

    def test_ta_examines_sublinear_pairs(self):
        """Algorithm 5's bound is N^{d/(d+1)} = N^{2/3} for d = 2."""
        Ns = [100, 200, 400, 800]
        ys = [_pairs_considered(TAMaintainer, N, 5, 80) for N in Ns]
        fit = fit_power_law(Ns, ys)
        assert fit.exponent < 0.9  # clearly sublinear in N

    def test_ta_beats_scase_on_access_counts(self):
        for N in (200, 400):
            ta = _pairs_considered(TAMaintainer, N, 5, 60)
            scase = _pairs_considered(SCaseMaintainer, N, 5, 60)
            assert ta < scase
