"""FIT arithmetic and counting statistics."""

from __future__ import annotations

import math
import random
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from repro.beam.fit import (
    fit_rate,
    poisson_interval,
    poisson_interval_normal,
    sample_poisson,
)
from repro.injection.sampling import Z_SCORES
from repro.errors import ConfigurationError


class TestFitRate:
    def test_definition(self):
        # 10 errors over 1e10 n/cm^2 -> sigma = 1e-9 cm^2;
        # FIT = sigma * 13 * 1e9 = 13.
        assert fit_rate(10, 1e10) == pytest.approx(13.0)

    def test_linear_in_errors(self):
        assert fit_rate(20, 1e10) == pytest.approx(2 * fit_rate(10, 1e10))

    def test_zero_errors(self):
        assert fit_rate(0, 1e10) == 0.0

    def test_bad_fluence(self):
        with pytest.raises(ConfigurationError):
            fit_rate(1, 0.0)


class TestPoissonInterval:
    def test_zero_count_lower_bound_is_zero(self):
        low, high = poisson_interval(0)
        assert low == 0.0
        assert 3.0 < high < 4.5  # the classic ~3.7 upper bound

    def test_interval_contains_count(self):
        for count in (1, 5, 20, 100):
            low, high = poisson_interval(count)
            assert low < count < high

    def test_higher_confidence_is_wider(self):
        low95, high95 = poisson_interval(10, 0.95)
        low99, high99 = poisson_interval(10, 0.99)
        assert low99 <= low95 and high99 >= high95

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            poisson_interval(-1)


class TestPoissonSampler:
    def test_zero_mean(self):
        rng = random.Random(1)
        assert sample_poisson(rng, 0.0) == 0

    def test_negative_mean_rejected(self):
        with pytest.raises(ConfigurationError):
            sample_poisson(random.Random(1), -1.0)

    @pytest.mark.parametrize("mean", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_mean_rejected(self, mean):
        with pytest.raises(ConfigurationError):
            sample_poisson(random.Random(1), mean)

    @pytest.mark.parametrize("mean", [0.5, 3.0, 12.0, 80.0])
    def test_sample_mean_converges(self, mean):
        rng = random.Random(42)
        draws = [sample_poisson(rng, mean) for _ in range(3000)]
        assert statistics.mean(draws) == pytest.approx(mean, rel=0.1)
        assert statistics.pvariance(draws) == pytest.approx(mean, rel=0.25)

    @given(mean=st.floats(0.0, 200.0))
    @settings(max_examples=50)
    def test_samples_are_nonnegative_ints(self, mean):
        rng = random.Random(7)
        value = sample_poisson(rng, mean)
        assert isinstance(value, int) and value >= 0


class TestPoissonFallback:
    """The scipy-less normal-approximation path must be correct on its
    own: right z-score per confidence, exact Garwood bound at zero."""

    def test_zero_count_is_exact_garwood(self):
        from math import log

        low, high = poisson_interval_normal(0, 0.95)
        assert low == 0.0
        assert high == pytest.approx(-log(0.025), rel=1e-9)

    def test_uses_the_right_z_for_090(self):
        # The old fallback looked up z=2.5758 (the 99% score) for 0.90.
        low, high = poisson_interval_normal(100, 0.90)
        assert high == pytest.approx(100 + 1.6449 * 10.0, abs=1e-3)
        assert low == pytest.approx(100 - 1.6449 * 10.0, abs=1e-3)

    def test_z_table_is_shared_with_sampling(self):
        for confidence, z in Z_SCORES.items():
            low, high = poisson_interval_normal(64, confidence)
            assert high == pytest.approx(64 + z * 8.0, abs=1e-9)

    def test_unknown_confidence_rejected(self):
        with pytest.raises(ConfigurationError, match="0.9"):
            poisson_interval_normal(10, 0.42)

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            poisson_interval_normal(-1)

    def test_poisson_interval_falls_back_without_scipy(self, monkeypatch):
        import sys as _sys

        monkeypatch.setitem(_sys.modules, "scipy", None)
        monkeypatch.setitem(_sys.modules, "scipy.stats", None)
        assert poisson_interval(9, 0.95) == poisson_interval_normal(9, 0.95)
        # count=0 stays exact even on the fallback path.
        assert poisson_interval(0, 0.95) == poisson_interval_normal(0, 0.95)

    def test_fallback_brackets_the_exact_interval_loosely(self):
        pytest.importorskip("scipy")
        low_exact, high_exact = poisson_interval(100, 0.95)
        low_norm, high_norm = poisson_interval_normal(100, 0.95)
        assert low_norm == pytest.approx(low_exact, rel=0.05)
        assert high_norm == pytest.approx(high_exact, rel=0.05)
