"""Tests for the empirical (histogram-inversion) distribution."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.marginals.empirical import EmpiricalDistribution


class TestEmpiricalDistribution:
    def test_moments_match_samples(self, rng):
        data = rng.gamma(2.0, 500.0, size=5000)
        d = EmpiricalDistribution(data)
        assert d.mean == pytest.approx(data.mean())
        assert d.variance == pytest.approx(data.var(ddof=1))

    def test_histogram_cdf_monotone(self, rng):
        data = rng.exponential(size=2000)
        d = EmpiricalDistribution(data, bins=50)
        x = np.linspace(data.min(), data.max(), 200)
        cdf = np.asarray(d.cdf(x))
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[0] >= 0 and cdf[-1] <= 1.0 + 1e-12

    def test_histogram_ppf_cdf_roundtrip(self, rng):
        data = rng.normal(size=3000)
        d = EmpiricalDistribution(data, bins=100)
        q = np.array([0.1, 0.25, 0.5, 0.75, 0.9])
        np.testing.assert_allclose(d.cdf(d.ppf(q)), q, atol=1e-9)

    def test_ppf_range_is_data_range(self, rng):
        data = rng.uniform(10.0, 20.0, size=1000)
        d = EmpiricalDistribution(data, bins=20)
        assert d.ppf(0.0) >= 10.0 - 1e-9
        assert d.ppf(1.0) <= 20.0 + 1e-9

    def test_quantiles_of_resampled_match(self, rng):
        data = rng.gamma(3.0, 200.0, size=20_000)
        d = EmpiricalDistribution(data, bins=200)
        resampled = d.sample(20_000, np.random.default_rng(1))
        for q in (0.25, 0.5, 0.9):
            assert np.quantile(resampled, q) == pytest.approx(
                np.quantile(data, q), rel=0.05
            )

    def test_histogram_property(self, rng):
        data = rng.normal(size=500)
        d = EmpiricalDistribution(data, bins=25)
        assert d.histogram.total == 500

    def test_ppf_clips_probs(self):
        d = EmpiricalDistribution([1.0, 2.0, 3.0])
        assert d.ppf(-0.5) == d.ppf(0.0)
        assert d.ppf(1.5) == d.ppf(1.0)

    def test_rejects_single_sample(self):
        with pytest.raises(ValidationError):
            EmpiricalDistribution([1.0])


class TestDegenerateSamples:
    def test_subnormal_range_cdf_ppf_consistent(self):
        # The case Hypothesis found against the histogram layer: four
        # samples spanning one subnormal spacing.
        data = np.array([0.0, 0.0, 0.0, 5e-324])
        d = EmpiricalDistribution(data, bins=20)
        for q in (0.01, 0.25, 0.5, 0.99):
            value = float(d.ppf(q))
            assert data.min() - 1e-9 <= value <= data.max() + 1e-9
            assert float(d.cdf(value)) == pytest.approx(q, abs=1e-6)
