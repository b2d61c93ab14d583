"""Tests for the variance-time Hurst estimator (Fig. 3 methodology)."""

import numpy as np
import pytest

from repro.estimators.variance_time import (
    MIN_LENGTH,
    variance_time_estimate,
)
from repro.exceptions import EstimationError, ValidationError
from repro.processes.fgn import fgn_generate
from repro.stats.aggregate import aggregation_levels


class TestVarianceTime:
    @pytest.mark.parametrize("h", [0.6, 0.75, 0.9])
    def test_recovers_hurst_of_fgn(self, h):
        x = fgn_generate(h, 1 << 17, random_state=int(h * 100))
        est = variance_time_estimate(x)
        assert est.hurst == pytest.approx(h, abs=0.08)

    def test_iid_gives_half(self):
        x = np.random.default_rng(0).normal(size=1 << 16)
        est = variance_time_estimate(x)
        assert est.hurst == pytest.approx(0.5, abs=0.05)

    def test_beta_slope_consistency(self):
        x = fgn_generate(0.8, 1 << 15, random_state=1)
        est = variance_time_estimate(x)
        assert est.beta == pytest.approx(abs(est.fit.slope))
        assert est.hurst == pytest.approx(1 - est.beta / 2)

    def test_plot_coordinates(self):
        x = fgn_generate(0.7, 1 << 14, random_state=2)
        est = variance_time_estimate(x)
        np.testing.assert_allclose(est.log_levels, np.log10(est.levels))
        np.testing.assert_allclose(
            est.log_variances, np.log10(est.variances)
        )

    def test_rejects_constant_series(self):
        # 0.1, 0.3 and 1/3 have an inexact mean; their centred series
        # is a constant offset, whose block sums are still all equal.
        for value in (1.0, 0.1, 0.3, 1 / 3):
            with pytest.raises(EstimationError, match="zero variance"):
                variance_time_estimate(np.full(1000, value))

    def test_rejects_tiny_series(self):
        with pytest.raises(ValidationError):
            variance_time_estimate([1.0, 2.0])


class TestBitwisePin:
    """The block sums are differences of one prefix sum, so the
    variances are allclose to the per-level reference, not bitwise
    equal; the level grid is exact."""

    @pytest.mark.parametrize("n", [MIN_LENGTH, 1 << 16])
    def test_variances_match_per_level_reference(self, n):
        x = fgn_generate(0.8, n, random_state=n)
        est = variance_time_estimate(x)
        levels = aggregation_levels(
            n, min_m=min(10, max(1, n // 20)), min_blocks=10,
            points_per_decade=10,
        )
        usable = [m for m in levels if n // m >= 2]
        want = np.array(
            [
                x[: n // m * m].reshape(-1, m).mean(axis=1).var(ddof=0)
                for m in usable
            ]
        )
        np.testing.assert_array_equal(est.levels, usable)
        np.testing.assert_allclose(est.variances, want, rtol=1e-12)
