"""Tests for GOP-phase-aware arrival transforms."""

import numpy as np
import pytest

from repro.core.composite import GopPhaseArrivalTransform
from repro.exceptions import NotFittedError
from repro.simulation.importance import is_overflow_probability


class TestGopPhaseArrivalTransform:
    def test_requires_fitted_model(self):
        from repro.core.composite import CompositeMPEGModel

        with pytest.raises(NotFittedError):
            GopPhaseArrivalTransform(CompositeMPEGModel())

    def test_time_varying_flag(self, fitted_composite):
        transform = fitted_composite.arrival_transform()
        assert transform.time_varying is True

    def test_mean_frame_size_matches_trace(self, fitted_composite,
                                           ibp_trace):
        transform = fitted_composite.arrival_transform()
        assert transform.mean_frame_size == pytest.approx(
            float(ibp_trace.sizes.mean()), rel=0.01
        )

    def test_gop_position_ordering(self, fitted_composite, rng):
        """I slots produce the largest arrivals, B the smallest."""
        transform = fitted_composite.arrival_transform()
        x = rng.standard_normal(5000)
        i_mean = float(np.mean(transform(x, 0)))    # I position
        p_mean = float(np.mean(transform(x, 3)))    # P position
        b_mean = float(np.mean(transform(x, 1)))    # B position
        assert i_mean > p_mean > b_mean

    def test_unit_mean_over_gop(self, fitted_composite, rng):
        transform = fitted_composite.arrival_transform()
        period = fitted_composite.gop_.i_period
        means = [
            float(np.mean(transform(rng.standard_normal(4000), step)))
            for step in range(period)
        ]
        assert float(np.mean(means)) == pytest.approx(1.0, abs=0.05)

    def test_period_wraparound(self, fitted_composite, rng):
        transform = fitted_composite.arrival_transform()
        x = rng.standard_normal(100)
        period = fitted_composite.gop_.i_period
        np.testing.assert_array_equal(
            transform(x, 0), transform(x, period)
        )

    def test_drives_importance_sampling(self, fitted_composite):
        estimate = is_overflow_probability(
            fitted_composite.background_correlation,
            fitted_composite.arrival_transform(),
            service_rate=1.0 / 0.6,
            buffer_size=30.0,
            horizon=200,
            twisted_mean=1.0,
            replications=200,
            random_state=5,
        )
        assert 0.0 <= estimate.probability <= 1.0
        assert estimate.hits > 0

