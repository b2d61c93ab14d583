"""Tests for exact Gaussian conditional forecasting."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.processes.coeff_table import get_coefficient_table
from repro.processes.correlation import (
    FGNCorrelation,
    WhiteNoiseCorrelation,
)
from repro.processes.forecast import conditional_forecast
from repro.processes.hosking import hosking_generate


def ar1_acvf(phi, n):
    return phi ** np.arange(n, dtype=float)


class TestConditionalForecast:
    def test_white_noise_forecast_is_zero(self):
        fc = conditional_forecast(
            WhiteNoiseCorrelation(), [1.0, -2.0, 0.5], 4
        )
        np.testing.assert_allclose(fc.mean, 0.0, atol=1e-12)
        np.testing.assert_allclose(fc.std, 1.0, atol=1e-12)

    def test_ar1_one_step_mean(self):
        phi = 0.7
        history = np.array([0.3, -1.2, 2.0])
        fc = conditional_forecast(ar1_acvf(phi, 10), history, 3)
        # AR(1): E[X_{n+j} | history] = phi^j * x_n.
        np.testing.assert_allclose(
            fc.mean, phi ** np.arange(1, 4) * history[-1], atol=1e-10
        )

    def test_ar1_variance_path(self):
        phi = 0.6
        fc = conditional_forecast(ar1_acvf(phi, 10), [1.0], 4)
        expected = 1.0 - phi ** (2 * np.arange(1, 5))
        np.testing.assert_allclose(fc.std**2, expected, atol=1e-10)

    def test_variance_grows_and_saturates(self):
        corr = FGNCorrelation(0.85)
        x = hosking_generate(corr, 100, random_state=1)
        fc = conditional_forecast(corr, x, 30)
        assert np.all(np.diff(fc.std) >= -1e-9)
        assert fc.std[-1] <= 1.0 + 1e-9

    def test_matches_hosking_one_step(self):
        """The one-step conditional mean equals Hosking's m_k."""
        corr = FGNCorrelation(0.8)
        history = hosking_generate(corr, 20, random_state=2)
        fc = conditional_forecast(corr, history, 1)
        # Hosking's 21st step: m_20 = sum_j phi_20j x_{20-j}, variance v_20.
        table = get_coefficient_table(corr, 21)
        assert fc.mean[0] == pytest.approx(
            float(table.phi_row(20) @ history[::-1]), abs=1e-9
        )
        assert fc.std[0] ** 2 == pytest.approx(table.variance(20), abs=1e-9)

    def test_monte_carlo_coverage(self):
        """~95% of simulated futures fall inside the 1.96-sigma band."""
        corr = FGNCorrelation(0.8)
        rng_paths = hosking_generate(
            corr, 60, size=400, random_state=3
        )
        history = rng_paths[0, :40]
        fc = conditional_forecast(corr, history, 5)
        low, high = fc.interval()
        samples = fc.sample(2000, random_state=4)
        inside = np.mean((samples >= low) & (samples <= high))
        assert inside == pytest.approx(0.95, abs=0.03)

    def test_sample_shape(self):
        fc = conditional_forecast(FGNCorrelation(0.7), [0.5, 1.0], 3)
        out = fc.sample(10, random_state=5)
        assert out.shape == (10, 3)

    def test_rejects_short_acvf(self):
        with pytest.raises(ValidationError, match="autocovariances"):
            conditional_forecast([1.0, 0.5], [0.1, 0.2], 5)
