"""Tests for the composite SRD+LRD ACF fitter (eq. 10-13)."""

import numpy as np
import pytest

from repro.estimators.acf_fit import detect_knee, fit_composite_acf
from repro.exceptions import ValidationError
from repro.processes.correlation import CompositeCorrelation


def synthetic_acf(model: CompositeCorrelation, max_lag: int) -> np.ndarray:
    return np.asarray(model(np.arange(max_lag + 1)), dtype=float)


class TestFitCompositeAcf:
    def test_recovers_paper_parameters_noiseless(self):
        truth = CompositeCorrelation.paper_fit()
        acf = synthetic_acf(truth, 500)
        fit = fit_composite_acf(acf, knee=60, lrd_exponent=0.2)
        assert fit.model.srd.rates[0] == pytest.approx(0.00565, rel=1e-3)
        assert fit.model.lrd_amplitude == pytest.approx(1.59468, rel=1e-3)
        assert fit.rmse < 1e-6

    def test_free_exponent_recovery(self):
        truth = CompositeCorrelation.paper_fit()
        acf = synthetic_acf(truth, 500)
        fit = fit_composite_acf(acf, knee=60)
        assert fit.model.lrd_exponent == pytest.approx(0.2, rel=1e-3)
        assert fit.hurst == pytest.approx(0.9, abs=1e-3)

    def test_nugget_recovery(self):
        truth = CompositeCorrelation(
            srd_weights=[1.0],
            srd_rates=[0.008],
            lrd_amplitude=0.85,
            lrd_exponent=0.25,
            knee=50.0,
            nugget=0.12,
        )
        acf = synthetic_acf(truth, 300)
        fit = fit_composite_acf(acf, knee=50, lrd_exponent=0.25)
        assert fit.model.nugget == pytest.approx(0.12, abs=0.01)
        assert fit.model.srd.rates[0] == pytest.approx(0.008, rel=0.05)

    def test_noisy_fit_reasonable(self):
        rng = np.random.default_rng(0)
        truth = CompositeCorrelation.paper_fit()
        acf = synthetic_acf(truth, 500)
        acf[1:] += rng.normal(scale=0.01, size=500)
        fit = fit_composite_acf(acf, knee=60, lrd_exponent=0.2)
        assert fit.rmse < 0.05
        assert fit.model.srd.rates[0] == pytest.approx(0.00565, rel=0.5)

    def test_rejects_bad_head(self):
        acf = synthetic_acf(CompositeCorrelation.paper_fit(), 100)
        acf[0] = 0.9
        with pytest.raises(ValidationError, match="acf\\[0\\]"):
            fit_composite_acf(acf, knee=30)

    def test_rejects_knee_out_of_range(self):
        acf = synthetic_acf(CompositeCorrelation.paper_fit(), 100)
        with pytest.raises(ValidationError, match="knee"):
            fit_composite_acf(acf, knee=99)

    def test_rejects_too_few_lags(self):
        with pytest.raises(ValidationError, match="at least 10"):
            fit_composite_acf(np.linspace(1.0, 0.9, 5))


class TestDetectKnee:
    def test_finds_true_knee_region(self):
        truth = CompositeCorrelation.paper_fit().with_continuity()
        acf = synthetic_acf(truth, 400)
        knee = detect_knee(acf, lrd_exponent=0.2)
        # Noise-free detection should land near the true knee of 60.
        assert 30 <= knee <= 110
