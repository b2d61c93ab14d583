"""Tests for the unified VBR model (§3.2 pipeline)."""

import numpy as np
import pytest

from repro.core.unified import UnifiedVBRModel
from repro.exceptions import NotFittedError, ValidationError
from repro.processes.correlation import CompositeCorrelation


class TestConstruction:
    def test_rejects_bad_background_method(self):
        with pytest.raises(ValidationError):
            UnifiedVBRModel(background_method="magic")

    def test_unfitted_accessors_raise(self):
        model = UnifiedVBRModel()
        with pytest.raises(NotFittedError):
            _ = model.background_correlation
        with pytest.raises(NotFittedError):
            model.generate(10)
        with pytest.raises(NotFittedError):
            model.arrival_transform()


class TestFit:
    def test_fitted_state_populated(self, fitted_unified):
        m = fitted_unified
        assert m.marginal_ is not None
        assert m.transform_ is not None
        assert isinstance(m.background_correlation, CompositeCorrelation)
        assert 0.5 < m.hurst < 1.0
        assert 0.0 < m.attenuation <= 1.0

    def test_hurst_near_codec_truth(self, fitted_unified):
        # The codec's ground truth is H = 0.9.
        assert fitted_unified.hurst == pytest.approx(0.9, abs=0.08)

    def test_knee_in_plausible_range(self, fitted_unified):
        # The codec's activity knee is at lag 60.
        assert 20 <= fitted_unified.acf_fit_.knee <= 160

    def test_background_is_positive_definite(self, fitted_unified):
        from repro.processes.partial_corr import validate_acvf_pd

        assert validate_acvf_pd(
            fitted_unified.background_correlation.acvf(500)
        )

    def test_fit_accepts_plain_series(self, intra_trace):
        m = UnifiedVBRModel(max_lag=150).fit(
            intra_trace.sizes[:40_000], random_state=2
        )
        assert m.background_ is not None

    def test_fit_rejects_short_series(self):
        with pytest.raises(ValidationError, match="at least"):
            UnifiedVBRModel(max_lag=500).fit(np.random.default_rng(0)
                                             .normal(size=100))

    def test_fit_rejects_antipersistent_series(self):
        # Differenced noise has H ~ 0, clearly failing the LRD check.
        # (Plain iid data can sneak past it because the R/S estimator
        # is biased upward at finite lengths.)
        rng = np.random.default_rng(3)
        series = np.diff(rng.normal(size=50_001)) * 100.0 + 1000.0
        with pytest.raises(ValidationError, match="long-range"):
            UnifiedVBRModel(max_lag=100).fit(series)


class TestGenerate:
    def test_marginal_matches_trace(self, fitted_unified, intra_trace):
        """Pooled over replications: a single LRD path's marginal
        wanders with its low-frequency excursion, but the ensemble
        marginal is exactly the inverted histogram."""
        from tests.conftest import pooled_generation

        y = pooled_generation(fitted_unified, paths=192, length=800,
                              seed=5)
        assert y.mean() == pytest.approx(
            intra_trace.sizes.mean(), rel=0.05
        )
        assert np.quantile(y, 0.9) == pytest.approx(
            np.quantile(intra_trace.sizes, 0.9), rel=0.05
        )
        assert y.min() >= intra_trace.sizes.min() - 1e-6

    def test_generate_shapes(self, fitted_unified):
        assert fitted_unified.generate(500, random_state=6).shape == (500,)
        assert fitted_unified.generate(
            500, size=3, random_state=6
        ).shape == (3, 500)

    def test_generate_background_unit_variance(self, fitted_unified):
        x = fitted_unified.generate_background(
            2000, size=20, random_state=7
        )
        assert x.var() == pytest.approx(1.0, abs=0.15)

    def test_invalid_generation_method(self, fitted_unified):
        with pytest.raises(ValidationError):
            fitted_unified.generate(100, backend="nope")

    def test_acf_of_generated_matches_empirical(self, fitted_unified):
        """The headline claim (Fig. 8): the synthetic foreground ACF
        tracks the empirical one."""
        from repro.estimators.acf import sample_acf

        y = fitted_unified.generate(
            120_000, backend="davies-harte", random_state=8
        )
        model_acf = sample_acf(y, 300)
        emp_acf = fitted_unified.empirical_acf_
        for lag in (1, 30, 60, 150, 300):
            assert model_acf[lag] == pytest.approx(
                emp_acf[lag], abs=0.12
            )

    def test_hermite_inverse_background(self, intra_trace):
        m = UnifiedVBRModel(
            max_lag=200, background_method="hermite-inverse"
        ).fit(intra_trace.sizes[:40_000], random_state=9)
        assert m.background_ is not None
        y = m.generate(1000, random_state=10)
        assert y.shape == (1000,)


class TestArrivalTransform:
    def test_unit_mean(self, fitted_unified, rng):
        arrivals = fitted_unified.arrival_transform()
        y = arrivals(rng.standard_normal(200_000))
        assert y.mean() == pytest.approx(1.0, abs=0.05)

    def test_nonnegative(self, fitted_unified, rng):
        arrivals = fitted_unified.arrival_transform()
        assert np.all(arrivals(rng.standard_normal(10_000)) >= 0)


class TestRepr:
    def test_unfitted(self):
        assert "unfitted" in repr(UnifiedVBRModel())

    def test_fitted(self, fitted_unified):
        assert "hurst=" in repr(fitted_unified)
