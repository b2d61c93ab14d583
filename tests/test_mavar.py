"""Unit tests for the Modified Allan Variance Hurst estimator."""

import numpy as np
import pytest

from repro.estimators.mavar import (
    MIN_LENGTH,
    MavarEstimate,
    _octave_taus,
    fgn_expected_mavar,
    mavar_estimate,
)
from repro.exceptions import EstimationError, ValidationError
from repro.processes import fgn_generate


class TestStatistic:
    def test_white_noise_tau1_estimates_variance(self):
        # At tau=1 the second phase difference x_{i+2} - 2x_{i+1} + x_i
        # collapses to the successive difference y_{i+2} - y_{i+1},
        # whose variance is 2 sigma^2 for i.i.d. input, so
        # E[Mod sigma^2(1)] = sigma^2 exactly.
        rng = np.random.default_rng(7)
        w = rng.normal(0.0, 2.0, size=20_000)
        profile = mavar_estimate(w, taus=[1, 2]).mavar_values
        assert profile[0] == pytest.approx(4.0, rel=0.05)

    def test_matches_expected_fgn_curve(self):
        # Monte Carlo MAVAR of exact fGn must track the closed-form
        # quadratic-form expectation octave by octave.
        taus = (2, 4, 8, 16)
        expected = fgn_expected_mavar(0.8, taus)
        pooled = np.zeros(len(taus))
        for seed in range(20):
            x = fgn_generate(0.8, 4096, random_state=seed)
            pooled += mavar_estimate(x, taus=taus).mavar_values
        np.testing.assert_allclose(pooled / 20, expected, rtol=0.1)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValidationError, match="tau"):
            mavar_estimate(np.ones(100), taus=[0, 2])


class TestOctaveGrid:
    def test_octaves_respect_feasibility_bound(self):
        taus = _octave_taus(16_384, 2, None)
        assert taus == (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)
        for n in taus:
            assert 3 * n <= 16_384 - 1

    def test_explicit_max_tau(self):
        assert _octave_taus(16_384, 2, 100) == (2, 4, 8, 16, 32, 64)

    def test_short_series_still_two_octaves(self):
        assert len(_octave_taus(MIN_LENGTH, 2, None)) >= 2


class TestEstimate:
    def test_known_h_accuracy(self):
        errs = [
            mavar_estimate(
                fgn_generate(0.8, 16_384, random_state=seed)
            ).hurst
            - 0.8
            for seed in range(6)
        ]
        assert abs(np.mean(errs)) < 0.02
        assert np.sqrt(np.mean(np.square(errs))) < 0.03

    def test_affine_invariance_is_exact(self):
        x = fgn_generate(0.75, 8192, random_state=3)
        base = mavar_estimate(x).hurst
        scaled = mavar_estimate(3.7 * x - 1250.0).hurst
        assert scaled == pytest.approx(base, abs=1e-9)

    def test_asymptotic_mode(self):
        # Every estimate also reports the Bregni log-log slope reading.
        x = fgn_generate(0.8, 16_384, random_state=5)
        est = mavar_estimate(x)
        assert est.asymptotic_hurst == pytest.approx(
            (est.fit.slope + 2.0) / 2.0
        )
        assert abs(est.asymptotic_hurst - 0.8) < 0.1

    def test_fgn_mode_fields(self):
        x = fgn_generate(0.7, 4096, random_state=9)
        est = mavar_estimate(x)
        assert isinstance(est, MavarEstimate)
        assert np.isfinite(est.objective) and est.objective >= 0
        assert est.taus.size == est.mavar_values.size
        np.testing.assert_allclose(est.log_taus, np.log10(est.taus))
        np.testing.assert_allclose(
            est.log_mavar_values, np.log10(est.mavar_values)
        )

    def test_explicit_taus(self):
        x = fgn_generate(0.8, 4096, random_state=2)
        est = mavar_estimate(x, taus=[2, 4, 8, 16, 4096])
        # The infeasible tau (3*4096 > N-1) is dropped silently.
        assert est.taus.tolist() == [2.0, 4.0, 8.0, 16.0]

    def test_rejects_short_series(self):
        with pytest.raises(
            ValidationError,
            match=r"values must have at least 32 entries, got 31",
        ):
            mavar_estimate(np.ones(MIN_LENGTH - 1))

    def test_rejects_constant_series(self):
        with pytest.raises(EstimationError, match="degenerate"):
            mavar_estimate(np.full(1024, 5.0))

    def test_rejects_single_usable_tau(self):
        x = fgn_generate(0.8, 1024, random_state=4)
        with pytest.raises(EstimationError, match="observation interval"):
            mavar_estimate(x, taus=[4])

    def test_deterministic(self):
        x = fgn_generate(0.8, 4096, random_state=11)
        assert mavar_estimate(x).hurst == mavar_estimate(x).hurst


class TestExpectedCurve:
    def test_monotone_decreasing_for_lrd(self):
        vals = fgn_expected_mavar(0.8, (2, 4, 8, 16, 32))
        assert np.all(np.diff(vals) < 0)

    def test_asymptotic_slope_emerges(self):
        # log2 ratio between adjacent large octaves approaches 2H - 2.
        vals = fgn_expected_mavar(0.9, (256, 512))
        slope = np.log2(vals[1] / vals[0])
        assert slope == pytest.approx(2 * 0.9 - 2, abs=0.02)

    def test_rejects_empty(self):
        with pytest.raises(EstimationError):
            fgn_expected_mavar(0.8, ())
