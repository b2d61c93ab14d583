"""Tests for the Whittle Hurst estimator."""

import warnings

import numpy as np
import pytest

from repro.estimators.whittle import fgn_spectral_density, whittle_estimate
from repro.exceptions import ValidationError
from repro.marginals.parametric import GammaDistribution
from repro.marginals.transform import MarginalTransform
from repro.processes.correlation import FGNCorrelation
from repro.processes.fgn import fgn_generate


class TestFgnSpectralDensity:
    def test_white_noise_flat(self):
        freqs = np.linspace(0.1, 3.0, 20)
        density = fgn_spectral_density(0.5, freqs)
        np.testing.assert_allclose(
            density, 1.0 / (2 * np.pi), rtol=1e-3
        )

    def test_lrd_divergence_at_origin(self):
        low = fgn_spectral_density(0.9, [0.001])[0]
        high = fgn_spectral_density(0.9, [1.0])[0]
        assert low > 50 * high

    def test_low_frequency_power_law(self):
        # f(lam) ~ c lam^{1-2H} near 0.
        h = 0.8
        f1 = fgn_spectral_density(h, [0.002])[0]
        f2 = fgn_spectral_density(h, [0.004])[0]
        measured_exponent = np.log(f2 / f1) / np.log(2.0)
        assert measured_exponent == pytest.approx(1 - 2 * h, abs=0.06)

    def test_parseval_total_power(self):
        # integral over (-pi, pi) of f equals r(0) = 1:
        # 2 * integral_0^pi f = 1.
        lam = (np.arange(4096) + 0.5) * np.pi / 4096
        f = fgn_spectral_density(0.75, lam)
        total = 2.0 * float(f.sum()) * (np.pi / 4096)
        assert total == pytest.approx(1.0, rel=0.02)

    def test_rejects_bad_hurst(self):
        with pytest.raises(ValidationError):
            fgn_spectral_density(1.0, [0.1])


class TestWhittleEstimate:
    @pytest.mark.parametrize("h", [0.6, 0.75, 0.9])
    def test_recovers_hurst_of_fgn(self, h):
        x = fgn_generate(h, 1 << 15, random_state=int(h * 100))
        est = whittle_estimate(x)
        assert est.hurst == pytest.approx(h, abs=0.04)

    def test_more_precise_than_variance_time(self):
        """Whittle is the efficient estimator: across seeds its error
        on exact fGn beats the variance-time estimator's."""
        from repro.estimators.variance_time import variance_time_estimate

        h = 0.8
        whittle_errors = []
        vt_errors = []
        for seed in range(5):
            x = fgn_generate(h, 1 << 14, random_state=seed)
            whittle_errors.append(abs(whittle_estimate(x).hurst - h))
            vt_errors.append(abs(variance_time_estimate(x).hurst - h))
        assert np.mean(whittle_errors) < np.mean(vt_errors)

    def test_objective_minimised_at_estimate(self):
        x = fgn_generate(0.85, 1 << 13, random_state=9)
        est = whittle_estimate(x)
        # Perturbed H values give larger objective.
        from repro.estimators.whittle import fgn_spectral_density as fsd

        def objective(h):
            density = fsd(h, est.frequencies)
            ratio = est.periodogram / density
            return float(
                np.log(np.mean(ratio)) + np.mean(np.log(density))
            )

        assert objective(est.hurst) <= objective(est.hurst + 0.05) + 1e-9
        assert objective(est.hurst) <= objective(est.hurst - 0.05) + 1e-9

    def test_frequency_fraction(self):
        x = fgn_generate(0.8, 4096, random_state=2)
        small = whittle_estimate(x, frequency_fraction=0.1)
        assert 0.5 < small.hurst < 1.0
        assert small.frequencies.size < 4096 // 2

    def test_rejects_short_series(self):
        with pytest.raises(ValidationError):
            whittle_estimate(np.ones(32))

    @pytest.mark.parametrize("factor", [1e300, 1e-300])
    def test_extreme_scales_read_the_unscaled_hurst(self, factor):
        # The periodogram would overflow at 1e300 and underflow to zero
        # at 1e-300; the series is rescaled by an exact power of two
        # first, without a numpy RuntimeWarning.  2e-4 is twice the
        # search's xatol.
        x = np.random.default_rng(43).gamma(6.0, 1.0, 4096)
        base = whittle_estimate(x).hurst
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = whittle_estimate(x * factor).hurst
        assert scaled == pytest.approx(base, abs=2e-4)

    def test_partly_underflowing_scale_reads_the_unscaled_hurst(self):
        # At 2^-531 part of the unrescaled periodogram is subnormal and
        # the estimate shifts (0.7690 against 0.7703); at 2^-600 all of
        # it underflows and the objective is not finite.
        x = fgn_generate(0.8, 4096, random_state=5)
        y = MarginalTransform(GammaDistribution(0.5, 1.0))(x)
        base = whittle_estimate(y).hurst
        scaled = whittle_estimate(y * 2.0**-531).hurst
        assert scaled == pytest.approx(base, abs=2e-4)
        assert whittle_estimate(y * 2.0**-600).hurst == pytest.approx(
            base, abs=2e-4
        )

    def test_refuses_non_finite_periodogram(self):
        # Values near the largest double overflow the series' mean,
        # which no rescale undoes.  The refusal comes before any numpy
        # RuntimeWarning.
        x = np.random.default_rng(43).gamma(6.0, 1.0, 4096) * 1e305
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="values"):
                whittle_estimate(x)

    def test_refuses_constant_series(self):
        with pytest.raises(ValidationError, match="values"):
            whittle_estimate(np.full(256, 3.0))
