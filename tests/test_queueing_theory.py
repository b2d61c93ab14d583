"""Tests for the Norros fBm overflow approximation."""

import numpy as np
import pytest
from scipy import stats

from repro.exceptions import ValidationError
from repro.queueing.theory import (
    norros_decay_exponent,
    norros_effective_bandwidth,
    norros_overflow_approximation,
)


class TestNorrosDecayExponent:
    def test_values(self):
        assert norros_decay_exponent(0.9) == pytest.approx(0.2)
        assert norros_decay_exponent(0.5) == pytest.approx(1.0)

    def test_rejects_invalid(self):
        with pytest.raises(ValidationError):
            norros_decay_exponent(1.0)


class TestNorrosApproximation:
    def _approx(self, b, hurst=0.9, mu=2.0):
        return norros_overflow_approximation(
            b,
            hurst=hurst,
            mean_rate=1.0,
            service_rate=mu,
            variance_coefficient=1.0,
        )

    def test_decreasing_in_buffer(self):
        values = self._approx([0.0, 10.0, 100.0, 1000.0])
        assert np.all(np.diff(values) < 0)

    def test_half_at_zero_buffer(self):
        assert self._approx([0.0])[0] == pytest.approx(0.5)

    def test_decreasing_in_service_rate(self):
        slow = self._approx([50.0], mu=1.5)[0]
        fast = self._approx([50.0], mu=3.0)[0]
        assert fast < slow

    def test_higher_hurst_decays_slower(self):
        b = [400.0]
        low_h = self._approx(b, hurst=0.6)[0]
        high_h = self._approx(b, hurst=0.9)[0]
        assert high_h > low_h

    def test_weibull_shape(self):
        """log P is linear in b^{2-2H}."""
        h = 0.8
        b = np.array([50.0, 100.0, 200.0, 400.0])
        p = self._approx(b, hurst=h)
        x = b ** (2 - 2 * h)
        logs = np.log(p)
        slopes = np.diff(logs) / np.diff(x)
        # Normal sf tail: log sf(z) ~ -z^2/2, and z^2 is proportional
        # to b^{2-2H}, so slopes converge to a constant.
        assert slopes[-1] == pytest.approx(slopes[-2], rel=0.15)

    def test_rejects_unstable_queue(self):
        with pytest.raises(ValidationError, match="exceed"):
            norros_overflow_approximation(
                [1.0], hurst=0.8, mean_rate=2.0, service_rate=1.0,
                variance_coefficient=1.0,
            )

    def test_rejects_negative_buffer(self):
        with pytest.raises(ValidationError):
            self._approx([-1.0])

    def test_matches_fgn_simulation_shape(self):
        """The IS estimates for an FGN-driven queue follow the Norros
        Weibull shape: log P vs b^{2-2H} is near-linear."""
        from repro.processes.correlation import FGNCorrelation
        from repro.simulation.importance import is_overflow_probability

        h, mu = 0.8, 2.0

        def arrivals(x):
            return x + 1.0  # mean 1, variance 1

        buffers = [5.0, 15.0, 40.0]
        logs = []
        for i, b in enumerate(buffers):
            est = is_overflow_probability(
                FGNCorrelation(h),
                arrivals,
                service_rate=mu,
                buffer_size=b,
                horizon=int(12 * b),
                twisted_mean=1.0,
                replications=2000,
                random_state=50 + i,
            )
            assert est.probability > 0
            logs.append(np.log(est.probability))
        x = np.asarray(buffers) ** (2 - 2 * h)
        slopes = np.diff(logs) / np.diff(x)
        # Both segments show the same (negative) Weibull slope within
        # a factor of ~1.6 — the signature of sub-exponential decay.
        assert slopes[0] < 0 and slopes[1] < 0
        assert 0.6 < slopes[0] / slopes[1] < 1.7


class TestBatchMeans:
    def test_estimates_match_time_average(self, rng):
        from repro.queueing.overflow import (
            batch_means_overflow,
            steady_state_overflow_from_trace,
        )

        arrivals = rng.exponential(size=50_000) * 0.9
        batch = batch_means_overflow(arrivals, 1.0, 2.0, num_batches=10)
        direct = steady_state_overflow_from_trace(
            arrivals, 1.0, [2.0]
        )[0]
        assert batch.probability == pytest.approx(
            direct.probability, abs=0.01
        )
        assert np.isfinite(batch.variance)
        assert batch.replications == 10

    def test_rejects_too_few_batches(self, rng):
        from repro.queueing.overflow import batch_means_overflow
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            batch_means_overflow(rng.exponential(size=100), 1.0, 1.0,
                                 num_batches=1)

    def test_rejects_short_series(self, rng):
        from repro.queueing.overflow import batch_means_overflow
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError, match="too short"):
            batch_means_overflow(rng.exponential(size=10), 1.0, 1.0,
                                 num_batches=20)


class TestEffectiveBandwidth:
    def test_inverse_consistency(self):
        from repro.queueing.theory import (
            norros_effective_bandwidth,
            norros_overflow_approximation,
        )

        for eps in (1e-2, 1e-4):
            mu = norros_effective_bandwidth(
                hurst=0.85, mean_rate=1.0, variance_coefficient=2.0,
                buffer_size=100.0, epsilon=eps,
            )
            p = norros_overflow_approximation(
                [100.0], hurst=0.85, mean_rate=1.0, service_rate=mu,
                variance_coefficient=2.0,
            )[0]
            assert p == pytest.approx(eps, rel=1e-6)

    def test_exceeds_mean_rate(self):
        from repro.queueing.theory import norros_effective_bandwidth

        mu = norros_effective_bandwidth(
            hurst=0.8, mean_rate=3.0, variance_coefficient=1.0,
            buffer_size=50.0, epsilon=1e-3,
        )
        assert mu > 3.0

    def test_buffer_discount_weaker_for_high_hurst(self):
        """Doubling the buffer buys less capacity relief when H is
        large — the LRD 'buffers don't help' phenomenon."""
        from repro.queueing.theory import norros_effective_bandwidth

        def relief(hurst):
            small = norros_effective_bandwidth(
                hurst=hurst, mean_rate=1.0, variance_coefficient=1.0,
                buffer_size=50.0, epsilon=1e-4,
            )
            large = norros_effective_bandwidth(
                hurst=hurst, mean_rate=1.0, variance_coefficient=1.0,
                buffer_size=400.0, epsilon=1e-4,
            )
            return (small - large) / (small - 1.0)

        assert relief(0.95) < relief(0.6)

    def test_rejects_bad_epsilon(self):
        from repro.queueing.theory import norros_effective_bandwidth
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            norros_effective_bandwidth(
                hurst=0.8, mean_rate=1.0, variance_coefficient=1.0,
                buffer_size=10.0, epsilon=0.9,
            )


@pytest.mark.parametrize("hurst", [0.5, 0.55, 0.8, 0.95])
class TestScipyParity:
    """The standard normal tail and its inverse are scipy.special's
    ndtr / ndtri; scipy.stats.norm.sf / .isf return the same bits."""

    def test_overflow_approximation_matches_norm_sf(self, hurst):
        m, mu, a = 1.0, 1.25, 2.0
        b = np.array([0.0, 1e-3, 1.0, 25.0, 250.0, 1e4, 1e8, np.inf])
        kappa = hurst**hurst * (1.0 - hurst) ** (1.0 - hurst)
        argument = (
            (mu - m) ** hurst * b ** (1.0 - hurst)
            / (kappa * np.sqrt(a * m))
        )
        np.testing.assert_array_equal(
            norros_overflow_approximation(
                b, hurst=hurst, mean_rate=m, service_rate=mu,
                variance_coefficient=a,
            ),
            stats.norm.sf(argument),
            strict=True,
        )

    def test_effective_bandwidth_matches_norm_isf(self, hurst):
        m, a, b = 1.0, 2.0, 50.0
        kappa = hurst**hurst * (1.0 - hurst) ** (1.0 - hurst)
        for eps in (1e-300, 1e-12, 1e-4, 0.1, np.nextafter(0.5, 0.0)):
            z = float(stats.norm.isf(eps))
            expected = m + (
                kappa * z * np.sqrt(a * m) * b ** (hurst - 1.0)
            ) ** (1.0 / hurst)
            assert norros_effective_bandwidth(
                hurst=hurst, mean_rate=m, variance_coefficient=a,
                buffer_size=b, epsilon=eps,
            ) == expected
