"""Tests for the capacity-planning layer (queueing.capacity)."""

import numpy as np
import pytest

from repro.core.aggregate import SourceClass, SourcePopulation
from repro.exceptions import ValidationError
from repro.marginals.parametric import NormalDistribution
from repro.queueing import norros_effective_bandwidth
from repro.queueing.capacity import (
    admissible_sources,
    bufferless_loss_gaussian,
    effective_bandwidth_vs_n,
    loss_vs_n,
)


@pytest.fixture()
def homogeneous():
    return SourceClass(
        "hom", correlation=0.8,
        marginal=NormalDistribution(10.0, 2.0), count=1,
    )


@pytest.fixture()
def mixture():
    return SourcePopulation([
        SourceClass(
            "hi", correlation=0.85,
            marginal=NormalDistribution(10.0, 2.0), count=6,
        ),
        SourceClass(
            "lo", correlation=0.75,
            marginal=NormalDistribution(5.0, 1.5), count=4,
        ),
    ])


class TestEffectiveBandwidth:
    def test_matches_norros_directly(self, homogeneous):
        curve = effective_bandwidth_vs_n(
            homogeneous, [1, 8, 64], buffer_size=2.0, epsilon=1e-6
        )
        for n, bandwidth in zip(curve.n_values, curve.bandwidths):
            mean = 10.0 * n
            expected = norros_effective_bandwidth(
                hurst=0.8,
                mean_rate=mean,
                variance_coefficient=4.0 / 10.0,
                buffer_size=2.0 * mean,
                epsilon=1e-6,
            )
            assert bandwidth == pytest.approx(expected)

    def test_per_source_bandwidth_decreases(self, mixture):
        curve = effective_bandwidth_vs_n(
            mixture, [1, 10, 100, 1000], buffer_size=1.0, epsilon=1e-6
        )
        assert np.all(np.diff(curve.per_source) < 0)
        assert np.all(np.diff(curve.utilizations) > 0)
        assert np.all(curve.utilizations < 1.0)
        assert np.all(curve.bandwidths > curve.mean_rates)

    def test_uses_dominant_hurst(self, mixture):
        assert effective_bandwidth_vs_n(
            mixture, [4], buffer_size=1.0, epsilon=1e-6
        ).hurst == pytest.approx(0.85)

    def test_validation(self, homogeneous):
        with pytest.raises(ValidationError):
            effective_bandwidth_vs_n(
                homogeneous, [], buffer_size=1.0, epsilon=1e-6
            )
        with pytest.raises(ValidationError):
            effective_bandwidth_vs_n(
                homogeneous, [0], buffer_size=1.0, epsilon=1e-6
            )
        with pytest.raises(ValidationError):
            effective_bandwidth_vs_n(
                homogeneous, [1], buffer_size=0.0, epsilon=1e-6
            )
        with pytest.raises(ValidationError):
            effective_bandwidth_vs_n(
                homogeneous, [1], buffer_size=1.0, epsilon=1.0
            )


class TestAdmission:
    def test_inverts_effective_bandwidth(self, mixture):
        curve = effective_bandwidth_vs_n(
            mixture, [137], buffer_size=1.0, epsilon=1e-6
        )
        admitted = admissible_sources(
            mixture,
            capacity=float(curve.bandwidths[0]),
            buffer_size=1.0,
            epsilon=1e-6,
            n_max=10_000,
        )
        assert admitted == 137

    def test_zero_when_capacity_too_small(self, homogeneous):
        assert admissible_sources(
            homogeneous, capacity=1.0, buffer_size=1.0, epsilon=1e-6
        ) == 0

    def test_saturates_at_n_max(self, homogeneous):
        assert admissible_sources(
            homogeneous, capacity=1e9, buffer_size=1.0, epsilon=1e-6,
            n_max=500,
        ) == 500


class TestBufferlessLoss:
    def test_matches_monte_carlo(self):
        mean, std, capacity = 100.0, 8.0, 110.0
        rng = np.random.default_rng(5)
        draws = rng.normal(mean, std, size=2_000_000)
        mc = np.maximum(draws - capacity, 0.0).mean() / mean
        analytic = bufferless_loss_gaussian(
            mean_rate=mean, std=std, capacity=capacity
        )
        assert analytic == pytest.approx(mc, rel=0.02)

    def test_decreases_with_capacity(self):
        losses = [
            bufferless_loss_gaussian(
                mean_rate=100.0, std=8.0, capacity=c
            )
            for c in (105.0, 115.0, 130.0)
        ]
        assert losses[0] > losses[1] > losses[2] > 0


class TestLossVsN:
    def test_bufferless_gain(self, mixture):
        result = loss_vs_n(
            mixture, [10, 640], utilization=0.9, buffer_size=0.0,
            horizon=1024, replications=2, batch_size=64,
            random_state=7,
        )
        assert result.loss_ratios.shape == (2,)
        # Multiplexing gain: aggregate smooths, loss falls with N.
        assert result.loss_ratios[0] > result.loss_ratios[1]
        assert np.all(np.diff(result.theory) < 0)
        gains = result.multiplexing_gain
        assert gains[0] == 1.0
        assert gains[1] > 1.0

    def test_tracks_bufferless_theory(self, mixture):
        # At modest N the Gaussian bufferless formula is near-exact for
        # Normal-marginal mixtures; one decade of slack absorbs the
        # finite-horizon LRD noise.
        result = loss_vs_n(
            mixture, [20], utilization=0.85, buffer_size=0.0,
            horizon=4096, replications=4, batch_size=64,
            random_state=11,
        )
        assert result.loss_ratios[0] > 0
        assert abs(
            np.log10(result.loss_ratios[0])
            - np.log10(result.theory[0])
        ) < 1.0

    def test_finite_buffer_uses_norros_reference(self, mixture):
        result = loss_vs_n(
            mixture, [10, 40], utilization=0.9, buffer_size=0.5,
            horizon=512, replications=2, batch_size=32,
            random_state=3,
        )
        assert np.all(result.theory > 0)
        assert np.all(np.diff(result.theory) < 0)
        assert result.buffer_size == 0.5

    def test_validation(self, mixture):
        with pytest.raises(ValidationError):
            loss_vs_n(mixture, [], utilization=0.9)
        with pytest.raises(ValidationError):
            loss_vs_n(mixture, [4], utilization=1.0)
        with pytest.raises(ValidationError):
            loss_vs_n(mixture, [4], utilization=0.9, buffer_size=-1.0)


class TestLossVsNProcesses:
    def test_processes_never_change_the_loss_bits(self, mixture):
        serial = loss_vs_n(
            mixture, [16, 48], utilization=0.9, buffer_size=0.0,
            horizon=256, batch_size=8, random_state=5,
        )
        pooled = loss_vs_n(
            mixture, [16, 48], utilization=0.9, buffer_size=0.0,
            horizon=256, batch_size=8, processes=2, random_state=5,
        )
        np.testing.assert_array_equal(
            pooled.loss_ratios, serial.loss_ratios
        )
        np.testing.assert_array_equal(pooled.theory, serial.theory)
