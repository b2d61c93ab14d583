"""Tests for the aggregate (multiplexed) VBR model."""

import numpy as np
import pytest

from repro.core.multiplex import AggregateVBRModel, aggregate_marginal
from repro.core.unified import UnifiedVBRModel
from repro.exceptions import NotFittedError, ValidationError
from repro.marginals.empirical import EmpiricalDistribution


class TestAggregateMarginal:
    def test_mean_scales_linearly(self, rng):
        base = EmpiricalDistribution(
            rng.gamma(2.0, 500.0, size=5000), bins=100
        )
        agg = aggregate_marginal(base, 4, samples=1 << 14,
                                 random_state=1)
        assert agg.mean == pytest.approx(4 * base.mean, rel=0.05)

    def test_variance_scales_linearly(self, rng):
        base = EmpiricalDistribution(
            rng.gamma(2.0, 500.0, size=5000), bins=100
        )
        agg = aggregate_marginal(base, 9, samples=1 << 15,
                                 random_state=2)
        assert agg.variance == pytest.approx(
            9 * base.variance, rel=0.15
        )

    def test_relative_burstiness_shrinks(self, rng):
        base = EmpiricalDistribution(
            rng.lognormal(0.0, 1.0, size=5000), bins=100
        )
        agg = aggregate_marginal(base, 16, samples=1 << 14,
                                 random_state=3)
        base_cv = np.sqrt(base.variance) / base.mean
        agg_cv = np.sqrt(agg.variance) / agg.mean
        assert agg_cv == pytest.approx(base_cv / 4.0, rel=0.2)

    def test_single_source_identity_distribution(self, rng):
        base = EmpiricalDistribution(
            rng.gamma(3.0, 100.0, size=5000), bins=100
        )
        agg = aggregate_marginal(base, 1, samples=1 << 15,
                                 random_state=4)
        for q in (0.25, 0.5, 0.9):
            assert float(agg.ppf(q)) == pytest.approx(
                float(base.ppf(q)), rel=0.05
            )


class TestChunkedAccumulation:
    """The O(samples)-memory rewrite of the Monte Carlo convolution."""

    @pytest.fixture()
    def base(self, rng):
        return EmpiricalDistribution(
            rng.gamma(2.0, 500.0, size=4000), bins=100
        )

    def test_bit_identical_to_full_matrix(self, base):
        # The historical path drew the full (samples, n) matrix in one
        # call; chunks consume the stream in the same row-major order,
        # so the resulting distribution is bit-identical.
        samples, n, seed = 1 << 10, 7, 42
        reference_rng = np.random.default_rng(seed)
        reference = EmpiricalDistribution(
            base.sample(samples * n, reference_rng)
            .reshape(samples, n)
            .sum(axis=1),
            bins=300,
        )
        agg = aggregate_marginal(
            base, n, samples=samples, random_state=seed,
            chunk_draws=96,
        )
        grid = np.linspace(0.001, 0.999, 199)
        np.testing.assert_array_equal(agg.ppf(grid), reference.ppf(grid))

    def test_chunk_size_invariance(self, base):
        samples, n, seed = 1 << 10, 5, 7
        grid = np.linspace(0.001, 0.999, 199)
        expected = aggregate_marginal(
            base, n, samples=samples, random_state=seed
        ).ppf(grid)
        for chunk_draws in (n, 64, 1000, 10**9):
            agg = aggregate_marginal(
                base, n, samples=samples, random_state=seed,
                chunk_draws=chunk_draws,
            )
            np.testing.assert_array_equal(agg.ppf(grid), expected)

    def test_rejects_bad_chunk_draws(self, base):
        with pytest.raises(ValidationError):
            aggregate_marginal(base, 2, chunk_draws=0)

    def test_memory_stays_flat_at_n_10_000(self, base):
        # The pre-fix path materialized samples x n draws: 4096 x 1e4
        # doubles = ~327 MB.  The chunked path must stay near
        # O(samples + n) regardless of n.
        import tracemalloc

        samples, n = 1 << 12, 10_000
        tracemalloc.start()
        agg = aggregate_marginal(base, n, samples=samples, random_state=3)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 24 * 2**20, f"peak {peak / 2**20:.1f} MiB"
        assert agg.mean == pytest.approx(n * base.mean, rel=0.05)


class TestAggregateVBRModel:
    def test_requires_fitted_base(self):
        with pytest.raises(NotFittedError):
            AggregateVBRModel(UnifiedVBRModel(), 4)

    def test_requires_unified_model(self):
        with pytest.raises(ValidationError):
            AggregateVBRModel("nope", 4)

    def test_attenuation_rises_with_sources(self, fitted_unified):
        a1 = AggregateVBRModel(
            fitted_unified, 1, convolution_samples=1 << 14,
            random_state=5,
        ).attenuation
        a16 = AggregateVBRModel(
            fitted_unified, 16, convolution_samples=1 << 14,
            random_state=5,
        ).attenuation
        assert a16 > a1
        assert a16 > 0.9  # CLT: the aggregate transform is near-affine

    def test_generate_mean_scales(self, fitted_unified):
        agg = AggregateVBRModel(
            fitted_unified, 8, convolution_samples=1 << 14,
            random_state=6,
        )
        y = agg.generate(400, size=64, random_state=7)
        expected = 8 * fitted_unified.marginal_.mean
        assert float(np.mean(y)) == pytest.approx(expected, rel=0.1)

    def test_arrival_transform_unit_mean(self, fitted_unified, rng):
        agg = AggregateVBRModel(
            fitted_unified, 4, convolution_samples=1 << 14,
            random_state=8,
        )
        arrivals = agg.arrival_transform()
        out = arrivals(rng.standard_normal(100_000))
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_invalid_generation_method(self, fitted_unified):
        agg = AggregateVBRModel(
            fitted_unified, 2, convolution_samples=1 << 13,
            random_state=9,
        )
        with pytest.raises(ValidationError):
            agg.generate(10, backend="nope")

    @pytest.mark.filterwarnings("error::repro.exceptions.SimulationWarning")
    def test_multiplexing_gain_in_queueing(self, fitted_unified):
        """More sources at the same utilization -> lower overflow
        probability at the same normalized buffer (the paper's §1
        statistical-multiplexing motivation).

        The aggregate marginal is an empirical histogram of 2^14
        convolution draws, so its unit-mean transform saturates at the
        largest draw over the mean: 2.25 for N = 16.  At a service rate
        above that no path can overflow, so the utilization is chosen
        to put the service rate below it, and each N gets a twist that
        reaches the buffer.
        """
        from repro.simulation import is_overflow_probability

        service_rate = 1.0 / 0.6
        results = {}
        for n, twist in ((1, 1.0), (16, 2.5)):
            agg = AggregateVBRModel(
                fitted_unified, n, convolution_samples=1 << 14,
                random_state=10,
            )
            arrivals = agg.arrival_transform()
            assert float(arrivals(np.array([40.0]))[0]) > service_rate
            results[n] = is_overflow_probability(
                agg.background_correlation,
                arrivals,
                service_rate=service_rate,
                buffer_size=25.0,
                horizon=250,
                twisted_mean=twist,
                replications=400,
                random_state=11,
            )
        single, aggregate = results[1], results[16]
        assert single.hits > 0 and aggregate.hits > 0
        gap = single.probability - aggregate.probability
        assert gap > 5.0 * np.hypot(single.std_error, aggregate.std_error)
