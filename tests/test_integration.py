"""End-to-end integration tests across subsystems.

These exercise the full paper pipeline: synthesize an "empirical" trace
with the codec substrate, fit the unified/composite models blind,
regenerate, and push the result through the queueing and
importance-sampling machinery.
"""

import numpy as np
import pytest

from repro.core import UnifiedVBRModel, fit_report
from repro.estimators import sample_acf, variance_time_estimate
from repro.queueing import (
    AtmMultiplexer,
    steady_state_overflow_from_trace,
)
from repro.simulation import (
    is_overflow_probability,
    search_twisted_mean,
)
from repro.stats.histogram import frequency_histogram
from repro.video import SyntheticCodecConfig, SyntheticMPEGCodec


class TestFitRegenerate:
    def test_marginal_histogram_overlap(self, fitted_unified, intra_trace):
        """Fig. 12-style check: trace and model histograms overlap.

        Pooled over replications — one LRD path's empirical marginal
        drifts with its low-frequency excursion."""
        from tests.conftest import pooled_generation

        y = pooled_generation(fitted_unified, paths=192, length=800,
                              seed=21)
        edges = np.linspace(0, intra_trace.sizes.max(), 61)
        h_trace = frequency_histogram(intra_trace.sizes, edges=edges)
        h_model = frequency_histogram(y, edges=edges)
        assert h_trace.overlap(h_model) > 0.9

    def test_qq_deviation_small(self, fitted_unified, intra_trace):
        """Fig. 13-style check: Q-Q points near the diagonal."""
        from tests.conftest import pooled_generation

        from repro.stats.qq import qq_points

        y = pooled_generation(fitted_unified, paths=192, length=800,
                              seed=22)
        # Quantile levels at or below 0.99: the extreme tail is
        # discretized by the 200-bin histogram inversion and is compared
        # separately via the histogram-overlap test.  Per-quantile
        # relative error tolerates the ~3% residual low-frequency jitter
        # that 192 pooled LRD paths still carry.
        qa, qb = qq_points(intra_trace.sizes, y, count=50)
        np.testing.assert_allclose(qb, qa, rtol=0.1)
        assert np.mean(np.abs(qb - qa) / qa) < 0.05

    def test_hurst_preserved_through_pipeline(self, fitted_unified):
        """The regenerated trace has the same Hurst exponent class."""
        y = fitted_unified.generate(
            1 << 16, backend="davies-harte", random_state=23
        )
        est = variance_time_estimate(y)
        assert est.hurst == pytest.approx(fitted_unified.hurst, abs=0.12)

    def test_report_printable(self, fitted_unified):
        text = str(fit_report(fitted_unified))
        assert "Hurst" in text


class TestQueueingIntegration:
    def test_trace_driven_multiplexer(self, intra_trace):
        arrivals = intra_trace.normalized_sizes()
        mux = AtmMultiplexer.for_utilization(1.0, 0.8)
        result = mux.simulate(arrivals)
        assert result.queue.shape == arrivals.shape
        # At utilization 0.8 a self-similar source must queue sometimes.
        assert result.queue.max() > 0

    def test_trace_vs_model_overflow_agreement(self, fitted_unified,
                                               intra_trace):
        """Fig. 16's central comparison at bench scale: the model-driven
        IS estimate and the trace time-average agree within an order of
        magnitude at a moderate buffer size."""
        utilization, buffer_size = 0.8, 20.0
        trace_est = steady_state_overflow_from_trace(
            intra_trace.normalized_sizes(),
            1.0 / utilization,
            [buffer_size],
        )[0]
        model_est = is_overflow_probability(
            fitted_unified.background_correlation,
            fitted_unified.arrival_transform(),
            service_rate=1.0 / utilization,
            buffer_size=buffer_size,
            horizon=10 * int(buffer_size),
            twisted_mean=0.0,
            replications=600,
            random_state=31,
        )
        assert trace_est.probability > 0
        assert model_est.probability > 0
        ratio = model_est.probability / trace_est.probability
        assert 0.05 < ratio < 20.0

    def test_twist_search_on_fitted_model(self, fitted_unified):
        """Fig. 14 machinery runs end-to-end on a fitted video model."""
        result = search_twisted_mean(
            fitted_unified.background_correlation,
            fitted_unified.arrival_transform(),
            service_rate=1.0 / 0.4,
            buffer_size=25.0,
            horizon=120,
            twist_values=[0.0, 1.0, 2.0, 3.0],
            replications=300,
            random_state=32,
        )
        assert len(result.estimates) == 4
        assert result.best_twist in (0.0, 1.0, 2.0, 3.0)


class TestCompositePipeline:
    def test_composite_regeneration_statistics(self, fitted_composite,
                                               ibp_trace):
        # Pool several generated traces: single LRD paths wander.
        pooled = np.concatenate(
            [
                fitted_composite.generate(12_000, random_state=41 + i)
                .sizes
                for i in range(6)
            ]
        )
        assert pooled.mean() == pytest.approx(
            ibp_trace.sizes.mean(), rel=0.08
        )
        emp = sample_acf(ibp_trace.sizes, 36)
        mod = sample_acf(
            fitted_composite.generate(48_000, random_state=47).sizes, 36
        )
        assert mod[12] == pytest.approx(emp[12], abs=0.12)


class TestSmallScaleEndToEnd:
    def test_full_pipeline_from_scratch(self):
        """Fit-generate-queue in one sweep on a fresh small trace."""
        trace = SyntheticMPEGCodec(
            SyntheticCodecConfig.intraframe_paper_like(num_frames=30_000)
        ).generate(random_state=51)
        model = UnifiedVBRModel(max_lag=150).fit(trace, random_state=52)
        estimate = is_overflow_probability(
            model.background_correlation,
            model.arrival_transform(),
            service_rate=2.0,
            buffer_size=10.0,
            horizon=100,
            twisted_mean=1.0,
            replications=200,
            random_state=53,
        )
        assert 0.0 <= estimate.probability <= 1.0
