"""Tests for the experiment runners (Figs. 15-17 orchestration)."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.processes.correlation import (
    CompositeCorrelation,
    ExponentialCorrelation,
    FGNCorrelation,
)
from repro.simulation.runner import (
    mc_overflow_vs_buffer_curve,
    model_comparison_curves,
    overflow_vs_buffer_curve,
    transient_overflow_curves,
)


def arrivals(x):
    """Unit-mean-ish arrivals from a background sample."""
    return np.maximum(x + 1.0, 0.0)


class TestOverflowVsBufferCurve:
    def test_shapes_and_monotonicity(self):
        curve = overflow_vs_buffer_curve(
            ExponentialCorrelation(0.3),
            arrivals,
            utilization=0.6,
            buffer_sizes=[2.0, 6.0, 12.0],
            replications=2500,
            twisted_mean=0.8,
            random_state=0,
        )
        assert curve.buffer_sizes.shape == (3,)
        assert len(curve.estimates) == 3
        probs = [e.probability for e in curve.estimates]
        # Overflow probability decreases with buffer size.
        assert probs[0] > probs[-1]

    def test_horizon_factor_applied(self):
        curve = overflow_vs_buffer_curve(
            ExponentialCorrelation(0.3),
            arrivals,
            utilization=0.5,
            buffer_sizes=[3.0],
            replications=200,
            twisted_mean=0.5,
            horizon_factor=5,
            random_state=1,
        )
        assert len(curve.estimates) == 1

    def test_log10_array(self):
        curve = overflow_vs_buffer_curve(
            ExponentialCorrelation(0.3),
            arrivals,
            utilization=0.7,
            buffer_sizes=[1.0, 4.0],
            replications=1500,
            twisted_mean=0.5,
            random_state=2,
        )
        logs = curve.log10_probabilities
        assert logs.shape == (2,)
        assert np.all(logs <= 0.0)

    def test_rejects_empty_buffers(self):
        with pytest.raises(ValidationError):
            overflow_vs_buffer_curve(
                ExponentialCorrelation(0.3),
                arrivals,
                utilization=0.5,
                buffer_sizes=[],
                replications=10,
                twisted_mean=0.0,
            )


_BUFFER_RUNNERS = {
    "overflow_vs_buffer_curve": lambda buffers: overflow_vs_buffer_curve(
        ExponentialCorrelation(0.3), arrivals, utilization=0.5,
        buffer_sizes=buffers, replications=10, twisted_mean=0.5,
        random_state=0,
    ),
    "mc_overflow_vs_buffer_curve": lambda buffers: (
        mc_overflow_vs_buffer_curve(
            ExponentialCorrelation(0.3), arrivals, utilization=0.5,
            buffer_sizes=buffers, replications=10, random_state=0,
        )
    ),
    "model_comparison_curves": lambda buffers: model_comparison_curves(
        {"SRD": ExponentialCorrelation(0.3)}, arrivals, utilization=0.5,
        buffer_sizes=buffers, replications=10, twisted_mean=0.5,
        random_state=0,
    ),
}


@pytest.mark.parametrize("runner", sorted(_BUFFER_RUNNERS))
@pytest.mark.parametrize("buffer", [np.nan, np.inf, -5.0, 0.0])
def test_rejects_bad_buffer_sizes(runner, buffer):
    # NaN used to fail with a bare ValueError from int(), inf with an
    # OverflowError, and a negative size with an error naming the
    # per-leg buffer_size instead of the caller's argument.
    with pytest.raises(ValidationError, match="buffer_sizes"):
        _BUFFER_RUNNERS[runner]([2.0, buffer])


class TestTransientOverflowCurves:
    def test_keys_and_lengths(self):
        curves = transient_overflow_curves(
            ExponentialCorrelation(0.3),
            arrivals,
            utilization=0.6,
            buffer_size=3.0,
            horizon=40,
            replications=2000,
            twisted_mean=0.3,
            random_state=3,
        )
        assert set(curves) == {"empty", "full"}
        assert curves["empty"].shape == (40,)
        assert curves["full"].shape == (40,)

    def test_curves_converge_toward_each_other(self):
        """Fig. 15: transients from empty and full starts approach the
        same steady state."""
        curves = transient_overflow_curves(
            ExponentialCorrelation(0.5),
            arrivals,
            utilization=0.6,
            buffer_size=2.0,
            horizon=150,
            replications=4000,
            twisted_mean=0.0,
            random_state=4,
        )
        early_gap = abs(curves["full"][2] - curves["empty"][2])
        late_gap = abs(curves["full"][-1] - curves["empty"][-1])
        assert late_gap < early_gap


class TestModelComparison:
    def test_runs_all_models(self):
        result = model_comparison_curves(
            {
                "SRD only": ExponentialCorrelation(0.3),
                "FGN": FGNCorrelation(0.8),
                "SRD+LRD": CompositeCorrelation.paper_fit()
                .with_continuity(),
            },
            arrivals,
            utilization=0.6,
            buffer_sizes=[2.0, 8.0],
            replications=800,
            twisted_mean=0.6,
            random_state=5,
        )
        assert set(result.curves) == {"SRD only", "FGN", "SRD+LRD"}
        table = result.log10_table()
        assert all(v.shape == (2,) for v in table.values())

    def test_rejects_empty_models(self):
        with pytest.raises(ValidationError):
            model_comparison_curves(
                {},
                arrivals,
                utilization=0.5,
                buffer_sizes=[1.0],
                replications=10,
                twisted_mean=0.0,
            )


def _curves_equal(a, b):
    for ea, eb in zip(a.estimates, b.estimates):
        assert ea.probability == eb.probability
        assert ea.variance == eb.variance
        assert ea.hits == eb.hits


class TestParallelEqualsSerial:
    """Legs are pre-seeded, so worker count must never change a curve."""

    common = dict(
        utilization=0.7,
        buffer_sizes=[1.5, 3.0, 5.0, 8.0],
        replications=400,
        twisted_mean=0.7,
    )

    def test_overflow_curve(self):
        model = FGNCorrelation(0.8)
        serial = overflow_vs_buffer_curve(
            model, arrivals, random_state=50, workers=1, **self.common
        )
        threaded = overflow_vs_buffer_curve(
            model, arrivals, random_state=50, workers=3, **self.common
        )
        _curves_equal(serial, threaded)

    def test_model_comparison(self):
        models = {
            "FGN": FGNCorrelation(0.8),
            "SRD": ExponentialCorrelation(0.3),
        }
        serial = model_comparison_curves(
            models, arrivals, random_state=51, workers=1, **self.common
        )
        threaded = model_comparison_curves(
            models, arrivals, random_state=51, workers=4, **self.common
        )
        assert serial.curves.keys() == threaded.curves.keys()
        for name in models:
            _curves_equal(serial.curves[name], threaded.curves[name])

    def test_transient_curves(self):
        kwargs = dict(
            utilization=0.8,
            buffer_size=3.0,
            horizon=40,
            replications=400,
            twisted_mean=0.5,
        )
        model = ExponentialCorrelation(0.25)
        serial = transient_overflow_curves(
            model, arrivals, random_state=52, workers=1, **kwargs
        )
        threaded = transient_overflow_curves(
            model, arrivals, random_state=52, workers=2, **kwargs
        )
        np.testing.assert_array_equal(serial["empty"], threaded["empty"])
        np.testing.assert_array_equal(serial["full"], threaded["full"])

    def test_workers_env_fallback(self, monkeypatch):
        from repro.simulation.parallel import WORKERS_ENV

        model = ExponentialCorrelation(0.3)
        serial = overflow_vs_buffer_curve(
            model, arrivals, random_state=53, workers=1, **self.common
        )
        monkeypatch.setenv(WORKERS_ENV, "3")
        from_env = overflow_vs_buffer_curve(
            model, arrivals, random_state=53, workers=None, **self.common
        )
        _curves_equal(serial, from_env)

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValidationError):
            overflow_vs_buffer_curve(
                ExponentialCorrelation(0.3),
                arrivals,
                random_state=54,
                workers=0,
                **self.common,
            )


class TestMCOverflowVsBufferCurve:
    """The batched plain-MC counterpart of the IS buffer sweep."""

    def setup_method(self):
        from repro.processes.spectral_cache import clear_spectral_cache

        clear_spectral_cache()

    def _curve(self, **kwargs):
        from repro.simulation.runner import mc_overflow_vs_buffer_curve

        defaults = dict(
            utilization=0.6,
            buffer_sizes=[2.0, 5.0, 8.0],
            replications=300,
            random_state=31,
        )
        defaults.update(kwargs)
        return mc_overflow_vs_buffer_curve(
            ExponentialCorrelation(0.3), arrivals, **defaults
        )

    def test_shapes_and_estimate_type(self):
        from repro.queueing.overflow import OverflowEstimate

        curve = self._curve()
        assert curve.buffer_sizes.shape == (3,)
        assert len(curve.estimates) == 3
        assert all(
            isinstance(e, OverflowEstimate) for e in curve.estimates
        )
        assert curve.log10_probabilities.shape == (3,)

    def test_batched_matches_per_replication_loop(self):
        """One batched FFT draw == sequential draws, bit for bit."""
        from repro.processes.davies_harte import davies_harte_generate
        from repro.queueing.multiplexer import (
            service_rate_for_utilization,
        )
        from repro.queueing.overflow import transient_overflow_mc
        from repro.stats.random import spawn_rngs

        corr = ExponentialCorrelation(0.3)
        buffers = [2.0, 5.0]
        reps, util, factor = 250, 0.6, 10
        curve = self._curve(
            buffer_sizes=buffers, replications=reps, horizon_factor=factor
        )
        mu = service_rate_for_utilization(1.0, util)
        rngs = spawn_rngs(31, len(buffers))
        for b, rng, estimate in zip(buffers, rngs, curve.estimates):
            horizon = int(factor * b)
            rows = np.empty((reps, horizon))
            for i in range(reps):
                rows[i] = davies_harte_generate(
                    corr, horizon, random_state=rng
                )
            reference = transient_overflow_mc(arrivals(rows), mu, b)
            assert estimate.probability == reference.probability
            assert estimate.replications == reference.replications

    def test_worker_count_invariance(self):
        serial = self._curve(workers=1)
        threaded = self._curve(workers=3)
        np.testing.assert_array_equal(
            [e.probability for e in serial.estimates],
            [e.probability for e in threaded.estimates],
        )

    def test_legs_share_one_table(self):
        from repro.processes.spectral_cache import spectral_cache_info

        self._curve()
        info = spectral_cache_info()
        assert info.misses == 1
        assert info.tables == 1
        # One eigenvalue entry per distinct horizon.
        assert info.eigenvalue_builds == 3

    def test_time_varying_transform(self):
        """GOP-phase-style transforms route through the per-step path."""

        class PhaseTransform:
            time_varying = True

            def __call__(self, values, step):
                return np.maximum(
                    np.asarray(values) + 1.0, 0.0
                ) * (1.5 if step % 2 else 0.5)

        from repro.simulation.runner import mc_overflow_vs_buffer_curve

        curve = mc_overflow_vs_buffer_curve(
            ExponentialCorrelation(0.3),
            PhaseTransform(),
            utilization=0.6,
            buffer_sizes=[2.0, 4.0],
            replications=200,
            random_state=32,
        )
        assert len(curve.estimates) == 2
        assert all(
            0.0 <= e.probability <= 1.0 for e in curve.estimates
        )

    def test_metrics_recorded(self):
        from repro.observability import RunContext, recording

        with recording(RunContext()) as ctx:
            self._curve()
        names = {e["name"] for e in ctx.snapshot()}
        assert "mc.replications" in names
        assert "mc.leg_seconds" in names
        assert "spectral.misses" in names
        assert "registry.resolutions" in names

    def test_validation(self):
        from repro.simulation.runner import mc_overflow_vs_buffer_curve

        with pytest.raises(ValidationError):
            mc_overflow_vs_buffer_curve(
                ExponentialCorrelation(0.3),
                arrivals,
                utilization=0.5,
                buffer_sizes=[],
                replications=10,
            )
        with pytest.raises(ValidationError):
            self._curve(replications=0)
        with pytest.raises(ValidationError):
            self._curve(horizon_factor=0)

    def test_shape_changing_stationary_transform_rejected(self):
        from repro.simulation.runner import mc_overflow_vs_buffer_curve

        def bad_transform(x):
            return np.asarray(x).ravel()[:3]

        with pytest.raises(ValidationError, match="elementwise"):
            mc_overflow_vs_buffer_curve(
                ExponentialCorrelation(0.3),
                bad_transform,
                utilization=0.5,
                buffer_sizes=[2.0],
                replications=10,
                random_state=0,
            )

    def test_explicit_backend_and_sequence_correlation(self):
        """Explicit acvf sequences and named backends still work."""
        from repro.simulation.runner import mc_overflow_vs_buffer_curve

        acvf = ExponentialCorrelation(0.3).acvf(81)
        curve = mc_overflow_vs_buffer_curve(
            acvf,
            arrivals,
            utilization=0.6,
            buffer_sizes=[2.0, 8.0],
            replications=100,
            random_state=33,
            backend="davies-harte",
        )
        assert len(curve.estimates) == 2
