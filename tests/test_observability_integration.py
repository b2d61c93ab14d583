"""Integration tests for the instrumented simulation pipeline.

Two properties matter:

1. **Non-perturbation** — running under a bound context
   (``recording``) must produce bit-for-bit the same numerical results
   as running without, because instrumentation never touches a random
   stream.
2. **Coverage** — an instrumented run actually populates the documented
   metric names (``is.*``, ``coeff_table.*``, ``parallel.*``,
   ``twist_search.*``, ``mux.*``, ``model.*``, ``registry.*``).
"""

import numpy as np
import pytest

from repro.core.unified import UnifiedVBRModel
from repro.observability import MetricsRegistry, RunContext, recording
from repro.processes import registry
from repro.processes.correlation import (
    ExponentialCorrelation,
    FGNCorrelation,
)
from repro.queueing.multiplexer import OCCUPANCY_BUCKETS, AtmMultiplexer
from repro.simulation.importance import is_overflow_probability
from repro.simulation.runner import overflow_vs_buffer_curve
from repro.simulation.twist_search import search_twisted_mean


def arrivals_transform(x):
    """Unit-free arrivals = background + 2 (mean 2)."""
    return x + 2.0


CORR = ExponentialCorrelation(0.5)
IS_KWARGS = dict(
    service_rate=2.5,
    buffer_size=2.0,
    horizon=25,
    twisted_mean=1.0,
    replications=60,
)


def names(ctx):
    return {entry["name"] for entry in ctx.snapshot()}


class TestBitIdentity:
    def test_is_estimate_identical_with_and_without_metrics(self):
        plain = is_overflow_probability(
            CORR, arrivals_transform, random_state=42, **IS_KWARGS
        )
        with recording(RunContext()):
            instrumented = is_overflow_probability(
                CORR, arrivals_transform, random_state=42, **IS_KWARGS
            )
        assert instrumented.probability == plain.probability
        assert instrumented.variance == plain.variance
        assert instrumented.hits == plain.hits
        assert instrumented.mean_hit_time == plain.mean_hit_time
        assert instrumented.ess == plain.ess

    def test_curve_identical_at_any_worker_count(self):
        kwargs = dict(
            utilization=0.8,
            buffer_sizes=[1.0, 2.0, 3.0],
            replications=40,
            twisted_mean=1.0,
            horizon_factor=8,
            random_state=7,
        )
        plain = overflow_vs_buffer_curve(
            CORR, arrivals_transform, **kwargs
        )
        with recording(RunContext()):
            instrumented = overflow_vs_buffer_curve(
                CORR, arrivals_transform, workers=2, **kwargs
            )
        for a, b in zip(plain.estimates, instrumented.estimates):
            assert a.probability == b.probability
            assert a.hits == b.hits
            assert a.ess == b.ess

    def test_search_identical_with_metrics(self):
        kwargs = dict(
            service_rate=2.5,
            buffer_size=2.0,
            horizon=20,
            twist_values=[0.5, 1.0, 1.5],
            replications=40,
            random_state=9,
        )
        plain = search_twisted_mean(CORR, arrivals_transform, **kwargs)
        with recording(RunContext()):
            instrumented = search_twisted_mean(
                CORR, arrivals_transform, **kwargs
            )
        assert instrumented.best_twist == plain.best_twist
        for a, b in zip(plain.estimates, instrumented.estimates):
            assert a.probability == b.probability

    def test_multiplexer_identical_with_metrics(self):
        rng = np.random.default_rng(3)
        arrivals = rng.exponential(1.0, size=500)
        mux = AtmMultiplexer(1.1, buffer_size=8.0)
        plain = mux.simulate(arrivals)
        with recording(RunContext()):
            instrumented = mux.simulate(arrivals)
        np.testing.assert_array_equal(plain.queue, instrumented.queue)
        np.testing.assert_array_equal(plain.lost, instrumented.lost)

    def test_unified_fit_identical_with_metrics(self, intra_trace):
        def fit(ctx):
            with recording(ctx):
                return UnifiedVBRModel(max_lag=50).fit(
                    intra_trace, random_state=0
                )

        plain, instrumented = fit(None), fit(RunContext())
        assert instrumented.hurst == plain.hurst
        assert instrumented.attenuation == plain.attenuation


class TestMetricCoverage:
    def test_is_leg_records_convergence_diagnostics(self):
        with recording(RunContext()) as ctx:
            estimate = is_overflow_probability(
                CORR, arrivals_transform, random_state=42, **IS_KWARGS
            )
        assert estimate.hits > 0
        recorded = names(ctx)
        for name in (
            "is.leg_seconds", "is.replications", "is.hits",
            "is.steps", "is.ess", "is.weight",
        ):
            assert name in recorded, name
        snapshot = {
            (e["name"], tuple(sorted(e["labels"].items()))): e
            for e in ctx.snapshot()
        }
        twist_label = (("twist", "1"),)
        assert (
            snapshot[("is.replications", twist_label)]["value"]
            == IS_KWARGS["replications"]
        )
        assert snapshot[("is.hits", twist_label)]["value"] == estimate.hits
        assert snapshot[("is.ess", twist_label)]["value"] == estimate.ess
        weight = snapshot[("is.weight", twist_label)]
        assert weight["count"] == estimate.hits
        # Mean hit weight times hit rate is the IS estimate itself.
        assert weight["total"] / estimate.replications == pytest.approx(
            estimate.probability
        )

    def test_curve_records_legs_cache_and_pool(self):
        with recording(RunContext()) as ctx:
            overflow_vs_buffer_curve(
                CORR, arrivals_transform,
                utilization=0.8,
                buffer_sizes=[1.0, 2.0],
                replications=30,
                twisted_mean=1.0,
                horizon_factor=8,
                random_state=7,
                workers=2,
            )
        recorded = names(ctx)
        for name in (
            "parallel.legs", "parallel.workers", "parallel.job_seconds",
            "parallel.occupancy", "coeff_table.tables",
            "is.leg_seconds", "is.ess",
        ):
            assert name in recorded, name
        # Per-leg labels survive the merge.
        leg_labels = {
            e["labels"].get("leg")
            for e in ctx.snapshot() if e["name"] == "is.leg_seconds"
        }
        assert leg_labels == {"0", "1"}

    def test_search_records_variance_trajectory(self):
        with recording(RunContext()) as ctx:
            result = search_twisted_mean(
                CORR, arrivals_transform,
                service_rate=2.5,
                buffer_size=2.0,
                horizon=20,
                twist_values=[0.5, 1.0, 1.5],
                replications=40,
                random_state=9,
            )
        entries = ctx.snapshot()
        trajectory = [
            e for e in entries
            if e["name"] == "twist_search.normalized_variance"
        ]
        assert len(trajectory) == 3
        probes = {e["labels"]["probe"] for e in trajectory}
        assert probes == {"0", "1", "2"}
        best = [
            e for e in entries if e["name"] == "twist_search.best_twist"
        ]
        assert best and best[0]["value"] == result.best_twist

    def test_registry_resolution_counter(self):
        reg = MetricsRegistry()
        with recording(reg):
            registry.resolve("hosking", FGNCorrelation(0.8))
        snapshot = reg.snapshot()
        entry = [
            e for e in snapshot if e["name"] == "registry.resolutions"
        ][0]
        assert entry["value"] == 1.0
        assert entry["labels"]["backend"] == "hosking"

    def test_registry_auto_policy_counter(self):
        reg = MetricsRegistry()
        with recording(reg):
            registry.resolve("auto", FGNCorrelation(0.8))
        recorded = {e["name"] for e in reg.snapshot()}
        assert "registry.auto_policy" in recorded

    def test_multiplexer_occupancy_histogram(self):
        rng = np.random.default_rng(3)
        arrivals = rng.exponential(1.0, size=500)
        with recording(RunContext()) as ctx:
            result = AtmMultiplexer(1.1, buffer_size=8.0).simulate(arrivals)
        entries = {e["name"]: e for e in ctx.snapshot()}
        hist = entries["mux.queue_occupancy"]
        assert hist["count"] == result.queue.size
        bucket_total = sum(b["count"] for b in hist["buckets"])
        assert bucket_total == result.queue.size
        assert len(hist["buckets"]) == len(OCCUPANCY_BUCKETS) + 1
        assert entries["mux.offered_work"]["value"] == pytest.approx(
            result.offered
        )
        assert entries["mux.loss_events"]["value"] == float(
            np.count_nonzero(result.lost)
        )

    def test_unified_fit_step_timers(self, intra_trace):
        with recording(RunContext()) as ctx:
            model = UnifiedVBRModel(max_lag=50).fit(
                intra_trace, random_state=0
            )
        entries = ctx.snapshot()
        steps = {
            e["labels"]["step"]
            for e in entries if e["name"] == "model.fit_seconds"
        }
        assert {"marginal", "hurst", "acf_fit", "attenuation"} <= steps
        gauges = {
            e["name"]: e["value"]
            for e in entries if e["kind"] == "gauge"
        }
        assert gauges["model.hurst"] == pytest.approx(model.hurst)
        assert gauges["model.attenuation"] == pytest.approx(
            model.attenuation
        )
