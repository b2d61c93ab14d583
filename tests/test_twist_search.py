"""Tests for the twist-valley search (Fig. 14 methodology)."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.processes.correlation import ExponentialCorrelation
from repro.simulation.estimators import ISEstimate
from repro.simulation.twist_search import (
    TwistSearchResult,
    search_twisted_mean,
)


def arrivals(x):
    return x + 2.0


@pytest.fixture(scope="module")
def search_result():
    # Service 3.0 and buffer 6 leave the plain-MC (m* = 0) leg a few
    # dozen hits, so the variance reduction is measured, not infinite.
    return search_twisted_mean(
        ExponentialCorrelation(0.3),
        arrivals,
        service_rate=3.0,
        buffer_size=6.0,
        horizon=80,
        twist_values=[0.0, 0.5, 1.0, 1.5, 2.5, 4.0],
        replications=1500,
        random_state=42,
    )


class TestSearchTwistedMean:
    def test_grid_preserved(self, search_result):
        np.testing.assert_array_equal(
            search_result.twist_values, [0.0, 0.5, 1.0, 1.5, 2.5, 4.0]
        )
        assert len(search_result.estimates) == 6

    def test_valley_interior(self, search_result):
        """The best twist is neither MC (0) nor the extreme over-twist."""
        assert 0.0 < search_result.best_twist < 4.0

    def test_variance_reduction_vs_mc(self, search_result):
        assert search_result.estimates[0].hits > 0
        assert search_result.variance_reduction_vs(0) > 2.0

    def test_scaled_variances_max_one(self, search_result):
        scaled = search_result.scaled_variances
        finite = scaled[np.isfinite(scaled)]
        assert finite.max() == pytest.approx(1.0)

    def test_best_estimate_consistent(self, search_result):
        assert (
            search_result.best_estimate
            is search_result.estimates[search_result.best_index]
        )

    def test_estimates_mutually_consistent(self, search_result):
        """All twists estimate the same probability (unbiasedness)."""
        probs = [
            e.probability
            for e in search_result.estimates
            if e.hits >= 20 and np.isfinite(e.normalized_variance)
        ]
        assert len(probs) >= 2
        ref = np.median(probs)
        for p in probs:
            assert p == pytest.approx(ref, rel=1.0)  # same order of magnitude

    def test_all_infinite_raises(self):
        result = TwistSearchResult(
            twist_values=np.array([0.0]),
            estimates=[
                # A zero-probability estimate has infinite normalized var.
                type(
                    "E",
                    (),
                    {
                        "normalized_variance": float("inf"),
                        "probability": 0.0,
                    },
                )()
            ],
        )
        with pytest.raises(SimulationError):
            _ = result.best_index


class TestVarianceReductionBaseline:
    """A baseline leg without hits has no normalized variance to beat."""

    @staticmethod
    def _result(baseline_hits):
        baseline = ISEstimate(
            probability=0.006 if baseline_hits else 0.0,
            variance=3e-5 if baseline_hits else 0.0,
            replications=200,
            hits=baseline_hits,
            twisted_mean=0.0,
        )
        best = ISEstimate(
            probability=0.005, variance=2e-8, replications=200, hits=180,
            twisted_mean=2.5,
        )
        return TwistSearchResult(np.array([0.0, 2.5]), [baseline, best])

    def test_zero_hit_baseline_raises(self):
        with pytest.raises(SimulationError,
                           match=r"grid point 0 .* 0 hits in 200"):
            self._result(0).variance_reduction_vs(0)

    def test_baseline_with_hits_gives_ratio(self):
        result = self._result(6)
        expected = (
            result.estimates[0].normalized_variance
            / result.estimates[1].normalized_variance
        )
        assert result.variance_reduction_vs(0) == pytest.approx(expected)
        assert np.isfinite(expected)


class TestParallelSearch:
    def test_parallel_equals_serial(self):
        kwargs = dict(
            service_rate=3.0,
            buffer_size=4.0,
            horizon=40,
            twist_values=[0.0, 0.8, 1.6, 2.4],
            replications=400,
        )
        model = ExponentialCorrelation(0.3)
        serial = search_twisted_mean(
            model, arrivals, random_state=60, workers=1, **kwargs
        )
        threaded = search_twisted_mean(
            model, arrivals, random_state=60, workers=4, **kwargs
        )
        np.testing.assert_array_equal(
            serial.normalized_variances, threaded.normalized_variances
        )
        for a, b in zip(serial.estimates, threaded.estimates):
            assert a.probability == b.probability
            assert a.variance == b.variance
