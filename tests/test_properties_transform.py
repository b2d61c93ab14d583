"""Property tests for the eq. 7 marginal transform on empirical targets.

The unified model's transform ``h(x) = F^{-1}(Phi(x))`` (eq. 7) must,
for *any* reasonably-shaped frame-size sample:

- round-trip: ``h^{-1}(h(x)) ~= x`` on the interior of the Gaussian
  range (exactly where the background process lives);
- be monotone non-decreasing (it composes two CDFs);
- reproduce the target marginal when fed standard-normal input
  (matching mean and quantiles of the fitted sample);
- respect the sample's support.

Randomization is seeded through hypothesis-drawn integers, so every
failure is replayable.

Statistical design
------------------
- **Seeds:** hypothesis draws the numpy seed as an ordinary strategy
  input (25 examples per property, ``FAST``), so shrinking reports a
  concrete replayable seed; ``--seed-offset`` does not apply — the
  search itself varies the seeds far wider than any offset would.
- **Tolerances (~alpha):** the only stochastic assertions are the
  marginal-match bounds (5% relative mean, 8%-of-spread quantiles) on
  a 50k-sample Monte Carlo draw; both sit > 5 standard errors from
  the estimator noise, so per-example false-alarm probability is
  negligible and the properties act as deterministic checks of the
  transform, not of the sampler.
- **Power:** a transform using the wrong shape or scale family moves
  the matched quantiles by the order of the sample spread — tens of
  tolerance widths — so any real regression fails on the first
  example.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.marginals.empirical import EmpiricalDistribution
from repro.marginals.transform import MarginalTransform

FAST = settings(max_examples=25, deadline=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
shapes = st.floats(min_value=0.5, max_value=6.0,
                   allow_nan=False, allow_infinity=False)


def gamma_sample(seed, shape, size=4000):
    """A seeded, paper-like (skewed, positive) frame-size sample."""
    rng = np.random.default_rng(seed)
    return rng.gamma(shape, 500.0, size=size)


def fitted_transform(data):
    return MarginalTransform(EmpiricalDistribution(data, bins=200))


class TestRoundTrip:
    @FAST
    @given(seed=seeds, shape=shapes)
    def test_inverse_recovers_interior_gaussian_range(self, seed, shape):
        tr = fitted_transform(gamma_sample(seed, shape))
        x = np.linspace(-2.5, 2.5, 101)
        back = tr.inverse(tr(x))
        # The histogram inversion's piecewise-linear CDF round-trips to
        # float precision.
        np.testing.assert_allclose(back, x, atol=1e-9)

    @FAST
    @given(seed=seeds, shape=shapes)
    def test_forward_roundtrip_on_observed_quantiles(self, seed, shape):
        data = gamma_sample(seed, shape)
        tr = fitted_transform(data)
        y = np.quantile(data, np.linspace(0.05, 0.95, 19))
        np.testing.assert_allclose(
            tr(tr.inverse(y)), y, rtol=1e-6, atol=1e-6
        )


class TestMonotonicity:
    @FAST
    @given(seed=seeds, shape=shapes)
    def test_sorted_input_gives_sorted_output(self, seed, shape):
        tr = fitted_transform(gamma_sample(seed, shape))
        rng = np.random.default_rng(seed + 1)
        x = np.sort(rng.standard_normal(500))
        y = tr(x)
        assert np.all(np.diff(y) >= 0)

    @FAST
    @given(seed=seeds, shape=shapes)
    def test_inverse_is_monotone_on_support(self, seed, shape):
        data = gamma_sample(seed, shape)
        tr = fitted_transform(data)
        y = np.linspace(data.min(), data.max(), 300)
        x = tr.inverse(y)
        assert np.all(np.diff(x) >= 0)


class TestMarginalMatch:
    @FAST
    @given(seed=seeds, shape=shapes)
    def test_transformed_gaussian_matches_sample_marginal(
        self, seed, shape
    ):
        data = gamma_sample(seed, shape)
        tr = fitted_transform(data)
        rng = np.random.default_rng(seed + 2)
        y = tr(rng.standard_normal(50_000))
        assert y.mean() == pytest.approx(data.mean(), rel=0.05)
        # Quantile error is bounded by the histogram's bin resolution,
        # so compare on the scale of the sample's spread (a relative
        # tolerance blows up at near-zero low quantiles of very skewed
        # samples).  8% of the spread: at shape 0.5 the equal-width
        # bins near the mode are coarse relative to the std and the
        # observed error reaches ~6%.
        for q in (0.1, 0.5, 0.9):
            assert abs(
                np.quantile(y, q) - np.quantile(data, q)
            ) <= 0.08 * data.std()

    @FAST
    @given(seed=seeds, shape=shapes)
    def test_support_is_respected(self, seed, shape):
        data = gamma_sample(seed, shape)
        tr = fitted_transform(data)
        rng = np.random.default_rng(seed + 3)
        y = np.asarray(tr(rng.standard_normal(10_000)), dtype=float)
        assert y.min() >= data.min() - 1e-9
        assert y.max() <= data.max() + 1e-9
