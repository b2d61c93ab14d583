"""Tests for FARIMA generation and fractional differencing."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.processes import registry
from repro.processes.correlation import FARIMACorrelation
from repro.processes.farima import farima_generate, fractional_diff_weights


class TestFractionalDiffWeights:
    def test_first_weight_is_one(self):
        assert fractional_diff_weights(0.3, 5)[0] == 1.0

    def test_d_zero_is_identity_filter(self):
        w = fractional_diff_weights(0.0, 5)
        np.testing.assert_allclose(w, [1, 0, 0, 0, 0], atol=1e-15)

    def test_d_one_is_first_difference(self):
        w = fractional_diff_weights(1.0, 4)
        np.testing.assert_allclose(w, [1, -1, 0, 0], atol=1e-15)

    def test_recursion_identity(self):
        d = 0.4
        w = fractional_diff_weights(d, 10)
        for j in range(1, 10):
            assert w[j] == pytest.approx(w[j - 1] * (j - 1 - d) / j)

    def test_integration_weights_positive(self):
        # (1-B)^{-d} has all positive weights for d in (0, 1).
        w = fractional_diff_weights(-0.3, 20)
        assert np.all(w > 0)


class TestFractionalIntegrate:
    def test_inverse_of_differencing(self):
        # The (1-B)^{-d} weights (d negated) integrate; the (1-B)^d
        # weights difference back to the input.
        d = 0.35
        rng = np.random.default_rng(0)
        noise = rng.standard_normal(200)
        integrated = np.convolve(noise, fractional_diff_weights(-d, 200))
        diff_w = fractional_diff_weights(d, 200)
        recovered = np.convolve(integrated[:200], diff_w)[:200]
        np.testing.assert_allclose(recovered, noise, atol=1e-8)


class TestFarimaGenerate:
    def test_shapes(self):
        assert farima_generate(100, 0.3, random_state=0).shape == (100,)
        assert farima_generate(
            100, 0.3, size=4, random_state=0
        ).shape == (4, 100)

    def test_pure_farima_variance(self):
        x = farima_generate(512, 0.2, size=60, random_state=1)
        assert x.var() == pytest.approx(1.0, abs=0.1)

    def test_pure_farima_lag1(self):
        d = 0.3
        x = farima_generate(256, d, size=3000, random_state=2)
        target = float(FARIMACorrelation(d)(1))
        sample = np.mean(x[:, 100] * x[:, 101])
        assert sample == pytest.approx(target, abs=0.05)

    def test_hosking_method(self):
        # farima_generate draws through Davies-Harte; the registry's
        # Hosking backend draws the same FARIMA(0, d, 0) law.
        x = registry.create("hosking", FARIMACorrelation(0.25)).sample(
            64, random_state=3
        )
        assert x.shape == (64,)

    def test_arma_terms_change_short_range(self):
        base = farima_generate(4096, 0.3, random_state=4)
        with_ar = farima_generate(4096, 0.3, ar=[0.8], random_state=4)
        # AR(1) with phi=0.8 inflates short-range variance.
        assert with_ar.var() > base.var()

    def test_burn_in_applied_with_arma(self):
        x = farima_generate(100, 0.3, ar=[0.5], random_state=5)
        assert x.shape == (100,)

    def test_rejects_2d_ar(self):
        with pytest.raises(ValidationError):
            farima_generate(10, 0.3, ar=[[0.5]])

    def test_rejects_d_out_of_range(self):
        with pytest.raises(ValidationError):
            farima_generate(10, 0.6)
