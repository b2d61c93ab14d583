"""Tests for Hosking's exact generator."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.processes import hosking
from repro.processes.coeff_table import coefficient_cache_info
from repro.processes.correlation import (
    CompositeCorrelation,
    ExponentialCorrelation,
    FGNCorrelation,
    WhiteNoiseCorrelation,
)
from repro.processes.hosking import hosking_generate
from tests.conftest import coefficient_cache_cap


class TestHoskingGenerate:
    def test_shapes(self):
        assert hosking_generate(FGNCorrelation(0.7), 50).shape == (50,)
        assert hosking_generate(
            FGNCorrelation(0.7), 50, size=3
        ).shape == (3, 50)

    def test_reproducible_with_seed(self):
        a = hosking_generate(FGNCorrelation(0.8), 30, random_state=5)
        b = hosking_generate(FGNCorrelation(0.8), 30, random_state=5)
        np.testing.assert_array_equal(a, b)

    def test_mean_shift(self):
        x = hosking_generate(
            WhiteNoiseCorrelation(), 2000, mean=10.0, random_state=0
        )
        assert x.mean() == pytest.approx(10.0, abs=0.2)

    def test_white_noise_matches_innovations(self):
        z = np.random.default_rng(1).standard_normal(20)
        x = hosking_generate(WhiteNoiseCorrelation(), 20, innovations=z)
        np.testing.assert_allclose(x, z)

    def test_explicit_acvf_sequence(self):
        acvf = 0.5 ** np.arange(30)
        x = hosking_generate(acvf, 30, random_state=2)
        assert x.shape == (30,)

    def test_rejects_short_acvf(self):
        with pytest.raises(ValidationError, match="cannot generate"):
            hosking_generate([1.0, 0.5], 10)

    def test_rejects_bad_innovation_shape(self):
        with pytest.raises(ValidationError, match="innovations"):
            hosking_generate(
                FGNCorrelation(0.7), 10, innovations=np.zeros(5)
            )

    def test_ar1_sample_correlation(self):
        phi = 0.7
        acvf = phi ** np.arange(400)
        x = hosking_generate(acvf, 400, size=200, random_state=3)
        lag1 = np.mean(
            [np.mean(row[:-1] * row[1:]) for row in x]
        )
        assert lag1 == pytest.approx(phi, abs=0.05)

    def test_unit_variance(self):
        x = hosking_generate(FGNCorrelation(0.6), 200, size=300,
                             random_state=4)
        assert x.var() == pytest.approx(1.0, abs=0.05)

    def test_exact_fgn_covariance_at_lag(self):
        # Many replications, zero-mean known: E[X_0 X_k] = r(k).
        corr = FGNCorrelation(0.85)
        x = hosking_generate(corr, 50, size=8000, random_state=6)
        sample = np.mean(x[:, 0] * x[:, 10])
        assert sample == pytest.approx(float(corr(10)), abs=0.05)


class TestEdgeCases:
    def test_single_sample(self):
        x = hosking_generate(FGNCorrelation(0.9), 1, random_state=20)
        assert x.shape == (1,)

    def test_single_sample_batch(self):
        x = hosking_generate(
            FGNCorrelation(0.9), 1, size=7, random_state=21
        )
        assert x.shape == (7, 1)

    def test_near_unit_correlation_stable(self):
        # AR(1) with phi = 0.999 sits close to the PD boundary.
        acvf = 0.999 ** np.arange(6)
        x = hosking_generate(acvf, 6, size=100, random_state=22)
        assert np.all(np.isfinite(x))
        lag1 = float(np.mean(x[:, 0] * x[:, 1]))
        assert lag1 == pytest.approx(0.999, abs=0.15)


class TestInnovationsValidation:
    def test_misshaped_flat_innovations_rejected(self):
        # Regression: a (2, 10)-shaped array has 20 elements and used to
        # be silently reshaped into a single length-20 path.
        z = np.zeros((2, 10))
        with pytest.raises(ValidationError, match="shape"):
            hosking_generate(FGNCorrelation(0.7), 20, innovations=z)

    def test_misshaped_batch_innovations_rejected(self):
        z = np.zeros(20)
        with pytest.raises(ValidationError, match="shape"):
            hosking_generate(
                FGNCorrelation(0.7), 10, size=2, innovations=z
            )

    def test_exact_shapes_still_accepted(self):
        z = np.random.default_rng(0).standard_normal(12)
        x = hosking_generate(FGNCorrelation(0.7), 12, innovations=z)
        assert x.shape == (12,)
        zb = z.reshape(3, 4)
        xb = hosking_generate(
            FGNCorrelation(0.7), 4, size=3, innovations=zb
        )
        assert xb.shape == (3, 4)


class TestCoefficientTableParity:
    """The horizon picks the coefficient source.

    Up to the coefficient cache's cap a run reads the shared table;
    above it the Durbin-Levinson recursion runs in step with generation.
    The table stores exactly the recursion's outputs, so both sources
    give the same bits in both kernels.
    """

    CAP = 32

    @staticmethod
    def _generate(model, z, block_size, cap):
        """Paths and the number of cached tables under a given cap."""
        with coefficient_cache_cap(cap):
            x = hosking_generate(model, z.shape[1], size=z.shape[0],
                                 innovations=z, block_size=block_size)
            return x, coefficient_cache_info().tables

    def test_generate_table_matches_incremental(self):
        rng = np.random.default_rng(7)
        models = (
            FGNCorrelation(0.85),
            CompositeCorrelation.paper_fit().with_continuity(),
        )
        for model in models:
            for n in (self.CAP, self.CAP + 1, 3 * self.CAP):
                z = rng.standard_normal((4, n))
                for block_size in (1, 8):
                    cached, cached_tables = self._generate(
                        model, z, block_size, cap=n
                    )
                    lowered, lowered_tables = self._generate(
                        model, z, block_size, cap=self.CAP
                    )
                    assert cached_tables == 1
                    # At the cap the table still serves; above it the
                    # recursion runs in step and caches nothing.
                    assert lowered_tables == int(n <= self.CAP)
                    np.testing.assert_array_equal(lowered, cached)

    def test_no_table_requested_above_cap(self, monkeypatch):
        requested = []
        shared = hosking.get_coefficient_table

        def spy(correlation, n):
            requested.append(n)
            return shared(correlation, n)

        monkeypatch.setattr(hosking, "get_coefficient_table", spy)
        model = FGNCorrelation(0.8)
        with coefficient_cache_cap(self.CAP):
            for block_size in (1, 8):
                for n in (self.CAP, self.CAP + 1):
                    hosking_generate(model, n, size=2, random_state=1,
                                     block_size=block_size)
        assert requested == [self.CAP, self.CAP]
