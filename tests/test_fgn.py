"""Tests for fractional Gaussian noise helpers."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.processes.correlation import FGNCorrelation
from repro.processes.fgn import fbm_from_fgn, fgn_acvf, fgn_generate
from repro.processes.hosking import hosking_generate


class TestFgnAcvf:
    def test_matches_correlation_model(self):
        h = 0.8
        np.testing.assert_allclose(
            fgn_acvf(h, 20), FGNCorrelation(h).acvf(20)
        )

    def test_rejects_invalid_hurst(self):
        with pytest.raises(ValidationError):
            fgn_acvf(0.0, 10)


class TestFgnGenerate:
    def test_both_methods_produce_shape(self):
        # fgn_generate draws through Davies-Harte; Hosking's recursion
        # draws the same law from the FGN correlation model.
        for x in (
            fgn_generate(0.75, 64, random_state=1),
            hosking_generate(FGNCorrelation(0.75), 64, random_state=1),
        ):
            assert x.shape == (64,)

    def test_self_similarity_of_variance(self):
        """var of aggregated fGn scales like m^{2H-2}."""
        h = 0.9
        x = fgn_generate(h, 1 << 16, random_state=2)
        from repro.stats.aggregate import aggregate_series

        v1 = x.var()
        v16 = aggregate_series(x, 16).var()
        expected_ratio = 16.0 ** (2 * h - 2)
        assert v16 / v1 == pytest.approx(expected_ratio, rel=0.25)


class TestFbmFromFgn:
    def test_starts_at_zero(self):
        path = fbm_from_fgn([1.0, 2.0])
        assert path[0] == 0.0

    def test_cumsum(self):
        np.testing.assert_array_equal(
            fbm_from_fgn([1.0, -1.0, 2.0]), [0.0, 1.0, 0.0, 2.0]
        )

    def test_length(self):
        assert fbm_from_fgn(np.ones(10)).size == 11

    def test_rejects_2d(self):
        with pytest.raises(ValidationError):
            fbm_from_fgn(np.ones((2, 2)))
