"""Tests for fractional Gaussian noise helpers."""

import pytest

from repro.processes.correlation import FGNCorrelation
from repro.processes.fgn import fgn_generate
from repro.processes.hosking import hosking_generate


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
        v1 = x.var()
        v16 = x.reshape(-1, 16).mean(axis=1).var()
        expected_ratio = 16.0 ** (2 * h - 2)
        assert v16 / v1 == pytest.approx(expected_ratio, rel=0.25)

