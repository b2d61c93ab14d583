"""Tests for m-aggregation utilities."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.stats.aggregate import aggregation_levels


class TestAggregationLevels:
    def test_levels_sorted_unique(self):
        levels = aggregation_levels(100_000)
        assert levels == sorted(set(levels))

    def test_respects_min_blocks(self):
        levels = aggregation_levels(1000, min_blocks=10)
        assert max(levels) <= 100

    def test_single_level_when_degenerate(self):
        assert aggregation_levels(10, min_m=2, max_m=2) == [2]

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValidationError):
            aggregation_levels(100, min_m=50, max_m=10)

    def test_log_spacing_roughly_uniform(self):
        levels = aggregation_levels(1_000_000, min_m=10, points_per_decade=5)
        ratios = np.diff(np.log10(levels))
        assert np.all(ratios < 0.6)
