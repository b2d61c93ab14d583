"""Tests for m-aggregation utilities."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.stats.aggregate import _block_means, aggregation_levels


class TestAggregateSeries:
    """The block means behind the variance-time estimator."""

    def test_m1_is_identity(self):
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(_block_means(x, 1), x)

    def test_block_means(self):
        x = np.array([1.0, 3.0, 5.0, 7.0])
        np.testing.assert_array_equal(_block_means(x, 2), [2.0, 6.0])

    def test_trailing_partial_block_dropped(self):
        x = np.arange(7, dtype=float)
        out = _block_means(x, 3)
        np.testing.assert_array_equal(out, [1.0, 4.0])

    def test_mean_preserved_for_exact_blocks(self):
        x = np.random.default_rng(0).normal(size=120)
        assert _block_means(x, 4).mean() == pytest.approx(x.mean())

    def test_variance_shrinks_for_iid(self):
        x = np.random.default_rng(1).normal(size=10_000)
        v1 = x.var()
        v10 = _block_means(x, 10).var()
        # iid: var(X^(m)) ~ var(X)/m.
        assert v10 == pytest.approx(v1 / 10, rel=0.25)


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
