"""Tests for Q-Q utilities."""

import numpy as np
import pytest

from repro.stats.qq import qq_points, quantiles


class TestQuantiles:
    def test_median(self):
        assert quantiles([1.0, 2.0, 3.0], [0.5])[0] == 2.0

    def test_clips_probs(self):
        out = quantiles([1.0, 2.0], [-0.5, 1.5])
        np.testing.assert_array_equal(out, [1.0, 2.0])


class TestQqPoints:
    def test_identical_samples_on_diagonal(self):
        data = np.random.default_rng(0).normal(size=1000)
        qa, qb = qq_points(data, data, count=50)
        np.testing.assert_allclose(qa, qb)

    def test_count_controls_length(self):
        qa, qb = qq_points([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], count=7)
        assert qa.size == qb.size == 7

    def test_shifted_sample_offset(self):
        data = np.random.default_rng(1).normal(size=5000)
        qa, qb = qq_points(data, data + 2.0, count=20)
        np.testing.assert_allclose(qb - qa, 2.0, atol=0.15)

