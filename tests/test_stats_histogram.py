"""Tests for frequency histograms."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.stats.histogram import Histogram, frequency_histogram


class TestHistogramValidation:
    def test_edge_count_mismatch(self):
        with pytest.raises(ValidationError, match="one more"):
            Histogram(edges=np.array([0.0, 1.0]), counts=np.array([1.0, 2.0]))

    def test_non_increasing_edges(self):
        with pytest.raises(ValidationError, match="increasing"):
            Histogram(
                edges=np.array([0.0, 1.0, 1.0]), counts=np.array([1.0, 2.0])
            )

    def test_negative_counts(self):
        with pytest.raises(ValidationError, match="non-negative"):
            Histogram(
                edges=np.array([0.0, 1.0, 2.0]), counts=np.array([1.0, -2.0])
            )


class TestHistogramProperties:
    def _make(self):
        return Histogram(
            edges=np.array([0.0, 1.0, 3.0]), counts=np.array([2.0, 6.0])
        )

    def test_total(self):
        assert self._make().total == 8.0

    def test_centers(self):
        np.testing.assert_array_equal(self._make().centers, [0.5, 2.0])

    def test_frequencies_sum_to_one(self):
        assert self._make().frequencies.sum() == pytest.approx(1.0)

    def test_density_integrates_to_one(self):
        h = self._make()
        assert float((h.density * h.widths).sum()) == pytest.approx(1.0)

    def test_mode_center(self):
        assert self._make().mode_center() == 2.0

    def test_empty_histogram_frequencies(self):
        h = Histogram(
            edges=np.array([0.0, 1.0, 2.0]), counts=np.array([0.0, 0.0])
        )
        np.testing.assert_array_equal(h.frequencies, [0.0, 0.0])
        with pytest.raises(ValidationError):
            h.mode_center()


class TestFrequencyHistogram:
    def test_counts_all_samples(self):
        h = frequency_histogram([0.1, 0.2, 0.9], bins=2)
        assert h.total == 3.0

    def test_explicit_edges(self):
        h = frequency_histogram([0.5, 1.5, 1.6], edges=[0.0, 1.0, 2.0])
        np.testing.assert_array_equal(h.counts, [1.0, 2.0])

    def test_value_range(self):
        h = frequency_histogram(
            [0.5, 5.0], bins=2, value_range=(0.0, 1.0)
        )
        assert h.total == 1.0  # out-of-range sample dropped by numpy

    def test_overlap_identical_is_one(self):
        data = np.random.default_rng(0).normal(size=500)
        edges = np.linspace(-4, 4, 21)
        h1 = frequency_histogram(data, edges=edges)
        assert h1.overlap(h1) == pytest.approx(1.0)

    def test_overlap_disjoint_is_zero(self):
        edges = [0.0, 1.0, 2.0]
        h1 = frequency_histogram([0.5, 0.6], edges=edges)
        h2 = frequency_histogram([1.5, 1.6], edges=edges)
        assert h1.overlap(h2) == 0.0

    def test_overlap_requires_matching_edges(self):
        h1 = frequency_histogram([0.5], edges=[0.0, 1.0, 2.0])
        h2 = frequency_histogram([0.5], edges=[0.0, 0.5, 2.0])
        with pytest.raises(ValidationError):
            h1.overlap(h2)

    def test_similar_samples_high_overlap(self, rng):
        edges = np.linspace(-4, 4, 41)
        h1 = frequency_histogram(rng.normal(size=20_000), edges=edges)
        h2 = frequency_histogram(rng.normal(size=20_000), edges=edges)
        assert h1.overlap(h2) > 0.95


class TestDegenerateRange:
    def test_subnormal_range_is_widened(self):
        # np.histogram cannot fit 20 bins into [0, 5e-324].
        h = frequency_histogram([0.0, 0.0, 0.0, 5e-324], bins=20)
        assert h.total == 4.0
        assert h.edges[0] < 0.0 and h.edges[-1] > 5e-324
        # Bins as wide as the smallest normal float, so CDF slopes stay
        # finite, and no wider.
        np.testing.assert_allclose(h.widths, np.finfo(float).tiny)

    def test_range_below_resolution_at_scale(self):
        low = 1e5
        data = [low, low, np.nextafter(low, np.inf)]
        h = frequency_histogram(data, bins=8)
        assert h.total == 3.0
        assert h.edges[0] <= low and h.edges[-1] >= data[-1]
        # Each bin spans 2^20 float spacings at the data's scale.
        np.testing.assert_allclose(
            h.widths, 2**20 * np.spacing(low), rtol=1e-6
        )

    def test_constant_data_widened_at_its_scale(self):
        for value in (3.0, -7.5e12, 1e20, 0.0):
            h = frequency_histogram([value] * 5, bins=4)
            assert h.total == 5.0
            assert h.edges[0] < value < h.edges[-1]
            assert h.edges[-1] - h.edges[0] <= 4 * max(
                2**20 * np.spacing(abs(value)), np.finfo(float).tiny
            ) * (1 + 1e-12)

    def test_degenerate_value_range_widened(self):
        h = frequency_histogram([1.0], bins=3, value_range=(1.0, 1.0))
        assert h.total == 1.0

    def test_wide_ranges_unchanged(self):
        data = np.random.default_rng(3).normal(size=200)
        for bins in (1, 7, 50):
            h = frequency_histogram(data, bins=bins)
            counts, edges = np.histogram(data, bins=bins)
            np.testing.assert_array_equal(h.edges, edges)
            np.testing.assert_array_equal(h.counts, counts)

    @pytest.mark.parametrize(
        "value_range", [(1.0, 0.0), (0.0, np.inf), (np.nan, 1.0)]
    )
    def test_bad_value_range_named(self, value_range):
        with pytest.raises(ValidationError, match="value_range"):
            frequency_histogram([0.5], bins=2, value_range=value_range)

    @pytest.mark.parametrize("edges", [[1.0], [0.0, 2.0, 1.0], [0.0, 0.0]])
    def test_bad_edges_named(self, edges):
        with pytest.raises(ValidationError, match="edges"):
            frequency_histogram([0.5], edges=edges)
