"""Tests for R/S (rescaled adjusted range) analysis (Fig. 4 methodology)."""

import numpy as np
import pytest

from repro.estimators.rs_analysis import MIN_LENGTH, rs_estimate, rs_statistic
from repro.exceptions import EstimationError
from repro.processes.fgn import fgn_generate


class TestRsStatistic:
    def test_known_small_example(self):
        # X = [1, -1]: mean 0, W = [1, 0], R = 1 - 0 = 1, S = 1.
        assert rs_statistic([1.0, -1.0]) == pytest.approx(1.0)

    def test_positive(self):
        x = np.random.default_rng(0).normal(size=100)
        assert rs_statistic(x) > 0

    def test_shift_invariance(self):
        x = np.random.default_rng(1).normal(size=50)
        assert rs_statistic(x) == pytest.approx(rs_statistic(x + 100.0))

    def test_scale_invariance(self):
        x = np.random.default_rng(2).normal(size=50)
        assert rs_statistic(x) == pytest.approx(rs_statistic(3.0 * x))

    def test_constant_block_raises(self):
        with pytest.raises(EstimationError):
            rs_statistic(np.full(10, 2.0))


class TestRsEstimate:
    @pytest.mark.parametrize("h", [0.7, 0.9])
    def test_recovers_hurst_of_fgn(self, h):
        x = fgn_generate(h, 1 << 16, random_state=int(h * 10))
        est = rs_estimate(x)
        assert est.hurst == pytest.approx(h, abs=0.1)

    def test_iid_near_half(self):
        x = np.random.default_rng(3).normal(size=1 << 15)
        est = rs_estimate(x)
        # R/S is biased upward at finite n; 0.5-0.65 is the usual range.
        assert 0.45 < est.hurst < 0.68

    def test_pox_coordinates(self):
        x = fgn_generate(0.8, 4096, random_state=4)
        est = rs_estimate(x)
        assert est.block_lengths.size == est.rs_values.size
        np.testing.assert_allclose(
            est.log_block_lengths, np.log10(est.block_lengths)
        )

    def test_explicit_block_lengths(self):
        x = fgn_generate(0.8, 2048, random_state=5)
        est = rs_estimate(x, block_lengths=[64, 256, 1024])
        assert set(np.unique(est.block_lengths)) <= {64.0, 256.0, 1024.0}

    def test_multiple_starting_points_used(self):
        x = fgn_generate(0.8, 2048, random_state=6)
        est = rs_estimate(
            x, num_starting_points=8, block_lengths=[128, 256]
        )
        # 8 starting points fit for each block length within 2048 samples.
        assert np.sum(est.block_lengths == 128) == 8
        assert np.sum(est.block_lengths == 256) == 8

    def test_rejects_degenerate(self):
        with pytest.raises(EstimationError):
            rs_estimate(np.ones(64), block_lengths=[16, 32])


def _pinned_series(n):
    """A seeded fGn series; from 2^16 frames on it carries a constant
    stretch, so the zero-variance-block skip is part of the pin."""
    x = fgn_generate(0.8, n, random_state=n)
    if n >= 1 << 16:
        x[6553:6753] = 3.0
    return x


def _reference_pox(arr, k=10, min_block=10, points_per_decade=6):
    """The default R/S pox diagram, one checked ``rs_statistic`` call per
    (starting point, block length) pair."""
    n_total = arr.size
    count = max(2, int(np.ceil(
        (np.log10(n_total) - np.log10(min_block)) * points_per_decade
    )))
    grid = np.logspace(np.log10(min_block), np.log10(n_total), count)
    lengths, statistics = [], []
    for n in sorted({int(round(b)) for b in grid}):
        for t in [int(i * n_total / k) for i in range(k)]:
            if n < 2 or t + n > n_total:
                continue
            block = arr[t : t + n]
            if block.std(ddof=0) == 0:
                continue
            lengths.append(n)
            statistics.append(rs_statistic(block))
    return np.asarray(lengths, dtype=float), np.asarray(statistics)


class TestBitwisePin:
    @pytest.mark.parametrize("n", [MIN_LENGTH, 32, 1 << 16])
    def test_pox_diagram_matches_per_block_reference(self, n):
        x = _pinned_series(n)
        est = rs_estimate(x)
        lengths, statistics = _reference_pox(x)
        np.testing.assert_array_equal(est.block_lengths, lengths)
        np.testing.assert_array_equal(est.rs_values, statistics)

    def test_pin_exercises_zero_variance_skip(self):
        x = _pinned_series(1 << 16)
        lengths, _ = _reference_pox(x)
        # Ten starting points per length; the second one, t=6553,
        # opens a 200-frame constant stretch, so its shortest blocks
        # are skipped.
        assert np.sum(lengths == 10) == 9
