"""Tests for R/S (rescaled adjusted range) analysis (Fig. 4 methodology)."""

import warnings

import numpy as np
import pytest

from repro.estimators.rs_analysis import MIN_LENGTH, rs_estimate, rs_statistic
from repro.exceptions import EstimationError, ValidationError
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
        # 0.1, 0.3 and 1/3 have an inexact mean: a std of ~5.6e-17 once
        # let such a block through, and it read R/S = n.
        for value in (2.0, 0.1, 0.3, 1 / 3):
            with pytest.raises(EstimationError):
                rs_statistic(np.full(10, value))

    @pytest.mark.parametrize("factor", [1e300, 1e-300, 2.0**-600])
    def test_extreme_scales_read_the_unscaled_statistic(self, factor):
        x = np.random.default_rng(5).gamma(2.0, 1.0, 200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = rs_statistic(x * factor)
        assert scaled == pytest.approx(rs_statistic(x), rel=1e-12)


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

    def test_multiple_starting_points_used(self):
        x = fgn_generate(0.8, 2048, random_state=6)
        est = rs_estimate(x)
        # The last of the 10 starting points is int(9 * 2048 / 10) =
        # 1843, so every block of at most 205 samples fits all ten.
        short = np.unique(est.block_lengths[est.block_lengths <= 205])
        assert short.size >= 5
        for n in short:
            assert np.sum(est.block_lengths == n) == 10
        assert np.sum(est.block_lengths == 2048) == 1

    def test_rejects_degenerate(self):
        for value in (1.0, 0.1, 0.3, 1 / 3):
            with pytest.raises(EstimationError):
                rs_estimate(np.full(64, value))

    @pytest.mark.parametrize("factor", [1e300, 1e-300, 2.0**-600])
    def test_extreme_scales_read_the_unscaled_pox(self, factor):
        # The squares of the standard deviation would overflow at 1e300
        # and underflow at 1e-300 and 2^-600; the centred series is
        # rescaled by an exact power of two first, without a numpy
        # RuntimeWarning.
        x = np.random.default_rng(43).gamma(2.0, 1.0, 4096)
        base = rs_estimate(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = rs_estimate(x * factor)
        np.testing.assert_array_equal(scaled.block_lengths, base.block_lengths)
        np.testing.assert_allclose(scaled.rs_values, base.rs_values, rtol=1e-12)

    def test_skips_blocks_whose_squares_underflow(self):
        # Starting points 819, 1228 and 1638 open blocks of ~1e-200
        # samples in a series of +-1: their squared deviations underflow
        # to zero, so those blocks are skipped, not divided by zero.
        x = np.where(np.arange(4096) % 2, 1.0, -1.0)
        x[410:2000] = np.random.default_rng(1).normal(size=1590) * 1e-200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = rs_estimate(x)
        assert np.all(np.isfinite(est.rs_values))
        assert np.sum(est.block_lengths == 10) == 7

    def test_refuses_overflowing_mean(self):
        x = np.random.default_rng(43).gamma(2.0, 1.0, 4096) * 1e306
        with pytest.raises(ValidationError, match="values"):
            rs_estimate(x)


def _pinned_series(n):
    """A seeded fGn series; from 2^16 frames on it carries a constant
    stretch, so the constant-block skip is part of the pin."""
    x = fgn_generate(0.8, n, random_state=n)
    if n >= 1 << 16:
        x[6553:6753] = 3.0
    return x


def _reference_pox(arr, k=10, min_block=10, points_per_decade=6):
    """The R/S pox diagram, one checked ``rs_statistic`` call per
    (starting point, block length) pair that holds a non-constant
    block."""
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
            if np.all(block == block[0]):
                continue
            lengths.append(n)
            statistics.append(rs_statistic(block))
    return np.asarray(lengths, dtype=float), np.asarray(statistics)


class TestBitwisePin:
    """``rs_estimate`` reads every block of a starting point from one
    running sum, so its pox values are allclose to the per-block
    reference, not bitwise equal; the pair list is exact."""

    @pytest.mark.parametrize("n", [MIN_LENGTH, 32, 1 << 16])
    def test_pox_diagram_matches_per_block_reference(self, n):
        x = _pinned_series(n)
        est = rs_estimate(x)
        lengths, statistics = _reference_pox(x)
        np.testing.assert_array_equal(est.block_lengths, lengths)
        np.testing.assert_allclose(est.rs_values, statistics, rtol=1e-12)

    def test_pin_exercises_zero_variance_skip(self):
        x = _pinned_series(1 << 16)
        lengths, _ = _reference_pox(x)
        est = rs_estimate(x)
        # Ten starting points per length; the second one, t=6553,
        # opens a 200-frame constant stretch, so its blocks of up to
        # 200 frames are skipped.
        assert np.sum(lengths == 10) == 9
        np.testing.assert_array_equal(est.block_lengths, lengths)

    def test_near_constant_stretch_matches_reference(self):
        # 5,000 frames of 9000 +- 0.5 open the second starting point of
        # a path with mean ~9000 and standard deviation 2000.  A running
        # sum of squares loses the spread of those blocks; the two-pass
        # deviation keeps it.
        n = 1 << 16
        x = 9000.0 + 2000.0 * fgn_generate(0.8, n, random_state=11)
        x[6553:11553] = 9000.0 + np.random.default_rng(11).uniform(
            -0.5, 0.5, 5000
        )
        est = rs_estimate(x)
        lengths, statistics = _reference_pox(x)
        np.testing.assert_array_equal(est.block_lengths, lengths)
        np.testing.assert_allclose(est.rs_values, statistics, rtol=1e-9)
