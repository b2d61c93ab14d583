"""Tests for the internal validation helpers."""

import numpy as np
import pytest

from repro._validation import (
    check_1d_array,
    check_finite_float,
    check_hurst,
    check_in_range,
    check_min_length,
    check_nonnegative_int,
    check_positive_float,
    check_positive_int,
)
from repro.exceptions import ValidationError


class TestCheckPositiveInt:
    def test_accepts_positive(self):
        assert check_positive_int(3, "x") == 3

    def test_accepts_numpy_integer(self):
        assert check_positive_int(np.int64(5), "x") == 5

    def test_rejects_zero(self):
        with pytest.raises(ValidationError, match="positive"):
            check_positive_int(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_positive_int(-1, "x")

    def test_rejects_float(self):
        with pytest.raises(ValidationError, match="integer"):
            check_positive_int(2.5, "x")

    def test_rejects_bool(self):
        with pytest.raises(ValidationError):
            check_positive_int(True, "x")


class TestCheckNonnegativeInt:
    def test_accepts_zero(self):
        assert check_nonnegative_int(0, "x") == 0

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_nonnegative_int(-1, "x")


class TestCheckFiniteFloat:
    @pytest.mark.parametrize("value", [-2.5, 0, -0.0, np.float32(1.5)])
    def test_accepts_any_finite_real(self, value):
        assert check_finite_float(value, "x") == float(value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_naming_argument(self, value):
        with pytest.raises(ValidationError, match="twist must be finite"):
            check_finite_float(value, "twist")


class TestCheckPositiveFloat:
    def test_accepts_positive(self):
        assert check_positive_float(0.5, "x") == 0.5

    def test_accepts_int(self):
        assert check_positive_float(2, "x") == 2.0

    def test_rejects_zero(self):
        with pytest.raises(ValidationError):
            check_positive_float(0.0, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="finite"):
            check_positive_float(float("nan"), "x")

    def test_rejects_inf(self):
        with pytest.raises(ValidationError):
            check_positive_float(float("inf"), "x")

    def test_rejects_string(self):
        with pytest.raises(ValidationError):
            check_positive_float("1.0", "x")


class TestCheckInRange:
    def test_inclusive_bounds(self):
        assert check_in_range(0.0, "x", 0.0, 1.0) == 0.0
        assert check_in_range(1.0, "x", 0.0, 1.0) == 1.0

    def test_exclusive_low(self):
        with pytest.raises(ValidationError):
            check_in_range(0.0, "x", 0.0, 1.0, inclusive_low=False)

    def test_exclusive_high(self):
        with pytest.raises(ValidationError):
            check_in_range(1.0, "x", 0.0, 1.0, inclusive_high=False)

    def test_error_message_shows_brackets(self):
        with pytest.raises(ValidationError, match=r"\(0.*1.*\]"):
            check_in_range(-1, "x", 0.0, 1.0, inclusive_low=False)


class TestCheckHurst:
    def test_accepts_interior(self):
        assert check_hurst(0.9) == 0.9

    @pytest.mark.parametrize("value", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_boundary_and_outside(self, value):
        with pytest.raises(ValidationError):
            check_hurst(value)


class TestCheck1dArray:
    def test_returns_float_array(self):
        out = check_1d_array([1, 2, 3], "x")
        assert out.dtype == float
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])

    def test_rejects_2d(self):
        with pytest.raises(ValidationError, match="one-dimensional"):
            check_1d_array([[1, 2], [3, 4]], "x")

    def test_rejects_empty_by_default(self):
        with pytest.raises(ValidationError, match="empty"):
            check_1d_array([], "x")

    def test_allows_empty_when_requested(self):
        out = check_1d_array([], "x", allow_empty=True)
        assert out.size == 0

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="finite"):
            check_1d_array([1.0, float("nan")], "x")


class TestCheckMinLength:
    def test_accepts_exact_length(self):
        out = check_min_length([1, 2, 3], "x", 3)
        assert out.size == 3

    def test_rejects_too_short(self):
        with pytest.raises(ValidationError, match="at least 5"):
            check_min_length([1, 2], "x", 5)
