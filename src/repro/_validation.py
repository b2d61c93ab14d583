"""Internal argument-validation helpers.

These helpers centralize the range and shape checks used across the
package so that error messages are uniform and informative.  They are
deliberately small and free of numpy-version-specific behaviour.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .exceptions import ValidationError

Number = Union[int, float]

__all__ = [
    "check_positive_int",
    "check_nonnegative_int",
    "check_finite_float",
    "check_positive_float",
    "check_nonnegative_float",
    "check_in_range",
    "check_hurst",
    "check_1d_array",
    "check_min_length",
    "check_choice",
]


def check_positive_int(value: int, name: str) -> int:
    """Return ``value`` as ``int`` if it is a positive integer, else raise."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value <= 0:
        raise ValidationError(f"{name} must be positive, got {value}")
    return int(value)


def check_nonnegative_int(value: int, name: str) -> int:
    """Return ``value`` as ``int`` if it is a non-negative integer, else raise."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise ValidationError(f"{name} must be non-negative, got {value}")
    return int(value)


def check_finite_float(value: Number, name: str) -> float:
    """Return ``value`` as ``float`` if it is a finite real number, else raise."""
    if isinstance(value, bool) or not isinstance(
        value, (int, float, np.integer, np.floating)
    ):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    result = float(value)
    if not np.isfinite(result):
        raise ValidationError(f"{name} must be finite, got {value}")
    return result


def check_positive_float(value: Number, name: str) -> float:
    """Return ``value`` as ``float`` if it is strictly positive, else raise."""
    value = check_finite_float(value, name)
    if not value > 0:
        raise ValidationError(f"{name} must be positive, got {value}")
    return value


def check_nonnegative_float(value: Number, name: str) -> float:
    """Return ``value`` as ``float`` if it is non-negative, else raise."""
    value = check_finite_float(value, name)
    if not value >= 0:
        raise ValidationError(f"{name} must be non-negative, got {value}")
    return value


def check_in_range(
    value: Number,
    name: str,
    low: float,
    high: float,
    *,
    inclusive_low: bool = True,
    inclusive_high: bool = True,
) -> float:
    """Return ``value`` as ``float`` if it lies in the given interval."""
    value = check_finite_float(value, name)
    ok_low = value >= low if inclusive_low else value > low
    ok_high = value <= high if inclusive_high else value < high
    if not (ok_low and ok_high):
        lo_br = "[" if inclusive_low else "("
        hi_br = "]" if inclusive_high else ")"
        raise ValidationError(
            f"{name} must be in {lo_br}{low}, {high}{hi_br}, got {value}"
        )
    return value


def check_hurst(value: Number, name: str = "hurst") -> float:
    """Return a valid Hurst parameter in the open interval (0, 1)."""
    return check_in_range(
        value, name, 0.0, 1.0, inclusive_low=False, inclusive_high=False
    )


def check_1d_array(
    values: Sequence[Number],
    name: str,
    *,
    dtype: type = float,
    allow_empty: bool = False,
) -> np.ndarray:
    """Coerce ``values`` to a finite 1-D :class:`numpy.ndarray`."""
    arr = np.asarray(values, dtype=dtype)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not allow_empty and arr.size == 0:
        raise ValidationError(f"{name} must not be empty")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must contain only finite values")
    return arr


def check_min_length(
    values: Sequence[Number], name: str, min_length: int
) -> np.ndarray:
    """Coerce to a 1-D array and require at least ``min_length`` entries."""
    arr = check_1d_array(values, name)
    if arr.size < min_length:
        raise ValidationError(
            f"{name} must have at least {min_length} entries, got {arr.size}"
        )
    return arr


def check_choice(value: str, name: str, choices: Sequence[str]) -> str:
    """Return ``value`` if it is one of ``choices``, else raise.

    The error names the offending argument, lists the valid choices,
    and echoes the received value — the shared error shape for every
    string-enumerated argument in the package.
    """
    if value not in choices:
        listed = ", ".join(repr(choice) for choice in choices)
        raise ValidationError(
            f"{name} must be one of {listed}, got {value!r}"
        )
    return value
