"""Quantile-quantile computations (Fig. 13 of the paper).

The paper compares the marginal distribution of the simulated process
against the empirical trace with a Q-Q plot.  :func:`qq_points` returns
the paired quantiles; a perfectly matched marginal yields points on the
diagonal ``y = x``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .._validation import check_1d_array, check_positive_int

__all__ = ["quantiles", "qq_points"]


def quantiles(values: Sequence[float], probs: Sequence[float]) -> np.ndarray:
    """Return the empirical quantiles of ``values`` at levels ``probs``."""
    arr = check_1d_array(values, "values")
    p = np.clip(check_1d_array(probs, "probs"), 0.0, 1.0)
    return np.quantile(arr, p)


def qq_points(
    sample_a: Sequence[float],
    sample_b: Sequence[float],
    *,
    count: int = 100,
) -> Tuple[np.ndarray, np.ndarray]:
    """Return paired quantiles of two samples at ``count`` levels.

    Probability levels are placed at ``(i + 0.5) / count`` so the extreme
    order statistics do not dominate the comparison.
    """
    count = check_positive_int(count, "count")
    probs = (np.arange(count) + 0.5) / count
    return quantiles(sample_a, probs), quantiles(sample_b, probs)

