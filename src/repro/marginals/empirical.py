"""Empirical marginal distributions via histogram inversion.

The paper obtains ``F_Y`` "by inverting the empirical distribution
directly" (§3.1) rather than by fitting a parametric model.  Its
histogram-based technique makes the CDF piecewise linear across
histogram bins, so the inverse spreads samples uniformly within each
bin (smooth output, no repeated values).
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .._validation import check_min_length, check_positive_int
from ..stats.histogram import Histogram, frequency_histogram
from .parametric import MarginalDistribution

__all__ = ["EmpiricalDistribution"]

ArrayLike = Union[float, np.ndarray]


class EmpiricalDistribution(MarginalDistribution):
    """Distribution backed by observed samples.

    Parameters
    ----------
    samples:
        Observed values (e.g. bytes per frame of an empirical trace).
    bins:
        Number of histogram bins; the CDF is piecewise linear over them.
    """

    def __init__(
        self,
        samples: Sequence[float],
        *,
        bins: int = 200,
    ) -> None:
        self._samples = np.sort(check_min_length(samples, "samples", 2))
        self.bins = check_positive_int(bins, "bins")
        self._histogram = frequency_histogram(self._samples, bins=self.bins)
        edges = self._histogram.edges
        cum = np.concatenate([[0.0], np.cumsum(self._histogram.frequencies)])
        cum[-1] = 1.0
        # Piecewise-linear CDF knots: (edges, cumulative mass).
        self._cdf_x = edges
        self._cdf_y = cum

    @property
    def histogram(self) -> Histogram:
        """The underlying frequency histogram."""
        return self._histogram

    @property
    def mean(self) -> float:
        return float(self._samples.mean())

    @property
    def variance(self) -> float:
        return float(self._samples.var(ddof=1))

    def cdf(self, x: ArrayLike) -> ArrayLike:
        """Evaluate the piecewise-linear histogram CDF."""
        x_arr = np.asarray(x, dtype=float)
        out = np.interp(x_arr, self._cdf_x, self._cdf_y, left=0.0, right=1.0)
        return float(out) if np.isscalar(x) else np.asarray(out, dtype=float)

    def ppf(self, q: ArrayLike) -> ArrayLike:
        """Invert the empirical CDF at probability levels ``q``."""
        q_arr = np.clip(np.asarray(q, dtype=float), 0.0, 1.0)
        out = np.interp(q_arr, self._cdf_y, self._cdf_x)
        return float(out) if np.isscalar(q) else np.asarray(out, dtype=float)

    def __repr__(self) -> str:
        return (
            f"EmpiricalDistribution(n={self._samples.size}, "
            f"bins={self.bins})"
        )
