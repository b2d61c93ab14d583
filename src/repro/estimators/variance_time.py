"""Variance-time estimation of the Hurst parameter (Fig. 3).

For a self-similar process the variance of the m-aggregated series
``X^(m)`` decays like ``m^{-beta}`` with ``beta = 2 - 2H``.  The
variance-time plot graphs ``log10 var(X^(m))`` against ``log10 m``; a
least-squares line through the points (ignoring the smallest ``m``, as
the paper does) has slope ``-beta``, yielding ``H = 1 - beta/2``.

One prefix sum ``P`` of the centred series serves every level: the
level-``m`` block sums are the differences of ``P``'s every ``m``-th
entry, so a level costs ``N/m`` rather than ``N``.  The variances are
allclose to the per-level block-mean loop, not bitwise equal.

The paper reports a slope of ``-0.2234`` and ``H ~= 0.89`` for the
"Last Action Hero" trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .._validation import check_min_length
from ..exceptions import EstimationError
from ..stats.aggregate import aggregation_levels
from .regression import LineFit, fit_loglog_line

__all__ = ["MIN_LENGTH", "VarianceTimeEstimate", "variance_time_estimate"]

#: Minimum series length.  From here on the level grid holds at least
#: three levels, each of at least ``_MIN_BLOCKS`` blocks, so short
#: input fails only the up-front
#: :func:`~repro._validation.check_min_length` (a ``ValidationError``
#: naming the argument and the length), never a data-dependent
#: ``EstimationError`` deeper in.
MIN_LENGTH = 32

#: The level grid: log-spaced levels from ``_MIN_M`` (the small-``m``
#: region is excluded because the asymptotic slope only emerges at
#: large ``m``, exactly as the paper's Fig. 3 ignores small values of
#: ``m``) to the largest level that leaves ``_MIN_BLOCKS`` blocks.
_MIN_M = 10
_MIN_BLOCKS = 10
_POINTS_PER_DECADE = 10


@dataclass(frozen=True)
class VarianceTimeEstimate:
    """Result of a variance-time analysis.

    Attributes
    ----------
    hurst:
        Estimated Hurst parameter ``1 - beta/2``.
    beta:
        Estimated decay exponent (absolute slope of the fitted line).
    fit:
        The underlying log-log line fit (slope is ``-beta``).
    levels:
        Aggregation levels ``m`` used in the fit.
    variances:
        Sample variances of each aggregated series.
    """

    hurst: float
    beta: float
    fit: LineFit
    levels: np.ndarray
    variances: np.ndarray

    @property
    def log_levels(self) -> np.ndarray:
        """``log10 m`` coordinates of the plot."""
        return np.log10(self.levels)

    @property
    def log_variances(self) -> np.ndarray:
        """``log10 var(X^(m))`` coordinates of the plot."""
        return np.log10(self.variances)


def variance_time_estimate(values: Sequence[float]) -> VarianceTimeEstimate:
    """Estimate the Hurst parameter from a variance-time plot.

    Parameters
    ----------
    values:
        The observed series (e.g. bytes per frame).  A series of
        fewer than 200 samples starts its levels at ``N // 20`` rather
        than 10, so every level keeps at least ten blocks.

    Raises
    ------
    EstimationError
        If an aggregated series has zero variance.
    """
    arr = check_min_length(values, "values", MIN_LENGTH)
    n = arr.size
    levels = aggregation_levels(
        n,
        min_m=min(_MIN_M, max(1, n // (2 * _MIN_BLOCKS))),
        min_blocks=_MIN_BLOCKS,
        points_per_decade=_POINTS_PER_DECADE,
    )
    prefix = arr - arr.mean()
    np.cumsum(prefix, out=prefix)
    variances = np.empty(len(levels))
    for i, m in enumerate(levels):
        sums = np.diff(prefix[m - 1 :: m], prepend=0.0)
        variances[i] = (sums / m).var()
    if np.any(variances <= 0):
        raise EstimationError(
            "an aggregated series has zero variance; cannot take logs"
        )
    levels_arr = np.asarray(levels, dtype=float)
    fit, _, _ = fit_loglog_line(levels_arr, variances)
    beta = abs(fit.slope)
    return VarianceTimeEstimate(
        hurst=1.0 - beta / 2.0,
        beta=beta,
        fit=fit,
        levels=levels_arr,
        variances=variances,
    )
