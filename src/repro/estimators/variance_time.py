"""Variance-time estimation of the Hurst parameter (Fig. 3).

For a self-similar process the variance of the m-aggregated series
``X^(m)`` decays like ``m^{-beta}`` with ``beta = 2 - 2H``.  The
variance-time plot graphs ``log10 var(X^(m))`` against ``log10 m``; a
least-squares line through the points (ignoring the smallest ``m``, as
the paper does) has slope ``-beta``, yielding ``H = 1 - beta/2``.

The paper reports a slope of ``-0.2234`` and ``H ~= 0.89`` for the
"Last Action Hero" trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .._validation import check_min_length, check_positive_int
from ..exceptions import EstimationError
from ..stats.aggregate import _block_means, aggregation_levels
from .regression import LineFit, fit_loglog_line

__all__ = ["MIN_LENGTH", "VarianceTimeEstimate", "variance_time_estimate"]

#: Minimum series length: the shortest series whose *default* level
#: grid still yields a two-level fit, so short input consistently
#: fails the up-front :func:`~repro._validation.check_min_length`
#: (a ``ValidationError`` naming the argument and the length) instead
#: of a data-dependent ``EstimationError`` deeper in.
MIN_LENGTH = 32


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


def variance_time_estimate(
    values: Sequence[float],
    *,
    levels: Optional[Sequence[int]] = None,
    min_m: int = 10,
    min_blocks: int = 10,
    points_per_decade: int = 10,
) -> VarianceTimeEstimate:
    """Estimate the Hurst parameter from a variance-time plot.

    Parameters
    ----------
    values:
        The observed series (e.g. bytes per frame).
    levels:
        Explicit aggregation levels ``m``.  By default, log-spaced
        levels between ``min_m`` and the largest level that leaves
        ``min_blocks`` blocks; the small-``m`` region is excluded by
        default (``min_m = 10``) because the asymptotic slope only
        emerges at large ``m``, exactly as the paper's Fig. 3 ignores
        small values of ``m``.
    min_m, min_blocks, points_per_decade:
        Level-grid construction knobs when ``levels`` is not given.

    Raises
    ------
    EstimationError
        If fewer than two usable aggregation levels remain, or an
        aggregated series has zero variance.
    """
    arr = check_min_length(values, "values", MIN_LENGTH)
    if levels is None:
        levels = aggregation_levels(
            arr.size,
            min_m=min(min_m, max(1, arr.size // (2 * min_blocks))),
            min_blocks=min_blocks,
            points_per_decade=points_per_decade,
        )
    else:
        levels = [check_positive_int(int(m), "level") for m in levels]
    usable = [m for m in levels if arr.size // m >= 2]
    if len(usable) < 2:
        raise EstimationError(
            "need at least two aggregation levels with two or more blocks"
        )
    variances = np.array([_block_means(arr, m).var(ddof=0) for m in usable])
    if np.any(variances <= 0):
        raise EstimationError(
            "an aggregated series has zero variance; cannot take logs"
        )
    fit, _, _ = fit_loglog_line(np.asarray(usable, dtype=float), variances)
    beta = abs(fit.slope)
    return VarianceTimeEstimate(
        hurst=1.0 - beta / 2.0,
        beta=beta,
        fit=fit,
        levels=np.asarray(usable, dtype=float),
        variances=variances,
    )
