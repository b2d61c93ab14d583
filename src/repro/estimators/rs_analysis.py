"""R/S (rescaled adjusted range) analysis of the Hurst effect (Fig. 4).

For a block of ``n`` observations with sample mean ``Xbar`` and sample
standard deviation ``S``, the rescaled adjusted range is

.. math::

    R/S = \\frac{\\max(0, W_1, ..., W_n) - \\min(0, W_1, ..., W_n)}{S},
    \\qquad W_k = \\sum_{i=1}^{k} X_i - k\\,\\bar X

(paper eq. 8).  For self-similar processes ``E[R/S] ~ c n^H`` (eq. 9),
so the slope of the "pox diagram" of ``log(R/S)`` against ``log n``
estimates ``H``.  Following the paper's methodology, the series is
divided into ``K`` non-overlapping starting points, and the statistic
is computed for each (starting point, block length) pair that fits.

The paper reports a slope of ``0.9287`` and adopts ``H ~= 0.92`` from
this method for the "Last Action Hero" trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .._validation import check_min_length, check_positive_int
from ..exceptions import EstimationError
from .regression import LineFit, fit_loglog_line

__all__ = ["MIN_LENGTH", "RsEstimate", "rs_statistic", "rs_estimate"]

#: Minimum series length: the shortest series whose *default* block
#: grid still yields two pox points, so short input consistently fails
#: the up-front :func:`~repro._validation.check_min_length` (a
#: ``ValidationError`` naming the argument and the length) instead of
#: a data-dependent ``EstimationError`` deeper in.
MIN_LENGTH = 16


@dataclass(frozen=True)
class RsEstimate:
    """Result of an R/S pox-diagram analysis.

    Attributes
    ----------
    hurst:
        Estimated Hurst parameter (slope of the log-log fit).
    fit:
        The underlying log-log line fit.
    block_lengths:
        Block length ``n`` of each pox point.
    rs_values:
        R/S statistic of each pox point.
    """

    hurst: float
    fit: LineFit
    block_lengths: np.ndarray
    rs_values: np.ndarray

    @property
    def log_block_lengths(self) -> np.ndarray:
        """``log10 n`` coordinates of the pox diagram."""
        return np.log10(self.block_lengths)

    @property
    def log_rs_values(self) -> np.ndarray:
        """``log10 R/S`` coordinates of the pox diagram."""
        return np.log10(self.rs_values)


def _rescaled_range(block: np.ndarray, s: float) -> float:
    """R/S of a validated block whose standard deviation ``s`` is known.

    The shared core of :func:`rs_statistic` and :func:`rs_estimate`:
    the block is checked and its standard deviation computed once by
    the caller.
    """
    w = np.cumsum(block - block.mean())
    spread = max(0.0, float(w.max())) - min(0.0, float(w.min()))
    return spread / s


def rs_statistic(values: Sequence[float]) -> float:
    """Return the R/S statistic of a single block (paper eq. 8)."""
    arr = check_min_length(values, "values", 2)
    s = float(arr.std(ddof=0))
    if s == 0:
        raise EstimationError("block has zero variance; R/S is undefined")
    return _rescaled_range(arr, s)


def rs_estimate(
    values: Sequence[float],
    *,
    num_starting_points: int = 10,
    block_lengths: Optional[Sequence[int]] = None,
    min_block: int = 10,
    points_per_decade: int = 6,
) -> RsEstimate:
    """Estimate the Hurst parameter from an R/S pox diagram.

    Parameters
    ----------
    values:
        The observed series.
    num_starting_points:
        Number ``K`` of equally spaced block starting points
        ``t_1 = 1, t_2 = N/K + 1, ...`` (paper §3.2).
    block_lengths:
        Explicit block lengths ``n``; by default log-spaced between
        ``min_block`` and the series length.
    min_block, points_per_decade:
        Grid construction knobs when ``block_lengths`` is not given.
    """
    arr = check_min_length(values, "values", MIN_LENGTH)
    k = check_positive_int(num_starting_points, "num_starting_points")
    n_total = arr.size
    if block_lengths is None:
        min_block = check_positive_int(min_block, "min_block")
        count = max(
            2,
            int(
                np.ceil(
                    (np.log10(n_total) - np.log10(min_block))
                    * points_per_decade
                )
            ),
        )
        grid = np.logspace(np.log10(min_block), np.log10(n_total), count)
        block_lengths = sorted({int(round(b)) for b in grid})
    starts = [int(i * n_total / k) for i in range(k)]

    lengths = []
    statistics = []
    for n in block_lengths:
        if n < 2:
            continue
        for t in starts:
            if t + n > n_total:
                continue
            block = arr[t : t + n]
            s = float(block.std(ddof=0))
            if s == 0:
                continue
            lengths.append(n)
            statistics.append(_rescaled_range(block, s))
    if len(lengths) < 2:
        raise EstimationError(
            "not enough (starting point, block length) pairs for R/S"
        )
    lengths_arr = np.asarray(lengths, dtype=float)
    stats_arr = np.asarray(statistics, dtype=float)
    positive = stats_arr > 0
    fit, _, _ = fit_loglog_line(lengths_arr[positive], stats_arr[positive])
    return RsEstimate(
        hurst=float(fit.slope),
        fit=fit,
        block_lengths=lengths_arr,
        rs_values=stats_arr,
    )
