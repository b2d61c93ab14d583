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

Every block at a starting point ``t`` is a prefix of the tail that
begins there, so :func:`rs_estimate` forms one running sum ``C`` of
that tail (centred by the series mean) and reads each block from it:
the block mean is ``C_n / n`` and ``W_k = C_k - k C_n / n``.  The block's
standard deviation comes from a second pass over the block, centred at
its mean.  The pox values are allclose to one :func:`rs_statistic` call
per block, not bitwise equal.

The paper reports a slope of ``0.9287`` and adopts ``H ~= 0.92`` from
this method for the "Last Action Hero" trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .._validation import check_min_length
from ..exceptions import EstimationError
from ._scale import centred_in_safe_range
from .regression import LineFit, fit_loglog_line

__all__ = ["MIN_LENGTH", "RsEstimate", "rs_statistic", "rs_estimate"]

#: Minimum series length: the shortest series whose block grid still
#: yields two pox points, so short input consistently fails
#: the up-front :func:`~repro._validation.check_min_length` (a
#: ``ValidationError`` naming the argument and the length) instead of
#: a data-dependent ``EstimationError`` deeper in.
MIN_LENGTH = 16

#: The pox grid: ``K`` equally spaced starting points ``t_1 = 1,
#: t_2 = N/K + 1, ...`` (paper §3.2) and block lengths log-spaced from
#: the shortest block to the series length.
_NUM_STARTS = 10
_MIN_BLOCK = 10
_POINTS_PER_DECADE = 6

#: Samples per slice of a block's passes.  Each slice of the running
#: sum and of the tail is read by all four passes (W, its max and min,
#: the deviations and their squares) while it is still in cache.
_SLICE = 1 << 15


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


def rs_statistic(values: Sequence[float]) -> float:
    """Return the R/S statistic of a single block (paper eq. 8).

    Raises
    ------
    EstimationError
        If the block is constant (R/S is 0/0).
    """
    arr = check_min_length(values, "values", 2)
    if np.all(arr == arr[0]):
        raise EstimationError("block is constant; R/S is undefined")
    centred = centred_in_safe_range(arr, "values")
    w = np.cumsum(centred)
    spread = max(0.0, float(w.max())) - min(0.0, float(w.min()))
    return spread / float(np.sqrt(np.mean(centred * centred)))


def _block_lengths(n_total: int) -> List[int]:
    """The pox grid's block lengths for a series of ``n_total`` samples."""
    count = max(
        2,
        int(
            np.ceil(
                (np.log10(n_total) - np.log10(_MIN_BLOCK))
                * _POINTS_PER_DECADE
            )
        ),
    )
    grid = np.logspace(np.log10(_MIN_BLOCK), np.log10(n_total), count)
    return sorted({int(round(b)) for b in grid})


def _leading_run(tail: np.ndarray) -> int:
    """Length of the run of samples equal to ``tail[0]`` that opens ``tail``.

    A block that starts at ``tail[0]`` is constant exactly when its
    length is at most this run.  The search reads a head four times as
    long each round, so it costs about the run's length.
    """
    size = _MIN_BLOCK
    while True:
        head = tail[:size]
        first = int(np.argmax(head != head[0]))
        if head[first] != head[0]:
            return first
        if head.size == tail.size:
            return tail.size
        size *= 4


def rs_estimate(values: Sequence[float]) -> RsEstimate:
    """Estimate the Hurst parameter from an R/S pox diagram.

    The pox points are the (block length, starting point) pairs of the
    module's fixed grid whose block fits in the series and is not
    constant (nor so far below the series' peak that its squared
    deviations underflow), ordered by block length and then by
    starting point.

    Raises
    ------
    EstimationError
        If fewer than two pairs hold a non-constant block.
    ValidationError
        If the centred series is not finite.  A series whose centred
        peak lies outside ``2^±256`` is rescaled by an exact power of
        two first, so the pox values do not depend on its scale.
    """
    arr = check_min_length(values, "values", MIN_LENGTH)
    centred = centred_in_safe_range(arr, "values")
    n_total = arr.size
    lengths = _block_lengths(n_total)
    starts = [int(i * n_total / _NUM_STARTS) for i in range(_NUM_STARTS)]
    rs = np.zeros((len(lengths), len(starts)))
    kept = np.zeros(rs.shape, dtype=bool)
    # Buffers shared by every block: a tail's running sum, the indices
    # k = 1..n and one slice of scratch.
    running = np.empty(n_total)
    ks = np.arange(1.0, n_total + 1.0)
    scratch = np.empty(min(_SLICE, n_total))
    for j, t in enumerate(starts):
        tail = centred[t:]
        run = _leading_run(tail)
        rows = [i for i, n in enumerate(lengths) if run < n <= tail.size]
        if not rows:
            continue
        top = lengths[rows[-1]]
        np.cumsum(tail[:top], out=running[:top])
        for i in rows:
            n = lengths[i]
            mean = running[n - 1] / n
            high = low = squares = 0.0
            for lo in range(0, n, _SLICE):
                hi = min(lo + _SLICE, n)
                w = np.multiply(ks[lo:hi], mean, out=scratch[: hi - lo])
                np.subtract(running[lo:hi], w, out=w)
                high = max(high, float(w.max()))
                low = min(low, float(w.min()))
                deviations = np.subtract(
                    tail[lo:hi], mean, out=scratch[: hi - lo]
                )
                squares += float(np.dot(deviations, deviations))
            s = np.sqrt(squares / n)
            # A block lying ~2^537 below the series' peak has squares
            # that underflow to zero: skip it as the constant ones.
            if s > 0:
                rs[i, j] = (high - low) / s
                kept[i, j] = True
    if np.count_nonzero(kept) < 2:
        raise EstimationError(
            "not enough (starting point, block length) pairs for R/S"
        )
    lengths_arr = np.broadcast_to(
        np.asarray(lengths, dtype=float)[:, None], rs.shape
    )[kept]
    stats_arr = rs[kept]
    positive = stats_arr > 0
    fit, _, _ = fit_loglog_line(lengths_arr[positive], stats_arr[positive])
    return RsEstimate(
        hurst=float(fit.slope),
        fit=fit,
        block_lengths=lengths_arr,
        rs_values=stats_arr,
    )
