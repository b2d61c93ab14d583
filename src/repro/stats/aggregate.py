"""The aggregation levels of the variance-time analysis.

For a process ``X`` the *m-aggregated* process is

.. math::

    X^{(m)}_k = \\frac{1}{m} (X_{km-m+1} + \\dots + X_{km}),

i.e. the series of non-overlapping block means of block size ``m``.
Self-similar processes satisfy ``var(X^(m)) ~ m^{-beta}`` which is the
basis of the variance-time plot (Fig. 3 of the paper);
:func:`aggregation_levels` picks the levels ``m`` it plots.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .._validation import check_positive_int
from ..exceptions import ValidationError

__all__ = ["aggregation_levels"]


def aggregation_levels(
    n: int,
    *,
    min_m: int = 1,
    max_m: int | None = None,
    points_per_decade: int = 10,
    min_blocks: int = 5,
) -> List[int]:
    """Return log-spaced aggregation levels for a series of length ``n``.

    Levels are chosen roughly uniformly in ``log10(m)`` between ``min_m``
    and ``max_m`` (default: the largest ``m`` leaving ``min_blocks``
    blocks), with duplicates removed.  This mirrors how variance-time
    plots are constructed in the self-similarity literature.
    """
    n = check_positive_int(n, "n")
    min_m = check_positive_int(min_m, "min_m")
    min_blocks = check_positive_int(min_blocks, "min_blocks")
    if max_m is None:
        max_m = max(min_m, n // min_blocks)
    max_m = check_positive_int(max_m, "max_m")
    if max_m < min_m:
        raise ValidationError(
            f"max_m={max_m} must be >= min_m={min_m}"
        )
    if min_m == max_m:
        return [min_m]
    count = max(
        2,
        int(np.ceil((np.log10(max_m) - np.log10(min_m)) * points_per_decade)),
    )
    grid = np.logspace(np.log10(min_m), np.log10(max_m), count)
    levels = sorted({int(round(m)) for m in grid if m >= min_m})
    return [m for m in levels if m <= max_m]
