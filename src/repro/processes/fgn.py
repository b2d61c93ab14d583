"""Fractional Gaussian noise (FGN) helpers.

FGN is the increment process of fractional Brownian motion and the
"exactly self-similar" member of the paper's model family (§2).  This
module wraps the correlation model with convenience generators and the
FGN/fBm conversion used in examples and tests.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .._validation import check_1d_array, check_hurst, check_positive_int
from ..stats.random import RandomState
from .correlation import FGNCorrelation
from .davies_harte import davies_harte_generate

__all__ = ["fgn_acvf", "fgn_generate", "fbm_from_fgn"]


def fgn_acvf(hurst: float, n: int) -> np.ndarray:
    """Return the exact FGN autocovariance ``r(0) .. r(n-1)``."""
    check_hurst(hurst)
    n = check_positive_int(n, "n")
    return FGNCorrelation(hurst).acvf(n)


def fgn_generate(
    hurst: float,
    n: int,
    *,
    size: Optional[int] = None,
    mean: float = 0.0,
    random_state: RandomState = None,
) -> np.ndarray:
    """Generate fractional Gaussian noise with Hurst parameter ``hurst``.

    Draws through Davies-Harte, exact for FGN and O(n log n).  The
    same law drawn by Hosking's O(n^2) recursion (eq. 1-6 of the
    paper) is ``hosking_generate(FGNCorrelation(hurst), n)``.
    """
    return davies_harte_generate(
        FGNCorrelation(hurst),
        n,
        size=size,
        mean=mean,
        random_state=random_state,
        on_negative_eigenvalues="raise",
    )


def fbm_from_fgn(increments: Sequence[float]) -> np.ndarray:
    """Return the fractional Brownian motion path ``B_0 = 0, B_k = sum``.

    The output has one more sample than the input.
    """
    inc = check_1d_array(increments, "increments", allow_empty=True)
    path = np.empty(inc.size + 1, dtype=float)
    path[0] = 0.0
    np.cumsum(inc, out=path[1:])
    return path
