"""Fractional Gaussian noise (FGN) helpers.

FGN is the increment process of fractional Brownian motion and the
"exactly self-similar" member of the paper's model family (§2).  This
module wraps the correlation model with a convenience generator.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..stats.random import RandomState
from .correlation import FGNCorrelation
from .davies_harte import davies_harte_generate

__all__ = ["fgn_generate"]


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

