"""Exact power-of-two rescaling for the scale-free Hurst estimators.

Whittle and R/S read H from a centred series, and neither reading
depends on the series' scale.  Their arithmetic does: a periodogram or a
standard deviation squares the centred samples, which overflows near
``2^512`` and underflows below ``2^-537``.  :func:`centred_in_safe_range`
centres a series once and, when the centred peak lies outside
``2^±SAFE_EXPONENT``, multiplies it by an exact power of two, which
every later step scales through exactly.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError

#: Largest binary exponent (either sign) of the centred series' peak
#: magnitude that the estimators square without overflow or underflow.
#: A series outside is rescaled by an exact power of two.
SAFE_EXPONENT = 256


def centred_in_safe_range(arr: np.ndarray, name: str) -> np.ndarray:
    """Return ``arr - arr.mean()``, rescaled when its peak is extreme.

    When the centred series' largest magnitude lies outside
    ``2^±SAFE_EXPONENT`` the result is multiplied by the power of two
    that brings that magnitude into ``[0.5, 1)``.  Series inside that
    range keep their bits.

    Raises
    ------
    ValidationError
        If the centred series is not finite (the mean of ``arr``, or a
        sample's distance from it, overflows); ``name`` is the caller's
        argument.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        centred = arr - arr.mean()
        peak = np.maximum(centred.max(), -centred.min())
    if not np.isfinite(peak):
        raise ValidationError(
            f"{name} overflow once centred (the series' mean or its "
            "distance from it is not finite); rescale the series"
        )
    _, exponent = np.frexp(peak)
    if abs(int(exponent)) > SAFE_EXPONENT:
        np.ldexp(centred, -exponent, out=centred)
    return centred
