"""FARIMA (fractional ARIMA) processes.

The paper cites the fractional ARIMA(0, d, 0) process of Hosking (1981)
as the asymptotically self-similar model used by Garrett & Willinger to
provide LRD behaviour, and notes that a full ARIMA(p, d, q) can model
both LRD and SRD but is hard to fit.  We implement both:

- exact FARIMA(0, d, 0) generation through its closed-form
  autocorrelation (:class:`~repro.processes.correlation.FARIMACorrelation`)
  fed to Davies-Harte (``registry.create("hosking",
  FARIMACorrelation(d))`` draws the same law by Hosking's method), and
- general FARIMA(p, d, q) generation by passing an exact
  FARIMA(0, d, 0) series through the ARMA(p, q) filter
  ``phi(B) X = theta(B) W`` (exact in the fractional part; the ARMA
  filter starts from zero initial conditions, so a configurable burn-in
  removes the transient).

The fractional differencing weights ``pi_j`` of ``(1 - B)^d`` follow
the standard binomial recursion and are exposed for direct use.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .._validation import (
    check_1d_array,
    check_in_range,
    check_nonnegative_int,
    check_positive_int,
)
from ..stats.random import RandomState
from .correlation import FARIMACorrelation
from .davies_harte import davies_harte_generate

__all__ = [
    "fractional_diff_weights",
    "farima_generate",
]


def fractional_diff_weights(d: float, count: int) -> np.ndarray:
    """Return the first ``count`` weights of ``(1 - B)^d``.

    The weights satisfy ``pi_0 = 1`` and the recursion
    ``pi_j = pi_{j-1} * (j - 1 - d) / j``.  Applying them as an FIR
    filter fractionally *differences* a series; the weights of
    ``(1 - B)^{-d}`` (fractional integration) are obtained by negating
    ``d``.
    """
    d = check_in_range(d, "d", -1.0, 1.0)
    count = check_positive_int(count, "count")
    weights = np.empty(count, dtype=float)
    weights[0] = 1.0
    for j in range(1, count):
        weights[j] = weights[j - 1] * (j - 1 - d) / j
    return weights


def farima_generate(
    n: int,
    d: float,
    *,
    ar: Sequence[float] = (),
    ma: Sequence[float] = (),
    size: Optional[int] = None,
    burn_in: Optional[int] = None,
    random_state: RandomState = None,
) -> np.ndarray:
    """Generate a FARIMA(p, d, q) sample path.

    Parameters
    ----------
    n:
        Output length per replication.
    d:
        Fractional differencing parameter in (0, 1/2); the implied
        Hurst parameter is ``H = d + 1/2``.
    ar:
        AR coefficients ``phi_1 .. phi_p`` of ``phi(B) = 1 - phi_1 B - ...``.
    ma:
        MA coefficients ``theta_1 .. theta_q`` of ``theta(B) = 1 + theta_1 B + ...``.
    size:
        Number of replications (``None`` for a single 1-D path).
    burn_in:
        Samples discarded to wash out the ARMA filter transient;
        defaults to ``0`` for a pure FARIMA(0, d, 0) and ``10 * (p + q)``
        otherwise.
    random_state:
        Seed or generator.

    Notes
    -----
    The fractional core is generated with its exact autocovariance, so
    a FARIMA(0, d, 0) output is exact.  With ARMA terms the output is
    exact up to the filter transient removed by ``burn_in``.
    """
    n = check_positive_int(n, "n")
    ar_arr = check_1d_array(ar, "ar", allow_empty=True)
    ma_arr = check_1d_array(ma, "ma", allow_empty=True)
    has_arma = ar_arr.size > 0 or ma_arr.size > 0
    if burn_in is None:
        burn_in = 10 * (ar_arr.size + ma_arr.size) if has_arma else 0
    burn_in = check_nonnegative_int(burn_in, "burn_in")

    core = davies_harte_generate(
        FARIMACorrelation(d),
        n + burn_in,
        size=size or 1,
        random_state=random_state,
    )

    if has_arma:
        # Imported here, the only use: scipy.signal imports scipy.stats,
        # which would double the cost of ``import repro``.
        from scipy.signal import lfilter

        # phi(B) X = theta(B) core  =>  X = (theta/phi)(B) core.
        b = np.concatenate([[1.0], ma_arr])
        a = np.concatenate([[1.0], -ar_arr])
        core = lfilter(b, a, core, axis=-1)
    out = core[:, burn_in:]
    return out[0] if size is None else out
