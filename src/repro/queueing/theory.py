"""Analytic queueing asymptotics for self-similar input.

The paper cites Norros' storage model (its reference [23]) and the
large-deviations results of Duffield & O'Connell ([6]) for the key
qualitative fact its Fig. 17 illustrates: with fractional-Brownian
input the overflow probability decays *Weibull-like*,

.. math::

    \\log \\Pr(Q > b) \\sim -\\gamma\\, b^{2 - 2H},
    \\qquad
    \\gamma = \\frac{(\\mu - m)^{2H}}{2\\, \\kappa(H)^2\\, a\\, m},
    \\qquad
    \\kappa(H) = H^H (1 - H)^{1 - H},

i.e. sub-exponential in the buffer for ``H > 1/2``, versus the
geometric decay of Markovian input.
This module provides that lower-bound approximation so simulation
results can be sanity-checked against theory (and so the "decays less
than exponentially fast" claim of §4 is quantitative).
"""

from __future__ import annotations

import numpy as np
from scipy import special

from .._validation import check_hurst, check_positive_float
from ..exceptions import ValidationError

__all__ = [
    "norros_overflow_approximation",
    "norros_decay_exponent",
    "norros_effective_bandwidth",
]


def norros_decay_exponent(hurst: float) -> float:
    """The Weibull shape ``2 - 2H`` of the fBm overflow tail."""
    check_hurst(hurst)
    return 2.0 - 2.0 * hurst


def norros_overflow_approximation(
    buffer_sizes,
    *,
    hurst: float,
    mean_rate: float,
    service_rate: float,
    variance_coefficient: float,
) -> np.ndarray:
    """Norros' lower-bound approximation of ``P(Q > b)`` for fBm input.

    For a fractional Brownian storage with mean input ``m`` per slot,
    service ``mu``, and input variance ``Var[A(0, t)] = a m t^{2H}``
    (so ``a = variance_coefficient`` is the variance of one slot's
    input divided by the mean rate),

    .. math::

        \\Pr(Q > b) \\gtrsim \\bar\\Phi\\left(
            \\frac{(\\mu - m)^{H} \\; b^{1-H}}
                 {\\kappa(H) \\sqrt{a m}} \\right),
        \\qquad \\kappa(H) = H^H (1 - H)^{1-H}.

    Parameters
    ----------
    buffer_sizes:
        Buffer levels ``b`` (same units as per-slot work).
    hurst:
        Hurst parameter of the input.
    mean_rate:
        Mean input per slot ``m``.
    service_rate:
        Service per slot ``mu``; must exceed ``mean_rate``.
    variance_coefficient:
        ``a = Var(one slot's input) / mean_rate``.

    Returns
    -------
    numpy.ndarray
        The approximation evaluated at every buffer size.
    """
    check_hurst(hurst)
    m = check_positive_float(mean_rate, "mean_rate")
    mu = check_positive_float(service_rate, "service_rate")
    a = check_positive_float(variance_coefficient, "variance_coefficient")
    if mu <= m:
        raise ValidationError(
            f"service_rate {mu} must exceed mean_rate {m} for stability"
        )
    b = np.atleast_1d(np.asarray(buffer_sizes, dtype=float))
    if np.any(b < 0):
        raise ValidationError("buffer sizes must be non-negative")
    kappa = hurst**hurst * (1.0 - hurst) ** (1.0 - hurst)
    argument = (
        (mu - m) ** hurst * b ** (1.0 - hurst)
        / (kappa * np.sqrt(a * m))
    )
    # The standard normal tail 1 - Phi(z) = Phi(-z), as scipy.stats.norm.sf.
    return np.asarray(special.ndtr(-argument), dtype=float)


def norros_effective_bandwidth(
    *,
    hurst: float,
    mean_rate: float,
    variance_coefficient: float,
    buffer_size: float,
    epsilon: float,
) -> float:
    """Norros' effective bandwidth: capacity for a target overflow.

    Inverts :func:`norros_overflow_approximation` for the service
    rate: the smallest ``mu`` with ``P(Q > b) <= epsilon`` under the
    fBm approximation,

    .. math::

        \\mu = m + \\left( \\kappa(H)\\, z_{1-\\epsilon}
               \\sqrt{a m}\\; b^{H - 1} \\right)^{1/H},

    where ``z_{1-eps}`` is the standard normal quantile.  This is the
    connection-admission-control form of the theory: it prices the
    capacity cost of burstiness (via ``a``) and of long memory (via
    the ``b^{(H-1)/H}`` buffer discount, which is much weaker for
    ``H`` near 1 — big buffers buy little for strongly LRD video).

    Parameters
    ----------
    hurst, mean_rate, variance_coefficient:
        As in :func:`norros_overflow_approximation`.
    buffer_size:
        Buffer ``b`` the multiplexer provides.
    epsilon:
        Target overflow probability in (0, 0.5).
    """
    check_hurst(hurst)
    m = check_positive_float(mean_rate, "mean_rate")
    a = check_positive_float(variance_coefficient, "variance_coefficient")
    b = check_positive_float(buffer_size, "buffer_size")
    if not 0.0 < epsilon < 0.5:
        raise ValidationError(
            f"epsilon must be in (0, 0.5), got {epsilon}"
        )
    z = float(-special.ndtri(epsilon))
    kappa = hurst**hurst * (1.0 - hurst) ** (1.0 - hurst)
    headroom = (
        kappa * z * np.sqrt(a * m) * b ** (hurst - 1.0)
    ) ** (1.0 / hurst)
    return m + headroom
