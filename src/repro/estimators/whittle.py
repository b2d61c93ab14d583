"""Whittle (frequency-domain maximum likelihood) Hurst estimation.

The graphical estimators the paper uses (variance-time, R/S) are easy
to read off a plot but statistically inefficient.  The Whittle
estimator minimises the approximate frequency-domain log-likelihood

.. math::

    Q(H) = \\sum_j \\left( \\log f_H(\\lambda_j)
           + \\frac{I(\\lambda_j)}{f_H(\\lambda_j)} \\right)

over the Fourier frequencies, where ``I`` is the periodogram and
``f_H`` the model spectral density (here: exact fractional Gaussian
noise, computed by discrete-time Fourier transform of the FGN
autocovariance).  It is the estimator of record in Leland et al. (the
paper's reference [18]) for confirmatory analysis, and we provide it
as a cross-check for the pipeline's Step 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import minimize_scalar

from .._validation import check_in_range, check_min_length, check_positive_int
from ..exceptions import EstimationError, ValidationError
from ..processes.correlation import FGNCorrelation
from ._scale import centred_in_safe_range

__all__ = [
    "MIN_LENGTH",
    "WhittleEstimate",
    "whittle_estimate",
    "fgn_spectral_density",
]

#: Minimum series length: enough Fourier frequencies that the profile
#: Whittle objective is meaningfully peaked (the default keeps at
#: least 8 ordinates).
MIN_LENGTH = 64


def fgn_spectral_density(
    hurst: float,
    frequencies: Sequence[float],
    *,
    acvf_terms: int = 1 << 17,
) -> np.ndarray:
    """FGN spectral density at angular ``frequencies`` in (0, pi].

    Computed as the truncated discrete-time Fourier transform of the
    exact FGN autocovariance,

    .. math:: f(\\lambda) = \\frac{1}{2\\pi}\\Big(r(0)
              + 2 \\sum_{k=1}^{K} r(k) \\cos(k \\lambda)\\Big),

    evaluated in one FFT over a dense frequency grid and interpolated
    onto the requested frequencies.  With the default ``K = 2^17``
    terms the truncation bias is negligible for every Fourier
    frequency of series up to ~10^5 samples (the lowest usable
    frequency of an n-sample series is ``2 pi / n >> pi / K``).
    """
    check_in_range(hurst, "hurst", 0.0, 1.0, inclusive_low=False,
                   inclusive_high=False)
    acvf_terms = check_positive_int(acvf_terms, "acvf_terms")
    lams = np.atleast_1d(np.asarray(frequencies, dtype=float))
    r = FGNCorrelation(hurst).acvf(acvf_terms)
    # One real FFT gives r0 + 2 sum r_k cos(k lam) on the grid
    # lam_j = 2 pi j / (2K): pack r into a length-2K symmetric buffer.
    m = 2 * acvf_terms
    buf = np.zeros(m)
    buf[0] = r[0]
    buf[1:acvf_terms] = r[1:]
    buf[acvf_terms + 1:] = r[1:][::-1]
    grid_density = np.fft.rfft(buf).real
    grid = np.linspace(0.0, np.pi, grid_density.size)
    density = np.interp(lams, grid, grid_density)
    return np.maximum(density, 1e-12) / (2.0 * np.pi)


@dataclass(frozen=True)
class WhittleEstimate:
    """Result of Whittle estimation against an FGN spectral model.

    Attributes
    ----------
    hurst:
        The minimising Hurst parameter.
    objective:
        The minimised Whittle objective value.
    frequencies, periodogram:
        The Fourier frequencies and periodogram ordinates used (of the
        rescaled series, when :func:`whittle_estimate` rescaled it).
    """

    hurst: float
    objective: float
    frequencies: np.ndarray
    periodogram: np.ndarray


def whittle_estimate(
    values: Sequence[float],
    *,
    frequency_fraction: float = 0.5,
    bounds: tuple = (0.05, 0.99),
) -> WhittleEstimate:
    """Estimate the Hurst parameter by Whittle's method (FGN model).

    Parameters
    ----------
    values:
        The observed series.
    frequency_fraction:
        Fraction of the positive Fourier frequencies used (default all
        of the lower half; reduce to focus on the LRD regime when the
        series has strong non-FGN short-range structure).
    bounds:
        Search interval for H; the default covers antipersistent
        through strongly persistent series.

    Notes
    -----
    The estimate does not depend on the series' scale.  When the
    centred series' largest magnitude lies outside ``2^±256``, it is
    multiplied by an exact power of two that brings that magnitude into
    ``[0.5, 1)``, so its periodogram neither overflows nor underflows.
    Series inside that range keep their bits.

    Raises
    ------
    ValidationError
        If the centred series or the objective is not finite: the
        series' mean overflows, or the series is constant.  A bounded
        search on such an objective would return a search bound as if
        it were an estimate.
    """
    arr = check_min_length(values, "values", MIN_LENGTH)
    fraction = check_in_range(
        frequency_fraction, "frequency_fraction", 0.0, 1.0,
        inclusive_low=False,
    )
    n = arr.size
    # The centred peak is below 2^256, so the periodogram is finite.
    centered = centred_in_safe_range(arr, "values")
    with np.errstate(under="ignore"):
        spectrum = np.fft.rfft(centered)
        power = (np.abs(spectrum[1:]) ** 2) / (2.0 * np.pi * n)
    freqs = 2.0 * np.pi * np.arange(1, power.size + 1) / n
    keep = max(8, int(power.size * fraction))
    power = power[:keep]
    freqs = freqs[:keep]

    # Normalise out the (unknown) variance scale: the profile Whittle
    # objective is log(mean(I/f)) + mean(log f), invariant to scaling.
    def objective(hurst: float) -> float:
        density = fgn_spectral_density(hurst, freqs)
        with np.errstate(over="ignore", divide="ignore"):
            ratio = power / density
            value = float(np.log(np.mean(ratio)) + np.mean(np.log(density)))
        if not np.isfinite(value):
            raise ValidationError(
                f"values give a non-finite Whittle objective at "
                f"H = {hurst:.4g}: the series is constant"
            )
        return value

    result = minimize_scalar(
        objective, bounds=bounds, method="bounded",
        options={"xatol": 1e-4},
    )
    if not result.success:  # pragma: no cover - bounded rarely fails
        raise EstimationError(
            f"Whittle optimisation failed: {result.message}"
        )
    return WhittleEstimate(
        hurst=float(result.x),
        objective=float(result.fun),
        frequencies=freqs,
        periodogram=power,
    )
