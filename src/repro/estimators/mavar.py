"""Modified Allan Variance (MAVAR) Hurst estimation.

Bregni & Primerano showed that the Modified Allan Variance — a
standard tool of frequency metrology — estimates the Hurst parameter
of LRD traffic with substantially lower bias and variance than the
paper's two graphical estimators (variance-time, R/S).  Treating the
frame/byte-count series ``y_k`` as "fractional frequency" samples with
phase data ``x_k = y_1 + ... + y_k``, the MAVAR at observation
interval ``tau = n`` (in sample units) is

.. math::

    \\mathrm{Mod}\\,\\sigma^2_y(n) = \\frac{1}{2 n^4 (N - 3n + 2)}
        \\sum_{j} \\Big( \\sum_{i=j}^{j+n-1}
        (x_{i+2n} - 2 x_{i+n} + x_i) \\Big)^2 ,

i.e. the half mean square of the *n-averaged* second phase difference,
normalized by ``n^2``.  For an LRD process with spectral exponent
``alpha = 1 - 2H`` the MAVAR follows the power law
``Mod sigma^2(n) ~ n^{mu}`` with ``mu = 2H - 2``, so the log-log slope
``mu`` estimates ``H = (mu + 2) / 2``.

The estimate matches the observed octave profile against the *exact*
finite-``n`` expected MAVAR of fractional Gaussian noise (a quadratic
form in the FGN autocovariance, computed per octave from the averaging
kernel's autocorrelation), with the scale profiled out.  This removes
the small-``n`` curvature bias of the asymptotic power law, which is
material at the 2^14-sample horizons of the Tier-1 harness.  The classic
Bregni estimator — a weighted least-squares line through
``(log n, log Mod sigma^2)`` and ``H = (slope + 2) / 2`` — is reported
alongside as :attr:`MavarEstimate.asymptotic_hurst`.

Both the matching and the line weight octave ``n`` by ``N / n``, the
number of independent ``3n``-sample triplets the statistic averages
over — the inverse-variance weighting that makes the large, noisy
observation intervals count less.

Both readings are exactly invariant under affine rescaling ``a x + b``
of the input: the second phase difference annihilates the additive
drift ``b`` contributes to the phase, and the multiplicative ``a^2``
scale moves the log-MAVAR intercept, never the slope (nor the profiled
matching objective).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize_scalar

from .._validation import check_min_length, check_positive_int
from ..exceptions import EstimationError
from ..processes.correlation import FGNCorrelation
from .regression import LineFit, fit_weighted_loglog_line

__all__ = [
    "MIN_LENGTH",
    "MavarEstimate",
    "mavar_estimate",
    "fgn_expected_mavar",
]

#: Minimum series length accepted by :func:`mavar_estimate`: the
#: shortest series whose default octave grid ``{2, 4}`` still yields a
#: two-point log-log fit (``3 n <= N - 1`` and ``n <= N // 8``).
MIN_LENGTH = 32

#: Hurst search interval of the FGN matching (open (0, 1)).
_DEFAULT_BOUNDS = (0.02, 0.995)


@dataclass(frozen=True)
class MavarEstimate:
    """Result of a Modified Allan Variance analysis.

    Attributes
    ----------
    hurst:
        Estimated Hurst parameter (exact finite-n FGN expected-curve
        matching).
    fit:
        Weighted log-log line fit through the octave profile; its
        slope is the power-law exponent ``mu`` (the diagnostic
        :attr:`asymptotic_hurst`).
    taus:
        Octave-spaced observation intervals ``n`` (sample units).
    mavar_values:
        ``Mod sigma^2(n)`` per observation interval.
    objective:
        Minimized matching objective (weighted squared log-residual
        after profiling the scale).
    """

    hurst: float
    fit: LineFit
    taus: np.ndarray
    mavar_values: np.ndarray
    objective: float

    @property
    def log_taus(self) -> np.ndarray:
        """``log10 n`` coordinates of the MAVAR plot."""
        return np.log10(self.taus)

    @property
    def log_mavar_values(self) -> np.ndarray:
        """``log10 Mod sigma^2(n)`` coordinates of the MAVAR plot."""
        return np.log10(self.mavar_values)

    @property
    def asymptotic_hurst(self) -> float:
        """``(slope + 2) / 2`` read off the weighted log-log line."""
        return (self.fit.slope + 2.0) / 2.0


def _octave_taus(
    n_total: int, min_tau: int, max_tau: Optional[int]
) -> Tuple[int, ...]:
    """Octave-spaced observation intervals ``min_tau, 2 min_tau, ...``.

    The grid stops at ``max_tau`` (default ``n_total // 8``, keeping at
    least ``~8/3`` independent triplets per point) and never exceeds
    the hard feasibility bound ``3 n <= n_total - 1``.
    """
    if max_tau is None:
        max_tau = max(min_tau * 2, n_total // 8)
    else:
        max_tau = check_positive_int(max_tau, "max_tau")
    taus = []
    n = min_tau
    while 3 * n <= n_total - 1 and n <= max_tau:
        taus.append(n)
        n *= 2
    return tuple(taus)


def _mavar_profile(
    arr: np.ndarray, taus: Sequence[int]
) -> np.ndarray:
    """``Mod sigma^2(n)`` for each ``n`` in ``taus`` (vectorized)."""
    phase = np.concatenate(([0.0], np.cumsum(arr)))
    out = np.empty(len(taus))
    for k, n in enumerate(taus):
        # Second phase difference at stride n ...
        second = phase[2 * n :] - 2.0 * phase[n:-n] + phase[: -2 * n]
        # ... averaged over windows of n consecutive starting points
        # via a cumulative sum (O(N) per octave).
        csum = np.concatenate(([0.0], np.cumsum(second)))
        averaged = (csum[n:] - csum[:-n]) / n
        out[k] = 0.5 * float(np.mean(averaged * averaged)) / (n * n)
    return out


@lru_cache(maxsize=64)
def _kernel_autocorrelation(tau: int) -> np.ndarray:
    """Autocorrelation of the MAVAR averaging kernel at interval ``tau``.

    The averaged second difference is the convolution of the Allan
    kernel ``(-1, ..., -1, +1, ..., +1)`` (``tau`` each) with a
    length-``tau`` box average — a linear functional of ``3 tau - 1``
    consecutive samples.  Its autocorrelation ``a(l) = sum_t g_t
    g_{t+l}`` turns the expected MAVAR into a plain dot product with
    the process autocovariance, independent of the Hurst parameter.
    """
    kernel = np.convolve(
        np.concatenate((-np.ones(tau), np.ones(tau))),
        np.full(tau, 1.0 / tau),
    )
    size = 1
    while size < 2 * kernel.size:
        size *= 2
    spectrum = np.fft.rfft(kernel, size)
    autocorr = np.fft.irfft(
        spectrum * np.conj(spectrum), size
    )[: kernel.size]
    autocorr.flags.writeable = False
    return autocorr


def fgn_expected_mavar(
    hurst: float, taus: Sequence[int]
) -> np.ndarray:
    """Exact ``E[Mod sigma^2(n)]`` of unit-variance FGN at each ``n``.

    Evaluated as a quadratic form: the autocorrelation of the averaging
    kernel (cached per ``n``) dotted with the exact FGN autocovariance.
    This is the finite-``n`` curve :func:`mavar_estimate` matches,
    exact where the asymptotic power law ``n^{2H-2}`` still bends.
    """
    taus = tuple(check_positive_int(int(n), "tau") for n in taus)
    if not taus:
        raise EstimationError("need at least one observation interval")
    acvf = FGNCorrelation(hurst).acvf(max(3 * n - 1 for n in taus))
    out = np.empty(len(taus))
    for k, n in enumerate(taus):
        a = _kernel_autocorrelation(n)
        quad = a[0] * acvf[0] + 2.0 * float(
            np.dot(a[1:], acvf[1 : a.size])
        )
        out[k] = 0.5 * quad / (n * n)
    return out


def mavar_estimate(
    values: Sequence[float],
    *,
    taus: Optional[Sequence[int]] = None,
    min_tau: int = 2,
    max_tau: Optional[int] = None,
    bounds: Tuple[float, float] = _DEFAULT_BOUNDS,
) -> MavarEstimate:
    """Estimate the Hurst parameter by Modified Allan Variance.

    Parameters
    ----------
    values:
        The observed series (e.g. bytes per frame); at least
        :data:`MIN_LENGTH` samples.
    taus:
        Explicit observation intervals; by default octave-spaced from
        ``min_tau`` up to ``max_tau``.
    min_tau, max_tau:
        Octave-grid knobs when ``taus`` is not given.  ``min_tau``
        defaults to 2 (the ``n = 1`` point sits furthest from the
        asymptotic regime); ``max_tau`` defaults to an eighth of the
        series length, below which the statistic still averages a
        useful number of independent triplets.
    bounds:
        Hurst search interval of the match against the exact
        finite-``n`` FGN expectation (scale profiled out).

    Raises
    ------
    ValidationError
        If the series is shorter than :data:`MIN_LENGTH` (the error
        names the argument and the offending length).
    EstimationError
        If fewer than two usable observation intervals remain or the
        MAVAR profile is degenerate (zero variance).
    """
    arr = check_min_length(values, "values", MIN_LENGTH)
    if taus is None:
        min_tau = check_positive_int(min_tau, "min_tau")
        taus = _octave_taus(arr.size, min_tau, max_tau)
    else:
        taus = tuple(
            check_positive_int(int(n), "tau")
            for n in taus
            if 3 * int(n) <= arr.size - 1
        )
    if len(taus) < 2:
        raise EstimationError(
            "need at least two usable observation intervals for MAVAR"
        )
    mavar_values = _mavar_profile(arr, taus)
    positive = mavar_values > 0
    if positive.sum() < 2:
        raise EstimationError(
            "MAVAR profile vanished; series degenerate"
        )
    taus_arr = np.asarray(taus, dtype=float)[positive]
    vals_arr = mavar_values[positive]
    # Inverse-variance octave weights: ~ number of independent
    # 3n-sample triplets each Mod sigma^2(n) averages over.
    weights = arr.size / taus_arr
    fit, _, _ = fit_weighted_loglog_line(taus_arr, vals_arr, weights)

    log_obs = np.log10(vals_arr)
    norm_w = weights / weights.sum()
    int_taus = tuple(int(n) for n in taus_arr)

    def matching_objective(h: float) -> float:
        expected = fgn_expected_mavar(h, int_taus)
        resid = log_obs - np.log10(expected)
        resid = resid - float((norm_w * resid).sum())
        return float((norm_w * resid * resid).sum())

    result = minimize_scalar(
        matching_objective,
        bounds=bounds,
        method="bounded",
        options={"xatol": 1e-5},
    )
    if not result.success:  # pragma: no cover - bounded rarely fails
        raise EstimationError(f"MAVAR calibration failed: {result.message}")

    return MavarEstimate(
        hurst=float(result.x),
        fit=fit,
        taus=np.asarray(taus, dtype=float),
        mavar_values=mavar_values,
        objective=float(result.fun),
    )
