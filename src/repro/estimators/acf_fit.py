"""Fitting the composite SRD + LRD autocorrelation model (eq. 10-13).

Step 2 of the paper's pipeline: given an empirical autocorrelation
(Fig. 5), find the "knee" lag ``Kt`` that separates the fast,
exponential decay (short-range dependence) from the slow, power-law
decay (long-range dependence), and least-squares fit

- ``(1 - w_0) exp(-beta k)`` to the lags below the knee (``w_0`` is a
  lag-0 white-noise "nugget"), and
- ``L k^{-gamma}`` to the lags at and above the knee.

The paper fixes the LRD exponent from the Hurst estimate
(``gamma = 2 - 2H``) and fits the remaining parameters; we support both
that and a free-exponent fit.  Knee detection scans candidate knees and
minimises the combined squared error, which recovers the paper's
"intersection of the two fitting curves" heuristic (the error is
minimised when the pieces meet).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .._validation import (
    check_1d_array,
    check_positive_int,
)
from ..exceptions import EstimationError, ValidationError
from ..processes.correlation import CompositeCorrelation
from .regression import fit_line

__all__ = ["AcfFit", "fit_composite_acf", "detect_knee"]


@dataclass(frozen=True)
class AcfFit:
    """Result of fitting the composite SRD+LRD model to a sample ACF.

    Attributes
    ----------
    model:
        The fitted :class:`~repro.processes.correlation.CompositeCorrelation`.
    knee:
        Selected knee lag ``Kt``.
    rmse:
        Root-mean-square error of the fit over the fitted lag range.
    srd_rmse, lrd_rmse:
        Fit errors of the exponential head and power-law tail parts.
    """

    model: CompositeCorrelation
    knee: int
    rmse: float
    srd_rmse: float
    lrd_rmse: float

    @property
    def hurst(self) -> Optional[float]:
        """Hurst parameter implied by the fitted tail exponent."""
        return self.model.hurst


def _fit_power_tail(
    lags: np.ndarray,
    acf: np.ndarray,
    exponent: Optional[float],
) -> Tuple[float, float, float]:
    """Fit ``L k^-gamma`` on (lags, acf); return (L, gamma, rmse)."""
    positive = acf > 0
    if positive.sum() < 2:
        raise EstimationError(
            "not enough positive tail autocorrelations for a power-law fit"
        )
    log_k = np.log(lags[positive])
    log_r = np.log(acf[positive])
    if exponent is None:
        fit = fit_line(log_k, log_r)
        gamma = -fit.slope
        amplitude = float(np.exp(fit.intercept))
    else:
        gamma = float(exponent)
        amplitude = float(np.exp(np.mean(log_r + gamma * log_k)))
    predicted = amplitude * lags ** (-gamma)
    rmse = float(np.sqrt(np.mean((predicted - acf) ** 2)))
    return amplitude, gamma, rmse


def _fit_exponential_head(
    lags: np.ndarray,
    acf: np.ndarray,
) -> Tuple[float, float, float]:
    """Fit ``(1 - w0) exp(-b k)`` to the head lags.

    Returns ``(rate, nugget, rmse)``: the decay rate ``b``, the lag-0
    white-noise mass ``w0`` and the fit's root-mean-square error.
    """
    positive = acf > 0
    if positive.sum() < 2:
        raise EstimationError(
            "not enough positive head autocorrelations for an "
            "exponential fit"
        )
    fit = fit_line(lags[positive], np.log(acf[positive]))
    # Take the decay rate from the log-linear slope but anchor the
    # amplitude so the head passes exactly through the first positive
    # lag: (1 - w0) exp(-rate * k1) = r(k1).  Anchoring beats using the
    # regression intercept because a not-quite-exponential head
    # otherwise dumps its curvature into a spurious nugget.
    rate = max(-fit.slope, 1e-12)
    k1 = float(lags[positive][0])
    r1 = float(acf[positive][0])
    amplitude = float(np.clip(r1 * np.exp(rate * k1), 1e-6, 1.0))
    nugget = 1.0 - amplitude
    predicted = (1.0 - nugget) * np.exp(-rate * lags)
    rmse = float(np.sqrt(np.mean((predicted - acf) ** 2)))
    return rate, nugget, rmse


def detect_knee(
    acf: Sequence[float],
    *,
    lrd_exponent: Optional[float] = None,
) -> int:
    """Return the knee lag minimising the combined SRD+LRD fit error.

    ``acf`` is the sample autocorrelation with ``acf[0] = 1``; the
    candidate knees are a 25-point log grid from lag 5 to 60% of the
    available lags.
    """
    arr = check_1d_array(acf, "acf")
    max_lag = arr.size - 1
    upper = min(max(8, int(0.6 * max_lag)), max_lag - 4)
    grid = np.unique(
        np.round(np.logspace(np.log10(5), np.log10(upper), 25))
    )
    best_knee = None
    best_error = np.inf
    for knee in (int(c) for c in grid):
        if knee < 4 or knee > max_lag - 4:
            continue
        try:
            fit = fit_composite_acf(
                arr, knee=knee, lrd_exponent=lrd_exponent
            )
        except (EstimationError, ValidationError):
            continue
        if fit.rmse < best_error:
            best_error = fit.rmse
            best_knee = knee
    if best_knee is None:
        raise EstimationError("no candidate knee produced a valid fit")
    return best_knee


def fit_composite_acf(
    acf: Sequence[float],
    *,
    knee: Optional[int] = None,
    lrd_exponent: Optional[float] = None,
) -> AcfFit:
    """Fit the composite SRD+LRD correlation model to a sample ACF.

    Parameters
    ----------
    acf:
        Sample autocorrelation at lags ``0 .. max_lag`` with
        ``acf[0] = 1`` (as returned by
        :func:`~repro.estimators.acf.sample_acf`).
    knee:
        The knee lag ``Kt``.  ``None`` runs :func:`detect_knee`.
    lrd_exponent:
        Fix the power-law exponent ``gamma`` (e.g. ``2 - 2H`` from a
        Hurst estimate, as the paper does with ``gamma = 0.2``);
        ``None`` fits it freely.

    The exponential head carries a lag-0 white-noise mass (an
    instantaneous drop from ``r(0) = 1``), its amplitude anchored at
    the first positive lag: real traces with per-frame coding noise fit
    markedly better with it than the paper's strict eq. 10-11 form.

    Returns
    -------
    AcfFit
        The fitted model with diagnostics.
    """
    arr = check_1d_array(acf, "acf")
    if arr.size < 10:
        raise ValidationError(
            f"need at least 10 ACF lags to fit, got {arr.size}"
        )
    if abs(arr[0] - 1.0) > 1e-6:
        raise ValidationError(f"acf[0] must be 1, got {arr[0]}")
    if knee is None:
        knee = detect_knee(arr, lrd_exponent=lrd_exponent)
    knee = check_positive_int(knee, "knee")
    max_lag = arr.size - 1
    if not 4 <= knee <= max_lag - 4:
        raise ValidationError(
            f"knee={knee} must leave at least 4 lags on each side of the "
            f"range 1..{max_lag}"
        )

    lags = np.arange(arr.size, dtype=float)
    head_lags = lags[1:knee]
    head_acf = arr[1:knee]
    tail_lags = lags[knee:]
    tail_acf = arr[knee:]

    rate, nugget, srd_rmse = _fit_exponential_head(head_lags, head_acf)
    amplitude, gamma, lrd_rmse = _fit_power_tail(
        tail_lags, tail_acf, lrd_exponent
    )
    # Keep the tail a valid correlation at the knee.
    amplitude = min(amplitude, 0.999 * knee**gamma)
    model = CompositeCorrelation(
        srd_weights=[1.0],
        srd_rates=[rate],
        lrd_amplitude=amplitude,
        lrd_exponent=gamma,
        knee=float(knee),
        nugget=nugget,
    )
    predicted = np.asarray(model(lags[1:]), dtype=float)
    rmse = float(np.sqrt(np.mean((predicted - arr[1:]) ** 2)))
    return AcfFit(
        model=model,
        knee=knee,
        rmse=rmse,
        srd_rmse=srd_rmse,
        lrd_rmse=lrd_rmse,
    )
