"""Correlation (autocorrelation-function) models.

The paper's unified approach is built around the idea that the
*background* Gaussian process is specified directly by its
autocorrelation function ``r(k)``.  This module provides a small
hierarchy of :class:`CorrelationModel` objects that

- evaluate ``r`` at arbitrary (possibly non-integer) lags, which the
  composite MPEG model needs for the lag rescaling ``r(k) = r_I(k / K_I)``
  of eq. 15,
- produce the autocovariance sequence ``r(0), r(1), ..., r(n-1)`` that
  Hosking's generator and the Davies-Harte generator consume, and
- report the implied Hurst parameter when one exists.

The key model is :class:`CompositeCorrelation`, the paper's eq. 10-13
structure: a mixture of decaying exponentials below the "knee" lag
``Kt`` (short-range dependence) and a power law ``L k^{-beta}`` at and
above it (long-range dependence).
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence, Union

import numpy as np
from scipy.special import gammaln

from .._validation import (
    check_1d_array,
    check_hurst,
    check_in_range,
    check_positive_float,
    check_positive_int,
)
from ..exceptions import CorrelationError, ValidationError

__all__ = [
    "CorrelationModel",
    "WhiteNoiseCorrelation",
    "FGNCorrelation",
    "ExponentialCorrelation",
    "ExponentialMixtureCorrelation",
    "PowerLawCorrelation",
    "CompositeCorrelation",
    "FARIMACorrelation",
    "RescaledCorrelation",
]

LagsLike = Union[int, float, Sequence[float], np.ndarray]


class CorrelationModel(abc.ABC):
    """Abstract autocorrelation function ``r(k)`` of a stationary process.

    Subclasses implement :meth:`_evaluate` for strictly positive lags;
    the base class handles ``r(0) = 1``, symmetry ``r(-k) = r(k)``, and
    array/scalar dispatch.
    """

    @abc.abstractmethod
    def _evaluate(self, lags: np.ndarray) -> np.ndarray:
        """Evaluate ``r`` at an array of strictly positive lags."""

    @property
    def hurst(self) -> Optional[float]:
        """The Hurst parameter implied by the tail of ``r``, if any.

        ``None`` for short-range-dependent models whose autocorrelation
        is summable (their nominal Hurst parameter is 0.5).
        """
        return None

    def __call__(self, lags: LagsLike) -> Union[float, np.ndarray]:
        """Evaluate ``r(k)`` at scalar or array ``lags`` (symmetric in k)."""
        scalar = np.isscalar(lags)
        arr = np.atleast_1d(np.asarray(lags, dtype=float))
        if arr.ndim != 1:
            raise ValidationError(
                f"lags must be scalar or one-dimensional, got shape {arr.shape}"
            )
        arr = np.abs(arr)
        out = np.ones_like(arr)
        positive = arr > 0
        if np.any(positive):
            out[positive] = self._evaluate(arr[positive])
        if scalar:
            return float(out[0])
        return out

    def acvf(self, n: int) -> np.ndarray:
        """Return the autocovariance sequence ``r(0), ..., r(n-1)``.

        For the unit-variance processes used throughout the paper the
        autocovariance and autocorrelation coincide.
        """
        n = check_positive_int(n, "n")
        return np.asarray(self(np.arange(n)), dtype=float)


class WhiteNoiseCorrelation(CorrelationModel):
    """Uncorrelated (i.i.d.) process: ``r(k) = 0`` for ``k != 0``."""

    def _evaluate(self, lags: np.ndarray) -> np.ndarray:
        return np.zeros_like(lags)

    def __repr__(self) -> str:
        return "WhiteNoiseCorrelation()"


class FGNCorrelation(CorrelationModel):
    """Exact fractional Gaussian noise autocorrelation.

    .. math::

        r(k) = \\tfrac{1}{2}\\left(|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H}\\right)

    which behaves asymptotically as ``H(2H-1) k^{2H-2}``; for
    ``H > 1/2`` the process is long-range dependent.  This is the
    "third model" of Fig. 17 (LRD only, no explicit SRD component).
    """

    def __init__(self, hurst: float) -> None:
        self._hurst = check_hurst(hurst)

    @property
    def hurst(self) -> float:
        return self._hurst

    def _evaluate(self, lags: np.ndarray) -> np.ndarray:
        two_h = 2.0 * self._hurst
        return 0.5 * (
            np.abs(lags + 1.0) ** two_h
            - 2.0 * np.abs(lags) ** two_h
            + np.abs(lags - 1.0) ** two_h
        )

    def __repr__(self) -> str:
        return f"FGNCorrelation(hurst={self._hurst})"


class ExponentialCorrelation(CorrelationModel):
    """Single decaying exponential ``r(k) = exp(-rate * k)``.

    This is the classic short-range-dependent (Markovian / AR(1)-like)
    autocorrelation; it is the paper's "SRD only" model in Fig. 17.
    """

    def __init__(self, rate: float) -> None:
        self.rate = check_positive_float(rate, "rate")

    def _evaluate(self, lags: np.ndarray) -> np.ndarray:
        return np.exp(-self.rate * lags)

    def __repr__(self) -> str:
        return f"ExponentialCorrelation(rate={self.rate})"


class ExponentialMixtureCorrelation(CorrelationModel):
    """Weighted mixture of decaying exponentials.

    .. math:: r(k) = \\sum_i w_i \\exp(-\\beta_i k), \\qquad \\sum_i w_i = 1

    matching the SRD part of the paper's eq. 10-11.  Weights must be
    non-negative and sum to one so that ``r(0) = 1``.
    """

    def __init__(
        self, weights: Sequence[float], rates: Sequence[float]
    ) -> None:
        self.weights = check_1d_array(weights, "weights")
        self.rates = check_1d_array(rates, "rates")
        if self.weights.size != self.rates.size:
            raise ValidationError(
                "weights and rates must have the same length, got "
                f"{self.weights.size} and {self.rates.size}"
            )
        if np.any(self.weights < 0):
            raise ValidationError("weights must be non-negative")
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValidationError(
                f"weights must sum to 1, got {self.weights.sum()}"
            )
        if np.any(self.rates <= 0):
            raise ValidationError("rates must be positive")

    def _evaluate(self, lags: np.ndarray) -> np.ndarray:
        # Accumulate component by component instead of a (m, j) @ (j,)
        # matmul: BLAS picks length-dependent kernels, so the matmul's
        # value at a fixed lag can change at the last ulp with the
        # number of requested lags.  Elementwise accumulation in fixed
        # component order is length-independent, which the spectral
        # cache's prefix sharing relies on (r(k) must not depend on how
        # many lags were evaluated alongside it).
        out = np.zeros_like(np.asarray(lags, dtype=float))
        for weight, rate in zip(self.weights, self.rates):
            out += weight * np.exp(-rate * lags)
        return out

    def __repr__(self) -> str:
        return (
            f"ExponentialMixtureCorrelation(weights={self.weights.tolist()}, "
            f"rates={self.rates.tolist()})"
        )


class PowerLawCorrelation(CorrelationModel):
    """Pure power-law tail ``r(k) = L k^{-beta}`` for ``k >= 1``.

    ``beta`` in (0, 1) gives a non-summable (long-range dependent)
    autocorrelation with Hurst parameter ``H = 1 - beta/2``.  The
    amplitude ``L`` must keep ``r(1) = L <= 1``.
    """

    def __init__(self, amplitude: float, exponent: float) -> None:
        self.amplitude = check_in_range(
            amplitude, "amplitude", 0.0, 1.0, inclusive_low=False
        )
        self.exponent = check_positive_float(exponent, "exponent")

    @property
    def hurst(self) -> Optional[float]:
        if 0 < self.exponent < 1:
            return 1.0 - self.exponent / 2.0
        return None

    def _evaluate(self, lags: np.ndarray) -> np.ndarray:
        out = self.amplitude * lags ** (-self.exponent)
        # Guard sub-unit lags produced by rescaling: cap at 1.
        return np.minimum(out, 1.0)

    def __repr__(self) -> str:
        return (
            f"PowerLawCorrelation(amplitude={self.amplitude}, "
            f"exponent={self.exponent})"
        )


class CompositeCorrelation(CorrelationModel):
    """The paper's composite SRD + LRD autocorrelation (eq. 10-13).

    .. math::

        r(k) = \\sum_i w_i e^{-\\beta_i k} \\; I(k < K_t)
             + L k^{-\\gamma} \\; I(k \\ge K_t)

    with mixture weights summing to one.  The paper's fitted model for
    the "Last Action Hero" trace is a single exponential,

    .. math:: \\hat r(k) = e^{-0.00565 k} I(k < 60) + 1.59 k^{-0.2} I(k \\ge 60)

    available via :meth:`paper_fit`.

    Parameters
    ----------
    srd_weights, srd_rates:
        Weights ``w_i`` (non-negative, summing to 1) and rates
        ``beta_i > 0`` of the exponential mixture used for ``k < knee``.
    lrd_amplitude, lrd_exponent:
        ``L`` and ``gamma`` of the power-law tail used for ``k >= knee``.
    knee:
        The knee lag ``K_t`` separating SRD from LRD behaviour.
    nugget:
        Optional white-noise mass at lag 0 (an extension beyond the
        strict eq. 10-11 form, where the mixture weights must sum to 1).
        With a nugget ``w_0``, the SRD part for ``0 < k < knee`` is
        ``(1 - w_0) * sum_i w_i exp(-beta_i k)`` with the ``w_i``
        normalized; empirical traces with per-frame coding noise show
        exactly this instantaneous drop from ``r(0) = 1``.
    """

    def __init__(
        self,
        *,
        srd_weights: Sequence[float],
        srd_rates: Sequence[float],
        lrd_amplitude: float,
        lrd_exponent: float,
        knee: float,
        nugget: float = 0.0,
    ) -> None:
        self.nugget = check_in_range(
            nugget, "nugget", 0.0, 1.0, inclusive_high=False
        )
        weights = np.asarray(srd_weights, dtype=float)
        if weights.sum() <= 0:
            raise ValidationError("srd_weights must have positive mass")
        self.srd = ExponentialMixtureCorrelation(
            weights / weights.sum(), srd_rates
        )
        self.knee = check_positive_float(knee, "knee")
        self.lrd_exponent = check_positive_float(lrd_exponent, "lrd_exponent")
        self.lrd_amplitude = check_positive_float(
            lrd_amplitude, "lrd_amplitude"
        )
        # The tail must stay a valid correlation at the knee.
        tail_at_knee = self.lrd_amplitude * self.knee ** (-self.lrd_exponent)
        if tail_at_knee > 1.0 + 1e-9:
            raise ValidationError(
                "power-law tail exceeds 1 at the knee: "
                f"L*knee^-gamma = {tail_at_knee:.4f}"
            )

    @classmethod
    def paper_fit(cls) -> "CompositeCorrelation":
        """Return the paper's fitted model for "Last Action Hero" (eq. 13).

        Note: the printed constants violate the continuity constraint of
        eq. 12 by about 1.3% (``exp(-0.00565*60) = 0.7126`` versus
        ``1.59468 * 60^-0.2 = 0.7032``), which makes the raw piecewise
        function *not* positive definite just past the knee.  This is a
        fitted description of the empirical ACF; before feeding a
        composite model to a generator, enforce continuity with
        :meth:`with_continuity` or :meth:`compensated` (the paper's
        Step 4 does the latter implicitly via eq. 14).
        """
        return cls(
            srd_weights=[1.0],
            srd_rates=[0.00565],
            lrd_amplitude=1.59468,
            lrd_exponent=0.2,
            knee=60.0,
        )

    def with_continuity(self) -> "CompositeCorrelation":
        """Return a copy whose tail amplitude enforces eq. 12 exactly.

        The LRD amplitude is rescaled so that the power-law tail meets
        the exponential mixture at the knee,
        ``L' = SRD(knee) * knee^gamma``.  When the result is also
        :attr:`polya_convex` (head decays at least as steeply as the
        tail at the knee — true for all empirically fitted video
        models, whose SRD decay dominates), Polya's criterion makes the
        correlation positive definite, so it can safely drive Hosking's
        generator; a nugget only adds white noise and preserves
        positive definiteness.
        """
        srd_at_knee = float(self.srd_value(self.knee))
        return CompositeCorrelation(
            srd_weights=self.srd.weights,
            srd_rates=self.srd.rates,
            lrd_amplitude=srd_at_knee * self.knee**self.lrd_exponent,
            lrd_exponent=self.lrd_exponent,
            knee=self.knee,
            nugget=self.nugget,
        )

    @property
    def hurst(self) -> Optional[float]:
        if 0 < self.lrd_exponent < 1:
            return 1.0 - self.lrd_exponent / 2.0
        return None

    @property
    def polya_convex(self) -> bool:
        """True when the model satisfies Polya's sufficient PD condition.

        Polya's criterion guarantees positive definiteness for a
        continuous, convex, decreasing correlation function.  For this
        piecewise model that requires (a) continuity at the knee (a
        tiny gap is tolerated) and (b) the head decaying at least as
        steeply as the tail *at* the knee:

        .. math::

            (1 - w_0) \\sum_i w_i \\beta_i e^{-\\beta_i K_t}
                \\;\\ge\\; \\gamma L K_t^{-\\gamma - 1}.

        Models failing the condition may still be positive definite;
        validate with the Durbin-Levinson recursion when in doubt.
        """
        if self.continuity_gap > 1e-9:
            return False
        head_slope = (1.0 - self.nugget) * float(
            np.sum(
                self.srd.weights
                * self.srd.rates
                * np.exp(-self.srd.rates * self.knee)
            )
        )
        tail_slope = (
            self.lrd_exponent
            * self.lrd_amplitude
            * self.knee ** (-self.lrd_exponent - 1.0)
        )
        return head_slope >= tail_slope - 1e-12

    def srd_value(self, lags: LagsLike) -> Union[float, np.ndarray]:
        """The SRD part ``(1 - nugget) * sum_i w_i exp(-beta_i k)``."""
        value = self.srd(lags)
        scale = 1.0 - self.nugget
        if np.isscalar(value):
            return scale * float(value)
        return scale * np.asarray(value, dtype=float)

    @property
    def continuity_gap(self) -> float:
        """|SRD(knee) - LRD(knee)|: eq. 12 asks this to be small."""
        srd_at_knee = float(self.srd_value(self.knee))
        lrd_at_knee = self.lrd_amplitude * self.knee ** (-self.lrd_exponent)
        return abs(srd_at_knee - lrd_at_knee)

    def _evaluate(self, lags: np.ndarray) -> np.ndarray:
        out = np.empty_like(lags)
        below = lags < self.knee
        if np.any(below):
            out[below] = np.asarray(
                self.srd_value(lags[below]), dtype=float
            )
        above = ~below
        if np.any(above):
            out[above] = np.minimum(
                self.lrd_amplitude * lags[above] ** (-self.lrd_exponent), 1.0
            )
        return out

    def compensated(self, attenuation: float) -> "CompositeCorrelation":
        """Pre-compensate for transform attenuation (Step 4 of §3.2).

        Given the attenuation factor ``a`` of the marginal transform,
        returns the background correlation whose *foreground* image
        matches this model: the tail becomes ``(L/a) k^{-gamma}``, and
        the SRD part is replaced by the single exponential solving
        eq. 14, ``exp(-theta * Kt) = r(Kt) / a``.
        """
        a = check_in_range(
            attenuation, "attenuation", 0.0, 1.0, inclusive_low=False
        )
        target_at_knee = (
            self.lrd_amplitude * self.knee ** (-self.lrd_exponent) / a
        )
        if not 0.0 < target_at_knee < 1.0:
            raise CorrelationError(
                "compensated correlation at the knee must lie in (0, 1), "
                f"got {target_at_knee:.4f}; attenuation {a} is too strong "
                "for this tail amplitude"
            )
        head_scale = 1.0 - self.nugget
        if target_at_knee >= head_scale:
            raise CorrelationError(
                "compensated head cannot reach the knee target "
                f"{target_at_knee:.4f} with a nugget of {self.nugget:.4f}"
            )
        theta = -np.log(target_at_knee / head_scale) / self.knee
        return CompositeCorrelation(
            srd_weights=[1.0],
            srd_rates=[theta],
            lrd_amplitude=self.lrd_amplitude / a,
            lrd_exponent=self.lrd_exponent,
            knee=self.knee,
            nugget=self.nugget,
        )

    def srd_only(self) -> ExponentialMixtureCorrelation:
        """Return the SRD component alone (Fig. 17's "SRD only" model)."""
        return self.srd

    def __repr__(self) -> str:
        return (
            "CompositeCorrelation("
            f"srd_weights={self.srd.weights.tolist()}, "
            f"srd_rates={self.srd.rates.tolist()}, "
            f"lrd_amplitude={self.lrd_amplitude}, "
            f"lrd_exponent={self.lrd_exponent}, knee={self.knee}, "
            f"nugget={self.nugget})"
        )


class FARIMACorrelation(CorrelationModel):
    """Autocorrelation of a FARIMA(0, d, 0) process (Hosking 1981).

    .. math::

        r(k) = \\frac{\\Gamma(k + d)\\,\\Gamma(1 - d)}{\\Gamma(k - d + 1)\\,\\Gamma(d)}

    valid for ``0 < d < 1/2``; the implied Hurst parameter is
    ``H = d + 1/2``.  Evaluation uses log-gamma for numerical stability
    and supports non-integer lags (needed by lag rescaling).
    """

    def __init__(self, d: float) -> None:
        self.d = check_in_range(
            d, "d", 0.0, 0.5, inclusive_low=False, inclusive_high=False
        )

    @classmethod
    def from_hurst(cls, hurst: float) -> "FARIMACorrelation":
        """Build from a Hurst parameter via ``d = H - 1/2``."""
        hurst = check_hurst(hurst)
        if hurst <= 0.5:
            raise ValidationError(
                f"FARIMA(0,d,0) requires H > 1/2, got {hurst}"
            )
        return cls(hurst - 0.5)

    @property
    def hurst(self) -> float:
        return self.d + 0.5

    def _evaluate(self, lags: np.ndarray) -> np.ndarray:
        d = self.d
        log_r = (
            gammaln(lags + d)
            - gammaln(lags - d + 1.0)
            + gammaln(1.0 - d)
            - gammaln(d)
        )
        return np.exp(log_r)

    def __repr__(self) -> str:
        return f"FARIMACorrelation(d={self.d})"


class RescaledCorrelation(CorrelationModel):
    """Lag-rescaled correlation ``r(k) = base(k / scale)`` (eq. 15).

    The composite MPEG model estimates the autocorrelation ``r_I`` of
    the I-frame subsequence (one sample every ``K_I = 12`` frames) and
    stretches it to frame resolution by evaluating at ``k / K_I``.
    """

    def __init__(self, base: CorrelationModel, scale: float) -> None:
        if not isinstance(base, CorrelationModel):
            raise ValidationError(
                f"base must be a CorrelationModel, got {type(base).__name__}"
            )
        self.base = base
        self.scale = check_positive_float(scale, "scale")

    @property
    def hurst(self) -> Optional[float]:
        return self.base.hurst

    def _evaluate(self, lags: np.ndarray) -> np.ndarray:
        return np.asarray(self.base(lags / self.scale), dtype=float)

    def __repr__(self) -> str:
        return f"RescaledCorrelation(base={self.base!r}, scale={self.scale})"

