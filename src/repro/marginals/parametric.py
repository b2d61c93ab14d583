"""Parametric marginal distributions.

All distributions implement the small :class:`MarginalDistribution`
interface consumed by :class:`~repro.marginals.transform.MarginalTransform`:
a CDF, an inverse CDF (``ppf``), and first moments.  Included are the
distributions the VBR video literature actually uses:

- Gamma — body of the frame-size distribution (Garrett & Willinger '94),
- Pareto — the heavy tail responsible for the "long tail ... far from
  Gaussian" the paper observes (§3),
- GammaPareto — the combined Gamma body / Pareto tail model of
  Garrett & Willinger, the paper's reference [7],
- Lognormal and Normal — common baselines.

Gamma, Pareto, Lognormal and Normal are closed forms over
:mod:`scipy.special` ufuncs and numpy that return the bits of the
frozen :mod:`scipy.stats` distribution with the same parameters,
conventions included: ``ppf`` is NaN outside ``[0, 1]`` and at NaN and
takes the support's edges at 0 and 1; ``cdf`` is 0 below the support,
1 above it and NaN at NaN; a scalar argument gives a numpy scalar.
``scipy.stats`` costs more than half a second to import, so no module
of the package loads it.
"""

from __future__ import annotations

import abc
from typing import Union

import numpy as np
from scipy import special

from .._validation import (
    check_finite_float,
    check_in_range,
    check_positive_float,
)
from ..exceptions import ValidationError

__all__ = [
    "MarginalDistribution",
    "GammaDistribution",
    "ParetoDistribution",
    "GammaParetoDistribution",
    "LognormalDistribution",
    "NormalDistribution",
]

ArrayLike = Union[float, np.ndarray]


class MarginalDistribution(abc.ABC):
    """Minimal distribution interface for marginal modeling."""

    @abc.abstractmethod
    def cdf(self, x: ArrayLike) -> ArrayLike:
        """Cumulative distribution function."""

    @abc.abstractmethod
    def ppf(self, q: ArrayLike) -> ArrayLike:
        """Inverse CDF (quantile function) for ``q`` in [0, 1]."""

    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """Distribution mean."""

    @property
    @abc.abstractmethod
    def variance(self) -> float:
        """Distribution variance."""

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` samples by inverse-CDF sampling."""
        return np.asarray(self.ppf(rng.uniform(size=n)), dtype=float)


def _core_args(valid: np.ndarray, z: np.ndarray, params: tuple) -> tuple:
    """A core's arguments, laid out as ``scipy.stats`` lays them out.

    Where ``valid`` holds everywhere the core sees all of ``z``
    (raveled) with each shape parameter broadcast to its size; else it
    sees the valid entries with each parameter as a 1-element array.
    The layout decides some bits: numpy's power loop computes a
    stride-0 exponent of -1 as a reciprocal, so a Pareto with
    ``alpha = 1`` returns scipy's values only in scipy's layout.
    """
    if valid.all():
        return (z.ravel(),) + tuple(np.full(z.size, p) for p in params)
    return (z[valid],) + tuple(np.array([p]) for p in params)


def _cdf(z: np.ndarray, lower: float, core, *params):
    """``scipy.stats``' cdf of the standardized argument ``z``.

    ``core`` is evaluated inside the open support ``(lower, inf)``;
    at or below ``lower`` the cdf is 0, at ``inf`` 1, at NaN NaN.
    """
    inside = (lower < z) & (z < np.inf)
    out = np.zeros(z.shape)
    out[np.isnan(z)] = np.nan
    out[z == np.inf] = 1.0
    if inside.any():
        out[inside] = core(*_core_args(inside, z, params))
    return out[()]


def _ppf(q: ArrayLike, lower: float, core, *params):
    """``scipy.stats``' ppf: ``core`` inside (0, 1), the support's
    edges ``lower`` and ``inf`` at 0 and 1, NaN elsewhere."""
    q = np.asarray(q, dtype=float)
    inside = (0.0 < q) & (q < 1.0)
    out = np.full(q.shape, np.nan)
    out[q == 0.0] = lower
    out[q == 1.0] = np.inf
    if inside.any():
        out[inside] = core(*_core_args(inside, q, params))
    return out[()]


class GammaDistribution(MarginalDistribution):
    """Gamma distribution with shape ``k`` and scale ``theta``."""

    def __init__(self, shape: float, scale: float) -> None:
        self.shape = check_positive_float(shape, "shape")
        self.scale = check_positive_float(scale, "scale")

    def cdf(self, x: ArrayLike) -> ArrayLike:
        z = np.asarray(x, dtype=float) / self.scale
        return _cdf(z, 0.0, lambda z, a: special.gammainc(a, z), self.shape)

    def ppf(self, q: ArrayLike) -> ArrayLike:
        return _ppf(
            q,
            0.0,
            lambda q, a: special.gammaincinv(a, q) * self.scale,
            self.shape,
        )

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    @property
    def variance(self) -> float:
        return self.shape * self.scale * self.scale

    def __repr__(self) -> str:
        return f"GammaDistribution(shape={self.shape}, scale={self.scale})"


class ParetoDistribution(MarginalDistribution):
    """Pareto distribution: ``P(X > x) = (xm / x)^alpha`` for ``x >= xm``."""

    def __init__(self, alpha: float, xm: float) -> None:
        self.alpha = check_positive_float(alpha, "alpha")
        self.xm = check_positive_float(xm, "xm")

    def cdf(self, x: ArrayLike) -> ArrayLike:
        z = np.asarray(x, dtype=float) / self.xm
        return _cdf(z, 1.0, lambda z, b: 1 - z ** (-b), self.alpha)

    def ppf(self, q: ArrayLike) -> ArrayLike:
        return _ppf(
            q,
            self.xm,
            lambda q, b: (1 - q) ** (-1.0 / b) * self.xm,
            self.alpha,
        )

    @property
    def mean(self) -> float:
        b = self.alpha
        return b / (b - 1.0) * self.xm if b > 1.0 else np.inf

    @property
    def variance(self) -> float:
        b = self.alpha
        if b <= 2.0:
            return np.inf
        return b / (b - 2.0) / ((b - 1.0) * (b - 1.0)) * self.xm * self.xm

    def __repr__(self) -> str:
        return f"ParetoDistribution(alpha={self.alpha}, xm={self.xm})"


class LognormalDistribution(MarginalDistribution):
    """Lognormal distribution of ``exp(N(mu, sigma^2))``."""

    def __init__(self, mu: float, sigma: float) -> None:
        self.mu = check_finite_float(mu, "mu")
        self.sigma = check_positive_float(sigma, "sigma")
        with np.errstate(over="ignore"):
            self._scale = float(np.exp(self.mu))
        if not 0.0 < self._scale < np.inf:
            raise ValidationError(
                f"mu must keep exp(mu) positive and finite, got {self.mu}"
            )

    def cdf(self, x: ArrayLike) -> ArrayLike:
        z = np.asarray(x, dtype=float) / self._scale
        return _cdf(
            z, 0.0, lambda z, s: special.ndtr(np.log(z) / s), self.sigma
        )

    def ppf(self, q: ArrayLike) -> ArrayLike:
        return _ppf(
            q,
            0.0,
            lambda q, s: np.exp(s * special.ndtri(q)) * self._scale,
            self.sigma,
        )

    @property
    def mean(self) -> float:
        p = np.exp(self.sigma * self.sigma)
        return float(np.sqrt(p) * self._scale)

    @property
    def variance(self) -> float:
        p = np.exp(self.sigma * self.sigma)
        return float(p * (p - 1) * self._scale * self._scale)

    def __repr__(self) -> str:
        return f"LognormalDistribution(mu={self.mu}, sigma={self.sigma})"


class NormalDistribution(MarginalDistribution):
    """Normal distribution N(mu, sigma^2)."""

    def __init__(self, mu: float = 0.0, sigma: float = 1.0) -> None:
        self.mu = check_finite_float(mu, "mu")
        self.sigma = check_positive_float(sigma, "sigma")

    def cdf(self, x: ArrayLike) -> ArrayLike:
        z = (np.asarray(x, dtype=float) - self.mu) / self.sigma
        return _cdf(z, -np.inf, special.ndtr)

    def ppf(self, q: ArrayLike) -> ArrayLike:
        return _ppf(
            q, -np.inf, lambda q: special.ndtri(q) * self.sigma + self.mu
        )

    @property
    def mean(self) -> float:
        return self.mu

    @property
    def variance(self) -> float:
        return self.sigma * self.sigma

    def __repr__(self) -> str:
        return f"NormalDistribution(mu={self.mu}, sigma={self.sigma})"


class GammaParetoDistribution(MarginalDistribution):
    """Gamma body with a Pareto tail (Garrett & Willinger 1994).

    The distribution follows a Gamma law up to the splice point and a
    Pareto law beyond it:

    .. math::

        F(x) = \\begin{cases}
            F_\\Gamma(x) & x \\le x_c \\\\
            F_\\Gamma(x_c) + (1 - F_\\Gamma(x_c))
                \\big(1 - (x_c / x)^{\\alpha}\\big) & x > x_c
        \\end{cases}

    so the tail mass ``1 - F_Gamma(x_c)`` is redistributed as a Pareto
    with scale ``x_c``.  The CDF is continuous and strictly increasing,
    making the inverse well defined piecewise.

    Parameters
    ----------
    shape, scale:
        Gamma body parameters.
    tail_alpha:
        Pareto tail index (smaller = heavier tail; < 2 gives infinite
        variance, matching measured MPEG frame-size tails).
    splice_quantile:
        Quantile of the Gamma body where the tail takes over
        (default 0.97, in the range Garrett & Willinger report).
    """

    def __init__(
        self,
        shape: float,
        scale: float,
        tail_alpha: float,
        *,
        splice_quantile: float = 0.97,
    ) -> None:
        self.gamma = GammaDistribution(shape, scale)
        self.tail_alpha = check_positive_float(tail_alpha, "tail_alpha")
        self.splice_quantile = check_in_range(
            splice_quantile,
            "splice_quantile",
            0.0,
            1.0,
            inclusive_low=False,
            inclusive_high=False,
        )
        self.splice_point = float(self.gamma.ppf(self.splice_quantile))
        if self.splice_point <= 0:
            raise ValidationError(
                "splice point must be positive; check the Gamma parameters"
            )
        self._body_mass = self.splice_quantile
        self._tail_mass = 1.0 - self.splice_quantile
        self._pareto = ParetoDistribution(self.tail_alpha, self.splice_point)

    def cdf(self, x: ArrayLike) -> ArrayLike:
        x_arr = np.asarray(x, dtype=float)
        body = np.asarray(self.gamma.cdf(x_arr), dtype=float)
        tail = self._body_mass + self._tail_mass * np.asarray(
            self._pareto.cdf(x_arr), dtype=float
        )
        out = np.where(x_arr <= self.splice_point, body, tail)
        return float(out) if np.isscalar(x) else out

    def ppf(self, q: ArrayLike) -> ArrayLike:
        q_arr = np.asarray(q, dtype=float)
        body = np.asarray(self.gamma.ppf(np.minimum(q_arr, self._body_mass)))
        tail_q = np.clip(
            (q_arr - self._body_mass) / max(self._tail_mass, 1e-300), 0.0, 1.0
        )
        tail = np.asarray(self._pareto.ppf(tail_q), dtype=float)
        out = np.where(q_arr <= self._body_mass, body, tail)
        return float(out) if np.isscalar(q) else out

    @property
    def mean(self) -> float:
        # E[X] = E[X; body] + tail_mass * E[Pareto].
        body_part = self._truncated_gamma_mean()
        if self.tail_alpha <= 1.0:
            return float("inf")
        tail_mean = (
            self.tail_alpha * self.splice_point / (self.tail_alpha - 1.0)
        )
        return body_part + self._tail_mass * tail_mean

    @property
    def variance(self) -> float:
        if self.tail_alpha <= 2.0:
            return float("inf")
        # Second moment: body piece by quadrature, tail in closed form.
        qs = np.linspace(0.0, self._body_mass, 4097)[1:]
        xs = np.asarray(self.gamma.ppf(qs), dtype=float)
        body_second = float(np.trapezoid(xs**2, qs))
        tail_second = (
            self.tail_alpha
            * self.splice_point**2
            / (self.tail_alpha - 2.0)
        )
        second = body_second + self._tail_mass * tail_second
        return second - self.mean**2

    def _truncated_gamma_mean(self) -> float:
        """E[X; X <= splice] of the Gamma body (exact via Gamma identity)."""
        k, theta = self.gamma.shape, self.gamma.scale
        inner = GammaDistribution(k + 1.0, theta)
        return k * theta * float(inner.cdf(self.splice_point))

    def __repr__(self) -> str:
        return (
            f"GammaParetoDistribution(shape={self.gamma.shape}, "
            f"scale={self.gamma.scale}, tail_alpha={self.tail_alpha}, "
            f"splice_quantile={self.splice_quantile})"
        )
