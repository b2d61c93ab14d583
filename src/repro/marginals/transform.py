"""The marginal inversion transform ``Y = h(X)`` (paper eq. 7).

Given a zero-mean unit-variance Gaussian background process ``X`` and a
target marginal ``F_Y``, the foreground process is

.. math:: Y_k = h(X_k) = F_Y^{-1}(\\Phi(X_k))

where ``Phi`` is the standard normal CDF.  The transform is monotone
non-decreasing, so by the paper's Appendix A theorem the foreground
keeps the background's Hurst parameter, with the ACF attenuated by the
factor computed in :mod:`repro.marginals.attenuation`.
"""

from __future__ import annotations

from typing import Union

import numpy as np
from scipy import special

from ..exceptions import ValidationError
from .parametric import (
    GammaDistribution,
    MarginalDistribution,
    NormalDistribution,
)

__all__ = ["MarginalTransform"]

ArrayLike = Union[float, np.ndarray]

# Copula uniforms are kept strictly inside (0, 1) so targets with
# unbounded support never evaluate ppf at exactly 0 or 1 (which would
# produce infinities at extreme background values, e.g. Gauss-Hermite
# quadrature nodes beyond |x| ~ 8 where Phi(x) rounds to 1.0).
_U_FLOOR = 1e-300
_U_CEIL = float(np.nextafter(1.0, 0.0))


class MarginalTransform:
    """Gaussian-copula marginal transform ``h(x) = F_Y^{-1}(Phi(x))``.

    Parameters
    ----------
    target:
        The target marginal distribution ``F_Y`` (empirical or
        parametric).

    Notes
    -----
    ``h`` is monotone non-decreasing because both ``Phi`` and
    ``F_Y^{-1}`` are.  The inverse mapping
    ``h^{-1}(y) = Phi^{-1}(F_Y(y))`` recovers background values from
    foreground ones and is used in tests of the Appendix A theorem.
    """

    def __init__(self, target: MarginalDistribution) -> None:
        if not isinstance(target, MarginalDistribution):
            raise ValidationError(
                "target must be a MarginalDistribution, got "
                f"{type(target).__name__}"
            )
        self.target = target
        # Phi / Phi^{-1} are the scipy.special ufuncs ndtr / ndtri on
        # every branch: scipy.stats.norm's cdf / ppf return the same
        # bits (loc = 0, scale = 1 are exact) behind per-call dispatch
        # that costs ~20x the ufunc on the IS loop's ~100-sample steps.
        # Closed-form fast paths for the two marginals the aggregate
        # engine hammers (one transform pass per generation block).
        # Normal: h(x) = mu + sigma x exactly — Phi then Phi^{-1}
        # cancel, so the affine form is the *more* accurate one (and
        # skips the copula clip, which only exists to keep unbounded
        # ppf's finite at |x| beyond ~8).  Gamma: on the clipped
        # uniforms, all inside (0, 1), the target's ppf (and
        # scipy.stats.gamma's) reduces to gammaincinv(shape, u) * scale
        # — calling the ufunc directly skips the masking, bit for bit.
        self._fast: str = "generic"
        if isinstance(target, NormalDistribution):
            self._fast = "normal"
        elif isinstance(target, GammaDistribution):
            self._fast = "gamma"

    def _apply(self, x_arr: np.ndarray) -> np.ndarray:
        """The array core of ``h`` (fast paths + generic fallback)."""
        if self._fast == "normal":
            return self.target.mu + self.target.sigma * x_arr
        u = np.clip(special.ndtr(x_arr), _U_FLOOR, _U_CEIL)
        if self._fast == "gamma":
            out = special.gammaincinv(self.target.shape, u)
            out *= self.target.scale
            return out
        return self.target.ppf(u)

    def __call__(self, x: ArrayLike) -> ArrayLike:
        """Apply ``h`` to background samples (any shape)."""
        x_arr = np.asarray(x, dtype=float)
        out = self._apply(x_arr)
        if np.isscalar(x):
            return float(out)
        return np.asarray(out, dtype=float).reshape(x_arr.shape)

    def inverse(self, y: ArrayLike) -> ArrayLike:
        """Apply ``h^{-1}(y) = Phi^{-1}(F_Y(y))``.

        Values outside the target's support map to ``±inf``, matching
        the convention of :func:`scipy.stats.norm.ppf` (``Phi^{-1}`` is
        its ufunc core, :func:`scipy.special.ndtri`).
        """
        y_arr = np.asarray(y, dtype=float)
        u = np.asarray(self.target.cdf(y_arr), dtype=float)
        out = special.ndtri(u)
        if np.isscalar(y):
            return float(out)
        return np.asarray(out, dtype=float).reshape(y_arr.shape)

    def table(self, x_grid: ArrayLike) -> np.ndarray:
        """Evaluate ``h`` on a grid (used to draw the paper's Fig. 2)."""
        return np.asarray(self(np.asarray(x_grid, dtype=float)))

    def __repr__(self) -> str:
        return f"MarginalTransform(target={self.target!r})"
