"""The marginal inversion transform ``Y = h(X)`` (paper eq. 7).

Given a zero-mean unit-variance Gaussian background process ``X`` and a
target marginal ``F_Y``, the foreground process is

.. math:: Y_k = h(X_k) = F_Y^{-1}(\\Phi(X_k))

where ``Phi`` is the standard normal CDF.  The transform is monotone
non-decreasing, so by the paper's Appendix A theorem the foreground
keeps the background's Hurst parameter, with the ACF attenuated by the
factor computed in :mod:`repro.marginals.attenuation`.

For a Gamma target, ``h`` is read from a table, as the paper builds it:
a uniform grid of ``2^16 + 1`` background values over ``|x| <= 5.5``,
read by direct index and linear interpolation.  Outside the grid (and
at ``±inf`` and NaN) ``h`` is the exact formula.
"""

from __future__ import annotations

import threading
from typing import Optional, Tuple, Union

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

# The Gamma table's x-grid.  The nodes ``-5.5 + i * 11 / 2^16`` are
# exact doubles, and ``(x + 5.5) / step`` maps each one exactly onto
# its index, so a node reads the exact formula's bits.
_GRID_EDGE = 5.5
_GRID_NODES = (1 << 16) + 1
_GRID_STEP = 2.0 * _GRID_EDGE / (_GRID_NODES - 1)
#: Samples read per pass: the read's temporaries stay this small
#: (two 256 KiB buffers) whatever the block size.
_READ_SLICE = 1 << 15
#: Serializes lazy table builds across pool threads.
_BUILD_LOCK = threading.Lock()


def _monotone_slopes(nodes: np.ndarray) -> np.ndarray:
    """Cell slopes ``d`` of non-decreasing ``nodes`` with
    ``nodes[i] + d[i] <= nodes[i + 1]`` exactly in floating point.

    ``np.diff`` rounds, and a rounded-up slope lets a read near the
    right end of a cell overshoot the next node; each such slope is
    nudged down an ulp at a time until the sum lands on or below it.
    """
    slopes = np.diff(nodes)
    over = nodes[:-1] + slopes > nodes[1:]
    while over.any():
        slopes[over] = np.nextafter(slopes[over], -np.inf)
        over = nodes[:-1] + slopes > nodes[1:]
    return slopes


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

    A Gamma target's ``h`` is tabulated on first use (see the module
    docstring) from the exact formula: ``gammaincinv(shape,
    clip(Phi(x))) * scale`` below 0 and its upper-tail form
    ``gammainccinv(shape, Phi(-x)) * scale`` from 0 up.  The table
    keeps ``h`` monotone in floating point, and it meets the exact
    formula at every node, at ``|x| > 5.5``, at ``±inf`` and at NaN.
    Between nodes, ``|h_table(x) - h(x)| <= 1e-7 * max(h(x), E[Y])``
    for shape >= 0.05 and ``<= 1e-8 * max(h(x), E[Y])`` for shape >= 1.
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
        # Fast paths for the two marginals the aggregate engine hammers
        # (one transform pass per generation block).  Normal: h(x) =
        # mu + sigma x exactly — Phi then Phi^{-1} cancel, so the
        # affine form is the *more* accurate one (and skips the copula
        # clip, which only exists to keep unbounded ppf's finite at |x|
        # beyond ~8).  Gamma: the eq. 7 table, built on first use.
        self._fast: str = "generic"
        if isinstance(target, NormalDistribution):
            self._fast = "normal"
        elif isinstance(target, GammaDistribution):
            self._fast = "gamma"
        self._table: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _apply(self, x_arr: np.ndarray) -> np.ndarray:
        """The array core of ``h`` (fast paths + generic fallback)."""
        if self._fast == "normal":
            return self.target.mu + self.target.sigma * x_arr
        if self._fast == "gamma":
            return self._read_gamma_table(x_arr)
        u = np.clip(special.ndtr(x_arr), _U_FLOOR, _U_CEIL)
        return self.target.ppf(u)

    def _gamma_unit(self, x: np.ndarray) -> np.ndarray:
        """The exact Gamma ``h`` at unit scale.

        On the clipped uniforms, all inside (0, 1), the target's ppf
        (and scipy.stats.gamma's) reduces to ``gammaincinv(shape, u)``
        times the scale.  For ``x >= 0`` that uniform is
        ``1 - Phi(-x)``, which cancels as ``x`` grows, so the upper half
        inverts the upper tail ``Phi(-x)`` instead: ``gammainccinv(shape,
        Phi(-x))``, floored at ``_U_FLOOR`` so that ``+inf`` maps to a
        finite value.  The split takes ``x = ±0`` into the upper half,
        so the node at 0 and the points that read it (the positive
        subnormals) carry the same bits.
        """
        shape = self.target.shape
        out = np.empty(x.shape)
        upper = x >= 0
        out[~upper] = special.gammaincinv(
            shape, np.clip(special.ndtr(x[~upper]), _U_FLOOR, _U_CEIL)
        )
        out[upper] = special.gammainccinv(
            shape, np.maximum(special.ndtr(-x[upper]), _U_FLOOR)
        )
        return out

    def _gamma_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """The unit-scale node values and cell slopes, built once.

        Every thread that races the first build gets the same bits.
        """
        if self._table is None:
            with _BUILD_LOCK:
                if self._table is None:
                    nodes = self._gamma_unit(
                        -_GRID_EDGE + _GRID_STEP * np.arange(_GRID_NODES)
                    )
                    self._table = (nodes, _monotone_slopes(nodes))
        return self._table

    def _read_gamma_table(self, x: np.ndarray) -> np.ndarray:
        """Gamma ``h``: the table inside the grid, the exact formula
        outside it, one slice of at most ``_READ_SLICE`` samples at a
        time."""
        nodes, slopes = self._gamma_table()
        scale = self.target.scale
        last = _GRID_NODES - 1
        out = np.empty(x.shape)
        if not out.size:
            return out
        # Rows of the last axis.  An engine block is a row view of a
        # wider synthesis buffer, which a flat reshape would copy.
        rows = x.reshape(-1, x.shape[-1]) if x.ndim > 1 else x.reshape(1, -1)
        out_rows = out.reshape(rows.shape)
        width = rows.shape[1]
        rows_per_slice = max(1, _READ_SLICE // width)
        cell = np.empty(min(x.size, _READ_SLICE), dtype=np.intp)
        rise = np.empty(cell.size)
        for row in range(0, rows.shape[0], rows_per_slice):
            for col in range(0, width, _READ_SLICE):
                span = (slice(row, row + rows_per_slice),
                        slice(col, col + _READ_SLICE))
                xs, ys = rows[span], out_rows[span]
                k = cell[:xs.size].reshape(xs.shape)
                r = rise[:xs.size].reshape(xs.shape)
                # Fractional grid position, in the output slice; fmax /
                # fmin also map NaN to 0, so every index is valid before
                # the cast.
                np.add(xs, _GRID_EDGE, out=ys)
                np.divide(ys, _GRID_STEP, out=ys)
                np.fmax(ys, 0.0, out=ys)
                np.fmin(ys, last, out=ys)
                np.copyto(k, ys, casting="unsafe")
                np.minimum(k, last - 1, out=k)
                ys -= k
                np.take(slopes, k, out=r, mode="clip")
                r *= ys
                np.take(nodes, k, out=ys, mode="clip")
                ys += r
                ys *= scale
                if not (xs.min() >= -_GRID_EDGE
                        and xs.max() <= _GRID_EDGE):
                    outside = ~(np.abs(xs) <= _GRID_EDGE)
                    ys[outside] = self._gamma_unit(xs[outside]) * scale
        return out

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
