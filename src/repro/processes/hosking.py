"""Hosking's exact generator for correlated Gaussian processes.

This is the generation engine of the paper (§2, eq. 1-6): given the
autocorrelation ``r(k)`` of a zero-mean Gaussian process, samples are
drawn sequentially from the exact conditional distributions

.. math::

    X_k \\mid x_{k-1}, ..., x_0 \\sim
        N\\Big(\\sum_{j=1}^{k} \\phi_{kj} x_{k-j},\\; v_k\\Big)

with coefficients produced by the Durbin-Levinson recursion.  The
method is *exact* for any positive-definite ``r`` but costs O(n^2)
per realisation, which the paper notes is computationally demanding --
and which motivates both its importance-sampling scheme and our
batch-vectorised implementation.

:func:`hosking_generate` draws ``size`` independent replications that
share one Durbin-Levinson pass.  The coefficient recursion runs once
regardless of the batch size, and each step's conditional means for all
replications are computed with a single matrix-vector product, so
generating 1000 replications is far cheaper than 1000 single runs (see
the ablation bench).  The importance-sampling estimators weigh whole
paths by Appendix B's likelihood ratios (eq. 42-48), summed in closed
form from the same coefficients (:mod:`repro.simulation.importance`).

The horizon picks the coefficient source.  A horizon the coefficient
cache keeps (``n`` at most its ``max_cached_horizon``, 4096; see
:func:`~repro.processes.coeff_table.coefficient_cache_info`)
reads the shared :class:`~repro.processes.coeff_table.CoefficientTable`,
so repeated runs over the same background model — the buffer sweeps
and twist scans of Figs. 14-17 — pay for the recursion once.  A longer
horizon runs the recursion in step with generation instead of building
an unshared table of ``~n^2 / 2`` doubles (258 MiB at ``n = 8192``).
Both sources yield the same bits, because the table stores exactly the
recursion's outputs.

The conditional means run on a *negative-strided* reversed view of
the history, ``x[:, k-1::-1][:, :k] @ phi``, which numpy reduces with
its internal pairwise-summation loop rather than BLAS.  Every
alternative layout we measured — a contiguous copy, a positive-strided
slice of a reversed buffer, ``einsum`` — changes the reduction order
and therefore the bits, so the loop below re-materializes the reversed
view each step and its seeded outputs stay pinned bit for bit.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from .._validation import check_finite_float, check_positive_int
from ..exceptions import GenerationError, ValidationError
from ..stats.random import RandomState, make_rng
from .acvf_cache import resolve_acvf
from .coeff_table import coefficient_cache_info, get_coefficient_table
from .correlation import CorrelationModel
from .partial_corr import DurbinLevinson

__all__ = ["hosking_generate"]


class _Coefficients:
    """The Durbin-Levinson outputs of one ``n``-sample run, in step order.

    Reads the shared cached table when the coefficient cache keeps a
    horizon of ``n``, and otherwise advances a private recursion as the
    loop asks for rows (see the module docstring).  Rows are read-only
    views, valid until the next row is requested.
    """

    def __init__(
        self, correlation: Union[CorrelationModel, Sequence[float]], n: int
    ) -> None:
        self._n = n
        if n <= coefficient_cache_info().max_cached_horizon:
            self._table = get_coefficient_table(correlation, n)
            self._state = None
            self.variance0 = self._table.variance(0)
        else:
            self._table = None
            self._state = DurbinLevinson(resolve_acvf(correlation, n))
            self.variance0 = self._state.variance

    def rows(self) -> Iterator[Tuple[np.ndarray, float]]:
        """Yield ``(phi_k, sqrt(v_k))`` for steps ``k = 1 .. n-1``."""
        if self._table is None:
            for _ in range(1, self._n):
                phi, variance = self._state.advance()
                yield phi, np.sqrt(variance)
            return
        packed = self._table.packed_rows(self._n)
        sqrt_variances = self._table.sqrt_variances(self._n)
        offset = 0
        for k in range(1, self._n):
            yield packed[offset : offset + k], sqrt_variances[k]
            offset += k


def hosking_generate(
    correlation: Union[CorrelationModel, Sequence[float]],
    n: int,
    *,
    size: Optional[int] = None,
    mean: float = 0.0,
    random_state: RandomState = None,
    innovations: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Generate exact Gaussian sample paths with correlation ``r(k)``.

    Parameters
    ----------
    correlation:
        A :class:`~repro.processes.correlation.CorrelationModel` or an
        explicit autocovariance sequence ``r(0), r(1), ...`` with
        ``r(0)`` equal to the desired variance (1 for the paper's
        background processes).
    n:
        Length of each sample path.  It also picks the coefficient
        source: the shared cached table when the coefficient cache
        keeps a horizon of ``n``, else the recursion run in step (same
        bits either way; see the module docstring).
    size:
        Number of independent replications.  ``None`` returns a 1-D
        array of length ``n``; an integer returns shape ``(size, n)``.
    mean:
        Process mean (added after generation; the conditional recursion
        operates on the zero-mean process).
    random_state:
        Seed or generator for the innovations.
    innovations:
        Optional pre-drawn standard-normal innovations of shape
        ``(size, n)`` — or exactly ``(n,)`` when ``size is None`` —
        useful for common-random-number experiments and tests.  The
        declared shape is validated strictly; arrays that merely have
        the right number of elements are rejected, and so are
        non-finite values.

    Returns
    -------
    numpy.ndarray
        Sample paths, shape ``(n,)`` or ``(size, n)``.
    """
    n = check_positive_int(n, "n")
    flat = size is None
    batch = 1 if flat else check_positive_int(size, "size")
    mean = check_finite_float(mean, "mean")

    if innovations is None:
        rng = make_rng(random_state)
        z = rng.standard_normal((batch, n))
    else:
        z = np.asarray(innovations, dtype=float)
        expected = (n,) if flat else (batch, n)
        if z.shape != expected:
            raise ValidationError(
                f"innovations must have shape {expected}, got {z.shape}"
            )
        if not np.all(np.isfinite(z)):
            raise ValidationError(
                "innovations must contain only finite values"
            )
        if flat:
            z = z.reshape(1, n)

    coefficients = _Coefficients(correlation, n)
    # Kept byte-for-byte as the historical loop (including the per-step
    # reversed-view re-materialization) — see the module docstring for
    # why any layout change here would alter the bits.
    x = np.empty((batch, n), dtype=float)
    x[:, 0] = np.sqrt(coefficients.variance0) * z[:, 0]
    for k, (phi, sqrt_variance) in enumerate(coefficients.rows(), start=1):
        # m_k = sum_j phi_kj x_{k-j}  for every replication at once.
        history = x[:, k - 1 :: -1][:, :k]
        x[:, k] = history @ phi + sqrt_variance * z[:, k]
    x += mean
    return x[0] if flat else x


class HoskingProcess:
    """Inert stand-in for the deleted step-at-a-time generator.

    ``perfbench/tracing.py`` still lists ``HoskingProcess.step`` among
    its ``LAYER_PATCHES`` and reads it from this class's ``__dict__`` in
    every traced benchmark pass, so the name has to resolve until the
    benchmark drops that patch.  Nothing constructs it; use
    :func:`hosking_generate`.
    """

    def step(self):
        raise GenerationError(
            "HoskingProcess was removed; use hosking_generate"
        )
