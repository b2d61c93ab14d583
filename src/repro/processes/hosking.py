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
cache keeps (``n`` at most its ``max_cached_horizon``, 4096 by default;
see :func:`~repro.processes.coeff_table.set_coefficient_cache_limits`)
reads the shared :class:`~repro.processes.coeff_table.CoefficientTable`,
so repeated runs over the same background model — the buffer sweeps
and twist scans of Figs. 14-17 — pay for the recursion once.  A longer
horizon runs the recursion in step with generation instead of building
an unshared table of ``~n^2 / 2`` doubles (258 MiB at ``n = 8192``).
Both sources yield the same bits, because the table stores exactly the
recursion's outputs.

``block_size=B`` routes generation through the blocked BLAS-3 kernel of
:mod:`~repro.processes.hosking_blocked`, which computes each block's
old-history contribution to all ``B`` conditional means with a single
GEMM.  ``block_size=1`` (the default) is the documented exact bypass:
it runs the untouched per-step loop below and reproduces historical
outputs bit for bit.  Blocked outputs (``B > 1``) match to floating-
point reordering only — ``allclose`` at ``rtol <= 1e-10`` — because
splitting a conditional mean into an old-history partial sum and a
within-block partial sum changes the accumulation order.  A note on
why the bypass must keep the *exact* legacy formulation: numpy
evaluates ``x[:, k-1::-1][:, :k] @ phi`` (a negative-strided view)
with its internal pairwise-summation loop rather than BLAS, and every
alternative layout we measured — a contiguous copy, a positive-strided
slice of a reversed buffer, ``einsum`` — changes the reduction order
and therefore the bits.  So the per-step loop below intentionally
re-materializes the reversed view each step; the contiguously
maintained reversed buffer lives in the blocked kernel where the
contract is ``allclose``, not bit-identity.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from .._validation import check_positive_int
from ..exceptions import GenerationError, ValidationError
from ..stats.random import RandomState, make_rng
from .acvf_cache import resolve_acvf
from .coeff_table import coefficient_cache_info, get_coefficient_table
from .correlation import CorrelationModel
from .hosking_blocked import (
    BlockRows,
    BlockSizeArg,
    generate_blocked,
    incremental_block_rows,
    resolve_block_size,
    table_block_rows,
)
from .partial_corr import DurbinLevinson

__all__ = ["hosking_generate"]


class _Coefficients:
    """The Durbin-Levinson outputs of one ``n``-sample run, in step order.

    Reads the shared cached table when the coefficient cache keeps a
    horizon of ``n``, and otherwise advances a private recursion as the
    kernel asks for rows (see the module docstring).  Rows are
    read-only views, valid until the next row or block is requested.
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

    def block(self, k0: int, width: int) -> BlockRows:
        """The coefficients of steps ``k0 .. k0+width-1`` as one block."""
        if self._table is None:
            return incremental_block_rows(self._state, k0, width)
        return table_block_rows(self._table, k0, width)


def hosking_generate(
    correlation: Union[CorrelationModel, Sequence[float]],
    n: int,
    *,
    size: Optional[int] = None,
    mean: float = 0.0,
    random_state: RandomState = None,
    innovations: Optional[np.ndarray] = None,
    block_size: BlockSizeArg = None,
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
        the right number of elements are rejected.
    block_size:
        ``None`` or ``1`` (default) runs the exact per-step loop —
        bit-identical to historical outputs.  ``B > 1`` routes through
        the blocked BLAS-3 kernel
        (:func:`~repro.processes.hosking_blocked.generate_blocked`):
        same conditional law, outputs ``allclose`` at
        ``rtol <= 1e-10`` to the per-step loop but not bit-identical
        (different floating-point accumulation order).

    Returns
    -------
    numpy.ndarray
        Sample paths, shape ``(n,)`` or ``(size, n)``.
    """
    n = check_positive_int(n, "n")
    flat = size is None
    batch = 1 if flat else check_positive_int(size, "size")
    resolved_block = resolve_block_size(block_size)

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
        if flat:
            z = z.reshape(1, n)

    coefficients = _Coefficients(correlation, n)
    if resolved_block > 1:
        x = generate_blocked(
            z, n, resolved_block, coefficients.block, coefficients.variance0
        )
        x += mean
        return x[0] if flat else x

    # block_size == 1: the exact bypass.  This loop is kept
    # byte-for-byte as the historical implementation (including the
    # per-step reversed-view re-materialization) — see the module
    # docstring for why any layout change here would alter the bits.
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
