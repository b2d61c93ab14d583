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

Two interfaces are provided:

- :func:`hosking_generate` — batch generation of ``size`` independent
  replications sharing one Durbin-Levinson pass.  The coefficient
  recursion runs once regardless of the batch size, and each step's
  conditional means for all replications are computed with a single
  matrix-vector product, so generating 1000 replications is far
  cheaper than 1000 single runs (see the ablation bench).
- :class:`HoskingProcess` — a stateful, step-at-a-time generator that
  additionally exposes the per-step conditional means, variances and
  coefficient sums of Appendix B's likelihood-ratio increments
  (eq. 42-48).  The importance-sampling estimators no longer step it:
  they sum those increments in closed form over whole paths
  (:mod:`repro.simulation.importance`).

Both interfaces read their Durbin-Levinson coefficients from a shared
:class:`~repro.processes.coeff_table.CoefficientTable` by default, so
repeated runs over the same background model — the buffer sweeps and
twist scans of Figs. 14-17 — pay for the recursion once.  Pass
``coeff_table=False`` to force the original incremental recursion
(useful for ablations); the two paths are bit-identical given shared
innovations because the table stores exactly the recursion's outputs.

Both interfaces also accept ``block_size=B`` to route generation
through the blocked BLAS-3 kernel of
:mod:`~repro.processes.hosking_blocked`, which computes each block's
old-history contribution to all ``B`` conditional means with a single
GEMM.  ``block_size=1`` (the default) is the documented exact bypass:
it runs the untouched per-step loops below and reproduces historical
outputs bit for bit.  Blocked outputs (``B > 1``) match to floating-
point reordering only — ``allclose`` at ``rtol <= 1e-10`` — because
splitting a conditional mean into an old-history partial sum and a
within-block partial sum changes the accumulation order.  A note on
why the bypass must keep the *exact* legacy formulation: numpy
evaluates ``x[:, k-1::-1][:, :k] @ phi`` (a negative-strided view)
with its internal pairwise-summation loop rather than BLAS, and every
alternative layout we measured — a contiguous copy, a positive-strided
slice of a reversed buffer, ``einsum`` — changes the reduction order
and therefore the bits.  So the per-step loops below intentionally
re-materialize the reversed view each step; the contiguously
maintained reversed buffer lives in the blocked kernel where the
contract is ``allclose``, not bit-identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .._validation import check_positive_int
from ..exceptions import GenerationError, ValidationError
from ..stats.random import RandomState, make_rng
from .acvf_cache import check_table_arg, resolve_acvf as _resolve_acvf
from .coeff_table import CoefficientTable, get_coefficient_table
from .correlation import CorrelationModel
from .hosking_blocked import (
    BlockRows,
    BlockSizeArg,
    block_width,
    gemm_fraction,
    generate_blocked,
    incremental_block_rows,
    is_block_start,
    resolve_block_size,
    table_block_rows,
)
from .partial_corr import DurbinLevinson

__all__ = [
    "hosking_generate",
    "check_coeff_table",
    "HoskingProcess",
    "HoskingStep",
]


def _metrics_enabled(metrics) -> bool:
    """True when ``metrics`` is a live duck-typed sink (inc/set)."""
    return metrics is not None and getattr(metrics, "enabled", True)

#: Type of the ``coeff_table`` argument shared by both interfaces:
#: ``None`` (or ``True``) uses the shared fingerprint cache, an explicit
#: :class:`CoefficientTable` is used as-is (the caller vouches that it
#: was built from the same autocovariance), and ``False`` disables
#: tables entirely in favour of the incremental recursion.
CoeffTableArg = Union[None, bool, CoefficientTable]


def check_coeff_table(coeff_table: CoeffTableArg) -> CoeffTableArg:
    """Validate a ``coeff_table=`` argument before any draw.

    Raises :class:`~repro.exceptions.ValidationError` naming the
    argument; :class:`~repro.processes.source.HoskingSource` calls this
    at construction, so its options fail before any simulation work
    starts.
    """
    return check_table_arg(
        coeff_table, "coeff_table", CoefficientTable, "incremental recursion"
    )


def _resolve_table(
    correlation: Union[CorrelationModel, Sequence[float]],
    n: int,
    coeff_table: CoeffTableArg,
) -> CoefficientTable:
    """Return the coefficient table to drive an ``n``-sample run."""
    if coeff_table is None or coeff_table is True:
        return get_coefficient_table(correlation, n)
    check_coeff_table(coeff_table)
    if coeff_table.horizon < n:
        raise ValidationError(
            f"coeff_table of horizon {coeff_table.horizon} cannot "
            f"generate {n} samples"
        )
    return coeff_table


def hosking_generate(
    correlation: Union[CorrelationModel, Sequence[float]],
    n: int,
    *,
    size: Optional[int] = None,
    mean: float = 0.0,
    random_state: RandomState = None,
    innovations: Optional[np.ndarray] = None,
    coeff_table: CoeffTableArg = None,
    block_size: BlockSizeArg = None,
    metrics=None,
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
        Length of each sample path.
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
    coeff_table:
        ``None`` (default) reads Durbin-Levinson coefficients from the
        shared fingerprint cache so repeated runs over the same model
        skip the recursion; an explicit
        :class:`~repro.processes.coeff_table.CoefficientTable` is used
        directly; ``False`` runs the original incremental recursion.
    block_size:
        ``None`` or ``1`` (default) runs the exact per-step loop —
        bit-identical to historical outputs.  ``B > 1`` routes through
        the blocked BLAS-3 kernel
        (:func:`~repro.processes.hosking_blocked.generate_blocked`):
        same conditional law, outputs ``allclose`` at
        ``rtol <= 1e-10`` to the per-step loop but not bit-identical
        (different floating-point accumulation order).
    metrics:
        Optional duck-typed metrics sink (``inc``/``set``, e.g. a
        :class:`repro.observability.RunContext`).  Records the
        ``hosking.block_size`` / ``hosking.gemm_fraction`` gauges and
        the ``hosking.blocks`` counter.

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

    if _metrics_enabled(metrics):
        metrics.set("hosking.block_size", resolved_block)
        metrics.set(
            "hosking.gemm_fraction",
            gemm_fraction(n, resolved_block) if resolved_block > 1 else 0.0,
        )
        if resolved_block > 1 and n > 1:
            # First block is [1, B); the rest start at multiples of B
            # below n, so the count is 1 + floor((n-1)/B).
            metrics.inc(
                "hosking.blocks", 1 + (n - 1) // resolved_block
            )

    if resolved_block > 1:
        if coeff_table is False:
            state = DurbinLevinson(_resolve_acvf(correlation, n))
            variance0 = state.variance

            def block_rows_for(k0: int, width: int) -> BlockRows:
                return incremental_block_rows(state, k0, width)

        else:
            table = _resolve_table(correlation, n, coeff_table)
            variance0 = table.variance(0)

            def block_rows_for(k0: int, width: int) -> BlockRows:
                return table_block_rows(table, k0, width)

        x = generate_blocked(z, n, resolved_block, block_rows_for, variance0)
        x += mean
        return x[0] if flat else x

    # block_size == 1: the exact bypass.  These two loops are kept
    # byte-for-byte as the historical implementation (including the
    # per-step reversed-view re-materialization) — see the module
    # docstring for why any layout change here would alter the bits.
    x = np.empty((batch, n), dtype=float)
    if coeff_table is False:
        acvf = _resolve_acvf(correlation, n)
        state = DurbinLevinson(acvf)
        x[:, 0] = np.sqrt(state.variance) * z[:, 0]
        for k in range(1, n):
            phi, variance = state.advance()
            # m_k = sum_j phi_kj x_{k-j}  for every replication at once.
            history = x[:, k - 1 :: -1][:, :k]
            x[:, k] = history @ phi + np.sqrt(variance) * z[:, k]
    else:
        table = _resolve_table(correlation, n, coeff_table)
        packed = table.packed_rows(n)
        sqrt_variances = table.sqrt_variances(n)
        x[:, 0] = sqrt_variances[0] * z[:, 0]
        offset = 0
        for k in range(1, n):
            phi = packed[offset : offset + k]
            offset += k
            history = x[:, k - 1 :: -1][:, :k]
            x[:, k] = history @ phi + sqrt_variances[k] * z[:, k]
    x += mean
    return x[0] if flat else x


@dataclass(frozen=True)
class HoskingStep:
    """One step of an incremental Hosking generation.

    Attributes
    ----------
    values:
        The newly generated samples, shape ``(size,)``.  Entries of
        replications retired via :meth:`HoskingProcess.retire` are 0.
    cond_mean:
        Conditional means ``m_k`` given each replication's history
        (0 for retired replications).
    cond_variance:
        Conditional variance ``v_k`` (shared across replications).
    phi_sum:
        ``sum_j phi_kj``; mean twisting by ``m*`` shifts the conditional
        mean under the original law by ``m* * phi_sum`` (Appendix B).
    innovations:
        The standard-normal draws used, shape ``(size,)``.  Drawn for
        every replication — retired or not — so the stream stays
        aligned regardless of retirement decisions.
    """

    values: np.ndarray
    cond_mean: np.ndarray
    cond_variance: float
    phi_sum: float
    innovations: np.ndarray


class HoskingProcess:
    """Stateful step-at-a-time Hosking generator for ``size`` replications.

    Exposes, at every time step, the conditional mean and variance of
    the background process (the quantities of Appendix B's per-step
    likelihood ratios) and can *stop early* on replications that no
    longer matter.  No estimator in the library steps it any more; it
    stays for step-at-a-time use, and ``perfbench/tracing.py`` patches
    :meth:`step` by name in every traced pass.  This class keeps
    the per-replication history, reads Durbin-Levinson coefficients
    from a shared table (or advances its own recursion), and yields one
    :class:`HoskingStep` per call to :meth:`step`.  Replications that
    no longer matter can be :meth:`retired <retire>`, shrinking the
    conditional-mean product to the active rows only.

    Parameters
    ----------
    correlation:
        Correlation model or explicit autocovariance sequence covering
        at least ``horizon`` lags.
    horizon:
        Maximum number of steps that will be generated.
    size:
        Number of parallel replications.
    random_state:
        Seed or generator for the innovations.
    coeff_table:
        ``None`` (default) uses the shared coefficient-table cache; an
        explicit :class:`~repro.processes.coeff_table.CoefficientTable`
        is used directly; ``False`` keeps a private incremental
        Durbin-Levinson recursion (the pre-table behaviour).
    block_size:
        ``None`` or ``1`` (default) steps with the exact legacy
        per-step products (bit-identical to historical outputs).
        ``B > 1`` precomputes, at every block boundary, the old-history
        contribution to the next ``B`` conditional means with one GEMM
        over a contiguously maintained reversed buffer; each
        :meth:`step` then only adds the short within-block tail.
        Retirement compacts at block boundaries: the GEMM gathers the
        rows active when the block starts (a *compaction event*), and
        rows retired mid-block simply stop being read.  Innovations
        are drawn for every replication each step in both modes, so
        the random stream is invariant to ``block_size`` and
        retirement alike.  Blocked conditional means are ``allclose``
        (``rtol <= 1e-10``) to the per-step ones, not bit-identical.
    metrics:
        Optional duck-typed metrics sink (``inc``/``set``).  Records
        ``hosking.block_size`` / ``hosking.gemm_fraction`` gauges and
        ``hosking.blocks`` / ``hosking.compaction_events`` counters.
    """

    def __init__(
        self,
        correlation: Union[CorrelationModel, Sequence[float]],
        horizon: int,
        *,
        size: int = 1,
        random_state: RandomState = None,
        coeff_table: CoeffTableArg = None,
        block_size: BlockSizeArg = None,
        metrics=None,
    ) -> None:
        self.horizon = check_positive_int(horizon, "horizon")
        self.size = check_positive_int(size, "size")
        if coeff_table is False:
            self._acvf = _resolve_acvf(correlation, self.horizon)
            self._table: Optional[CoefficientTable] = None
            self._state: Optional[DurbinLevinson] = DurbinLevinson(
                self._acvf
            )
        else:
            self._table = _resolve_table(
                correlation, self.horizon, coeff_table
            )
            self._acvf = np.asarray(self._table.acvf[: self.horizon])
            self._state = None
        self._rng = make_rng(random_state)
        # Zero-initialised so retired replications read as 0.0 past
        # their retirement step instead of uninitialised memory.
        self._history = np.zeros((self.size, self.horizon), dtype=float)
        self._step = 0
        self._active = np.ones(self.size, dtype=bool)
        # None encodes the everyone-active fast path (no row gathering).
        self._active_indices: Optional[np.ndarray] = None
        self._block_size = resolve_block_size(block_size)
        self._metrics = metrics if _metrics_enabled(metrics) else None
        if self._block_size > 1:
            # Reversed companion of _history: _rev[:, H-1-j] = x_j, so
            # the block GEMM and within-block tails read contiguous
            # positive-strided slices instead of re-materializing a
            # reversed view per step.
            self._rev = np.zeros((self.size, self.horizon), dtype=float)
        else:
            self._rev = None
        self._block: Optional[BlockRows] = None
        self._block_mold: Optional[np.ndarray] = None
        if self._metrics is not None:
            self._metrics.set("hosking.block_size", self._block_size)
            self._metrics.set(
                "hosking.gemm_fraction",
                gemm_fraction(self.horizon, self._block_size)
                if self._block_size > 1
                else 0.0,
            )

    @property
    def step_index(self) -> int:
        """Number of samples generated so far per replication."""
        return self._step

    @property
    def history(self) -> np.ndarray:
        """Generated samples so far, shape ``(size, step_index)``.

        Rows of retired replications are frozen: entries past the
        retirement step are 0.
        """
        return self._history[:, : self._step].copy()

    @property
    def active_mask(self) -> np.ndarray:
        """Boolean mask of replications still being generated (a copy)."""
        return self._active.copy()

    @property
    def active_count(self) -> int:
        """Number of replications still being generated."""
        return int(self._active.sum())

    def retire(self, replications: np.ndarray) -> int:
        """Stop generating for the given replications; return active count.

        ``replications`` is either a boolean mask of shape ``(size,)``
        or an array of replication indices.  Retired rows drop out of
        the per-step conditional-mean product — the dominant cost of a
        step — so batches whose replications resolve early (e.g. they
        already crossed the buffer in an importance-sampling run) stop
        paying O(k) work per retired row.  Innovations are still drawn
        for every replication each step, so the random stream and
        therefore every *active* replication's path are bit-for-bit
        unchanged by retirement.  Retirement is permanent.
        """
        mask = np.asarray(replications)
        if mask.dtype == bool:
            if mask.shape != (self.size,):
                raise ValidationError(
                    f"boolean retire mask must have shape ({self.size},), "
                    f"got {mask.shape}"
                )
            self._active &= ~mask
        elif np.issubdtype(mask.dtype, np.integer):
            indices = mask.ravel()
            if indices.size and (
                indices.min() < -self.size or indices.max() >= self.size
            ):
                raise ValidationError(
                    f"retire indices out of range for size {self.size}"
                )
            self._active[indices] = False
        else:
            raise ValidationError(
                "retire expects a boolean mask or integer indices, got "
                f"dtype {mask.dtype}"
            )
        remaining = np.flatnonzero(self._active)
        self._active_indices = (
            None if remaining.size == self.size else remaining
        )
        return int(remaining.size)

    def _coefficients(self, k: int):
        """Return ``(phi, variance, sqrt_variance, phi_sum)`` for step k."""
        if self._table is not None:
            if k == 0:
                return (
                    None,
                    self._table.variance(0),
                    self._table.sqrt_variance(0),
                    0.0,
                )
            return (
                self._table.phi_row(k),
                self._table.variance(k),
                self._table.sqrt_variance(k),
                self._table.phi_sum(k),
            )
        if k == 0:
            variance = self._state.variance
            return None, variance, np.sqrt(variance), 0.0
        phi, variance = self._state.advance()
        return phi, variance, np.sqrt(variance), self._state.phi_sum

    def _begin_block(self, k0: int) -> None:
        """Open the block starting at step ``k0``: coefficients + GEMM.

        Gathers the rows active *now* (block-boundary retirement
        compaction), runs the old-history GEMM over them, and scatters
        the result into a full-size ``(size, width)`` buffer so
        mid-block retirement — which only ever shrinks the active set —
        keeps plain row indexing valid for the rest of the block.
        """
        width = block_width(k0, self._block_size, self.horizon)
        if self._table is not None:
            block = table_block_rows(self._table, k0, width)
        else:
            block = incremental_block_rows(self._state, k0, width)
        self._block = block
        mold = np.zeros((self.size, width), dtype=float)
        idx = self._active_indices
        tail = self._rev[:, self.horizon - k0 :]
        if idx is None:
            mold[:] = tail @ block.phi_old.T
        else:
            if self._metrics is not None:
                self._metrics.inc("hosking.compaction_events")
            if idx.size:
                mold[idx] = tail[idx] @ block.phi_old.T
        self._block_mold = mold
        if self._metrics is not None:
            self._metrics.inc("hosking.blocks")

    def _blocked_step(self, k: int, z: np.ndarray) -> HoskingStep:
        """One step of the ``block_size > 1`` engine."""
        horizon = self.horizon
        idx = self._active_indices
        if k == 0:
            variance = (
                self._table.variance(0)
                if self._table is not None
                else self._state.variance
            )
            sqrt_variance = np.sqrt(variance)
            cond_mean = np.zeros(self.size)
            if idx is None:
                values = sqrt_variance * z
                self._history[:, 0] = values
            else:
                values = np.zeros(self.size)
                if idx.size:
                    values[idx] = sqrt_variance * z[idx]
                    self._history[idx, 0] = values[idx]
            self._rev[:, horizon - 1] = values
            self._step = 1
            return HoskingStep(
                values=values,
                cond_mean=cond_mean,
                cond_variance=float(variance),
                phi_sum=0.0,
                innovations=z,
            )
        if is_block_start(k, self._block_size):
            self._begin_block(k)
        block = self._block
        i = k - block.k0
        variance = block.variances[i]
        sqrt_variance = block.sqrt_variances[i]
        phi_sum = block.phi_sums[i]
        row = block.rows[i]
        # Within-block tail operand: the samples generated since the
        # block opened, reversed — rev columns [H-k, H-k0).
        lo, hi = horizon - k, horizon - block.k0
        if idx is None:
            cond_mean = self._block_mold[:, i].copy()
            if i:
                cond_mean += self._rev[:, lo:hi] @ row[:i]
            values = cond_mean + sqrt_variance * z
            self._history[:, k] = values
        else:
            cond_mean = np.zeros(self.size)
            values = np.zeros(self.size)
            if idx.size:
                active_mean = self._block_mold[idx, i]
                if i:
                    active_mean = (
                        active_mean + self._rev[idx, lo:hi] @ row[:i]
                    )
                cond_mean[idx] = active_mean
                active_values = active_mean + sqrt_variance * z[idx]
                values[idx] = active_values
                self._history[idx, k] = active_values
        self._rev[:, horizon - k - 1] = values
        self._step = k + 1
        return HoskingStep(
            values=values,
            cond_mean=cond_mean,
            cond_variance=float(variance),
            phi_sum=float(phi_sum),
            innovations=z,
        )

    def step(self) -> HoskingStep:
        """Generate the next sample for every active replication."""
        if self._step >= self.horizon:
            raise GenerationError(
                f"horizon of {self.horizon} steps exhausted"
            )
        k = self._step
        z = self._rng.standard_normal(self.size)
        if self._block_size > 1:
            return self._blocked_step(k, z)
        phi, variance, sqrt_variance, phi_sum = self._coefficients(k)
        idx = self._active_indices
        if idx is None:
            if k == 0:
                cond_mean = np.zeros(self.size)
                values = sqrt_variance * z
            else:
                history = self._history[:, k - 1 :: -1][:, :k]
                cond_mean = history @ phi
                values = cond_mean + sqrt_variance * z
            self._history[:, k] = values
        else:
            cond_mean = np.zeros(self.size)
            values = np.zeros(self.size)
            if idx.size:
                if k == 0:
                    active_values = sqrt_variance * z[idx]
                else:
                    # Gather active rows, then the same reversed-slice
                    # product as the full-batch path (same dot order,
                    # so active rows stay bit-identical).
                    history = self._history[idx, :k][:, ::-1]
                    active_mean = history @ phi
                    cond_mean[idx] = active_mean
                    active_values = active_mean + sqrt_variance * z[idx]
                values[idx] = active_values
                self._history[idx, k] = active_values
        self._step += 1
        return HoskingStep(
            values=values,
            cond_mean=cond_mean,
            cond_variance=float(variance),
            phi_sum=phi_sum,
            innovations=z,
        )

    def run(self, steps: Optional[int] = None) -> np.ndarray:
        """Generate ``steps`` samples (default: to the horizon).

        Returns the full history so far, shape ``(size, step_index)``.
        With ``steps=None`` at an already-exhausted horizon this simply
        returns the completed history; an explicit ``steps`` that
        exceeds the remaining horizon raises
        :class:`~repro.exceptions.GenerationError`.
        """
        remaining = self.horizon - self._step
        if steps is None:
            if remaining == 0:
                return self.history
            steps = remaining
        steps = check_positive_int(steps, "steps")
        if steps > remaining:
            raise GenerationError(
                f"requested {steps} steps but only {remaining} remain"
            )
        for _ in range(steps):
            self.step()
        return self.history
