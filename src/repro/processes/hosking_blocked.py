"""Blocked BLAS-3 kernel for Hosking's conditional recursion.

Hosking's generator advances one conditional Gaussian at a time, and
the repo's per-step implementation spends essentially all of its time
in ``n`` history-times-coefficients products — one memory-bound
mat-vec per time step (``BENCH_hosking.json``: 8.13 s for Hosking vs
0.004 s for Davies-Harte at n=16384).  This module restructures that
hot path around *blocks* of ``B`` consecutive steps:

- **Old-history GEMM.**  For a block covering steps
  ``k0 .. k0+B-1``, every step's conditional mean splits into a
  contribution from the *old* history ``x_0 .. x_{k0-1}`` (already
  fully known when the block starts) and a contribution from the
  ``< B`` samples generated *inside* the block.  The old-history part
  of all ``B`` means is one matrix-matrix product

  .. math::

      M^{old} = X^{rev} \\, \\Phi_{old}^T,
      \\qquad
      \\Phi_{old}[i, t] = \\phi_{k_0+i,\\; i+1+t}

  where ``X^rev`` is the batch's reversed history
  (``X^rev[:, t] = x_{k0-1-t}``) kept in a contiguously maintained
  buffer.  Each ``Phi_old`` row is a *contiguous slice* of the packed
  Durbin-Levinson row, so assembling the operand is a straight copy.
- **Short within-block tail.**  Only the O(B^2) strictly-triangular
  within-block part remains sequential: step ``k0+i`` adds
  ``sum_{j<=i} phi_{k,j} x_{k-j}`` over the at-most-``B-1`` samples
  generated earlier in the same block.

This turns ``n`` memory-bound mat-vecs into ``n/B`` compute-bound
GEMMs plus ``n`` tiny (width ``< B``) products — the classic BLAS-2 to
BLAS-3 promotion.

Exactness contract
------------------
The blocked kernel evaluates the *same* conditional means as the
per-step loop, but accumulates them in a different floating-point
order (two partial sums, BLAS reductions).  Outputs therefore agree to
``rtol ~ 1e-12`` (tested at 1e-10) but are **not bit-identical** to
``block_size=1``.  ``block_size=1`` is the documented exact bypass: it
runs the untouched legacy step loop and reproduces historical outputs
bit for bit.  (Measured in this environment: numpy routes the legacy
negative-strided history view through its internal pairwise-summation
loop, and *any* layout change — a contiguous copy, a positive-strided
slice, ``einsum`` — alters the reduction order and hence the bits; see
``tests/test_hosking_blocked.py::TestBypassBitIdentity``.)
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .._validation import check_positive_int
from ..exceptions import ValidationError

__all__ = [
    "resolve_block_size",
    "iter_blocks",
    "stack_old_rows",
]

#: The ``block_size`` argument accepted by the Hosking interfaces:
#: ``None`` means the default (the exact per-step bypass, ``1``).
BlockSizeArg = Union[None, int]


def resolve_block_size(block_size: BlockSizeArg) -> int:
    """Validate ``block_size``; ``None`` resolves to the exact bypass (1)."""
    if block_size is None:
        return 1
    if isinstance(block_size, bool):
        raise ValidationError(
            f"block_size must be a positive int or None, got {block_size!r}"
        )
    return check_positive_int(block_size, "block_size")


def iter_blocks(n: int, block_size: int) -> Iterator[Tuple[int, int]]:
    """Yield ``(k0, width)`` blocks covering recursion steps ``1 .. n-1``.

    Boundaries sit at multiples of ``block_size`` (the first block is
    ``[1, block_size)``); they fix the accumulation order, and so the
    bits, of the blocked kernel's output.
    """
    k0 = 1
    while k0 < n:
        end = min((k0 // block_size + 1) * block_size, n)
        yield k0, end - k0
        k0 = end


def stack_old_rows(
    rows: Sequence[np.ndarray], k0: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Assemble the ``Phi_old`` operand of the old-history GEMM.

    ``rows[i]`` is the full Durbin-Levinson row ``phi_{k0+i, 1..k0+i}``;
    the slice ``rows[i][i : i + k0]`` holds exactly the coefficients
    that multiply the reversed old history ``x_{k0-1} .. x_0``.  The
    result has shape ``(len(rows), k0)``; with ``k0 == 0`` (a block at
    the very start of the path) it is empty and the GEMM is skipped.
    """
    width = len(rows)
    if out is None:
        out = np.empty((width, k0), dtype=float)
    for i, row in enumerate(rows):
        out[i] = row[i : i + k0]
    return out


class BlockRows:
    """Per-block coefficient bundle consumed by :func:`generate_blocked`.

    Attributes
    ----------
    rows:
        Full coefficient rows for steps ``k0 .. k0+width-1`` (row ``i``
        has length ``k0 + i``).  Views into packed table storage for
        table-backed runs; private copies when collected from an
        incremental :class:`~repro.processes.partial_corr.DurbinLevinson`
        (whose row buffer is reused across steps).
    sqrt_variances:
        ``sqrt(v_k)`` per step of the block.
    phi_old:
        The stacked ``(width, k0)`` GEMM operand of
        :func:`stack_old_rows`.
    """

    __slots__ = ("k0", "rows", "sqrt_variances", "phi_old")

    def __init__(
        self,
        k0: int,
        rows: List[np.ndarray],
        sqrt_variances: np.ndarray,
    ) -> None:
        self.k0 = k0
        self.rows = rows
        self.sqrt_variances = sqrt_variances
        self.phi_old = stack_old_rows(rows, k0)


def table_block_rows(table, k0: int, width: int) -> BlockRows:
    """Collect a block's coefficients from a shared table (zero-copy rows)."""
    table.ensure(k0 + width - 1)
    rows = [table.phi_row(k0 + i) for i in range(width)]
    return BlockRows(
        k0,
        rows,
        np.array([table.sqrt_variance(k0 + i) for i in range(width)]),
    )


def incremental_block_rows(state, k0: int, width: int) -> BlockRows:
    """Advance a Durbin-Levinson recursion across a block, copying rows.

    The recursion consumes no randomness, so advancing a whole block
    ahead of generation leaves the innovation stream untouched.
    """
    rows: List[np.ndarray] = []
    sqrt_variances = np.empty(width)
    for i in range(width):
        phi, variance = state.advance()
        rows.append(np.array(phi, copy=True))
        sqrt_variances[i] = np.sqrt(variance)
    return BlockRows(k0, rows, sqrt_variances)


def generate_blocked(
    z: np.ndarray,
    n: int,
    block_size: int,
    block_rows_for,
    variance0: float,
) -> np.ndarray:
    """Batch-generate ``z.shape[0]`` paths with the blocked kernel.

    Parameters
    ----------
    z:
        Standard-normal innovations, shape ``(batch, n)``.
    n:
        Path length.
    block_size:
        Block width ``B >= 2`` (``B = 1`` callers should use the exact
        per-step bypass instead — this kernel accepts it but pays the
        GEMM bookkeeping for no benefit).
    block_rows_for:
        ``block_rows_for(k0, width) -> BlockRows`` coefficient provider,
        backed by :func:`table_block_rows` or
        :func:`incremental_block_rows`.
    variance0:
        Unconditional variance ``v_0 = r(0)`` driving the first sample.

    Returns
    -------
    numpy.ndarray
        Sample paths, shape ``(batch, n)``.
    """
    batch = z.shape[0]
    x = np.empty((batch, n), dtype=float)
    # Reversed companion buffer: rev[:, n-1-j] = x_j, so the slice
    # rev[:, n-k:] is the contiguously maintained reversed history
    # x_{k-1} .. x_0 the GEMM consumes (no per-step re-materialization).
    rev = np.empty((batch, n), dtype=float)
    x[:, 0] = np.sqrt(variance0) * z[:, 0]
    rev[:, n - 1] = x[:, 0]
    for k0, width in iter_blocks(n, block_size):
        block = block_rows_for(k0, width)
        # Old-history contribution of every step in the block at once:
        # (batch, k0) @ (k0, width) — the BLAS-3 promotion.
        m_old = rev[:, n - k0 :] @ block.phi_old.T
        sqrt_v = block.sqrt_variances
        for i in range(width):
            k = k0 + i
            mean_k = m_old[:, i]
            if i:
                # Strictly-triangular within-block tail over the < B
                # samples generated inside this block.
                mean_k = mean_k + rev[:, n - k : n - k0] @ block.rows[i][:i]
            x[:, k] = mean_k + sqrt_v[i] * z[:, k]
            if k + 1 < n:
                rev[:, n - k - 1] = x[:, k]
    return x
