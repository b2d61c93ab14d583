"""Lindley recursion and workload processes (paper eq. 16-17).

All functions operate on arrival arrays whose *last* axis is time, so a
batch of replications ``(size, k)`` is processed in one call.  The
infinite-buffer recursion is evaluated in closed form over fixed blocks
of 4096 slots (the reflection map of eq. 16, see
:func:`lindley_recursion`); the finite-buffer recursion steps slot by
slot through :func:`lindley_step`.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from .._validation import check_nonnegative_float, check_positive_float
from ..exceptions import ValidationError

__all__ = [
    "lindley_step",
    "lindley_recursion",
    "finite_lindley_recursion",
    "workload_paths",
    "workload_supremum",
]

#: Slots per block of the closed-form Lindley kernel.  A fixed block
#: bounds every partial sum the kernel forms to ``_BLOCK`` increments,
#: so a slot's rounding error does not grow with the trace length
#: (DESIGN.md §5k).
_BLOCK = 4096


def _check_arrivals(arrivals: np.ndarray) -> np.ndarray:
    arr = np.asarray(arrivals, dtype=float)
    if arr.ndim not in (1, 2):
        raise ValidationError(
            f"arrivals must be 1-D or 2-D (batch, time), got shape {arr.shape}"
        )
    if arr.shape[-1] == 0:
        raise ValidationError("arrivals must contain at least one slot")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("arrivals must contain only finite values")
    return arr


def lindley_step(
    q: np.ndarray,
    increment: np.ndarray,
    capacity: Optional[float] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """One vectorised Lindley slot update; returns ``(q_next, overflow)``.

    With ``capacity=None`` (infinite buffer) this is the eq. 16 step
    ``q' = max(q + d, 0)`` and ``overflow`` is ``None``; with a finite
    ``capacity`` the step is ``q' = clip(q + d, 0, cap)`` and
    ``overflow`` is the work shed above capacity in this slot.
    :func:`finite_lindley_recursion`, and through it the finite-buffer
    :class:`~repro.queueing.multiplexer.AtmMultiplexer`, runs exactly
    this step.  :func:`lindley_recursion` does not: it evaluates the
    infinite-buffer recursion in closed form.
    """
    q = q + increment
    if capacity is None:
        return np.maximum(q, 0.0), None
    overflow = np.maximum(q - capacity, 0.0)
    return np.clip(q, 0.0, capacity), overflow


def lindley_recursion(
    arrivals: np.ndarray,
    service_rate: float,
    *,
    initial: Union[float, np.ndarray] = 0.0,
) -> np.ndarray:
    """Queue-length paths ``Q_1 .. Q_k`` from the Lindley recursion.

    .. math:: Q_k = \\max(Q_{k-1} + Y_k - \\mu,\\; 0)

    Evaluated in closed form over fixed blocks of 4096 slots.  With
    ``S`` the in-block partial sums of ``Y - mu`` and ``q`` the queue
    carried in from the previous block, the reflection map gives
    ``Q_j = S_j - min(-q, S_1, ..., S_j)``: a cumulative sum, a running
    minimum and a subtraction per block instead of one step per slot.
    The result is not bitwise equal to stepping the recursion slot by
    slot; the two differ by rounding only (DESIGN.md §5k).

    Parameters
    ----------
    arrivals:
        Arrivals per slot, shape ``(k,)`` or ``(size, k)``.
    service_rate:
        Deterministic service ``mu`` per slot.
    initial:
        Initial queue content ``Q_0`` (scalar, or per-replication
        array).  The paper's Fig. 15 contrasts ``initial=0`` with
        ``initial=b`` (full buffer).

    Returns
    -------
    numpy.ndarray
        Queue sizes with the same shape as ``arrivals``; entry ``j``
        is ``Q_{j+1}``.
    """
    arr = _check_arrivals(arrivals)
    mu = check_positive_float(service_rate, "service_rate")
    out = arr - mu
    q = np.broadcast_to(np.asarray(initial, dtype=float), out.shape[:-1])
    if np.any(q < 0):
        raise ValidationError("initial queue content must be non-negative")
    for start in range(0, out.shape[-1], _BLOCK):
        block = out[..., start : start + _BLOCK]
        np.cumsum(block, axis=-1, out=block)
        floor = np.minimum(block, -q[..., None])
        np.minimum.accumulate(floor, axis=-1, out=floor)
        block -= floor
        q = block[..., -1]
    return out


def finite_lindley_recursion(
    arrivals: np.ndarray,
    service_rate: float,
    capacity: float,
    *,
    initial: Union[float, np.ndarray] = 0.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Queue and per-slot lost work for a finite-buffer queue.

    The finite-capacity counterpart of :func:`lindley_recursion`:
    each slot runs :func:`lindley_step` with ``capacity``, so work
    pushing the queue above capacity is shed and recorded instead of
    stored.  Returns ``(queue, lost)``, both shaped like ``arrivals``.
    """
    arr = _check_arrivals(arrivals)
    mu = check_positive_float(service_rate, "service_rate")
    cap = check_nonnegative_float(capacity, "capacity")
    increments = arr - mu
    queue = np.empty_like(increments)
    lost = np.empty_like(increments)
    q = np.broadcast_to(
        np.asarray(initial, dtype=float), increments[..., 0].shape
    ).copy()
    if np.any(q < 0):
        raise ValidationError("initial queue content must be non-negative")
    if np.any(q > cap):
        raise ValidationError(
            "initial queue content exceeds the buffer capacity"
        )
    for j in range(increments.shape[-1]):
        q, overflow = lindley_step(q, increments[..., j], cap)
        queue[..., j] = q
        lost[..., j] = overflow
    return queue, lost


def workload_paths(arrivals: np.ndarray, service_rate: float) -> np.ndarray:
    """Total workload ``W_j = sum_{i<=j} (Y_i - mu)`` along each path."""
    arr = _check_arrivals(arrivals)
    mu = check_positive_float(service_rate, "service_rate")
    return np.cumsum(arr - mu, axis=-1)


def workload_supremum(
    arrivals: np.ndarray, service_rate: float
) -> np.ndarray:
    """Running supremum ``sup_{0<=i<=j} W_i`` (with ``W_0 = 0``) per path.

    By eq. 17, ``P(sup_{i<=k} W_i > b) = P(Q_k > b)`` for a queue
    started empty, which is what the paper's importance-sampling
    procedure estimates.
    """
    w = workload_paths(arrivals, service_rate)
    return np.maximum(np.maximum.accumulate(w, axis=-1), 0.0)
