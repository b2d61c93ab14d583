"""ATM multiplexer model.

The paper's queueing study (§4) feeds a single-buffer multiplexer with
one VBR video source.  Conventions used throughout the experiments:

- **Utilization** ``rho = E[Y] / mu``, so the deterministic service
  rate for a target utilization is ``mu = E[Y] / rho``.
- **Normalized buffer size**: buffer capacity expressed in units of
  the mean arrival per slot, i.e. ``b_normalized = b / E[Y]``.  The
  experiments feed unit-mean arrivals, making the normalized and raw
  buffer sizes coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .._validation import (
    check_in_range,
    check_nonnegative_float,
    check_positive_float,
)
from ..observability import recording
from .lindley import finite_lindley_recursion, lindley_recursion

__all__ = [
    "AtmMultiplexer",
    "service_rate_for_utilization",
    "MuxResult",
    "OCCUPANCY_BUCKETS",
]

#: Default buffer-occupancy histogram bounds (normalized buffer units).
#: Spans the paper's Fig. 16 sweep (b = 1 .. ~250) plus an overflow
#: bucket for anything beyond; occupancy 0 lands in the first bucket.
OCCUPANCY_BUCKETS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0)


def service_rate_for_utilization(
    mean_arrival: float, utilization: float
) -> float:
    """Return the service rate giving the target utilization.

    ``mu = mean_arrival / utilization``; utilization must lie in (0, 1)
    for the queue to be stable.
    """
    mean_arrival = check_positive_float(mean_arrival, "mean_arrival")
    utilization = check_in_range(
        utilization,
        "utilization",
        0.0,
        1.0,
        inclusive_low=False,
        inclusive_high=False,
    )
    return mean_arrival / utilization


@dataclass(frozen=True)
class MuxResult:
    """Result of a multiplexer simulation.

    Attributes
    ----------
    queue:
        Queue-content paths (same shape as the arrivals).
    lost:
        Work lost to a finite buffer per slot (zero for infinite
        buffers).
    offered:
        Total offered work across all paths and slots.
    """

    queue: np.ndarray
    lost: np.ndarray
    offered: float

    @property
    def loss_ratio(self) -> float:
        """Total lost work divided by total offered work (cell loss ratio)."""
        if self.offered <= 0:
            return 0.0
        return float(self.lost.sum()) / self.offered


class AtmMultiplexer:
    """Slotted single-server multiplexer with deterministic service.

    Parameters
    ----------
    service_rate:
        Work served per slot (``mu``).
    buffer_size:
        Queue capacity; ``None`` means infinite (the paper's overflow
        studies use an infinite queue and measure ``P(Q > b)``).  ``0``
        is the *bufferless* multiplexer — the canonical
        admission-control scenario: nothing queues, and any work
        beyond the instantaneous service rate is lost in the slot it
        arrives.
    """

    def __init__(
        self, service_rate: float, buffer_size: Optional[float] = None
    ) -> None:
        self.service_rate = check_positive_float(
            service_rate, "service_rate"
        )
        if buffer_size is not None:
            buffer_size = check_nonnegative_float(
                buffer_size, "buffer_size"
            )
        self.buffer_size = buffer_size

    @classmethod
    def for_utilization(
        cls,
        mean_arrival: float,
        utilization: float,
        *,
        buffer_size: Optional[float] = None,
    ) -> "AtmMultiplexer":
        """Build a multiplexer achieving ``utilization`` for ``mean_arrival``."""
        return cls(
            service_rate_for_utilization(mean_arrival, utilization),
            buffer_size=buffer_size,
        )

    def utilization(self, mean_arrival: float) -> float:
        """Utilization achieved for a given mean arrival rate."""
        mean_arrival = check_positive_float(mean_arrival, "mean_arrival")
        return mean_arrival / self.service_rate

    def simulate(
        self,
        arrivals: np.ndarray,
        *,
        initial: Union[float, np.ndarray] = 0.0,
        metrics=None,
    ) -> MuxResult:
        """Run the multiplexer over ``arrivals`` (last axis = time).

        With an infinite buffer this is exactly the Lindley recursion;
        with a finite buffer, work beyond capacity is dropped and
        recorded per slot.

        The current run context (see
        :func:`repro.observability.recording`) records a
        ``mux.queue_occupancy`` histogram over :data:`OCCUPANCY_BUCKETS`,
        plus ``mux.loss_events`` / ``mux.lost_work`` /
        ``mux.offered_work`` counters — binned in bulk with numpy, so
        the queue computation is untouched.  ``metrics`` is a seam kept
        for ``perfbench/workloads.py:253``: a context given there is
        bound for the call.
        """
        with recording(metrics) as ctx:
            return self._simulate(arrivals, initial, ctx)

    def _simulate(self, arrivals, initial, ctx) -> MuxResult:
        arr = np.asarray(arrivals, dtype=float)
        offered = float(arr.sum())
        if self.buffer_size is None:
            queue = lindley_recursion(
                arr, self.service_rate, initial=initial
            )
            result = MuxResult(
                queue=queue, lost=np.zeros_like(queue), offered=offered
            )
            self._record(ctx, result)
            return result
        queue, lost = finite_lindley_recursion(
            arr, self.service_rate, self.buffer_size, initial=initial
        )
        result = MuxResult(queue=queue, lost=lost, offered=offered)
        self._record(ctx, result)
        return result

    def _record(self, ctx, result: MuxResult) -> None:
        """Bulk-record a simulation's occupancy and loss metrics."""
        if not ctx.enabled:
            return
        flat = result.queue.ravel()
        # Bucket by the same `le` convention as Histogram.observe
        # (bisect_left), one vectorized pass instead of per-slot calls.
        indices = np.searchsorted(OCCUPANCY_BUCKETS, flat, side="left")
        counts = np.bincount(
            indices, minlength=len(OCCUPANCY_BUCKETS) + 1
        )
        ctx.histogram("mux.queue_occupancy", OCCUPANCY_BUCKETS).add_counts(
            counts.tolist(), total=float(flat.sum()), count=int(flat.size)
        )
        ctx.inc("mux.loss_events", int(np.count_nonzero(result.lost)))
        ctx.inc("mux.lost_work", float(result.lost.sum()))
        ctx.inc("mux.offered_work", result.offered)

    def __repr__(self) -> str:
        cap = "inf" if self.buffer_size is None else f"{self.buffer_size:g}"
        return (
            f"AtmMultiplexer(service_rate={self.service_rate:g}, "
            f"buffer_size={cap})"
        )
