"""Plain Monte Carlo overflow-probability estimators.

These are the non-importance-sampling baselines: replication-based
transient estimates for synthetic models, and the single-long-run
time-average estimate used for the empirical trace (the paper notes
that only one empirical replication exists, so trace-driven results are
one long run reused across buffer sizes — and warns of the resulting
disagreement at low utilizations; see Fig. 16 discussion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .._validation import check_1d_array, check_positive_float
from ..exceptions import SimulationError, ValidationError
from .lindley import lindley_recursion, workload_supremum

__all__ = [
    "OverflowEstimate",
    "transient_overflow_mc",
    "steady_state_overflow_from_trace",
    "cell_loss_ratio_from_trace",
]


@dataclass(frozen=True)
class OverflowEstimate:
    """An overflow-probability estimate with precision diagnostics.

    Attributes
    ----------
    probability:
        Estimated ``P(Q > b)``.
    variance:
        Variance of the *estimator* (not of the indicator).
    replications:
        Number of i.i.d. replications (1 for trace time averages).
    """

    probability: float
    variance: float
    replications: int

    @property
    def std_error(self) -> float:
        """Standard error of the estimate."""
        return float(np.sqrt(max(self.variance, 0.0)))

    @property
    def relative_error(self) -> float:
        """Standard error divided by the estimate (inf when estimate=0)."""
        if self.probability <= 0:
            return float("inf")
        return self.std_error / self.probability

    @property
    def log10_probability(self) -> float:
        """``log10 P``; ``-inf`` when the estimate is zero."""
        if self.probability <= 0:
            return float("-inf")
        return float(np.log10(self.probability))

    def confidence_interval(self, z: float = 1.96) -> tuple:
        """Normal-approximation confidence interval ``(low, high)``."""
        half = z * self.std_error
        return (
            max(self.probability - half, 0.0),
            min(self.probability + half, 1.0),
        )


def transient_overflow_mc(
    arrivals: np.ndarray,
    service_rate: float,
    buffer_size: float,
    *,
    use_workload_form: bool = True,
    initial: float = 0.0,
) -> OverflowEstimate:
    """Estimate ``P(Q_k > b)`` from replicated arrival paths.

    Parameters
    ----------
    arrivals:
        Replications of the arrival process, shape ``(size, k)``.
    service_rate:
        Deterministic service per slot.
    buffer_size:
        Threshold ``b``.
    use_workload_form:
        If True (default), uses the eq. 17 workload-supremum event
        ``sup_{i<=k} W_i > b`` (equal in law to ``Q_k > b`` when the
        queue starts empty).  If False, runs the Lindley recursion from
        ``initial`` and tests ``Q_k > b`` directly (needed when
        ``initial`` is nonzero, e.g. Fig. 15's full-buffer start).
    """
    arr = np.asarray(arrivals, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(
            f"arrivals must be 2-D (size, k), got shape {arr.shape}"
        )
    check_positive_float(buffer_size, "buffer_size")
    if use_workload_form:
        if initial != 0.0:
            raise ValidationError(
                "the workload form assumes an initially empty queue; "
                "pass use_workload_form=False for nonzero initial content"
            )
        sup = workload_supremum(arr, service_rate)[:, -1]
        indicators = (sup > buffer_size).astype(float)
    else:
        queue = lindley_recursion(arr, service_rate, initial=initial)
        indicators = (queue[:, -1] > buffer_size).astype(float)
    n = indicators.size
    p = float(indicators.mean())
    variance = float(indicators.var(ddof=1)) / n if n > 1 else float("nan")
    return OverflowEstimate(probability=p, variance=variance, replications=n)


def steady_state_overflow_from_trace(
    arrivals: Sequence[float],
    service_rate: float,
    buffer_sizes: Sequence[float],
    *,
    warmup: int = 0,
) -> list:
    """Time-average ``P(Q > b)`` from one long arrival trace.

    Runs the Lindley recursion once over the whole trace and reports,
    for every requested buffer size, the fraction of (post-warmup)
    slots with ``Q > b`` — the paper's methodology for the empirical
    "data trace results" of Figs. 16-17.  The same run serves all
    buffer sizes, exactly as the paper reuses its single empirical
    trace ("the same empirical trace was used for simulating all
    different buffer sizes!").

    Returns a list of :class:`OverflowEstimate` (variance is reported
    as NaN: time-average estimates from one strongly correlated run do
    not admit an i.i.d. variance estimate).
    """
    arr = check_1d_array(arrivals, "arrivals")
    if warmup < 0 or warmup >= arr.size:
        raise ValidationError(
            f"warmup must be in [0, {arr.size - 1}], got {warmup}"
        )
    queue = lindley_recursion(arr, service_rate)
    tail = queue[warmup:]
    if tail.size == 0:
        raise SimulationError("no samples remain after warmup")
    estimates = []
    for b in buffer_sizes:
        check_positive_float(float(b), "buffer size")
        p = float(np.mean(tail > b))
        estimates.append(
            OverflowEstimate(
                probability=p, variance=float("nan"), replications=1
            )
        )
    return estimates


def cell_loss_ratio_from_trace(
    arrivals: Sequence[float],
    service_rate: float,
    buffer_sizes: Sequence[float],
    *,
    warmup: int = 0,
) -> list:
    """Finite-buffer cell loss ratios from one long arrival trace.

    For each buffer size, runs the finite-capacity multiplexer over the
    whole trace and reports lost work / offered work — the quantity the
    paper's title promises.  The infinite-buffer tail probability
    ``P(Q > b)`` (what Figs. 16-17 plot) upper-bounds the loss ratio
    for the same ``b``; both are useful and they share the slow decay
    under self-similar input.

    Returns one :class:`OverflowEstimate` per buffer size whose
    ``probability`` field carries the loss ratio (variance NaN: single
    correlated run, as with the time-average estimator).
    """
    arr = check_1d_array(arrivals, "arrivals")
    if warmup < 0 or warmup >= arr.size:
        raise ValidationError(
            f"warmup must be in [0, {arr.size - 1}], got {warmup}"
        )
    from .multiplexer import AtmMultiplexer

    tail = arr[warmup:]
    estimates = []
    for b in buffer_sizes:
        check_positive_float(float(b), "buffer size")
        result = AtmMultiplexer(
            service_rate, buffer_size=float(b)
        ).simulate(tail)
        estimates.append(
            OverflowEstimate(
                probability=result.loss_ratio,
                variance=float("nan"),
                replications=1,
            )
        )
    return estimates
