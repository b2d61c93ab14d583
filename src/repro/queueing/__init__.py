"""ATM multiplexer queueing substrate (paper §4).

The paper studies a slotted-time single-server queue with deterministic
service rate ``mu`` fed by the (self-similar) arrival process ``Y``:

.. math:: Q_k = \\langle Q_{k-1} + Y_k - \\mu \\rangle^+           (eq. 16)

and, via the workload process ``W_k = sum_{i<=k} (Y_i - mu)``,

.. math:: \\Pr(Q_k > b) = \\Pr(\\sup_{0 \\le i \\le k} W_i > b)      (eq. 17)

This subpackage provides the Lindley recursion (batched over
replications), the workload/supremum form, the multiplexer wrapper
with utilization/normalized-buffer conventions, and plain Monte Carlo
overflow estimators (the importance-sampling estimators live in
:mod:`repro.simulation`).
"""

from .capacity import (
    EffectiveBandwidthCurve,
    LossVsN,
    admissible_sources,
    bufferless_loss_gaussian,
    effective_bandwidth_vs_n,
    loss_vs_n,
)
from .lindley import (
    lindley_recursion,
    workload_paths,
    workload_supremum,
)
from .multiplexer import AtmMultiplexer, service_rate_for_utilization
from .overflow import (
    OverflowEstimate,
    cell_loss_ratio_from_trace,
    steady_state_overflow_from_trace,
    transient_overflow_mc,
)
from .spreading import slice_service_rate, spread_arrivals
from .theory import (
    norros_decay_exponent,
    norros_effective_bandwidth,
    norros_overflow_approximation,
)

__all__ = [
    "spread_arrivals",
    "slice_service_rate",
    "lindley_recursion",
    "workload_paths",
    "workload_supremum",
    "AtmMultiplexer",
    "service_rate_for_utilization",
    "OverflowEstimate",
    "transient_overflow_mc",
    "steady_state_overflow_from_trace",
    "cell_loss_ratio_from_trace",
    "norros_overflow_approximation",
    "norros_decay_exponent",
    "norros_effective_bandwidth",
    "EffectiveBandwidthCurve",
    "LossVsN",
    "effective_bandwidth_vs_n",
    "admissible_sources",
    "bufferless_loss_gaussian",
    "loss_vs_n",
]
