"""Rare-event (importance sampling) simulation substrate (Appendix B).

To estimate tiny overflow probabilities, the paper *twists* the mean of
the background Gaussian process (``X' = X + m*``), simulates the queue
under the twisted law, and unbiases each replication with the exact
likelihood ratio of the two conditional-Gaussian path densities
(eq. 42-48).  The near-optimal twist is found by scanning the
estimator's normalized variance for its "valley" (Fig. 14).
"""

from .estimators import ISEstimate, effective_sample_size
from .importance import (
    TwistedBackground,
    is_overflow_probability,
    is_transient_overflow_curve,
)
from .parallel import pool_stats, shared_pool, shutdown_shared_pool
from .shm import shm_stats
from .runner import (
    ModelComparisonResult,
    OverflowCurve,
    aggregate_overflow_curve,
    mc_overflow_vs_buffer_curve,
    model_comparison_curves,
    overflow_vs_buffer_curve,
    transient_overflow_curves,
)
from .twist_search import (
    TwistSearchResult,
    refine_twisted_mean,
    search_twisted_mean,
    sweep_twists,
)

__all__ = [
    "ISEstimate",
    "effective_sample_size",
    "shared_pool",
    "shutdown_shared_pool",
    "pool_stats",
    "shm_stats",
    "TwistedBackground",
    "is_overflow_probability",
    "is_transient_overflow_curve",
    "TwistSearchResult",
    "search_twisted_mean",
    "sweep_twists",
    "refine_twisted_mean",
    "OverflowCurve",
    "ModelComparisonResult",
    "overflow_vs_buffer_curve",
    "mc_overflow_vs_buffer_curve",
    "transient_overflow_curves",
    "model_comparison_curves",
    "aggregate_overflow_curve",
]
