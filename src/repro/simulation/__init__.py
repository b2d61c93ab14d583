"""Rare-event (importance sampling) simulation substrate (Appendix B).

To estimate tiny overflow probabilities, the paper *twists* the mean of
the background Gaussian process (``X' = X + m*``), simulates the queue
under the twisted law, and unbiases each replication with the exact
likelihood ratio of the two Gaussian path densities (eq. 42-48, summed
in closed form over whole paths).  The near-optimal twist is found by
scanning the estimator's normalized variance for its "valley"
(Fig. 14).
"""

from .estimators import ISEstimate, effective_sample_size
from .importance import is_overflow_probability, is_transient_overflow_curve
from .runner import (
    ModelComparisonResult,
    OverflowCurve,
    mc_overflow_vs_buffer_curve,
    model_comparison_curves,
    overflow_vs_buffer_curve,
    transient_overflow_curves,
)
from .twist_search import (
    TwistSearchResult,
    search_twisted_mean,
    sweep_twists,
)

__all__ = [
    "ISEstimate",
    "effective_sample_size",
    "is_overflow_probability",
    "is_transient_overflow_curve",
    "TwistSearchResult",
    "search_twisted_mean",
    "sweep_twists",
    "OverflowCurve",
    "ModelComparisonResult",
    "overflow_vs_buffer_curve",
    "mc_overflow_vs_buffer_curve",
    "transient_overflow_curves",
    "model_comparison_curves",
]
