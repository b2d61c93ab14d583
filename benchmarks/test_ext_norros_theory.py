"""Extension — simulation vs the Norros fBm overflow asymptote.

The paper's Fig. 17 discussion leans on the theory of its references
[23] (Norros) and [6] (Duffield & O'Connell): for self-similar input
the overflow probability decays Weibull-like, ``log P ~ -gamma *
b^{2-2H}``.  This bench validates the reproduced IS machinery against
that theory on the cleanest possible system: an FGN-driven Gaussian
queue (identity marginal), where the Norros approximation applies
directly.  Agreement here certifies both the generator and the
likelihood ratios independently of the video modeling.
"""

import numpy as np

from repro.processes.correlation import FGNCorrelation
from repro.queueing.theory import (
    norros_decay_exponent,
    norros_overflow_approximation,
)
from repro.simulation.importance import is_overflow_probability

from .conftest import format_series, scaled

HURST = 0.8
MEAN = 1.0
SERVICE = 2.0
BUFFER_SIZES = [5.0, 10.0, 20.0, 40.0, 80.0]
REPLICATIONS = 2000


def arrivals(x):
    """Gaussian arrivals: mean 1, variance 1 (can go negative — the
    Norros fluid model allows it)."""
    return x + MEAN


def test_ext_norros_theory(benchmark, emit):
    def run_curve():
        estimates = []
        for i, b in enumerate(BUFFER_SIZES):
            estimates.append(
                is_overflow_probability(
                    FGNCorrelation(HURST),
                    arrivals,
                    service_rate=SERVICE,
                    buffer_size=b,
                    horizon=int(12 * b),
                    twisted_mean=1.0,
                    replications=scaled(REPLICATIONS),
                    random_state=800 + i,
                )
            )
        return estimates

    estimates = benchmark.pedantic(run_curve, rounds=1, iterations=1)
    theory = norros_overflow_approximation(
        BUFFER_SIZES,
        hurst=HURST,
        mean_rate=MEAN,
        service_rate=SERVICE,
        variance_coefficient=1.0,
    )
    rows = [
        (
            int(b),
            f"{e.log10_probability:.2f}",
            f"{np.log10(t):.2f}",
        )
        for b, e, t in zip(BUFFER_SIZES, estimates, theory)
    ]
    emit(
        f"== Extension: IS simulation vs Norros asymptote "
        f"(FGN H={HURST}) ==",
        *format_series(
            ("buffer b", "IS log10 P", "Norros log10 P"), rows
        ),
        "the Norros formula is a lower-bound approximation; shapes "
        "(Weibull decay in b^{2-2H}) should align",
    )
    sim_logs = np.array([e.log10_probability for e in estimates])
    theory_logs = np.log10(theory)
    # Same Weibull shape: regress both on b^{2-2H} and compare slopes.
    x = np.asarray(BUFFER_SIZES) ** norros_decay_exponent(HURST)
    sim_slope = np.polyfit(x, sim_logs, 1)[0]
    theory_slope = np.polyfit(x, theory_logs, 1)[0]
    assert sim_slope < 0 and theory_slope < 0
    assert 0.4 < sim_slope / theory_slope < 2.5
    # Levels within 1.2 decades everywhere (it is a bound, not equality).
    assert np.all(np.abs(sim_logs - theory_logs) < 1.2)
