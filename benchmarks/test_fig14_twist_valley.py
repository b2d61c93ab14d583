"""Fig. 14 — normalized variance of the IS estimator vs the twisted mean.

The paper scans m* with stop time k = 500, utilization 0.2, normalized
buffer size b = 25, and 1000 replications; the normalized variance
shows a clear valley (their near-optimal m* = 3.2, variance reduction
~1000x vs plain MC).  The bench reproduces the scan on the fitted
model and prints the valley.

The replication count ignores ``REPRO_BENCH_SCALE``: the variance
reduction is measured against the m* = 0 leg, which has 6 hits at the
paper's 1000 replications and none at 200.  The whole scan takes about
a second.
"""

import numpy as np

from repro.queueing.multiplexer import service_rate_for_utilization
from repro.simulation.twist_search import search_twisted_mean
from repro.stats.asciiplot import ascii_plot

from .conftest import format_series

#: The paper's Fig. 14 parameters.
UTILIZATION = 0.2
BUFFER_SIZE = 25.0
HORIZON = 500
REPLICATIONS = 1000
TWIST_GRID = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]


def test_fig14_twist_valley(benchmark, unified_model, arrival_transform,
                            emit):
    result = benchmark.pedantic(
        search_twisted_mean,
        args=(unified_model.background_correlation, arrival_transform),
        kwargs={
            "service_rate": service_rate_for_utilization(1.0, UTILIZATION),
            "buffer_size": BUFFER_SIZE,
            "horizon": HORIZON,
            "twist_values": TWIST_GRID,
            "replications": REPLICATIONS,
            "random_state": 14,
        },
        rounds=1,
        iterations=1,
    )
    rows = [
        (
            f"{m:.1f}",
            f"{e.probability:.3e}",
            f"{nv:.4f}",
            e.hits,
        )
        for m, e, nv in zip(
            result.twist_values, result.estimates,
            result.scaled_variances,
        )
    ]
    emit(
        "== Fig. 14: normalized variance vs twisted mean m* ==",
        f"(util {UTILIZATION}, b = {BUFFER_SIZE:.0f}, k = {HORIZON}, "
        f"N = {REPLICATIONS})",
        *format_series(
            ("m*", "P estimate", "normalized var (max=1)", "hits"), rows
        ),
        f"valley bottom (near-optimal m*): {result.best_twist:.1f} "
        "(paper: 3.2)",
        f"variance reduction vs plain MC: "
        f"{result.variance_reduction_vs(0):.0f}x (paper: ~1000x)",
        ascii_plot(
            result.twist_values,
            {
                "normalized variance": np.clip(
                    result.scaled_variances, 0.0, 1.0
                )
            },
            title="Fig. 14 — normalized variance vs twisted mean m*",
            x_label="m*",
            y_label="scaled variance",
            height=12,
        ),
    )
    # The valley is interior: neither plain MC nor the extreme twist.
    assert 0.0 < result.best_twist < TWIST_GRID[-1]
    # Twisting helps substantially.
    assert result.variance_reduction_vs(0) > 5.0
    # The scan is a valley: scaled variance at the ends exceeds the
    # bottom by an order of magnitude.
    scaled_var = result.scaled_variances
    bottom = scaled_var[result.best_index]
    assert scaled_var[0] > 5 * bottom
    assert scaled_var[-1] > 5 * bottom
