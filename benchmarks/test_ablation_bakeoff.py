"""Ablation — the cross-estimator bake-off at the acceptance workload.

Runs the paired bake-off (every registered Hurst estimator on the same
exact-fGn paths) at the paper's 2^14-sample horizon over
``H in {0.6, 0.7, 0.8, 0.9}`` and:

1. snapshots the per-estimator bias/RMSE/coverage matrix into the
   bench JSON (the machine-readable record behind DESIGN.md §5h);
2. asserts the acceptance criterion — MAVAR RMSE <= R/S and
   <= variance-time at *every* H;
3. bounds the metrics-off overhead the same way the observability
   ablation does: operation count x null-context per-op cost must
   stay under 2% of the plain run's wall time, and instrumentation
   must not perturb a single estimate.
"""

import time

import numpy as np

from repro.estimators.bakeoff import run_bakeoff
from repro.observability import RunContext, current_context, recording

from .conftest import format_series, scaled

HURSTS = (0.6, 0.7, 0.8, 0.9)
HORIZON = 1 << 14
BACKEND = "davies_harte"
REPLICATIONS = 8
SEED = 1995

#: The acceptance threshold for disabled-instrumentation overhead.
MAX_OVERHEAD = 0.02


def _null_cost_per_op(calls: int = 200_000) -> float:
    """Seconds per disabled-instrumentation call (with label kwargs)."""
    start = time.perf_counter()
    for _ in range(calls):
        current_context().inc("bakeoff.estimates", 1.0, estimator="mavar")
    return (time.perf_counter() - start) / calls


def test_bakeoff_matrix_and_overhead(benchmark, emit, record_bench):
    replications = scaled(REPLICATIONS, minimum=REPLICATIONS)
    kwargs = dict(
        hursts=HURSTS,
        horizons=(HORIZON,),
        backends=(BACKEND,),
        replications=replications,
        random_state=SEED,
    )
    timings = {}

    def bakeoff(label, ctx=None):
        start = time.perf_counter()
        with recording(ctx):
            result = run_bakeoff(**kwargs)
        timings[label] = time.perf_counter() - start
        return result

    plain = benchmark.pedantic(
        lambda: bakeoff("plain"), rounds=1, iterations=1
    )
    ctx = RunContext()
    instrumented = bakeoff("instrumented", ctx)

    # Instrumentation must not perturb a single estimate.
    for a, b in zip(plain.cells, instrumented.cells):
        np.testing.assert_array_equal(a.estimates, b.estimates)
        np.testing.assert_array_equal(a.stderrs, b.stderrs)

    ops = ctx.registry.operation_count
    assert ops > 0
    per_op = _null_cost_per_op()
    bound = ops * per_op / timings["plain"]

    # The acceptance criterion: MAVAR beats both paper-era graphical
    # estimators, cell by cell, at the paper's own horizon.
    rows = []
    for h in HURSTS:
        mavar = plain.cell("mavar", BACKEND, h, HORIZON)
        rs = plain.cell("rs", BACKEND, h, HORIZON)
        vt = plain.cell("variance_time", BACKEND, h, HORIZON)
        rows.append((
            f"{h:.1f}",
            f"{mavar.rmse:.4f}",
            f"{rs.rmse:.4f}",
            f"{vt.rmse:.4f}",
            f"{min(rs.rmse, vt.rmse) / mavar.rmse:.1f}x",
        ))
        assert mavar.rmse <= rs.rmse, (h, mavar.rmse, rs.rmse)
        assert mavar.rmse <= vt.rmse, (h, mavar.rmse, vt.rmse)
    assert plain.winner("rmse") == "mavar"

    summary = plain.summary()
    emit(
        "== Ablation: cross-estimator bake-off "
        f"(fGn {BACKEND}, 2^14 samples, N={replications}/cell) ==",
        *format_series(
            ("H", "mavar rmse", "rs rmse", "vt rmse", "margin"),
            rows,
        ),
        "",
        *plain.table().splitlines(),
        "",
        *format_series(
            ("quantity", "value"),
            [
                ("plain run (s)", f"{timings['plain']:.3f}"),
                ("instrumented run (s)",
                 f"{timings['instrumented']:.3f}"),
                ("metric operations", ops),
                ("null cost per op (ns)", f"{per_op * 1e9:.0f}"),
                ("bounded disabled overhead", f"{bound * 100:.4f}%"),
                ("threshold", f"{MAX_OVERHEAD * 100:.0f}%"),
            ],
        ),
    )
    record_bench(
        "estimator_bakeoff",
        hursts=list(HURSTS),
        horizon=HORIZON,
        backend=BACKEND,
        replications=replications,
        winner_rmse=plain.winner("rmse"),
        summary=summary,
        matrix=[
            {
                "estimator": c.estimator,
                "hurst": c.hurst,
                "bias": c.bias,
                "std": c.std,
                "rmse": c.rmse,
                "coverage": c.coverage,
                "seconds": c.seconds,
            }
            for c in plain.cells
        ],
        plain_seconds=timings["plain"],
        instrumented_seconds=timings["instrumented"],
        operation_count=ops,
        null_cost_per_op_seconds=per_op,
        bounded_overhead_fraction=bound,
        threshold=MAX_OVERHEAD,
    )

    assert bound < MAX_OVERHEAD, (
        f"disabled-instrumentation bound {bound:.4%} exceeds "
        f"{MAX_OVERHEAD:.0%} of the bake-off wall time"
    )
    # Nominal-CI under-coverage is a *finding*, not a failure: record
    # that coverage was measured for every stderr-bearing estimator.
    for name in ("variance_time", "rs", "periodogram", "dfa", "mavar"):
        assert np.isfinite(summary[name]["coverage"]), name
    assert np.isnan(summary["whittle"]["coverage"])
