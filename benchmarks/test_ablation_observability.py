"""Ablation — cost of the observability layer on a Fig. 16-style sweep.

The observability contract is "no-op cheap when disabled": a run with
no context bound (no ``recording`` block) pays one context-variable
read and an empty method call per instrumented site.  This bench bounds
that cost directly:

1. run the importance-sampling buffer sweep plain and instrumented,
   checking the estimates are bit-identical (instrumentation never
   touches a random stream);
2. count the metric operations the instrumented run recorded
   (``MetricsRegistry.operation_count``) — a proxy for the number of
   instrumented call sites the disabled run executes;
3. microbenchmark the null context's per-call cost (charging every
   call a ``current_context()`` read), and assert

   ``operation_count * null_cost_per_op < 2% of the plain sweep time``.

The site-count bound is used instead of comparing the two sweep wall
times because a few-millisecond effect drowns in run-to-run noise of a
multi-second sweep; the bound is two orders of magnitude more stable
and strictly conservative (enabled runs record at least as many ops as
disabled runs execute sites).
"""

import time

import numpy as np

from repro.observability import RunContext, current_context, recording
from repro.observability.sinks import sanitize_value
from repro.simulation.runner import overflow_vs_buffer_curve

from .conftest import format_series, scaled

#: Fig. 16 slice: one utilization, the two smallest paper buffers.
BUFFER_SIZES = [25.0, 50.0]
UTILIZATION = 0.8
TWIST = 0.5
REPLICATIONS = 300

#: The acceptance threshold for disabled-instrumentation overhead.
MAX_OVERHEAD = 0.02


def _sanitize_snapshot(snapshot):
    out = []
    for entry in snapshot:
        clean = {}
        for key, value in entry.items():
            if isinstance(value, list):
                value = [
                    {k: sanitize_value(v) for k, v in item.items()}
                    if isinstance(item, dict) else sanitize_value(item)
                    for item in value
                ]
            else:
                value = sanitize_value(value)
            clean[key] = value
        out.append(clean)
    return out


def _null_cost_per_op(calls: int = 200_000) -> float:
    """Seconds per disabled-instrumentation call (with label kwargs)."""
    start = time.perf_counter()
    for _ in range(calls):
        current_context().inc("is.hits", 1.0, twist=0.5)
    return (time.perf_counter() - start) / calls


def test_observability_null_overhead(benchmark, unified_model,
                                     arrival_transform, emit,
                                     record_bench):
    replications = scaled(REPLICATIONS)
    kwargs = dict(
        utilization=UTILIZATION,
        buffer_sizes=BUFFER_SIZES,
        replications=replications,
        twisted_mean=TWIST,
        random_state=80,
    )
    correlation = unified_model.background_correlation
    timings = {}

    def sweep(label, ctx=None):
        start = time.perf_counter()
        with recording(ctx):
            curve = overflow_vs_buffer_curve(
                correlation, arrival_transform, **kwargs
            )
        timings[label] = time.perf_counter() - start
        return curve

    plain = benchmark.pedantic(
        lambda: sweep("plain"), rounds=1, iterations=1
    )
    ctx = RunContext()
    instrumented = sweep("instrumented", ctx)

    # Instrumentation must not perturb the estimates.
    for a, b in zip(plain.estimates, instrumented.estimates):
        assert a.probability == b.probability
        assert a.hits == b.hits
        assert a.ess == b.ess

    ops = ctx.registry.operation_count
    assert ops > 0
    per_op = _null_cost_per_op()
    bound = ops * per_op / timings["plain"]

    snapshot = _sanitize_snapshot(ctx.snapshot())
    ess_rows = [
        (entry["labels"].get("buffer", "?"), f"{entry['value']:.1f}")
        for entry in snapshot if entry["name"] == "is.ess"
    ]
    emit(
        "== Ablation: observability null-sink overhead "
        f"(Fig. 16 slice, N={replications}) ==",
        *format_series(
            ("quantity", "value"),
            [
                ("plain sweep (s)", f"{timings['plain']:.3f}"),
                ("instrumented sweep (s)",
                 f"{timings['instrumented']:.3f}"),
                ("metric operations", ops),
                ("null cost per op (ns)", f"{per_op * 1e9:.0f}"),
                ("bounded disabled overhead",
                 f"{bound * 100:.4f}%"),
                ("threshold", f"{MAX_OVERHEAD * 100:.0f}%"),
            ],
        ),
        "ESS per leg: " + ", ".join(
            f"b={b}: {e}" for b, e in ess_rows
        ),
    )
    record_bench(
        "observability_null_overhead",
        plain_seconds=timings["plain"],
        instrumented_seconds=timings["instrumented"],
        operation_count=ops,
        null_cost_per_op_seconds=per_op,
        bounded_overhead_fraction=bound,
        threshold=MAX_OVERHEAD,
        replications=replications,
        buffer_sizes=BUFFER_SIZES,
        utilization=UTILIZATION,
        twist=TWIST,
        metrics_snapshot=snapshot,
    )

    assert bound < MAX_OVERHEAD, (
        f"disabled-instrumentation bound {bound:.4%} exceeds "
        f"{MAX_OVERHEAD:.0%} of the sweep wall time"
    )
    # Sanity on the snapshot itself: the sweep's diagnostics are there.
    names = {entry["name"] for entry in snapshot}
    assert {"is.leg_seconds", "is.ess", "parallel.legs",
            "coeff_table.tables"} <= names
    finite_ess = [
        entry["value"] for entry in snapshot
        if entry["name"] == "is.ess"
    ]
    assert len(finite_ess) == len(BUFFER_SIZES)
    assert all(np.isfinite(v) and v >= 0 for v in finite_ess)
