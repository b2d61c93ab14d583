"""Instrumented rare-event cell-loss estimation (paper §4 + metrics).

The same pipeline as ``atm_cell_loss_importance_sampling.py`` — fit the
unified model, locate the variance valley (Fig. 14), run the Fig. 16
buffer sweep — but with the run-metrics observability layer attached:

1. a :class:`repro.observability.RunContext` is bound with
   :func:`repro.recording` around the fit, the twist search, and the
   buffer sweep (each under its own ``phase=`` scope);
2. afterwards the snapshot is interrogated for importance-sampling
   convergence diagnostics: effective sample size (ESS) per twist, the
   likelihood-ratio weight spread, per-leg wall times, and
   coefficient-cache hit rates;
3. the snapshot is exported both as JSON lines (the ``--metrics-out``
   format) and as Prometheus-style text.

Attaching metrics never perturbs the estimates: the instrumentation
records around the simulation without touching any random stream, so
this run's numbers are bit-identical to the uninstrumented example at
the same seeds and sizes.

Run:  python examples/atm_cell_loss_importance_sampling_metrics.py
"""

from repro import (
    RunContext,
    SyntheticCodecConfig,
    SyntheticMPEGCodec,
    UnifiedVBRModel,
    recording,
    render_prometheus,
    to_json_lines,
)
from repro.queueing import service_rate_for_utilization
from repro.simulation import (
    overflow_vs_buffer_curve,
    search_twisted_mean,
)

UTILIZATION = 0.4
BUFFER_SIZES = [25.0, 50.0, 100.0]
REPLICATIONS = 300


def main() -> None:
    ctx = RunContext(scope={"example": "atm-cell-loss"})

    trace = SyntheticMPEGCodec(
        SyntheticCodecConfig.intraframe_paper_like(num_frames=120_000)
    ).generate(random_state=21)
    with recording(ctx.scoped(phase="fit")):
        model = UnifiedVBRModel(max_lag=400).fit(trace, random_state=22)
    arrivals = model.arrival_transform()
    mu = service_rate_for_utilization(1.0, UTILIZATION)
    print(f"fitted: {model}")

    with recording(ctx.scoped(phase="search")):
        search = search_twisted_mean(
            model.background_correlation,
            arrivals,
            service_rate=mu,
            buffer_size=50.0,
            horizon=500,
            twist_values=[0.0, 1.0, 2.0, 3.0],
            replications=REPLICATIONS,
            random_state=23,
        )
    best = search.best_twist
    print(f"favorable twist m* = {best:.1f}")

    with recording(ctx.scoped(phase="curve")):
        curve = overflow_vs_buffer_curve(
            model.background_correlation,
            arrivals,
            utilization=UTILIZATION,
            buffer_sizes=BUFFER_SIZES,
            replications=REPLICATIONS,
            twisted_mean=best,
            random_state=24,
        )
    for b, estimate in zip(BUFFER_SIZES, curve.estimates):
        print(f"  b={b:>5.0f}: log10 P = {estimate.log10_probability:.2f}"
              f"  (hits {estimate.hits}, ESS {estimate.ess:.1f})")

    # ------------------------------------------------------------------
    # Interrogate the snapshot: IS convergence diagnostics.
    # ------------------------------------------------------------------
    snapshot = ctx.snapshot()

    print("\nESS per twist point (search phase):")
    for entry in snapshot:
        if (
            entry["name"] == "is.ess"
            and entry["labels"].get("phase") == "search"
        ):
            print(f"  m* = {entry['labels']['twist']:>4}: "
                  f"ESS = {entry['value']:.1f}")

    print("\nlikelihood-ratio weight spread per sweep leg:")
    for entry in snapshot:
        if (
            entry["name"] == "is.weight"
            and entry["labels"].get("phase") == "curve"
        ):
            print(f"  buffer {entry['labels'].get('buffer'):>5}: "
                  f"mean {entry['mean']:.3e}, "
                  f"max/mean {entry['max'] / entry['mean']:.1f}")

    print("\nper-leg wall time and cache activity:")
    for entry in snapshot:
        if entry["name"] == "is.leg_seconds":
            print(f"  leg {entry['labels'].get('leg', '-'):>2} "
                  f"(phase {entry['labels'].get('phase')}): "
                  f"{entry['total']:.2f}s")
    for entry in snapshot:
        if entry["name"].startswith("coeff_table."):
            print(f"  {entry['name']}: {entry['value']:.0f} "
                  f"(phase {entry['labels'].get('phase')})")

    # ------------------------------------------------------------------
    # Export: JSON lines (the CLI --metrics-out format) + Prometheus.
    # ------------------------------------------------------------------
    json_text = to_json_lines(
        snapshot, header={"example": "atm-cell-loss", "best_twist": best}
    )
    prom_text = render_prometheus(snapshot)
    print(f"\nJSON-lines export: {len(json_text.splitlines())} records; "
          f"Prometheus export: {len(prom_text.splitlines())} lines")
    print("first JSON record:", json_text.splitlines()[0])


if __name__ == "__main__":
    main()
