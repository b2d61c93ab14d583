"""Quickstart: fit the unified VBR model to a trace and regenerate it.

This walks the paper's §3.2 pipeline end to end:

1. obtain an "empirical" trace (here: the synthetic MPEG-1 codec that
   substitutes for the proprietary "Last Action Hero" recording);
2. fit the unified model — Hurst estimation, composite SRD+LRD ACF
   fit, attenuation measurement, background compensation;
3. generate a synthetic trace and compare its statistics with the
   original.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    SyntheticCodecConfig,
    SyntheticMPEGCodec,
    UnifiedVBRModel,
    fit_report,
    sample_acf,
)


def main() -> None:
    # ------------------------------------------------------------------
    # 1. The "empirical" trace (120k frames keeps this example quick;
    #    use the default 238,626 for the paper's full length).
    # ------------------------------------------------------------------
    config = SyntheticCodecConfig.intraframe_paper_like(num_frames=120_000)
    trace = SyntheticMPEGCodec(config).generate(random_state=1)
    print(f"trace: {trace}")
    stats = trace.summary()
    print(
        f"  mean {stats.mean:.0f} bytes/frame, "
        f"p99 {stats.p99:.0f}, max {stats.maximum:.0f}, "
        f"mean rate {trace.mean_rate_bps / 1e3:.0f} kbit/s"
    )

    # ------------------------------------------------------------------
    # 2. Fit the unified model (Steps 1-4 of the paper's §3.2).
    # ------------------------------------------------------------------
    model = UnifiedVBRModel(max_lag=400).fit(trace, random_state=2)
    print("\nfitted model parameters:")
    print(fit_report(model))

    # ------------------------------------------------------------------
    # 3. Generate a synthetic trace and compare.
    # ------------------------------------------------------------------
    synthetic = model.generate(
        trace.num_frames, backend="davies-harte", random_state=3
    )
    trace_acf = sample_acf(trace.sizes, 300)
    model_acf = sample_acf(synthetic, 300)

    print("\nACF comparison (empirical vs synthetic):")
    print("  lag   empirical   synthetic")
    for lag in (1, 10, 30, 60, 100, 200, 300):
        print(
            f"  {lag:>4}  {trace_acf[lag]:>9.4f}  {model_acf[lag]:>9.4f}"
        )

    print("\nmarginal comparison (quantiles, bytes/frame):")
    print("  level   empirical   synthetic")
    for q in (0.25, 0.5, 0.75, 0.9, 0.99):
        print(
            f"  {q:>5}  {np.quantile(trace.sizes, q):>9.0f}"
            f"  {np.quantile(synthetic, q):>9.0f}"
        )


if __name__ == "__main__":
    main()
