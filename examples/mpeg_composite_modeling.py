"""Composite MPEG (I/B/P) modeling — the paper's §3.3.

Interframe-coded MPEG video mixes three very different frame
populations.  The composite model keeps one background Gaussian
process (so all frames share a single dependence structure), fits the
background correlation on the I-frame subsequence, rescales it to
frame resolution (eq. 15), and applies a separate histogram-inversion
transform per frame type.

This example fits the composite model to a synthetic interframe trace
and reports per-frame-type statistics and the oscillating frame-level
ACF that the GOP structure imprints (the paper's Figs. 9-13).

Run:  python examples/mpeg_composite_modeling.py
"""

import numpy as np

from repro import (
    CompositeMPEGModel,
    FrameType,
    SyntheticCodecConfig,
    SyntheticMPEGCodec,
    sample_acf,
)


def main() -> None:
    # An interframe trace with the paper's IBBPBBPBBPBB GOP pattern.
    config = SyntheticCodecConfig.paper_like(num_frames=120_000)
    trace = SyntheticMPEGCodec(config).generate(random_state=11)
    print(f"trace: {trace}")
    print(f"GOP pattern: {trace.gop.pattern_string} "
          f"(I period {trace.gop.i_period})")

    print("\nper-frame-type statistics (bytes/frame):")
    print("  type   count     mean      p95")
    for frame_type, summary in trace.type_summaries().items():
        print(
            f"  {frame_type:>4}  {summary.count:>6}  {summary.mean:>8.0f}"
            f"  {summary.p95:>8.0f}"
        )

    # Fit the composite model: unified fit on I frames + rescaling.
    model = CompositeMPEGModel(max_lag_i=41).fit(trace, random_state=12)
    print(f"\nfitted: {model}")
    i_model = model.i_model
    print(
        f"I-frame submodel: H = {i_model.hurst:.3f}, "
        f"knee (I lags) = {i_model.acf_fit_.knee} "
        f"(~{i_model.acf_fit_.knee * trace.gop.i_period} frame lags), "
        f"attenuation a = {i_model.attenuation:.3f}"
    )

    # Regenerate and compare the oscillating frame-level ACF.
    synthetic = model.generate(
        trace.num_frames, backend="davies-harte", random_state=13
    )
    emp_acf = sample_acf(trace.sizes, 60)
    mod_acf = sample_acf(synthetic.sizes, 60)
    print("\nframe-level ACF (note the period-12 GOP oscillation):")
    print("  lag   empirical   model")
    for lag in (1, 3, 6, 12, 18, 24, 36, 48, 60):
        print(f"  {lag:>4}  {emp_acf[lag]:>9.4f}  {mod_acf[lag]:>7.4f}")

    print("\nper-type means, model vs trace:")
    for frame_type in FrameType:
        real = trace.sizes_of(frame_type)
        generated = synthetic.sizes_of(frame_type)
        if real.size:
            print(
                f"  {frame_type.value}: trace {real.mean():.0f}  "
                f"model {generated.mean():.0f}"
            )


if __name__ == "__main__":
    main()
