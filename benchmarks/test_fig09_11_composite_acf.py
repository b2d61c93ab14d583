"""Figs. 9-11 — composite I/B/P model ACF vs the empirical trace.

The paper compares the frame-level autocorrelation of the composite
synthetic trace against the interframe-coded empirical trace over
three lag windows (1-150, 151-300, 301-490).  The oscillating shape is
dominated by the period-12 GOP structure; the envelope decays slowly
(LRD).  One bench covers all three windows.
"""

import numpy as np

from repro.estimators.acf import sample_acf

from .conftest import format_series

WINDOWS = {
    "Fig. 9 (lags 1-150)": (1, 150),
    "Fig. 10 (lags 151-300)": (151, 300),
    "Fig. 11 (lags 301-490)": (301, 490),
}


def test_fig09_to_11_composite_acf(benchmark, composite_model,
                                   ibp_trace_full, emit):
    def regenerate():
        trace = composite_model.generate(
            ibp_trace_full.num_frames,
            backend="davies-harte",
            random_state=31,
        )
        return sample_acf(trace.sizes, 490)

    model_acf = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    empirical_acf = sample_acf(ibp_trace_full.sizes, 490)

    for title, (lo, hi) in WINDOWS.items():
        lags = [lo, lo + 11, (lo + hi) // 2 // 12 * 12,
                (lo + hi) // 2 // 12 * 12 + 6, hi - hi % 12, hi]
        lags = sorted({k for k in lags if lo <= k <= hi})
        rows = [
            (k, f"{empirical_acf[k]:.4f}", f"{model_acf[k]:.4f}")
            for k in lags
        ]
        window = slice(lo, hi + 1)
        err = float(
            np.mean(np.abs(empirical_acf[window] - model_acf[window]))
        )
        emit(
            f"== {title}: composite model vs trace ACF ==",
            *format_series(("lag", "empirical", "model"), rows),
            f"mean |error| over window: {err:.4f}",
        )
        assert err < 0.1

    # GOP periodicity: multiples of 12 are local maxima in both.
    for acf in (empirical_acf, model_acf):
        assert acf[12] > acf[6]
        assert acf[24] > acf[18]
        assert acf[120] > acf[114]
    # LRD envelope: the period-12 peaks decay slowly.
    assert model_acf[480] > 0.05
