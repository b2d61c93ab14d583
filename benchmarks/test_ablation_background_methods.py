"""Ablation — compensated (paper Step 4) vs Hermite-inverse backgrounds.

The paper divides the fitted ACF tail by a scalar attenuation factor
(eq. 14).  Our extension inverts the transform's exact Hermite-
expansion effect lag by lag ("the automatic search for the best
background autocorrelation structure" the paper leaves as future
work).  The bench fits both variants and compares the regenerated
foreground ACF error against the empirical ACF.
"""

import numpy as np

from repro.core.unified import UnifiedVBRModel
from repro.estimators.acf import sample_acf

from .conftest import format_series


def test_ablation_background_methods(benchmark, intra_trace_full, emit):
    def fit_both():
        out = {}
        for method in ("compensated", "hermite-inverse"):
            model = UnifiedVBRModel(
                max_lag=500, background_method=method
            ).fit(intra_trace_full, random_state=7)
            y = model.generate(
                intra_trace_full.num_frames,
                backend="davies-harte",
                random_state=81,
            )
            out[method] = sample_acf(y, 500)
        return out

    acfs = benchmark.pedantic(fit_both, rounds=1, iterations=1)
    empirical = sample_acf(intra_trace_full.sizes, 500)

    rows = []
    errors = {}
    for method, acf in acfs.items():
        err = float(np.mean(np.abs(acf[1:] - empirical[1:])))
        errors[method] = err
        rows.append((method, f"{err:.4f}",
                     f"{float(np.max(np.abs(acf[1:] - empirical[1:]))):.4f}"))
    emit(
        "== Ablation: background calibration methods (ACF match) ==",
        *format_series(
            ("method", "mean |ACF error|", "max |ACF error|"), rows
        ),
    )
    # Both produce a usable match; the exact inversion should not be
    # worse than the scalar compensation.
    assert errors["compensated"] < 0.12
    assert errors["hermite-inverse"] < 0.1
    assert errors["hermite-inverse"] <= errors["compensated"] + 0.02
