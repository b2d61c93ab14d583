"""Ablation — knee selection for the composite ACF fit.

The paper sets the knee to 60 "based on the intersection point of the
two fitting curves".  Our fitter scans candidate knees and minimizes
the combined squared error, which subsumes that heuristic.  The bench
compares the auto-detected knee against fixed choices (including the
paper's 60) on the full-length trace, measuring both the descriptive
fit RMSE and the regenerated-foreground ACF error.
"""

import numpy as np

from repro.core.unified import UnifiedVBRModel
from repro.estimators.acf import sample_acf

from .conftest import format_series

KNEE_CHOICES = (None, 30, 60, 120)


def test_ablation_knee_detection(benchmark, intra_trace_full, emit):
    def run_all():
        out = {}
        for knee in KNEE_CHOICES:
            model = UnifiedVBRModel(max_lag=500, knee=knee).fit(
                intra_trace_full, random_state=7
            )
            y = model.generate(
                120_000, backend="davies-harte", random_state=97
            )
            out[knee] = (model, sample_acf(y, 500))
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    empirical = sample_acf(intra_trace_full.sizes, 500)

    rows = []
    errors = {}
    for knee, (model, acf) in results.items():
        err = float(np.mean(np.abs(acf[1:] - empirical[1:])))
        errors[knee] = err
        label = "auto" if knee is None else str(knee)
        rows.append(
            (
                label,
                model.acf_fit_.knee,
                f"{model.acf_fit_.rmse:.4f}",
                f"{err:.4f}",
            )
        )
    emit(
        "== Ablation: knee selection for the composite ACF fit ==",
        *format_series(
            ("requested", "used knee", "fit RMSE",
             "regenerated ACF error"),
            rows,
        ),
        "paper: knee fixed at 60 by curve intersection; minimum-RMSE "
        "scanning generalises that heuristic",
    )
    auto_model = results[None][0]
    # Auto-detection lands in the fitted-knee ballpark and its fit RMSE
    # is no worse than any fixed choice (it minimizes exactly that).
    assert 20 <= auto_model.acf_fit_.knee <= 200
    best_fixed_rmse = min(
        results[k][0].acf_fit_.rmse for k in KNEE_CHOICES if k
    )
    assert auto_model.acf_fit_.rmse <= best_fixed_rmse + 1e-6
    # Every choice yields a usable generative model.
    for err in errors.values():
        assert err < 0.15
