"""Fig. 8 — autocorrelation of the trace vs the final simulated process.

After compensating the background ACF by the attenuation factor
(Step 4, eq. 14), the paper regenerates the foreground process and
shows its ACF matching the empirical one.  The bench generates a
full-length synthetic trace from the fitted model and prints the two
ACFs side by side.
"""

import numpy as np

from repro.estimators.acf import sample_acf
from repro.stats.asciiplot import ascii_plot

from .conftest import format_series

REPORT_LAGS = (1, 10, 30, 60, 100, 150, 200, 300, 400, 500)


def test_fig08_final_acf_match(benchmark, unified_model,
                               intra_trace_full, emit):
    def regenerate():
        y = unified_model.generate(
            intra_trace_full.num_frames,
            backend="davies-harte",
            random_state=21,
        )
        return sample_acf(y, 500)

    model_acf = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    empirical_acf = sample_acf(intra_trace_full.sizes, 500)

    rows = [
        (k, f"{empirical_acf[k]:.4f}", f"{model_acf[k]:.4f}",
         f"{abs(empirical_acf[k] - model_acf[k]):.4f}")
        for k in REPORT_LAGS
    ]
    max_err = float(
        np.max(np.abs(empirical_acf[1:] - model_acf[1:]))
    )
    mean_err = float(
        np.mean(np.abs(empirical_acf[1:] - model_acf[1:]))
    )
    lags = np.arange(1, 501)
    emit(
        "== Fig. 8: empirical vs simulated foreground ACF ==",
        *format_series(("lag", "empirical", "model", "|err|"), rows),
        f"max |error| over lags 1..500: {max_err:.4f}",
        f"mean |error|: {mean_err:.4f}",
        "paper: visually overlapping curves",
        ascii_plot(
            lags,
            {
                "empirical": empirical_acf[1:],
                "model": model_acf[1:],
            },
            title="Fig. 8 — foreground ACF, empirical vs model",
            x_label="lag k",
            y_label="r(k)",
            height=14,
        ),
    )
    assert mean_err < 0.1
    assert max_err < 0.2
