"""Statistical estimators: autocorrelation, Hurst parameter, ACF fitting.

The paper's modeling pipeline (§3.2) rests on three estimation tasks:

1. estimating the Hurst parameter of an empirical trace — the paper
   uses variance-time plots (Fig. 3) and R/S pox diagrams (Fig. 4);
   we additionally provide periodogram, DFA, Whittle and Modified
   Allan Variance (MAVAR) estimators as extensions;
2. estimating the empirical autocorrelation function (Fig. 5); and
3. fitting the composite SRD+LRD structure of eq. 10-13 to it,
   including knee detection (Fig. 6).

The :mod:`~repro.estimators.bakeoff` module runs every registered
Hurst estimator on the *same* seeded known-H paths (paired design)
across the backend registry and reports per-estimator bias, variance,
RMSE and CI coverage — the harness behind the Tier-1 tolerance
retunings documented in ``DESIGN.md`` §5h.
"""

from .acf import sample_acf, sample_acvf
from .acf_fit import AcfFit, fit_composite_acf, detect_knee
from .bakeoff import (
    BakeoffCell,
    BakeoffResult,
    EstimatorSpec,
    HURST_ESTIMATORS,
    run_bakeoff,
)
from .dfa import DfaEstimate, dfa_estimate
from .farima_fit import FarimaFit, farima_acvf_numeric, fit_farima
from .mavar import MavarEstimate, fgn_expected_mavar, mavar_estimate
from .periodogram import PeriodogramEstimate, periodogram_estimate
from .regression import (
    LineFit,
    fit_line,
    fit_loglog_line,
    fit_weighted_line,
    fit_weighted_loglog_line,
)
from .rs_analysis import RsEstimate, rs_estimate, rs_statistic
from .variance_time import VarianceTimeEstimate, variance_time_estimate
from .whittle import WhittleEstimate, fgn_spectral_density, whittle_estimate

__all__ = [
    "sample_acf",
    "sample_acvf",
    "AcfFit",
    "fit_composite_acf",
    "detect_knee",
    "LineFit",
    "fit_line",
    "fit_loglog_line",
    "fit_weighted_line",
    "fit_weighted_loglog_line",
    "VarianceTimeEstimate",
    "variance_time_estimate",
    "RsEstimate",
    "rs_estimate",
    "rs_statistic",
    "PeriodogramEstimate",
    "periodogram_estimate",
    "DfaEstimate",
    "dfa_estimate",
    "WhittleEstimate",
    "whittle_estimate",
    "fgn_spectral_density",
    "MavarEstimate",
    "mavar_estimate",
    "fgn_expected_mavar",
    "EstimatorSpec",
    "HURST_ESTIMATORS",
    "BakeoffCell",
    "BakeoffResult",
    "run_bakeoff",
    "FarimaFit",
    "fit_farima",
    "farima_acvf_numeric",
]
