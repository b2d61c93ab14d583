"""Gaussian and self-similar stochastic-process substrate.

This subpackage implements everything the paper's pipeline needs to
synthesize correlated Gaussian *background* processes:

- :mod:`repro.processes.correlation` — the correlation-model hierarchy,
  including the paper's composite SRD+LRD structure (eq. 10-13), exact
  fractional Gaussian noise, FARIMA(0, d, 0), and the lag-rescaled model
  used by the composite MPEG model (eq. 15).
- :mod:`repro.processes.hosking` — Hosking's exact conditional-Gaussian
  generator (eq. 1-6), batch-vectorised across replications.
- :mod:`repro.processes.davies_harte` — the O(n log n) circulant
  embedding generator for long traces.
- :mod:`repro.processes.spectral_cache` — shared ACVF/eigenvalue tables
  for the Davies-Harte path (the unconditional counterpart of
  :mod:`repro.processes.coeff_table`); both table kinds are served by
  the one cache of :mod:`repro.processes.acvf_cache`.
- :mod:`repro.processes.farima` — FARIMA(p, d, q) generation via
  fractional differencing.
- :mod:`repro.processes.fgn` — fractional Gaussian noise helpers.
- :mod:`repro.processes.source` — the :class:`GaussianSource` protocol
  unifying all six generators behind one swappable interface.
- :mod:`repro.processes.registry` — the string-keyed backend registry
  with capability flags and the ``auto`` selection policy.
- :mod:`repro.processes.chunked` — the scene-chunked, process-parallel
  generation pipeline with conditional Gaussian-bridge stitching.
"""

from .correlation import (
    CompositeCorrelation,
    CorrelationModel,
    ExponentialCorrelation,
    ExponentialMixtureCorrelation,
    FARIMACorrelation,
    FGNCorrelation,
    PowerLawCorrelation,
    RescaledCorrelation,
    WhiteNoiseCorrelation,
)
from .coeff_table import (
    CoefficientTable,
    clear_coefficient_cache,
    coefficient_cache_info,
    get_coefficient_table,
)
from .davies_harte import circulant_eigenvalues, davies_harte_generate
from .spectral_cache import (
    SpectralTable,
    clear_spectral_cache,
    get_spectral_table,
    spectral_cache_info,
)
from .farima import farima_generate, fractional_diff_weights
from .fgn import fgn_generate
from .forecast import GaussianForecast, conditional_forecast
from .hosking import hosking_generate
from .mg_infinity import MGInfinityConfig, mg_infinity_generate
from .partial_corr import DurbinLevinson, partial_autocorrelations
from .rmd import rmd_fbm, rmd_generate
from .chunked import (
    DEFAULT_STITCH_WINDOW,
    Chunk,
    ChunkPlan,
    ChunkReport,
    ChunkedGenerator,
    bridge_matrix,
    plan_chunks,
    stitched_covariance,
)
from .source import (
    DaviesHarteSource,
    FARIMASource,
    FGNSource,
    GaussianSource,
    HoskingSource,
    MGInfinitySource,
    RMDSource,
    SourceCapabilities,
)
from . import registry

__all__ = [
    "CorrelationModel",
    "FGNCorrelation",
    "ExponentialCorrelation",
    "ExponentialMixtureCorrelation",
    "PowerLawCorrelation",
    "CompositeCorrelation",
    "FARIMACorrelation",
    "RescaledCorrelation",
    "WhiteNoiseCorrelation",
    "DurbinLevinson",
    "partial_autocorrelations",
    "CoefficientTable",
    "get_coefficient_table",
    "clear_coefficient_cache",
    "coefficient_cache_info",
    "hosking_generate",
    "davies_harte_generate",
    "circulant_eigenvalues",
    "SpectralTable",
    "get_spectral_table",
    "clear_spectral_cache",
    "spectral_cache_info",
    "farima_generate",
    "fractional_diff_weights",
    "fgn_generate",
    "GaussianForecast",
    "conditional_forecast",
    "rmd_generate",
    "rmd_fbm",
    "MGInfinityConfig",
    "mg_infinity_generate",
    "GaussianSource",
    "SourceCapabilities",
    "HoskingSource",
    "DaviesHarteSource",
    "FGNSource",
    "FARIMASource",
    "RMDSource",
    "MGInfinitySource",
    "registry",
    "Chunk",
    "ChunkPlan",
    "ChunkReport",
    "ChunkedGenerator",
    "DEFAULT_STITCH_WINDOW",
    "bridge_matrix",
    "plan_chunks",
    "stitched_covariance",
]
