"""repro — unified modeling & simulation of self-similar VBR video.

A from-scratch reproduction of

    C. Huang, M. Devetsikiotis, I. Lambadaris, A. R. Kaye,
    "Modeling and Simulation of Self-Similar Variable Bit Rate
    Compressed Video: A Unified Approach", ACM SIGCOMM 1995.

The package is organized as:

- :mod:`repro.core` — the unified VBR model (§3.2) and the composite
  MPEG I/B/P model (§3.3);
- :mod:`repro.processes` — exact Gaussian process generation (Hosking,
  Davies-Harte), FARIMA, fGn, and the composite SRD+LRD correlation
  family (eq. 10-13);
- :mod:`repro.estimators` — Hurst estimators (variance-time, R/S,
  periodogram, DFA), sample ACF, and the SRD/LRD ACF fitter;
- :mod:`repro.marginals` — empirical histogram inversion, parametric
  marginals, the eq. 7 transform, and Appendix A attenuation analysis;
- :mod:`repro.video` — GOP structure, trace containers, and the
  synthetic MPEG-1 codec that substitutes for the paper's proprietary
  "Last Action Hero" trace;
- :mod:`repro.queueing` — the slotted ATM multiplexer (eq. 16-17);
- :mod:`repro.simulation` — importance-sampling rare-event estimation
  (Appendix B) and the experiment runners for Figs. 14-17;
- :mod:`repro.observability` — opt-in run metrics (counters, timers,
  IS convergence diagnostics such as the effective sample size) with
  JSON-lines and Prometheus-style export.

Quickstart::

    from repro import SyntheticCodecConfig, SyntheticMPEGCodec, UnifiedVBRModel

    trace = SyntheticMPEGCodec(
        SyntheticCodecConfig.intraframe_paper_like(num_frames=60_000)
    ).generate(random_state=1)
    model = UnifiedVBRModel().fit(trace)
    synthetic = model.generate(10_000, random_state=2)
"""

from .core import (
    AggregateFeed,
    AggregateVBRModel,
    CompositeMPEGModel,
    ModelFitReport,
    ShardedAggregateModel,
    SourceClass,
    SourcePopulation,
    UnifiedVBRModel,
    fit_report,
)
from .estimators import (
    dfa_estimate,
    fit_composite_acf,
    fit_farima,
    periodogram_estimate,
    rs_estimate,
    sample_acf,
    variance_time_estimate,
    whittle_estimate,
)
from .exceptions import (
    CorrelationError,
    EstimationError,
    GenerationError,
    NotFittedError,
    ReproError,
    SimulationError,
    SimulationWarning,
    ValidationError,
)
from .observability import (
    MetricsRegistry,
    RunContext,
    recording,
    render_prometheus,
    to_json_lines,
)
from .marginals import (
    EmpiricalDistribution,
    GammaDistribution,
    GammaParetoDistribution,
    MarginalTransform,
    ParetoDistribution,
)
from .processes import (
    CoefficientTable,
    CompositeCorrelation,
    ExponentialCorrelation,
    FARIMACorrelation,
    FGNCorrelation,
    GaussianSource,
    SourceCapabilities,
    conditional_forecast,
    SpectralTable,
    davies_harte_generate,
    farima_generate,
    fgn_generate,
    get_coefficient_table,
    get_spectral_table,
    hosking_generate,
    registry,
)
from .queueing import AtmMultiplexer, lindley_recursion
from .simulation import (
    effective_sample_size,
    is_overflow_probability,
    overflow_vs_buffer_curve,
    search_twisted_mean,
)
from .video import (
    FrameType,
    GopStructure,
    SyntheticCodecConfig,
    SyntheticMPEGCodec,
    VideoTrace,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "UnifiedVBRModel",
    "CompositeMPEGModel",
    "AggregateVBRModel",
    "SourceClass",
    "SourcePopulation",
    "ShardedAggregateModel",
    "AggregateFeed",
    "ModelFitReport",
    "fit_report",
    # processes
    "FGNCorrelation",
    "ExponentialCorrelation",
    "CompositeCorrelation",
    "FARIMACorrelation",
    "CoefficientTable",
    "get_coefficient_table",
    "SpectralTable",
    "get_spectral_table",
    "hosking_generate",
    "davies_harte_generate",
    "fgn_generate",
    "farima_generate",
    "GaussianSource",
    "SourceCapabilities",
    "registry",
    # estimators
    "sample_acf",
    "variance_time_estimate",
    "rs_estimate",
    "periodogram_estimate",
    "dfa_estimate",
    "whittle_estimate",
    "fit_composite_acf",
    "fit_farima",
    "conditional_forecast",
    # marginals
    "EmpiricalDistribution",
    "GammaDistribution",
    "ParetoDistribution",
    "GammaParetoDistribution",
    "MarginalTransform",
    # video
    "FrameType",
    "GopStructure",
    "VideoTrace",
    "SyntheticCodecConfig",
    "SyntheticMPEGCodec",
    # queueing / simulation
    "AtmMultiplexer",
    "lindley_recursion",
    "is_overflow_probability",
    "overflow_vs_buffer_curve",
    "search_twisted_mean",
    "effective_sample_size",
    # observability
    "MetricsRegistry",
    "RunContext",
    "recording",
    "to_json_lines",
    "render_prometheus",
    # exceptions
    "ReproError",
    "ValidationError",
    "NotFittedError",
    "CorrelationError",
    "GenerationError",
    "EstimationError",
    "SimulationError",
    "SimulationWarning",
]
