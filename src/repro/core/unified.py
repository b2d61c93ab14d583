"""The unified VBR video model (paper §3.1-§3.2).

:class:`UnifiedVBRModel` implements the paper's four-step pipeline:

1. **Hurst estimation** — variance-time and R/S analyses of the trace,
   combined into one working estimate (the paper averaged its 0.89 and
   0.92 readings into ``H = 0.9``).
2. **Autocorrelation modeling** — the sample ACF is fitted with the
   composite SRD+LRD structure of eq. 10-13, the power-law exponent
   pinned to ``2 - 2H``.
3. **Attenuation measurement** — the factor ``a`` by which the marginal
   transform shrinks the ACF, measured by a pilot simulation.
4. **Compensation and generation** — the background correlation is the
   fitted model divided by ``a`` (tail) with the eq. 14 exponential
   head, fed to Hosking's method (or Davies-Harte for long traces),
   then pushed through the histogram-inversion transform of eq. 7.

The fitted model also exposes the building blocks individually
(marginal, transform, background correlation) for the queueing and
importance-sampling experiments.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from .._validation import check_positive_int
from ..exceptions import NotFittedError, ValidationError
from ..observability import current_context, recording
from ..estimators.acf import sample_acf
from ..estimators.acf_fit import AcfFit, fit_composite_acf
from ..estimators.rs_analysis import RsEstimate, rs_estimate
from ..estimators.variance_time import (
    VarianceTimeEstimate,
    variance_time_estimate,
)
from ..marginals.empirical import EmpiricalDistribution
from ..marginals.transform import MarginalTransform
from ..processes import registry
from ..processes.correlation import CompositeCorrelation
from ..processes.registry import BackendArg
from ..processes.spectral_cache import spectral_cache_metrics
from ..stats.random import RandomState
from ..video.trace import VideoTrace
from .calibration import (
    invert_transform_acf,
    # Perfbench seam: the fit always runs the pilot, but
    # perfbench/tracing.py patches this name in this module.
    measure_attenuation_analytic,  # noqa: F401
    measure_attenuation_pilot,
)

__all__ = ["UnifiedVBRModel"]


class UnifiedVBRModel:
    """Self-similar VBR video model with explicit SRD + LRD structure.

    Parameters
    ----------
    max_lag:
        Number of ACF lags estimated and fitted (the paper works with
        lags up to ~500).
    knee:
        Fix the SRD/LRD knee lag; ``None`` auto-detects it.
    histogram_bins:
        Bins of the marginal histogram inversion (eq. 7).
    background_method:
        How the background correlation is derived from the fitted
        foreground ACF:

        - ``"compensated"`` (the paper's Step 4): divide the tail by
          the scalar attenuation factor and solve eq. 14 for the
          exponential head;
        - ``"hermite-inverse"``: invert the transform's exact
          Hermite-expansion effect lag by lag and refit the composite
          model to the inverted sequence — the "automatic search for
          the best background autocorrelation structure" the paper
          leaves as future work.
    metrics:
        A seam kept for ``perfbench/workloads.py:116`` and ``:344``: a
        context given here is bound (as by
        :func:`repro.observability.recording`) in every public method.
        Otherwise :meth:`fit` records per-step fit timers
        (``model.fit_seconds`` labelled by pipeline step) and the fitted
        ``model.hurst`` / ``model.attenuation`` gauges into the current
        run context.  Observational only — never touches a random
        stream.

    Examples
    --------
    >>> from repro.video import SyntheticCodecConfig, SyntheticMPEGCodec
    >>> trace = SyntheticMPEGCodec(
    ...     SyntheticCodecConfig.intraframe_paper_like(num_frames=50_000)
    ... ).generate(1)
    >>> model = UnifiedVBRModel().fit(trace)
    >>> synthetic = model.generate(10_000, random_state=2)
    """

    def __init__(
        self,
        *,
        max_lag: int = 500,
        knee: Optional[int] = None,
        histogram_bins: int = 200,
        background_method: str = "compensated",
        metrics=None,
    ) -> None:
        self._metrics = metrics
        self.max_lag = check_positive_int(max_lag, "max_lag")
        self.knee = knee
        self.histogram_bins = check_positive_int(
            histogram_bins, "histogram_bins"
        )
        if background_method not in ("compensated", "hermite-inverse"):
            raise ValidationError(
                "background_method must be 'compensated' or "
                f"'hermite-inverse', got {background_method!r}"
            )
        self.background_method = background_method
        # Fitted state (None until fit()).
        self.marginal_: Optional[EmpiricalDistribution] = None
        self.transform_: Optional[MarginalTransform] = None
        self.variance_time_: Optional[VarianceTimeEstimate] = None
        self.rs_: Optional[RsEstimate] = None
        self.hurst_: Optional[float] = None
        self.empirical_acf_: Optional[np.ndarray] = None
        self.acf_fit_: Optional[AcfFit] = None
        self.attenuation_: Optional[float] = None
        self.background_: Optional[CompositeCorrelation] = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def fit(
        self,
        trace: Union[VideoTrace, Sequence[float]],
        *,
        random_state: RandomState = None,
    ) -> "UnifiedVBRModel":
        """Fit the model to a trace (Steps 1-4 of §3.2).

        ``trace`` may be a :class:`~repro.video.trace.VideoTrace` or a
        plain frame-size series.  ``random_state`` seeds the pilot
        simulation of the attenuation measurement.
        """
        with recording(self._metrics):
            return self._fit(trace, random_state)

    def _fit(self, trace, random_state) -> "UnifiedVBRModel":
        ctx = current_context()
        series = (
            trace.sizes if isinstance(trace, VideoTrace) else
            np.asarray(trace, dtype=float)
        )
        if series.ndim != 1 or series.size < 4 * self.max_lag:
            raise ValidationError(
                "trace must be one-dimensional with at least "
                f"{4 * self.max_lag} samples for a {self.max_lag}-lag fit"
            )

        # Marginal (eq. 7): histogram inversion.
        with ctx.time("model.fit_seconds", step="marginal"):
            self.marginal_ = EmpiricalDistribution(
                series, bins=self.histogram_bins
            )
            self.transform_ = MarginalTransform(self.marginal_)

        # Step 1: Hurst parameter.
        with ctx.time("model.fit_seconds", step="hurst"):
            self.variance_time_ = variance_time_estimate(series)
            self.rs_ = rs_estimate(series)
            self.hurst_ = 0.5 * (self.variance_time_.hurst + self.rs_.hurst)
        if not 0.5 < self.hurst_ < 1.0:
            raise ValidationError(
                f"estimated Hurst parameter {self.hurst_:.3f} is outside "
                "(0.5, 1); the trace does not look long-range dependent"
            )
        ctx.set("model.hurst", float(self.hurst_))

        # Step 2: composite ACF fit with the tail exponent 2 - 2H.
        with ctx.time("model.fit_seconds", step="acf_fit"):
            self.empirical_acf_ = sample_acf(series, self.max_lag)
            self.acf_fit_ = fit_composite_acf(
                self.empirical_acf_,
                knee=self.knee,
                lrd_exponent=2.0 - 2.0 * self.hurst_,
            )

        # Step 3: attenuation of the transform.
        with ctx.time("model.fit_seconds", step="attenuation"):
            pilot_corr = self.acf_fit_.model.with_continuity()
            hi = min(4 * int(self.acf_fit_.knee), self.max_lag)
            # The pilot simulation runs Davies-Harte; surface its
            # spectral-cache activity in the fit metrics.
            with spectral_cache_metrics(ctx, step="attenuation"):
                self.attenuation_ = measure_attenuation_pilot(
                    pilot_corr,
                    self.transform_,
                    max_lag=self.max_lag,
                    lag_range=(int(self.acf_fit_.knee), hi),
                    random_state=random_state,
                )
        ctx.set("model.attenuation", float(self.attenuation_))

        # Step 4: background correlation.
        with ctx.time("model.fit_seconds", step="background"):
            if self.background_method == "compensated":
                # The paper's eq. 14: divide the tail by a, re-solve the
                # head.
                self.background_ = self.acf_fit_.model.compensated(
                    self.attenuation_
                )
            else:
                # Hermite inversion: exact per-lag background ACF,
                # refitted with the composite structure so generation
                # stays valid.
                lags = np.arange(self.max_lag + 1, dtype=float)
                target = np.asarray(
                    self.acf_fit_.model(lags), dtype=float
                )
                target[0] = 1.0
                inverted = invert_transform_acf(target, self.transform_)
                refit = fit_composite_acf(
                    inverted,
                    knee=self.acf_fit_.knee,
                    lrd_exponent=self.acf_fit_.model.lrd_exponent,
                )
                self.background_ = refit.model.with_continuity()
        return self

    def _require_fitted(self) -> None:
        if self.background_ is None:
            raise NotFittedError(
                "UnifiedVBRModel must be fitted before this operation"
            )

    # ------------------------------------------------------------------
    # Fitted accessors
    # ------------------------------------------------------------------

    @property
    def background_correlation(self) -> CompositeCorrelation:
        """The compensated background correlation fed to the generator."""
        self._require_fitted()
        return self.background_

    @property
    def fitted_acf_model(self) -> CompositeCorrelation:
        """The composite model fitted to the empirical (foreground) ACF."""
        self._require_fitted()
        return self.acf_fit_.model

    @property
    def hurst(self) -> float:
        """The working Hurst estimate (Step 1)."""
        self._require_fitted()
        return float(self.hurst_)

    @property
    def attenuation(self) -> float:
        """The measured attenuation factor ``a`` (Step 3)."""
        self._require_fitted()
        return float(self.attenuation_)

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------

    def background_source(
        self, backend: BackendArg = "auto"
    ):
        """Resolve a :class:`~repro.processes.source.GaussianSource`.

        ``backend`` is a registry name (``"hosking"``,
        ``"davies_harte"``, ...), ``"auto"`` (Davies-Harte for the
        unconditional fixed-length paths generated here), or an
        already-built source instance.
        """
        self._require_fitted()
        with recording(self._metrics):
            return registry.resolve(backend, self.background_)

    def generate_background(
        self,
        n: int,
        *,
        size: Optional[int] = None,
        backend: BackendArg = "auto",
        chunk_frames: Optional[int] = None,
        processes: Optional[int] = None,
        random_state: RandomState = None,
    ) -> np.ndarray:
        """Generate the background Gaussian process X (zero mean, unit var).

        ``backend`` selects a generation backend from
        :mod:`repro.processes.registry` (default ``"auto"``, which
        routes unconditional paths to the O(n log n) Davies-Harte
        generator).

        ``chunk_frames`` routes generation through the chunked pipeline
        of :mod:`repro.processes.chunked` (``processes`` chunk jobs in
        flight), which requires the ``chunked`` backend capability and
        ``size=None``.  The default ``chunk_frames=None`` keeps the
        single-pass path byte-identical to previous releases — chunking
        is part of the law, never an invisible default.
        """
        self._require_fitted()
        with recording(self._metrics) as ctx, spectral_cache_metrics(ctx):
            return self._generate_background(
                n, size, backend, chunk_frames, processes, random_state
            )

    def _generate_background(
        self, n, size, backend, chunk_frames, processes, random_state
    ) -> np.ndarray:
        if chunk_frames is None:
            if processes is not None:
                raise ValidationError("processes= requires chunk_frames=")
            source = self.background_source(backend)
            return source.sample(n, size=size, random_state=random_state)
        if size is not None:
            raise ValidationError(
                "chunk_frames= generates one long path; size= is not "
                "supported (loop replications instead)"
            )
        source = registry.resolve(backend, self.background_, chunked=True)
        from ..processes.chunked import ChunkedGenerator

        generator = ChunkedGenerator(
            source, chunk_frames=chunk_frames, processes=processes
        )
        return generator.generate(n, random_state=random_state)

    def generate(
        self,
        n: int,
        *,
        size: Optional[int] = None,
        backend: BackendArg = "auto",
        chunk_frames: Optional[int] = None,
        processes: Optional[int] = None,
        random_state: RandomState = None,
    ) -> np.ndarray:
        """Generate a synthetic foreground trace Y = h(X) (eq. 7)."""
        x = self.generate_background(
            n,
            size=size,
            backend=backend,
            chunk_frames=chunk_frames,
            processes=processes,
            random_state=random_state,
        )
        return np.asarray(self.transform_(x), dtype=float)

    def arrival_transform(self):
        """Unit-mean arrival transform for the queueing experiments.

        Returns a callable mapping background samples to arrivals with
        mean 1, so buffer sizes are the paper's *normalized* buffer
        sizes and the service rate for utilization ``rho`` is
        ``1 / rho``.
        """
        self._require_fitted()
        transform = self.transform_
        mean = self.marginal_.mean

        def arrivals(x: np.ndarray) -> np.ndarray:
            return np.asarray(transform(x), dtype=float) / mean

        return arrivals

    def __repr__(self) -> str:
        if self.background_ is None:
            return "UnifiedVBRModel(unfitted)"
        return (
            f"UnifiedVBRModel(hurst={self.hurst_:.3f}, "
            f"knee={self.acf_fit_.knee}, attenuation={self.attenuation_:.3f})"
        )
