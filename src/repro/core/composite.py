"""The composite MPEG (I/B/P) model of §3.3.

Interframe-coded MPEG video mixes three frame populations with very
different size distributions.  The paper's composite model keeps a
*single* stationary background process ``X`` (so all frames share one
dependence structure) and applies three different marginal transforms
``h_I, h_B, h_P`` according to the GOP pattern.  Its background
correlation comes from the I-frame subsequence:

1. isolate the I frames (one every ``K_I = 12`` frames) and fit the
   unified model to them (§3.2), giving a background correlation
   ``r_I`` at I-frame lag resolution;
2. stretch to frame resolution by ``r(k) = r_I(k / K_I)`` (eq. 15).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from .._validation import check_positive_int
from ..exceptions import NotFittedError, ValidationError
from ..observability import current_context, recording
from ..marginals.empirical import EmpiricalDistribution
from ..marginals.transform import MarginalTransform
from ..processes import registry
from ..processes.correlation import CorrelationModel, RescaledCorrelation
from ..processes.registry import BackendArg
from ..processes.spectral_cache import spectral_cache_metrics
from ..stats.random import RandomState
from ..video.gop import FrameType, GopStructure
from ..video.trace import VideoTrace
from .unified import UnifiedVBRModel

__all__ = ["CompositeMPEGModel", "GopPhaseArrivalTransform"]


class GopPhaseArrivalTransform:
    """Time-varying arrival transform for a fitted composite model.

    Maps background samples to unit-mean arrivals using the marginal
    transform of the frame type at the given slot's GOP position.  The
    normalising mean is the GOP-weighted mean frame size,
    ``sum_t count_t * mean_t / K_I``.
    """

    #: Simulators call ``transform(values, step)`` when this is True.
    time_varying = True

    def __init__(self, model: "CompositeMPEGModel") -> None:
        model._require_fitted()
        self._model = model
        gop = model.gop_
        counts = gop.type_counts()
        total = 0.0
        for frame_type, marginal in model.marginals_.items():
            total += counts[FrameType(frame_type)] * marginal.mean
        self.mean_frame_size = total / gop.i_period
        # Per-GOP-position transform lookup.
        self._transforms = [
            model.transforms_[ft.value] for ft in gop.pattern
        ]

    def __call__(self, values, step: int):
        """Arrivals for slot ``step`` (0-based frame index)."""
        transform = self._transforms[step % len(self._transforms)]
        out = np.asarray(transform(values), dtype=float)
        return out / self.mean_frame_size


class CompositeMPEGModel:
    """Composite I/B/P VBR video model (one background, three transforms).

    Parameters
    ----------
    max_lag_i:
        ACF lags fitted on the I-frame subsequence (at I-frame
        resolution; ``max_lag_i = 41`` covers ~492 frame lags after
        rescaling by the paper's ``K_I = 12``).
    histogram_bins:
        Bins for each per-type histogram inversion.
    metrics:
        A seam kept for ``perfbench/workloads.py:349``: a context given
        here is bound (as by :func:`repro.observability.recording`) in
        every public method.  Otherwise :meth:`fit` records into the
        current run context: per-step fit timers and fitted-parameter
        gauges under a ``model="composite-i"`` scope (the inner unified
        fit) plus ``model.fit_seconds`` steps of this model's own
        pipeline.
    """

    def __init__(
        self,
        *,
        max_lag_i: int = 41,
        histogram_bins: int = 200,
        metrics=None,
    ) -> None:
        self._metrics = metrics
        self.max_lag_i = check_positive_int(max_lag_i, "max_lag_i")
        self.histogram_bins = check_positive_int(
            histogram_bins, "histogram_bins"
        )
        # Fitted state.
        self.gop_: Optional[GopStructure] = None
        self.i_model_: Optional[UnifiedVBRModel] = None
        self.transforms_: Dict[str, MarginalTransform] = {}
        self.marginals_: Dict[str, EmpiricalDistribution] = {}
        self.background_: Optional[CorrelationModel] = None
        self.frame_rate_: float = 30.0

    def fit(
        self,
        trace: VideoTrace,
        *,
        random_state: RandomState = None,
    ) -> "CompositeMPEGModel":
        """Fit the composite model to an interframe-coded trace."""
        with recording(self._metrics):
            return self._fit(trace, random_state)

    def _fit(self, trace, random_state) -> "CompositeMPEGModel":
        if not isinstance(trace, VideoTrace):
            raise ValidationError(
                f"trace must be a VideoTrace, got {type(trace).__name__}"
            )
        if trace.gop is None:
            raise ValidationError(
                "trace has no GOP structure; use UnifiedVBRModel for "
                "intraframe-only traces"
            )
        self.gop_ = trace.gop
        self.frame_rate_ = trace.frame_rate

        ctx = current_context()

        # Per-type marginals and transforms.
        with ctx.time("model.fit_seconds", step="marginals"):
            self.marginals_ = {}
            self.transforms_ = {}
            for frame_type in FrameType:
                sizes = trace.sizes_of(frame_type)
                if sizes.size == 0:
                    continue
                marginal = EmpiricalDistribution(
                    sizes, bins=self.histogram_bins
                )
                self.marginals_[frame_type.value] = marginal
                self.transforms_[frame_type.value] = MarginalTransform(
                    marginal
                )

        # Step 1 (§3.3): unified fit on the I-frame subsequence.  The
        # inner model records its own per-step timers under a
        # model="composite-i" scope of the same registry.
        i_sizes = trace.sizes_of(FrameType.I)
        with recording(ctx.scoped(model="composite-i")):
            self.i_model_ = UnifiedVBRModel(
                max_lag=self.max_lag_i,
                histogram_bins=self.histogram_bins,
            ).fit(i_sizes, random_state=random_state)

        # Step 2 (§3.3): stretch the I-frame background correlation to
        # frame resolution, r(k) = r_I(k / K_I).
        with ctx.time("model.fit_seconds", step="rescale"):
            self.background_ = RescaledCorrelation(
                self.i_model_.background_correlation, self.gop_.i_period
            )
        return self

    def _require_fitted(self) -> None:
        if self.background_ is None:
            raise NotFittedError(
                "CompositeMPEGModel must be fitted before this operation"
            )

    @property
    def background_correlation(self) -> CorrelationModel:
        """The rescaled background correlation (eq. 15)."""
        self._require_fitted()
        return self.background_

    @property
    def i_model(self) -> UnifiedVBRModel:
        """The unified model fitted to the I-frame subsequence."""
        self._require_fitted()
        return self.i_model_

    def background_source(self, backend: BackendArg = "auto"):
        """Resolve a :class:`~repro.processes.source.GaussianSource`
        over the rescaled background correlation (eq. 15)."""
        self._require_fitted()
        with recording(self._metrics):
            return registry.resolve(backend, self.background_)

    def generate_background(
        self,
        n: int,
        *,
        backend: BackendArg = "auto",
        chunk_frames: Optional[int] = None,
        processes: Optional[int] = None,
        random_state: RandomState = None,
    ) -> np.ndarray:
        """Generate the shared background Gaussian process of length n.

        ``backend`` selects a registry backend (default ``"auto"`` =
        Davies-Harte for these unconditional fixed-length paths).

        ``chunk_frames`` routes through the chunked pipeline of
        :mod:`repro.processes.chunked` with chunk edges aligned to the
        fitted GOP period ``K_I``, so every chunk starts on an I frame;
        ``processes`` bounds concurrent chunk jobs.  ``chunk_frames=None``
        (the default) keeps the single-pass path byte-identical to
        previous releases.
        """
        self._require_fitted()
        n = check_positive_int(n, "n")
        with recording(self._metrics) as ctx, spectral_cache_metrics(ctx):
            return self._generate_background(
                n, backend, chunk_frames, processes, random_state
            )

    def _generate_background(
        self, n, backend, chunk_frames, processes, random_state
    ) -> np.ndarray:
        if chunk_frames is None:
            if processes is not None:
                raise ValidationError("processes= requires chunk_frames=")
            source = self.background_source(backend)
            return source.sample(n, random_state=random_state)
        source = registry.resolve(backend, self.background_, chunked=True)
        from ..processes.chunked import ChunkedGenerator

        generator = ChunkedGenerator(
            source,
            chunk_frames=chunk_frames,
            alignment=self.gop_.i_period,
            processes=processes,
        )
        return generator.generate(n, random_state=random_state)

    def generate(
        self,
        n: int,
        *,
        backend: BackendArg = "auto",
        chunk_frames: Optional[int] = None,
        processes: Optional[int] = None,
        random_state: RandomState = None,
    ) -> VideoTrace:
        """Generate a synthetic interframe trace of ``n`` frames.

        The background process is shared; each frame maps through the
        transform of its GOP position's frame type.
        """
        self._require_fitted()
        x = self.generate_background(
            n,
            backend=backend,
            chunk_frames=chunk_frames,
            processes=processes,
            random_state=random_state,
        )
        sizes = np.empty(n, dtype=float)
        for frame_type in FrameType:
            key = frame_type.value
            if key not in self.transforms_:
                continue
            mask = self.gop_.mask(frame_type, n)
            if not mask.any():
                continue
            sizes[mask] = np.asarray(
                self.transforms_[key](x[mask]), dtype=float
            )
        return VideoTrace(
            sizes=sizes,
            frame_rate=self.frame_rate_,
            gop=self.gop_,
            name="composite-mpeg-model",
        )

    def arrival_transform(self) -> "GopPhaseArrivalTransform":
        """Unit-mean, GOP-phase-aware arrivals for queueing experiments.

        Each slot maps the background sample through the transform of
        its GOP position's frame type and divides by the aggregate mean
        frame size, so buffer sizes are normalized buffer sizes just
        like in the intraframe experiments.  The returned object is a
        *time-varying* transform (``time_varying = True``); the
        importance-sampling simulators dispatch on that flag.
        """
        self._require_fitted()
        return GopPhaseArrivalTransform(self)

    def __repr__(self) -> str:
        if self.background_ is None:
            return "CompositeMPEGModel(unfitted)"
        return (
            f"CompositeMPEGModel(gop={self.gop_.pattern_string!r}, "
            f"i_model={self.i_model_!r})"
        )
