"""Statistical multiplexing of homogeneous VBR video sources.

The paper's opening motivation is that packet networks "support
variable bit rate connections, thus allowing efficient statistical
multiplexing of bursty traffic".  This module models the *aggregate*
of ``n`` independent, statistically identical video sources within the
same unified framework:

- the aggregate's **autocorrelation** equals the per-source
  autocorrelation (covariances of iid sums scale by ``n`` in numerator
  and denominator alike), so the fitted foreground ACF carries over;
- the aggregate's **marginal** is the n-fold convolution of the
  per-source marginal, estimated here by Monte Carlo convolution and
  inverted with the same histogram technique (eq. 7);
- the aggregate transform is *less* nonlinear (CLT), so its
  attenuation factor rises toward 1 and the compensated background
  needs less correction — the model becomes easier, not harder, as
  sources are added.

The multiplexing-gain bench feeds aggregates of growing size into the
importance-sampling machinery and shows the overflow probability at a
fixed utilization and per-source-normalized buffer dropping as sources
are added.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .._validation import check_positive_int
from ..exceptions import NotFittedError, ValidationError
from ..marginals.empirical import EmpiricalDistribution
from ..marginals.transform import MarginalTransform
from ..processes import registry
from ..processes.correlation import CompositeCorrelation
from ..processes.registry import BackendArg
from ..stats.random import RandomState, make_rng
from .calibration import measure_attenuation_analytic
from .unified import UnifiedVBRModel

__all__ = ["AggregateVBRModel", "aggregate_marginal"]


def aggregate_marginal(
    marginal: EmpiricalDistribution,
    num_sources: int,
    *,
    samples: int = 1 << 17,
    bins: int = 300,
    random_state: RandomState = None,
    chunk_draws: Optional[int] = None,
) -> EmpiricalDistribution:
    """Empirical marginal of the sum of ``num_sources`` iid draws.

    Monte Carlo convolution: draws ``samples`` sums of ``num_sources``
    independent per-source values and re-inverts the histogram.  Exact
    enough for the transform, and trivially correct for any marginal
    shape (FFT convolution of histograms accumulates binning error for
    large ``n``).

    The ``samples x num_sources`` draw matrix is never materialized:
    sums are accumulated over row chunks of at most ``chunk_draws``
    draws (default: ``samples``), so peak memory is O(samples)
    regardless of ``num_sources`` — at ``num_sources = 10**4`` the
    historical full-matrix path needed ~10 GB; the chunked path needs
    ~1 MB.  Chunks consume the random stream in the same contiguous
    row-major order as the full matrix did, so results are
    bit-identical to the historical path for a fixed seed.
    """
    num_sources = check_positive_int(num_sources, "num_sources")
    samples = check_positive_int(samples, "samples")
    if chunk_draws is None:
        chunk_draws = samples
    else:
        chunk_draws = check_positive_int(chunk_draws, "chunk_draws")
    rng = make_rng(random_state)
    rows_per_chunk = max(1, chunk_draws // num_sources)
    sums = np.empty(samples, dtype=float)
    for start in range(0, samples, rows_per_chunk):
        rows = min(rows_per_chunk, samples - start)
        draws = marginal.sample(rows * num_sources, rng)
        sums[start:start + rows] = (
            draws.reshape(rows, num_sources).sum(axis=1)
        )
    return EmpiricalDistribution(sums, bins=bins)


class AggregateVBRModel:
    """Aggregate of ``num_sources`` homogeneous unified video sources.

    Parameters
    ----------
    base_model:
        A fitted :class:`~repro.core.unified.UnifiedVBRModel` for one
        source.
    num_sources:
        Number of multiplexed sources.
    convolution_samples:
        Monte Carlo sample count for the aggregate marginal.
    random_state:
        Seed for the marginal convolution (deterministic aggregate
        model for a fixed seed).
    """

    def __init__(
        self,
        base_model: UnifiedVBRModel,
        num_sources: int,
        *,
        convolution_samples: int = 1 << 17,
        random_state: RandomState = None,
    ) -> None:
        if not isinstance(base_model, UnifiedVBRModel):
            raise ValidationError(
                "base_model must be a UnifiedVBRModel, got "
                f"{type(base_model).__name__}"
            )
        if base_model.background_ is None:
            raise NotFittedError(
                "base_model must be fitted before aggregation"
            )
        self.base_model = base_model
        self.num_sources = check_positive_int(num_sources, "num_sources")

        self.marginal_ = aggregate_marginal(
            base_model.marginal_,
            self.num_sources,
            samples=convolution_samples,
            random_state=random_state,
        )
        self.transform_ = MarginalTransform(self.marginal_)
        # The foreground target ACF is the per-source fitted model; the
        # aggregate transform attenuates less (CLT), so recompute the
        # compensation for the new transform.
        self.attenuation_ = measure_attenuation_analytic(self.transform_)
        self.background_ = base_model.fitted_acf_model.compensated(
            min(self.attenuation_, 1.0)
        )

    @property
    def attenuation(self) -> float:
        """Analytic attenuation factor of the aggregate transform."""
        return float(self.attenuation_)

    @property
    def background_correlation(self) -> CompositeCorrelation:
        """Background correlation driving the aggregate generator."""
        return self.background_

    def generate(
        self,
        n: int,
        *,
        size: Optional[int] = None,
        backend: BackendArg = "auto",
        random_state: RandomState = None,
    ) -> np.ndarray:
        """Generate aggregate byte-per-slot sample paths.

        ``backend`` selects a registry backend (default ``"auto"``).
        """
        source = registry.resolve(backend, self.background_)
        x = source.sample(n, size=size, random_state=random_state)
        return np.asarray(self.transform_(x), dtype=float)

    def arrival_transform(self) -> Callable[[np.ndarray], np.ndarray]:
        """Unit-mean aggregate arrivals for the queueing experiments.

        Buffer sizes are then normalized by the *aggregate* mean rate;
        to compare against a single source at the same utilization,
        also normalize the single source by its own mean (both then
        see service ``1 / utilization``).
        """
        transform = self.transform_
        mean = self.marginal_.mean

        def arrivals(x: np.ndarray) -> np.ndarray:
            return np.asarray(transform(x), dtype=float) / mean

        return arrivals

    def __repr__(self) -> str:
        return (
            f"AggregateVBRModel(num_sources={self.num_sources}, "
            f"attenuation={self.attenuation_:.3f})"
        )
