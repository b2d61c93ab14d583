"""High-level experiment runners for the paper's queueing figures.

These functions orchestrate replications across buffer sizes,
utilizations, and competing correlation models, producing exactly the
series plotted in Figs. 15-17.  They are deliberately thin: all the
statistical machinery lives in :mod:`repro.simulation.importance`.

Every runner takes a ``workers`` argument (default: the
``REPRO_WORKERS`` environment variable, else serial).  Legs are seeded
with independent child generators *before* any leg runs, so the curves
are bit-for-bit identical at any worker count — see
:mod:`repro.simulation.parallel`.  Legs over one background model also
share one Durbin-Levinson coefficient table for their likelihood
ratios and one Davies-Harte spectral table for their paths (the
``horizon = 10 b`` sweep reads prefixes of both).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .._validation import check_1d_array, check_positive_int
from ..exceptions import ValidationError
from ..observability import current_context, recording
from ..processes import registry
from ..processes.coeff_table import (
    cache_metrics,
    coefficient_cache_info,
    get_coefficient_table,
)
from ..processes.correlation import CorrelationModel
from ..processes.registry import BackendArg
from ..processes.source import GaussianSource
from ..processes.spectral_cache import (
    get_spectral_table,
    spectral_cache_metrics,
)
from ..queueing.multiplexer import service_rate_for_utilization
from ..queueing.overflow import OverflowEstimate, transient_overflow_mc
from ..stats.random import RandomState, spawn_rngs
from .estimators import ISEstimate
from .importance import (
    ArrivalTransform,
    batched_arrivals,
    is_overflow_probability,
    is_transient_overflow_curve,
)
from .parallel import run_legs

__all__ = [
    "OverflowCurve",
    "ModelComparisonResult",
    "overflow_vs_buffer_curve",
    "mc_overflow_vs_buffer_curve",
    "transient_overflow_curves",
    "model_comparison_curves",
]


@dataclass(frozen=True)
class OverflowCurve:
    """Overflow probability as a function of (normalized) buffer size.

    Attributes
    ----------
    utilization:
        The utilization this curve was run at.
    buffer_sizes:
        Normalized buffer sizes ``b``.
    estimates:
        One estimate per buffer size — :class:`~.estimators.ISEstimate`
        from the importance-sampling runners,
        :class:`~repro.queueing.overflow.OverflowEstimate` from the
        plain Monte Carlo runner; both expose ``probability`` and
        ``log10_probability``.
    """

    utilization: float
    buffer_sizes: np.ndarray
    estimates: List[Union[ISEstimate, OverflowEstimate]]

    @property
    def log10_probabilities(self) -> np.ndarray:
        """``log10 P(Q > b)`` per buffer size (the Fig. 16/17 y-axis)."""
        return np.array([e.log10_probability for e in self.estimates])


def _check_buffers(buffer_sizes: Sequence[float]) -> np.ndarray:
    buffers = check_1d_array(list(buffer_sizes), "buffer_sizes")
    if not np.all(buffers > 0):
        raise ValidationError(
            f"buffer_sizes must be positive, got {buffers.tolist()}"
        )
    return buffers


def _buffer_legs(
    correlation: Union[CorrelationModel, Sequence[float]],
    transform: ArrivalTransform,
    *,
    service_rate: float,
    buffers: np.ndarray,
    replications: int,
    twisted_mean: float,
    horizon_factor: int,
    random_state: RandomState,
    backend: BackendArg = "auto",
    **scope,
) -> List[Tuple[Dict[str, object], Callable[[], ISEstimate]]]:
    """One :func:`is_overflow_probability` leg per buffer size.

    Child generators are spawned here, in buffer order, so each leg's
    stream — and therefore its estimate — is independent of how (or
    whether) the legs are parallelized.  ``backend`` is forwarded to
    every leg; the ``spawn_rngs`` seeding is untouched, so estimates
    stay bit-for-bit identical at any worker count for a given backend.

    Returns :func:`~repro.simulation.parallel.run_legs` legs labelled
    by ``scope`` plus the leg index and buffer size.
    """
    rngs = spawn_rngs(random_state, buffers.size)
    horizons = [max(int(horizon_factor * b), 1) for b in buffers]
    longest = max(horizons)
    cap = coefficient_cache_info().max_cached_horizon
    if twisted_mean != 0 and longest <= cap:
        # Twisted legs weigh their hits with the coefficient table of
        # their path law.  Resolving it once at the longest horizon lets
        # every leg, in any order and on any worker, read a prefix
        # instead of racing to extend it, so the coeff_table.* counters
        # do not depend on thread scheduling (as the spectral prewarm of
        # mc_overflow_vs_buffer_curve does for its table).
        if isinstance(backend, GaussianSource):
            get_coefficient_table(backend.acvf(longest), longest)
        else:
            get_coefficient_table(correlation, longest)
    return [
        (
            dict(scope, leg=i, buffer=float(b)),
            partial(
                is_overflow_probability,
                correlation,
                transform,
                service_rate=service_rate,
                buffer_size=float(b),
                horizon=horizon,
                twisted_mean=twisted_mean,
                replications=replications,
                random_state=rng,
                backend=backend,
            ),
        )
        for i, (b, horizon, rng) in enumerate(zip(buffers, horizons, rngs))
    ]


def overflow_vs_buffer_curve(
    correlation: Union[CorrelationModel, Sequence[float]],
    transform: ArrivalTransform,
    *,
    utilization: float,
    buffer_sizes: Sequence[float],
    replications: int,
    twisted_mean: float,
    horizon_factor: int = 10,
    random_state: RandomState = None,
    workers: Optional[int] = None,
    backend: BackendArg = "auto",
    metrics=None,
) -> OverflowCurve:
    """Fig. 16-style curve: ``log P(Q > b)`` versus ``b`` at one utilization.

    Uses the paper's stop-time convention ``k = horizon_factor * b``
    (the paper uses ``k = 10 b`` as its approximately-steady-state
    horizon).  Arrivals must be unit-mean so buffer sizes are
    normalized; the service rate is then ``1 / utilization``.
    ``workers`` runs buffer sizes concurrently (same estimates at any
    worker count).  ``backend`` selects the path generator for every
    leg (see :func:`~repro.simulation.importance.is_overflow_probability`;
    validated before any draw).  The current run context (see
    :func:`repro.observability.recording`) collects per-leg timings
    labelled ``leg``/``buffer``, ESS per twist, pool occupancy and
    coefficient-cache deltas; the legs' child contexts are merged in
    buffer order, so the snapshot is as deterministic as the estimates.

    ``metrics`` is a seam kept for ``perfbench/workloads.py:139``: a
    context given there is bound for the call, as ``recording`` would.
    """
    check_positive_int(replications, "replications")
    check_positive_int(horizon_factor, "horizon_factor")
    buffers = _check_buffers(buffer_sizes)
    mu = service_rate_for_utilization(1.0, utilization)
    with recording(metrics) as ctx, cache_metrics(ctx):
        legs = _buffer_legs(
            correlation,
            transform,
            service_rate=mu,
            buffers=buffers,
            replications=replications,
            twisted_mean=twisted_mean,
            horizon_factor=horizon_factor,
            random_state=random_state,
            backend=backend,
        )
        estimates = run_legs(legs, workers)
    return OverflowCurve(
        utilization=float(utilization),
        buffer_sizes=buffers,
        estimates=estimates,
    )


def _mc_buffer_leg(
    correlation: Union[CorrelationModel, Sequence[float]],
    transform: ArrivalTransform,
    *,
    service_rate: float,
    buffer_size: float,
    horizon: int,
    replications: int,
    random_state: RandomState,
    backend: BackendArg,
) -> OverflowEstimate:
    """One plain-MC leg: batched paths, transform, Lindley indicator."""
    ctx = current_context()
    with ctx.time("mc.leg_seconds", buffer=float(buffer_size)):
        source = registry.resolve(backend, correlation)
        paths = source.sample(
            horizon, size=replications, random_state=random_state
        )
        arrivals = batched_arrivals(transform, paths)
        estimate = transient_overflow_mc(
            arrivals, service_rate, buffer_size
        )
    ctx.inc(
        "mc.replications", replications, buffer=float(buffer_size)
    )
    ctx.inc(
        "mc.hits",
        int(round(estimate.probability * estimate.replications)),
        buffer=float(buffer_size),
    )
    return estimate


def mc_overflow_vs_buffer_curve(
    correlation: Union[CorrelationModel, Sequence[float]],
    transform: ArrivalTransform,
    *,
    utilization: float,
    buffer_sizes: Sequence[float],
    replications: int,
    horizon_factor: int = 10,
    random_state: RandomState = None,
    workers: Optional[int] = None,
    backend: BackendArg = "auto",
) -> OverflowCurve:
    """Fig. 16-style curve by plain (untwisted) Monte Carlo.

    The untwisted counterpart of :func:`overflow_vs_buffer_curve`:
    each leg draws all of its replications as **one batched**
    fixed-length generation — a single FFT pass over
    ``(replications, horizon)`` under the ``auto``/Davies-Harte
    backend — maps them through the arrival transform, and estimates
    ``P(Q_k > b)`` with
    :func:`~repro.queueing.overflow.transient_overflow_mc`.  Only
    practical for the moderate probabilities plain MC can resolve, but
    it is the regime where the spectral cache amortizes completely: all
    legs of the ``horizon = horizon_factor * b`` sweep read prefixes of
    a single ACVF/eigenvalue table, prewarmed here at the largest
    horizon.

    Seeding matches the IS runners (one spawned child generator per
    leg, in buffer order), so the curve is bit-for-bit identical at any
    worker count, and each leg's batched draw is bit-identical to
    generating its replications one at a time from the same child
    generator.  The current run context collects per-leg timings,
    replication/hit counters, and spectral/coefficient cache deltas.
    """
    check_positive_int(replications, "replications")
    check_positive_int(horizon_factor, "horizon_factor")
    buffers = _check_buffers(buffer_sizes)
    ctx = current_context()
    mu = service_rate_for_utilization(1.0, utilization)
    horizons = [max(int(horizon_factor * b), 1) for b in buffers]
    rngs = spawn_rngs(random_state, buffers.size)
    with spectral_cache_metrics(ctx), cache_metrics(ctx):
        if isinstance(correlation, CorrelationModel) and _spectral_backend(
            backend
        ):
            # Resolve the shared table once at the longest horizon so
            # every leg — in any order, on any worker — reads a prefix
            # instead of racing to extend it.
            get_spectral_table(correlation, max(horizons))
        legs = [
            (
                {"leg": i, "buffer": float(b)},
                partial(
                    _mc_buffer_leg,
                    correlation,
                    transform,
                    service_rate=mu,
                    buffer_size=float(b),
                    horizon=horizon,
                    replications=replications,
                    random_state=rng,
                    backend=backend,
                ),
            )
            for i, (b, horizon, rng) in enumerate(
                zip(buffers, horizons, rngs)
            )
        ]
        estimates = run_legs(legs, workers)
    return OverflowCurve(
        utilization=float(utilization),
        buffer_sizes=buffers,
        estimates=estimates,
    )


def _spectral_backend(backend: BackendArg) -> bool:
    """Whether ``backend`` routes paths to Davies-Harte."""
    if not isinstance(backend, str):
        return False
    return backend.strip().lower().replace("-", "_") in (
        "auto",
        "davies_harte",
    )


def transient_overflow_curves(
    correlation: Union[CorrelationModel, Sequence[float]],
    transform: ArrivalTransform,
    *,
    utilization: float,
    buffer_size: float,
    horizon: int,
    replications: int,
    twisted_mean: float,
    random_state: RandomState = None,
    workers: Optional[int] = None,
    backend: BackendArg = "auto",
) -> Dict[str, np.ndarray]:
    """Fig. 15: transient ``P(Q_j > b)`` for empty and full initial buffers.

    Returns a mapping with keys ``"empty"`` and ``"full"``; each value
    is the per-slot estimate curve of length ``horizon``.  The two
    initial conditions are independent legs and run concurrently when
    ``workers > 1``.  ``backend`` selects the path generator (validated
    before any draw).  The current run context collects per-leg
    timings and weight diagnostics, labelled ``start="empty"/"full"``.
    """
    check_positive_int(horizon, "horizon")
    check_positive_int(replications, "replications")
    mu = service_rate_for_utilization(1.0, utilization)
    rng_empty, rng_full = spawn_rngs(random_state, 2)
    with cache_metrics(current_context()):
        legs = [
            (
                {"start": start},
                partial(
                    is_transient_overflow_curve,
                    correlation,
                    transform,
                    service_rate=mu,
                    buffer_size=buffer_size,
                    horizon=horizon,
                    twisted_mean=twisted_mean,
                    replications=replications,
                    initial=initial,
                    random_state=rng,
                    backend=backend,
                ),
            )
            for start, initial, rng in (
                ("empty", 0.0, rng_empty),
                ("full", float(buffer_size), rng_full),
            )
        ]
        empty, full = run_legs(legs, workers)
    return {"empty": empty, "full": full}


@dataclass(frozen=True)
class ModelComparisonResult:
    """Fig. 17-style comparison of correlation models at one utilization."""

    utilization: float
    buffer_sizes: np.ndarray
    curves: Dict[str, OverflowCurve]

    def log10_table(self) -> Dict[str, np.ndarray]:
        """``log10 P`` arrays keyed by model name."""
        return {
            name: curve.log10_probabilities
            for name, curve in self.curves.items()
        }


def model_comparison_curves(
    models: Dict[str, Union[CorrelationModel, Sequence[float]]],
    transform: ArrivalTransform,
    *,
    utilization: float,
    buffer_sizes: Sequence[float],
    replications: int,
    twisted_mean: float,
    horizon_factor: int = 10,
    random_state: RandomState = None,
    workers: Optional[int] = None,
    backend: BackendArg = "auto",
) -> ModelComparisonResult:
    """Run :func:`overflow_vs_buffer_curve` for several background models.

    ``models`` maps display names (e.g. ``"SRD+LRD"``, ``"SRD only"``,
    ``"FGN"``) to background correlation models sharing one marginal
    transform — the paper's Fig. 17 setup.  All ``models x buffers``
    legs are flattened into one pool, so ``workers`` parallelism is not
    limited by the model count; seeding follows the same two-level
    spawn (per model, then per buffer) as the serial path.  ``backend``
    selects the path generator for every leg.
    The current run context collects the same per-leg diagnostics as
    :func:`overflow_vs_buffer_curve`, additionally labelled by model
    name.
    """
    if not models:
        raise ValidationError("models must not be empty")
    check_positive_int(replications, "replications")
    check_positive_int(horizon_factor, "horizon_factor")
    buffers = _check_buffers(buffer_sizes)
    mu = service_rate_for_utilization(1.0, utilization)
    rngs = spawn_rngs(random_state, len(models))
    with cache_metrics(current_context()):
        legs = [
            leg
            for (name, correlation), rng in zip(models.items(), rngs)
            for leg in _buffer_legs(
                correlation,
                transform,
                service_rate=mu,
                buffers=buffers,
                replications=replications,
                twisted_mean=twisted_mean,
                horizon_factor=horizon_factor,
                random_state=rng,
                backend=backend,
                model=name,
            )
        ]
        estimates = run_legs(legs, workers)
    curves = {}
    for index, name in enumerate(models):
        chunk = estimates[index * buffers.size : (index + 1) * buffers.size]
        curves[name] = OverflowCurve(
            utilization=float(utilization),
            buffer_sizes=buffers,
            estimates=list(chunk),
        )
    return ModelComparisonResult(
        utilization=float(utilization),
        buffer_sizes=buffers,
        curves=curves,
    )

