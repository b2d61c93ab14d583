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
share one Durbin-Levinson coefficient table (the ``horizon = 10 b``
sweep reads prefixes of a single table), which is where most of the
speedup over per-leg recursions comes from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .._validation import check_positive_int
from ..exceptions import ValidationError
from ..observability import RunContext, ensure_context
from ..processes import registry
from ..processes.coeff_table import cache_metrics
from ..processes.correlation import CorrelationModel
from ..processes.registry import BackendArg
from ..processes.spectral_cache import (
    get_spectral_table,
    spectral_cache_metrics,
)
from ..core.aggregate import ShardedAggregateModel, SourcePopulation
from ..processes.source import GaussianSource
from ..queueing.multiplexer import service_rate_for_utilization
from ..queueing.overflow import (
    OverflowEstimate,
    steady_state_overflow_from_trace,
    transient_overflow_mc,
)
from ..stats.random import RandomState, spawn_rngs
from .estimators import ISEstimate
from .importance import (
    ArrivalTransform,
    batched_arrivals,
    is_overflow_probability,
    is_transient_overflow_curve,
)
from .parallel import resolve_processes, run_legs, run_tasks

__all__ = [
    "OverflowCurve",
    "ModelComparisonResult",
    "overflow_vs_buffer_curve",
    "mc_overflow_vs_buffer_curve",
    "transient_overflow_curves",
    "model_comparison_curves",
    "aggregate_overflow_curve",
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
    buffers = np.asarray(list(buffer_sizes), dtype=float)
    if buffers.ndim != 1 or buffers.size == 0:
        raise ValidationError("buffer_sizes must be a non-empty sequence")
    return buffers


def _buffer_leg_jobs(
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
    block_size=None,
    metrics=None,
) -> Tuple[List[Callable[[], ISEstimate]], List[RunContext]]:
    """One :func:`is_overflow_probability` job per buffer size.

    Child generators are spawned here, in buffer order, so each leg's
    stream — and therefore its estimate — is independent of how (or
    whether) the legs are parallelized.  ``backend`` is forwarded to
    every leg; the ``spawn_rngs`` seeding is untouched, so estimates
    stay bit-for-bit identical at any worker count for a given backend.

    Returns ``(jobs, children)``: each job records into its own child
    :class:`~repro.observability.RunContext` labelled by leg index and
    buffer size, so parallel workers never share a registry; the caller
    folds the children back with
    :meth:`~repro.observability.RunContext.merge_children` in
    submission order once every leg is done.
    """
    ctx = ensure_context(metrics)
    rngs = spawn_rngs(random_state, buffers.size)
    children = [
        ctx.child(leg=i, buffer=float(b)) for i, b in enumerate(buffers)
    ]
    jobs = [
        partial(
            is_overflow_probability,
            correlation,
            transform,
            service_rate=service_rate,
            buffer_size=float(b),
            horizon=max(int(horizon_factor * b), 1),
            twisted_mean=twisted_mean,
            replications=replications,
            random_state=rng,
            backend=backend,
            block_size=block_size,
            metrics=child,
        )
        for b, rng, child in zip(buffers, rngs, children)
    ]
    return jobs, children


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
    block_size=None,
    metrics=None,
) -> OverflowCurve:
    """Fig. 16-style curve: ``log P(Q > b)`` versus ``b`` at one utilization.

    Uses the paper's stop-time convention ``k = horizon_factor * b``
    (the paper uses ``k = 10 b`` as its approximately-steady-state
    horizon).  Arrivals must be unit-mean so buffer sizes are
    normalized; the service rate is then ``1 / utilization``.
    ``workers`` runs buffer sizes concurrently (same estimates at any
    worker count).  ``backend`` selects the conditional generation
    backend for every leg (validated at construction); ``block_size``
    routes its conditional stepping through the blocked BLAS-3 Hosking
    kernel (default: exact per-step loop).  ``metrics``
    (optional :class:`~repro.observability.RunContext`) collects per-leg
    timings, ESS per twist, pool occupancy and coefficient-cache deltas;
    the child contexts are merged in buffer order, so the snapshot is as
    deterministic as the estimates.
    """
    check_positive_int(replications, "replications")
    check_positive_int(horizon_factor, "horizon_factor")
    buffers = _check_buffers(buffer_sizes)
    ctx = ensure_context(metrics)
    mu = service_rate_for_utilization(1.0, utilization)
    with cache_metrics(ctx):
        jobs, children = _buffer_leg_jobs(
            correlation,
            transform,
            service_rate=mu,
            buffers=buffers,
            replications=replications,
            twisted_mean=twisted_mean,
            horizon_factor=horizon_factor,
            random_state=random_state,
            backend=backend,
            block_size=block_size,
            metrics=ctx,
        )
        estimates = run_legs(jobs, workers, metrics=ctx)
    ctx.merge_children(children)
    return OverflowCurve(
        utilization=float(utilization),
        buffer_sizes=buffers,
        estimates=estimates,
    )


# Batched transform application now lives in repro.simulation.importance
# (shared with the shared-path twist sweep); keep the historical private
# name importable for downstream code.
_batched_arrivals = batched_arrivals


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
    metrics=None,
) -> OverflowEstimate:
    """One plain-MC leg: batched paths, transform, Lindley indicator."""
    ctx = ensure_context(metrics)
    with ctx.time("mc.leg_seconds", buffer=float(buffer_size)):
        source = registry.resolve(backend, correlation, metrics=ctx)
        paths = source.sample(
            horizon, size=replications, random_state=random_state
        )
        arrivals = _batched_arrivals(transform, paths)
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
    metrics=None,
) -> OverflowCurve:
    """Fig. 16-style curve by plain (untwisted) Monte Carlo.

    The unconditional counterpart of :func:`overflow_vs_buffer_curve`:
    instead of conditional stepping with importance sampling, each leg
    draws all of its replications as **one batched** fixed-length
    generation — a single FFT pass over ``(replications, horizon)``
    under the ``auto``/Davies-Harte backend — maps them through the
    arrival transform, and estimates ``P(Q_k > b)`` with
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
    generator.  ``metrics`` collects per-leg timings, replication/hit
    counters, and spectral/coefficient cache deltas.
    """
    check_positive_int(replications, "replications")
    check_positive_int(horizon_factor, "horizon_factor")
    buffers = _check_buffers(buffer_sizes)
    ctx = ensure_context(metrics)
    mu = service_rate_for_utilization(1.0, utilization)
    horizons = [max(int(horizon_factor * b), 1) for b in buffers]
    rngs = spawn_rngs(random_state, buffers.size)
    children = [
        ctx.child(leg=i, buffer=float(b)) for i, b in enumerate(buffers)
    ]
    with spectral_cache_metrics(ctx), cache_metrics(ctx):
        if isinstance(correlation, CorrelationModel) and _spectral_backend(
            backend
        ):
            # Resolve the shared table once at the longest horizon so
            # every leg — in any order, on any worker — reads a prefix
            # instead of racing to extend it.
            get_spectral_table(correlation, max(horizons))
        jobs = [
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
                metrics=child,
            )
            for b, horizon, rng, child in zip(
                buffers, horizons, rngs, children
            )
        ]
        estimates = run_legs(jobs, workers, metrics=ctx)
    ctx.merge_children(children)
    return OverflowCurve(
        utilization=float(utilization),
        buffer_sizes=buffers,
        estimates=estimates,
    )


def _spectral_backend(backend: BackendArg) -> bool:
    """Whether ``backend`` routes unconditional paths to Davies-Harte."""
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
    block_size=None,
    metrics=None,
) -> Dict[str, np.ndarray]:
    """Fig. 15: transient ``P(Q_j > b)`` for empty and full initial buffers.

    Returns a mapping with keys ``"empty"`` and ``"full"``; each value
    is the per-slot estimate curve of length ``horizon``.  The two
    initial conditions are independent legs and run concurrently when
    ``workers > 1``.  ``backend`` selects the conditional generation
    backend (validated at construction).  ``metrics`` collects per-leg
    timings and weight diagnostics, labelled ``start="empty"/"full"``.
    """
    check_positive_int(horizon, "horizon")
    check_positive_int(replications, "replications")
    ctx = ensure_context(metrics)
    mu = service_rate_for_utilization(1.0, utilization)
    rng_empty, rng_full = spawn_rngs(random_state, 2)
    children = [ctx.child(start="empty"), ctx.child(start="full")]
    with cache_metrics(ctx):
        jobs = [
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
                block_size=block_size,
                metrics=child,
            )
            for (initial, rng), child in zip(
                ((0.0, rng_empty), (float(buffer_size), rng_full)),
                children,
            )
        ]
        empty, full = run_legs(jobs, workers, metrics=ctx)
    ctx.merge_children(children)
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
    block_size=None,
    metrics=None,
) -> ModelComparisonResult:
    """Run :func:`overflow_vs_buffer_curve` for several background models.

    ``models`` maps display names (e.g. ``"SRD+LRD"``, ``"SRD only"``,
    ``"FGN"``) to background correlation models sharing one marginal
    transform — the paper's Fig. 17 setup.  All ``models x buffers``
    legs are flattened into one pool, so ``workers`` parallelism is not
    limited by the model count; seeding follows the same two-level
    spawn (per model, then per buffer) as the serial path.  ``backend``
    selects the conditional generation backend for every leg.
    ``metrics`` collects the same per-leg diagnostics as
    :func:`overflow_vs_buffer_curve`, additionally labelled by model
    name.
    """
    if not models:
        raise ValidationError("models must not be empty")
    check_positive_int(replications, "replications")
    check_positive_int(horizon_factor, "horizon_factor")
    buffers = _check_buffers(buffer_sizes)
    ctx = ensure_context(metrics)
    mu = service_rate_for_utilization(1.0, utilization)
    rngs = spawn_rngs(random_state, len(models))
    jobs: List[Callable[[], ISEstimate]] = []
    children: List[RunContext] = []
    with cache_metrics(ctx):
        for (name, correlation), rng in zip(models.items(), rngs):
            model_jobs, model_children = _buffer_leg_jobs(
                correlation,
                transform,
                service_rate=mu,
                buffers=buffers,
                replications=replications,
                twisted_mean=twisted_mean,
                horizon_factor=horizon_factor,
                random_state=rng,
                backend=backend,
                block_size=block_size,
                metrics=ctx.scoped(model=name),
            )
            jobs.extend(model_jobs)
            children.extend(model_children)
        estimates = run_legs(jobs, workers, metrics=ctx)
    ctx.merge_children(children)
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


def _aggregate_replication_job(payload) -> np.ndarray:
    """Pool task: one full replication of the aggregate overflow curve.

    Rebuilds the engine from its population (workers re-resolve
    sources; see :mod:`repro.core.aggregate`), generates one feed with
    its pre-spawned child generator, and runs the Lindley recursion —
    returning the per-buffer overflow fractions as one float vector.
    ``processes=1`` inside the task: pool workers are daemonic and must
    not nest pools, and the parallelism budget is already spent across
    replications.
    """
    (classes, batch_size, horizon, shards, service, buffers, warmup,
     rng) = payload
    engine = ShardedAggregateModel(
        SourcePopulation(classes), batch_size=batch_size
    )
    feed = engine.generate(
        horizon, shards=shards, processes=1, random_state=rng
    )
    per_path = steady_state_overflow_from_trace(
        feed.normalized, service, buffers, warmup=warmup
    )
    return np.fromiter(
        (e.probability for e in per_path), dtype=float, count=buffers.size
    )


def aggregate_overflow_curve(
    engine: ShardedAggregateModel,
    buffer_sizes: Sequence[float],
    *,
    utilization: float,
    horizon: int,
    replications: int = 1,
    shards: int = 1,
    warmup: int = 0,
    processes: Optional[int] = None,
    random_state: RandomState = None,
    metrics=None,
) -> OverflowCurve:
    """Steady-state ``P(Q > b)`` of a sharded heterogeneous aggregate.

    Generates ``replications`` independent aggregate feeds from a
    :class:`~repro.core.aggregate.ShardedAggregateModel`, normalizes
    each by the population's aggregate mean rate (so ``buffer_sizes``
    follow the paper's normalized-buffer convention and the service
    rate is ``1 / utilization``), and pools the per-path time-average
    overflow fractions.  Peak memory is O(batch_size x horizon) during
    generation and O(horizon) during queueing — N never enters.

    ``processes`` (``None`` defers to ``REPRO_PROCESSES``) spends the
    parallelism budget at the widest grain available: with more than
    one replication, whole replications dispatch onto the process-wide
    shared pool (each pre-seeded from :func:`spawn_rngs`, so the curve
    is bit-identical at any worker count); with a single replication
    the budget is forwarded to the engine's block-level pooled
    generation instead.  Neither changes the curve's bits.

    Variance across replications is the sample variance of the
    per-path estimates over ``replications`` (NaN for a single path,
    matching
    :func:`~repro.queueing.overflow.steady_state_overflow_from_trace`).
    """
    if not isinstance(engine, ShardedAggregateModel):
        raise ValidationError(
            "engine must be a ShardedAggregateModel, got "
            f"{type(engine).__name__}"
        )
    buffers = _check_buffers(buffer_sizes)
    horizon = check_positive_int(horizon, "horizon")
    replications = check_positive_int(replications, "replications")
    ctx = ensure_context(metrics)
    service = service_rate_for_utilization(1.0, utilization)
    procs = resolve_processes(processes)
    rngs = spawn_rngs(random_state, replications)
    probabilities = np.empty((replications, buffers.size), dtype=float)
    with ctx.time("capacity.overflow_curve_seconds"):
        if procs > 1 and replications > 1:
            classes = tuple(engine.population.classes)
            instance_backed = [
                klass.name for klass in classes
                if isinstance(klass.backend, GaussianSource)
            ]
            if instance_backed:
                raise ValidationError(
                    "processes > 1 requires registry-name backends "
                    "(replication workers re-resolve sources; built "
                    "source instances hold per-interpreter caches that "
                    "cannot cross a process boundary) — classes with "
                    "instance backends: "
                    + ", ".join(repr(name) for name in instance_backed)
                )
            payloads = [
                (classes, engine.batch_size, horizon, shards, service,
                 buffers, warmup, rngs[r])
                for r in range(replications)
            ]
            rows = run_tasks(
                _aggregate_replication_job,
                payloads,
                workers=procs,
                kind="process",
                metrics=ctx,
                prefix="runner_pool",
            )
            for r, row in enumerate(rows):
                probabilities[r] = row
        else:
            for r in range(replications):
                feed = engine.generate(
                    horizon,
                    shards=shards,
                    processes=procs,
                    random_state=rngs[r],
                )
                per_path = steady_state_overflow_from_trace(
                    feed.normalized, service, buffers, warmup=warmup
                )
                probabilities[r] = np.fromiter(
                    (e.probability for e in per_path),
                    dtype=float,
                    count=buffers.size,
                )
    pooled = probabilities.mean(axis=0)
    if replications > 1:
        variances = probabilities.var(axis=0, ddof=1) / replications
    else:
        variances = np.full(buffers.size, float("nan"))
    estimates = [
        OverflowEstimate(
            probability=float(p),
            variance=float(v),
            replications=replications,
        )
        for p, v in zip(pooled, variances)
    ]
    return OverflowCurve(
        utilization=float(utilization),
        buffer_sizes=buffers,
        estimates=estimates,
    )
