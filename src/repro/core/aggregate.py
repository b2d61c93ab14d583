"""Sharded aggregate engine for service-scale multiplexing.

The paper's §4 multiplexing experiments stop at a handful of
homogeneous sources; the regime where effective-bandwidth theory and
admission control actually operate is N in the 10^4-10^6 range.  This
module generates the *aggregate arrival process* of N heterogeneous
VBR sources — mixed Hurst exponents, mixed marginals, staggered GOP
phases — without ever materializing an ``(N, horizon)`` matrix:

- a :class:`SourceClass` describes one homogeneous sub-population
  (correlation model, marginal, optional periodic GOP rate pattern,
  generation backend) and its ``count``;
- a :class:`SourcePopulation` is the ordered mixture of classes, with
  the aggregate moments (mean rate, per-slot variance, dominant Hurst
  exponent) the capacity-planning theory consumes;
- :class:`ShardedAggregateModel` generates the population's aggregate
  feed in vectorized ``(batch_size, horizon)`` passes through the
  backend registry — reusing the shared spectral cache (Davies-Harte)
  or the blocked Hosking kernel — and reduces the batches into one
  ``(horizon,)`` multiplexer feed, so peak memory is
  O(batch_size x horizon) regardless of N.

Seeding contract (shard- and process-count invariance)
------------------------------------------------------
Sources are partitioned into fixed *generation blocks* of at most
``batch_size`` sources, enumerated class by class in population order;
block ``b`` draws from the ``b``-th child of
``SeedSequence(random_state)`` and blocks are always reduced in block
order.  ``shards=`` only groups contiguous blocks for reduction and
accounting, and ``processes=`` only moves block *generation* onto a
process pool — neither ever moves a block boundary, reseeds a stream,
or reorders an accumulation — so for a fixed seed the aggregate feed
is **bit-identical at any shard count and any process count** (the
same contract as the ``workers=`` invariance of the parallel runners).
``batch_size`` and the class order, by contrast, are part of the law:
changing either changes which stream a source draws from (same
distribution, different bits).

Why process pools cannot change the bits: each worker computes the
*per-block* partial sum ``y_b = sum over the block's rows`` — a pure
function of the block's spec and its spawned child generator, with no
cross-block arithmetic — and the parent folds ``total += y_b``
strictly in global block order through the streaming reducer of
:func:`~repro.simulation.parallel.reduce_tasks`.  The fold performs
exactly the additions of the serial path, in exactly the serial order,
so floating-point non-associativity never enters; the pool only
reorders wall-clock time.  Streaming the fold (a bounded in-flight
window, results released as they are folded) keeps feed memory
O(horizon), not O(blocks x horizon) or O(shards x horizon).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union
from uuid import uuid4

import numpy as np

from .._validation import check_positive_int
from ..exceptions import NotFittedError, ValidationError
from ..marginals.parametric import MarginalDistribution
from ..marginals.transform import MarginalTransform
from ..processes import registry
from ..processes.correlation import CorrelationModel, FGNCorrelation
from ..processes.davies_harte import workspace_stats
from ..processes.registry import BackendArg
from ..processes.source import GaussianSource
from ..observability import ensure_context
from ..stats.random import RandomState, spawn_rngs
from .calibration import measure_attenuation_analytic
from .unified import UnifiedVBRModel

__all__ = [
    "SourceClass",
    "SourcePopulation",
    "AggregateFeed",
    "ShardedAggregateModel",
    "as_population",
]


class SourceClass:
    """One homogeneous sub-population of VBR sources.

    Parameters
    ----------
    name:
        Class label (used in metrics and error messages).
    correlation:
        Background correlation model of every source in the class; a
        plain float is treated as a Hurst exponent and wrapped in
        :class:`~repro.processes.correlation.FGNCorrelation`.
    marginal:
        Per-source marginal distribution (the eq. 7 transform target).
    count:
        Number of sources in the class.
    gop_pattern:
        Optional periodic rate multipliers of length >= 2 modelling
        GOP cyclostationarity.  Normalized internally to mean 1 so the
        class mean rate is unchanged.  Source ``j`` of the class is
        generated at phase ``j mod len(pattern)`` — phases are
        *staggered* across the class, which is what lets large
        aggregates smooth the GOP structure out.
    backend:
        Generation backend (registry name, ``"auto"``, or a built
        :class:`~repro.processes.source.GaussianSource`).
    backend_options:
        Extra factory options (e.g. ``block_size=`` for ``hosking``).
    """

    def __init__(
        self,
        name: str,
        *,
        correlation: Union[float, CorrelationModel],
        marginal: MarginalDistribution,
        count: int,
        gop_pattern: Optional[Sequence[float]] = None,
        backend: BackendArg = "auto",
        backend_options: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.name = str(name)
        if isinstance(correlation, (int, float, np.integer, np.floating)):
            correlation = FGNCorrelation(float(correlation))
        if not isinstance(correlation, CorrelationModel):
            raise ValidationError(
                "correlation must be a CorrelationModel or a Hurst "
                f"exponent, got {type(correlation).__name__}"
            )
        self.correlation = correlation
        if not isinstance(marginal, MarginalDistribution):
            raise ValidationError(
                "marginal must be a MarginalDistribution, got "
                f"{type(marginal).__name__}"
            )
        self.marginal = marginal
        self.count = check_positive_int(count, "count")
        if gop_pattern is not None:
            pattern = np.asarray(gop_pattern, dtype=float)
            if pattern.ndim != 1 or pattern.size < 2:
                raise ValidationError(
                    "gop_pattern must be one-dimensional with at least "
                    f"2 entries, got shape {pattern.shape}"
                )
            if not np.all(np.isfinite(pattern)) or np.any(pattern <= 0):
                raise ValidationError(
                    "gop_pattern entries must be finite and positive"
                )
            pattern = pattern / pattern.mean()
        else:
            pattern = None
        self.gop_pattern = pattern
        self.backend = backend
        self.backend_options: Dict[str, object] = dict(backend_options or {})
        self.transform = MarginalTransform(marginal)
        self._attenuation: Optional[float] = None

    @property
    def hurst(self) -> Optional[float]:
        """The class's Hurst exponent (``None`` for SRD correlations)."""
        return self.correlation.hurst

    @property
    def mean_rate(self) -> float:
        """Per-source mean arrival per slot (GOP pattern is mean-1)."""
        return float(self.marginal.mean)

    @property
    def slot_variance(self) -> float:
        """Phase-averaged per-slot variance of one source.

        Without a GOP pattern this is the marginal variance.  With a
        pattern ``g`` (mean 1) and uniformly staggered phases, a slot
        sees ``g_P * Y`` with ``P`` uniform over phases, so
        ``Var = E[g^2] E[Y^2] - E[Y]^2``.
        """
        sigma2 = float(self.marginal.variance)
        if self.gop_pattern is None:
            return sigma2
        mu = float(self.marginal.mean)
        g2 = float(np.mean(self.gop_pattern**2))
        return g2 * (sigma2 + mu**2) - mu**2

    @property
    def attenuation(self) -> float:
        """Analytic eq. 30 attenuation of the class transform (cached)."""
        if self._attenuation is None:
            self._attenuation = float(
                measure_attenuation_analytic(self.transform)
            )
        return self._attenuation

    def with_count(self, count: int) -> "SourceClass":
        """A copy of this class with a different ``count``."""
        clone = SourceClass.__new__(SourceClass)
        clone.__dict__.update(self.__dict__)
        clone.count = check_positive_int(count, "count")
        return clone

    def __repr__(self) -> str:
        return (
            f"SourceClass({self.name!r}, count={self.count}, "
            f"correlation={self.correlation!r}, "
            f"marginal={self.marginal!r})"
        )


class SourcePopulation:
    """An ordered mixture of :class:`SourceClass` sub-populations.

    The order of ``classes`` is part of the engine's seeding law (it
    fixes the global block enumeration); keep it stable across runs
    that must be comparable bit for bit.
    """

    def __init__(self, classes: Sequence[SourceClass]) -> None:
        classes = tuple(classes)
        if not classes:
            raise ValidationError("population needs at least one class")
        for klass in classes:
            if not isinstance(klass, SourceClass):
                raise ValidationError(
                    "classes must be SourceClass instances, got "
                    f"{type(klass).__name__}"
                )
        self.classes = classes

    @property
    def num_sources(self) -> int:
        """Total number of sources across all classes."""
        return sum(klass.count for klass in self.classes)

    @property
    def mean_rate(self) -> float:
        """Aggregate mean arrival per slot."""
        return float(
            sum(klass.count * klass.mean_rate for klass in self.classes)
        )

    @property
    def slot_variance(self) -> float:
        """Aggregate per-slot variance (independent sources add)."""
        return float(
            sum(klass.count * klass.slot_variance for klass in self.classes)
        )

    @property
    def variance_coefficient(self) -> float:
        """Norros' ``a``: per-slot variance over the mean rate."""
        return self.slot_variance / self.mean_rate

    @property
    def hurst(self) -> float:
        """Dominant (largest) Hurst exponent across classes.

        The slowest-decaying correlation dominates the aggregate's
        large-deviations behaviour, so the capacity-planning theory
        evaluates Norros' formulas at ``max_c H_c``.
        """
        values = [
            klass.hurst for klass in self.classes
            if klass.hurst is not None
        ]
        if not values:
            raise ValidationError(
                "no class defines a Hurst exponent; the population has "
                "no long-range-dependent component to plan capacity for"
            )
        return float(max(values))

    def scaled_to(self, num_sources: int) -> "SourcePopulation":
        """The same mixture rescaled to ``num_sources`` total sources.

        Counts are apportioned by the largest-remainder method
        (deterministic, ties broken by class order); classes whose
        share rounds to zero are dropped.
        """
        num_sources = check_positive_int(num_sources, "num_sources")
        total = self.num_sources
        raw = [
            klass.count * num_sources / total for klass in self.classes
        ]
        counts = [int(np.floor(share)) for share in raw]
        remainders = [share - count for share, count in zip(raw, counts)]
        short = num_sources - sum(counts)
        for index in sorted(
            range(len(counts)), key=lambda i: (-remainders[i], i)
        )[:short]:
            counts[index] += 1
        classes = [
            klass.with_count(count)
            for klass, count in zip(self.classes, counts)
            if count > 0
        ]
        return SourcePopulation(classes)

    def mixture_acf(self, lags: Sequence[float]) -> np.ndarray:
        """Predicted aggregate (foreground) ACF at ``lags``.

        Independent sources add covariances, so the aggregate ACF is
        the variance-weighted mixture of per-class foreground ACFs,
        each approximated by its analytic attenuation:
        ``rho(k) = sum_c n_c sigma_c^2 a_c r_c(k) / sum_c n_c
        sigma_c^2`` for ``k >= 1`` (exact when every transform is
        affine, e.g. Normal marginals, where ``a_c = 1``).  Classes
        with a GOP pattern are rejected — the cyclostationary gain has
        no stationary ACF to predict.
        """
        for klass in self.classes:
            if klass.gop_pattern is not None:
                raise ValidationError(
                    f"class {klass.name!r} has a gop_pattern; the "
                    "mixture ACF prediction is only defined for "
                    "stationary (pattern-free) classes"
                )
        lags_arr = np.atleast_1d(np.asarray(lags, dtype=float))
        weights = np.array(
            [
                klass.count * klass.marginal.variance
                for klass in self.classes
            ]
        )
        acfs = np.stack(
            [
                np.where(
                    lags_arr == 0,
                    1.0,
                    klass.attenuation
                    * np.asarray(klass.correlation(lags_arr), dtype=float),
                )
                for klass in self.classes
            ]
        )
        return np.asarray(
            (weights[:, None] * acfs).sum(axis=0) / weights.sum(),
            dtype=float,
        )

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{klass.name}:{klass.count}" for klass in self.classes
        )
        return f"SourcePopulation({inner})"


def as_population(
    population: Union[SourcePopulation, SourceClass, Sequence[SourceClass]],
) -> SourcePopulation:
    """Normalize a population argument.

    Accepts a :class:`SourcePopulation`, a single :class:`SourceClass`,
    or a sequence of classes.
    """
    if isinstance(population, SourcePopulation):
        return population
    if isinstance(population, SourceClass):
        return SourcePopulation([population])
    return SourcePopulation(population)


@dataclass(frozen=True)
class AggregateFeed:
    """One generated aggregate arrival path.

    Attributes
    ----------
    arrivals:
        Aggregate work per slot, shape ``(horizon,)``.
    mean_rate:
        The population's aggregate mean arrival per slot (the
        normalization constant for the paper's buffer conventions).
    num_sources:
        Number of sources summed into the feed.
    shards:
        Shard count the generation was grouped into (accounting only;
        the arrivals are bit-identical at any value).
    processes:
        Resolved process-pool size the blocks were generated on
        (accounting only; the arrivals are bit-identical at any value).
    """

    arrivals: np.ndarray
    mean_rate: float
    num_sources: int
    shards: int
    processes: int = 1

    @property
    def horizon(self) -> int:
        """Number of slots in the feed."""
        return int(self.arrivals.size)

    @property
    def normalized(self) -> np.ndarray:
        """Unit-mean arrivals (divide by the aggregate mean rate)."""
        return self.arrivals / self.mean_rate


#: One generation block: (class index, first in-class source, rows).
_Block = Tuple[int, int, int]

#: Feed dtypes the engine will accumulate into.  Per-block partial
#: sums are always computed in float64; float32 only stores the
#: running feed at half the memory (opt-in, not bit-comparable to the
#: float64 feed).
_FEED_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))

#: Per-interpreter memo of resolved sources for the process-pooled
#: path, keyed by an opaque per-engine token.  A persistent shared pool
#: outlives any one engine, so worker state cannot ride a pool
#: initializer any more: every task instead carries its engine's
#: ``(key, classes)`` and each interpreter — worker or parent (for the
#: inline fallback of :func:`~repro.simulation.parallel.reduce_tasks`)
#: — resolves the sources once per engine via :func:`_sources_for`.
_WORKER_SOURCES: Dict[str, List[GaussianSource]] = {}

#: Engines memoized per interpreter before old entries are evicted.
_WORKER_SOURCES_CAP = 8


def _sources_for(
    key: str, classes: Tuple[SourceClass, ...]
) -> List[GaussianSource]:
    """Resolve (once per interpreter per engine) one source per class.

    Workers rebuild their sources from the registry instead of
    unpickling them — source instances hold per-interpreter caches
    (spectral tables, coefficient tables) guarded by locks that cannot
    cross a process boundary.  Resolution is deterministic, so every
    worker holds the same law as the parent.
    """
    sources = _WORKER_SOURCES.get(key)
    if sources is None:
        sources = [
            registry.resolve(
                klass.backend, klass.correlation, **klass.backend_options
            )
            for klass in classes
        ]
        while len(_WORKER_SOURCES) >= _WORKER_SOURCES_CAP:
            _WORKER_SOURCES.pop(next(iter(_WORKER_SOURCES)))
        _WORKER_SOURCES[key] = sources
    return sources


def _block_partial(
    klass: SourceClass,
    source: GaussianSource,
    horizon: int,
    offset: int,
    rows: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One generation block's ``(horizon,)`` partial sum (float64).

    This is the engine's unit of arithmetic: sample the block's
    background, push it through the class transform, apply staggered
    GOP gains, and sum the rows.  Both the serial and the pooled paths
    call exactly this function per block, which is what makes the feed
    bit-identical across ``processes=`` values.
    """
    x = source.sample(horizon, size=rows, random_state=rng)
    y = np.asarray(klass.transform(x), dtype=float)
    if klass.gop_pattern is not None:
        period = klass.gop_pattern.size
        phases = (offset + np.arange(rows)) % period
        indices = (phases[:, None] + np.arange(horizon)[None, :]) % period
        y = y * klass.gop_pattern[indices]
    return y.sum(axis=0)


def _block_partials_task(task) -> np.ndarray:
    """Pool task: stack the partial sums of a contiguous block run.

    ``task`` is ``(key, classes, horizon, specs, rngs)`` with one
    ``(class_index, offset, rows)`` spec and one spawned child
    generator per block.  The payload is self-contained — any
    interpreter (a fresh worker, a reused shared-pool worker, or the
    parent on the inline fallback) memoizes the engine's sources from
    ``(key, classes)`` — and the task is a pure function of it, so
    completion order cannot change results: the parent folds the rows
    in global block order.
    """
    key, classes, horizon, specs, rngs = task
    sources = _sources_for(key, classes)
    return np.stack([
        _block_partial(
            classes[class_index], sources[class_index],
            horizon, offset, rows, rng,
        )
        for (class_index, offset, rows), rng in zip(specs, rngs)
    ])


def _check_feed_dtype(dtype) -> np.dtype:
    """Validate the opt-in feed accumulator dtype."""
    if dtype is None:
        return _FEED_DTYPES[0]
    try:
        resolved = np.dtype(dtype)
    except TypeError:
        raise ValidationError(
            f"dtype must be float64 or float32, got {dtype!r}"
        ) from None
    if resolved not in _FEED_DTYPES:
        raise ValidationError(
            f"dtype must be float64 or float32, got {dtype!r}"
        )
    return resolved


class ShardedAggregateModel:
    """Batched, sharded generator of heterogeneous aggregate feeds.

    Parameters
    ----------
    population:
        A :class:`SourcePopulation` (or class / sequence of classes).
    batch_size:
        Sources generated per vectorized pass.  Part of the seeding
        law: peak memory and bit-stream both depend on it; shard count
        depends on neither.
    metrics:
        Optional :class:`~repro.observability.RunContext`; records the
        ``aggregate.*`` catalogue (sources/blocks/samples counters per
        class, per-shard timers).
    """

    def __init__(
        self,
        population: Union[
            SourcePopulation, SourceClass, Sequence[SourceClass]
        ],
        *,
        batch_size: int = 256,
        metrics=None,
    ) -> None:
        self.population = as_population(population)
        self.batch_size = check_positive_int(batch_size, "batch_size")
        self._metrics = ensure_context(metrics)
        # Resolve one source per class up front (construction-time
        # capability validation; Davies-Harte classes then share one
        # spectral-cache entry across every block and every feed).
        self._sources = [
            registry.resolve(
                klass.backend,
                klass.correlation,
                metrics=self._metrics,
                **klass.backend_options,
            )
            for klass in self.population.classes
        ]
        # Opaque per-engine token for the worker-side source memo: a
        # persistent pool serves many engines over its lifetime, and
        # tasks carrying (key, classes) let each worker resolve this
        # engine's sources exactly once, not once per task.
        self._task_key = uuid4().hex

    @classmethod
    def from_unified(
        cls,
        model: UnifiedVBRModel,
        num_sources: int,
        *,
        batch_size: int = 256,
        backend: BackendArg = "auto",
        metrics=None,
    ) -> "ShardedAggregateModel":
        """Engine for ``num_sources`` copies of a fitted unified model.

        Each source draws from the model's compensated background
        correlation and is pushed through its fitted eq. 7 transform —
        the §4 homogeneous-multiplexing setup at engine scale.
        """
        if not isinstance(model, UnifiedVBRModel):
            raise ValidationError(
                "model must be a UnifiedVBRModel, got "
                f"{type(model).__name__}"
            )
        if model.background_ is None:
            raise NotFittedError(
                "model must be fitted before aggregation"
            )
        klass = SourceClass(
            "unified",
            correlation=model.background_,
            marginal=model.marginal_,
            count=num_sources,
            backend=backend,
        )
        return cls(klass, batch_size=batch_size, metrics=metrics)

    @property
    def num_sources(self) -> int:
        """Total number of sources in the population."""
        return self.population.num_sources

    def _blocks(self) -> List[_Block]:
        """Global generation-block list (class order, then offset)."""
        blocks: List[_Block] = []
        for class_index, klass in enumerate(self.population.classes):
            for offset in range(0, klass.count, self.batch_size):
                rows = min(self.batch_size, klass.count - offset)
                blocks.append((class_index, offset, rows))
        return blocks

    def generate(
        self,
        horizon: int,
        *,
        shards: int = 1,
        processes: Optional[int] = None,
        dtype=None,
        random_state: RandomState = None,
    ) -> AggregateFeed:
        """Generate one aggregate arrival path of length ``horizon``.

        ``shards`` groups the generation blocks into contiguous runs
        for reduction and accounting, and ``processes`` moves block
        generation onto a process pool (``None`` defers to the
        ``REPRO_PROCESSES`` environment variable, default 1 = in-line);
        the returned feed is bit-identical for any value of either
        (see the module seeding contract).  ``dtype`` selects the feed
        accumulator precision: float64 (default) or, opt-in, float32 —
        partial sums are always computed in float64 and only the
        running feed is stored narrow, halving feed memory at scale
        (the float32 feed is *not* bit-comparable to the float64 one).
        Peak memory is O(batch_size x horizon) plus, when pooled, the
        bounded in-flight reduction window — never
        O(shards x horizon).
        """
        horizon = check_positive_int(horizon, "horizon")
        shards = check_positive_int(shards, "shards")
        # Lazy import: repro.simulation.__init__ pulls in the runner,
        # which imports this module back — resolving at call time keeps
        # the cycle out of import order.
        from ..simulation.parallel import resolve_processes

        procs = resolve_processes(processes)
        out_dtype = _check_feed_dtype(dtype)
        ctx = self._metrics
        blocks = self._blocks()
        children = spawn_rngs(random_state, len(blocks))
        total = np.zeros(horizon, dtype=out_dtype)
        pooled = procs > 1 and len(blocks) > 1
        ctx.set("aggregate.batch_size", float(self.batch_size))
        ctx.set("aggregate.horizon", float(horizon))
        ctx.set("aggregate.processes", float(procs))
        workspace_before = workspace_stats()
        start = time.perf_counter()
        with ctx.time("aggregate.generate_seconds"):
            if pooled:
                self._generate_pooled(total, blocks, children, shards, procs)
            else:
                self._generate_serial(total, blocks, children, shards)
        elapsed = time.perf_counter() - start
        if elapsed > 0.0:
            ctx.set(
                "aggregate.throughput_source_slots_per_s",
                self.num_sources * horizon / elapsed,
            )
        workspace_after = workspace_stats()
        hits = workspace_after["hits"] - workspace_before["hits"]
        builds = workspace_after["builds"] - workspace_before["builds"]
        if hits:
            ctx.inc("spectral.workspace_hits", hits)
        if builds:
            ctx.inc("spectral.workspace_builds", builds)
        for klass in self.population.classes:
            ctx.inc(
                "aggregate.sources",
                klass.count,
                source_class=klass.name,
            )
            ctx.inc("aggregate.samples", klass.count * horizon)
        return AggregateFeed(
            arrivals=total,
            mean_rate=self.population.mean_rate,
            num_sources=self.num_sources,
            shards=shards,
            processes=procs,
        )

    def _generate_serial(
        self,
        total: np.ndarray,
        blocks: List[_Block],
        children: List[np.random.Generator],
        shards: int,
    ) -> None:
        """In-line block loop (the pooled path's arithmetic reference)."""
        ctx = self._metrics
        classes = self.population.classes
        for shard_blocks in np.array_split(np.arange(len(blocks)), shards):
            if shard_blocks.size:
                ctx.inc("aggregate.shards")
            with ctx.time("aggregate.shard_seconds"):
                for block_id in shard_blocks:
                    class_index, offset, rows = blocks[block_id]
                    total += _block_partial(
                        classes[class_index],
                        self._sources[class_index],
                        total.size,
                        offset,
                        rows,
                        children[block_id],
                    )
                    ctx.inc(
                        "aggregate.blocks",
                        source_class=classes[class_index].name,
                    )

    def _generate_pooled(
        self,
        total: np.ndarray,
        blocks: List[_Block],
        children: List[np.random.Generator],
        shards: int,
        procs: int,
    ) -> None:
        """Process-pooled block generation with a streaming ordered fold.

        Contiguous block runs ship to the pool as tasks; each worker
        returns the run's stacked per-block partial sums and the parent
        folds the rows into ``total`` strictly in global block order
        through :func:`~repro.simulation.parallel.reduce_tasks`, so the
        additions are exactly the serial path's, in the serial order.
        Every shard is served by the process-wide shared pool; the fold
        below never retains the transient zero-copy views it is handed.
        """
        from ..simulation.parallel import reduce_tasks

        ctx = self._metrics
        classes = self.population.classes
        instance_backed = [
            klass.name for klass in classes
            if isinstance(klass.backend, GaussianSource)
        ]
        if instance_backed:
            raise ValidationError(
                "processes > 1 requires registry-name backends (pool "
                "workers re-resolve sources; built source instances "
                "hold per-interpreter caches that cannot cross a "
                "process boundary) — classes with instance backends: "
                + ", ".join(repr(name) for name in instance_backed)
            )
        # Parent-side memo too: a shard that collapses to one task runs
        # through reduce_tasks' inline fallback in this process and
        # must find the already-resolved sources.
        _WORKER_SOURCES[self._task_key] = list(self._sources)
        classes = tuple(classes)
        horizon = total.size
        reduction_bytes = 0
        for shard_blocks in np.array_split(np.arange(len(blocks)), shards):
            if shard_blocks.size:
                ctx.inc("aggregate.shards")
            with ctx.time("aggregate.shard_seconds"):
                if not shard_blocks.size:
                    continue
                # A few tasks per worker amortizes pickling without
                # starving the pool; the cap bounds task payloads.
                per_task = max(
                    1,
                    min(32, -(-int(shard_blocks.size) // (4 * procs))),
                )
                tasks = []
                task_specs = []
                for low in range(0, shard_blocks.size, per_task):
                    ids = shard_blocks[low:low + per_task]
                    specs = tuple(blocks[i] for i in ids)
                    tasks.append((
                        self._task_key,
                        classes,
                        horizon,
                        specs,
                        tuple(children[i] for i in ids),
                    ))
                    task_specs.append(specs)

                def fold(partials, index):
                    nonlocal reduction_bytes, total
                    partials = np.asarray(partials)
                    reduction_bytes += partials.nbytes
                    for row, (class_index, _offset, _rows) in zip(
                        partials, task_specs[index]
                    ):
                        total += row
                        ctx.inc(
                            "aggregate.blocks",
                            source_class=classes[class_index].name,
                        )

                reduce_tasks(
                    _block_partials_task,
                    tasks,
                    fold,
                    workers=procs,
                    kind="process",
                    metrics=ctx,
                    prefix="aggregate_pool",
                )
        ctx.inc("aggregate.reduction_bytes", reduction_bytes)

    def __repr__(self) -> str:
        return (
            f"ShardedAggregateModel({self.population!r}, "
            f"batch_size={self.batch_size})"
        )
