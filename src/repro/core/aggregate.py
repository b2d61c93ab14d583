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
  or one batched Hosking pass — and reduces the batches into one
  ``(horizon,)`` multiplexer feed, so peak memory is
  O(batch_size x horizon) regardless of N.

Seeding contract (shard- and pool-size invariance)
--------------------------------------------------
Sources are partitioned into fixed *generation blocks* of at most
``batch_size`` sources, enumerated class by class in population order;
block ``b`` draws from the ``b``-th child of
``SeedSequence(random_state)`` and blocks are always reduced in block
order.  ``shards=`` only groups contiguous blocks for reduction and
accounting, and ``processes=`` only sets how many blocks a thread pool
generates at once — neither ever moves a block boundary, reseeds a
stream, or reorders an accumulation — so for a fixed seed the
aggregate feed is **bit-identical at any shard count and any pool
size** (the same contract as the ``workers=`` invariance of the
parallel runners).  ``batch_size`` and the class order, by contrast,
are part of the law: changing either changes which stream a source
draws from (same distribution, different bits).

Why the pool cannot change the bits: each task computes one block's
partial sum ``y_b = sum over the block's rows`` — a pure function of
the block's spec and its spawned child generator, with no cross-block
arithmetic — and the calling thread folds ``total += y_b`` strictly in
global block order through the streaming reducer of
:func:`~repro.simulation.parallel.reduce_tasks` (in-line at
``processes=1``).  The fold performs the same additions in the same
order at every pool size, so floating-point non-associativity never
enters; the pool only reorders wall-clock time.  Streaming the fold (a
bounded in-flight window, results released as they are folded) keeps
feed memory O(horizon), not O(blocks x horizon) or O(shards x horizon).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

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
from ..observability import current_context, recording
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
        Extra factory options (e.g. ``on_negative_eigenvalues=`` for
        ``davies_harte``).
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
        Resolved thread-pool size the blocks were generated on
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


def _block_partial(
    klass: SourceClass,
    source: GaussianSource,
    horizon: int,
    offset: int,
    rows: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One generation block's ``(horizon,)`` partial sum (float64).

    This is the engine's unit of arithmetic and its pool task: sample
    the block's background, push it through the class transform, apply
    staggered GOP gains, and sum the rows.  It reads nothing but its
    arguments, so it returns the same bits on any thread.
    """
    x = source.sample(horizon, size=rows, random_state=rng)
    y = np.asarray(klass.transform(x), dtype=float)
    del x
    if klass.gop_pattern is not None:
        # Row p of ``gains`` is the gain sequence of a source at phase
        # p; row j of the block (phase (offset + j) mod period) takes
        # it in place, so no block-sized gain array is formed.
        period = klass.gop_pattern.size
        gains = klass.gop_pattern[
            (np.arange(period)[:, None] + np.arange(horizon)) % period
        ]
        for phase in range(period):
            y[(phase - offset) % period::period] *= gains[phase]
    return y.sum(axis=0)


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
        A seam kept for ``perfbench/workloads.py:223``: a context given
        here is bound (as by :func:`repro.observability.recording`) in
        the constructor and in :meth:`generate`.  Otherwise both record
        the ``aggregate.*`` catalogue (sources/blocks/samples counters
        per class, per-shard timers) into the current run context.
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
        self._metrics = metrics
        # Resolve one source per class up front (construction-time
        # capability validation; Davies-Harte classes then share one
        # spectral-cache entry across every block and every feed).
        with recording(metrics):
            self._sources = [
                registry.resolve(
                    klass.backend,
                    klass.correlation,
                    **klass.backend_options,
                )
                for klass in self.population.classes
            ]

    @classmethod
    def from_unified(
        cls,
        model: UnifiedVBRModel,
        num_sources: int,
        *,
        batch_size: int = 256,
        backend: BackendArg = "auto",
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
        return cls(klass, batch_size=batch_size)

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
        for reduction and accounting, and ``processes`` generates that
        many blocks at once on a thread pool (``None`` defers to the
        ``REPRO_WORKERS`` environment variable, default 1 = in-line);
        the returned feed is bit-identical for any value of either
        (see the module seeding contract).  ``dtype`` selects the feed
        accumulator precision: float64 (default) or, opt-in, float32 —
        partial sums are always computed in float64 and only the
        running feed is stored narrow, halving feed memory at scale
        (the float32 feed is *not* bit-comparable to the float64 one).
        Peak memory is O(batch_size x horizon) per thread plus the
        bounded in-flight reduction window — never O(shards x horizon).
        """
        with recording(self._metrics):
            return self._generate(horizon, shards, processes, dtype,
                                  random_state)

    def _generate(
        self, horizon, shards, processes, dtype, random_state
    ) -> AggregateFeed:
        horizon = check_positive_int(horizon, "horizon")
        shards = check_positive_int(shards, "shards")
        # Lazy import: repro.simulation.__init__ pulls in the runner,
        # which imports this module back — resolving at call time keeps
        # the cycle out of import order.
        from ..simulation.parallel import reduce_tasks, resolve_workers

        procs = resolve_workers(processes, "processes")
        out_dtype = _check_feed_dtype(dtype)
        ctx = current_context()
        classes = self.population.classes
        blocks = self._blocks()
        children = spawn_rngs(random_state, len(blocks))
        total = np.zeros(horizon, dtype=out_dtype)
        folded = 0
        ctx.set("aggregate.batch_size", float(self.batch_size))
        ctx.set("aggregate.horizon", float(horizon))
        ctx.set("aggregate.processes", float(procs))

        def partial_sum(block_id: int) -> np.ndarray:
            class_index, offset, rows = blocks[block_id]
            return _block_partial(
                classes[class_index],
                self._sources[class_index],
                horizon,
                offset,
                rows,
                children[block_id],
            )

        def fold(partial: np.ndarray, _index: int) -> None:
            # Partials arrive in block order across every shard, so
            # ``folded`` is the global id of the block being added.
            nonlocal total, folded
            total += partial
            klass = classes[blocks[folded][0]]
            ctx.inc("aggregate.blocks", source_class=klass.name)
            folded += 1

        workspace_before = workspace_stats()
        start = time.perf_counter()
        with ctx.time("aggregate.generate_seconds"):
            for shard_blocks in np.array_split(np.arange(len(blocks)), shards):
                if shard_blocks.size:
                    ctx.inc("aggregate.shards")
                with ctx.time("aggregate.shard_seconds"):
                    reduce_tasks(
                        partial_sum,
                        shard_blocks.tolist(),
                        fold,
                        workers=procs,
                        prefix="aggregate_pool",
                    )
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
        for klass in classes:
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

    def __repr__(self) -> str:
        return (
            f"ShardedAggregateModel({self.population!r}, "
            f"batch_size={self.batch_size})"
        )
