"""Capacity planning for large multiplexed VBR aggregates.

The service-scale questions the effective-bandwidth theory answers:

- **provisioning** — how much capacity does a mixture of N sources
  need so that overflow of a buffer ``b`` stays below ``epsilon``?
  (:func:`effective_bandwidth_vs_n`);
- **admission control** — given a link of capacity ``c``, how many
  sources of the mixture can be admitted?  (:func:`admissible_sources`);
- **multiplexing gain** — how fast does the realized loss ratio fall
  as N grows at fixed per-source provisioning?  (:func:`loss_vs_n`,
  which *simulates* the sharded aggregate through
  :class:`~repro.queueing.multiplexer.AtmMultiplexer` and reports the
  Norros prediction next to the measurement).

Conventions
-----------
Theory curves (:func:`effective_bandwidth_vs_n`, admission) scale the
mixture *continuously*: a population of ``N0`` sources with aggregate
mean ``M0`` evaluated at ``N`` sources uses mean ``N M0 / N0`` and the
same per-source variance coefficient — the per-slot variance over the
mean rate, which is invariant under proportional scaling.  Simulation
(:func:`loss_vs_n`) needs integer class counts and uses
:meth:`~repro.core.aggregate.SourcePopulation.scaled_to` (largest
remainder).  Buffer sizes are normalized by the *aggregate* mean rate
(the same convention as
:meth:`~repro.core.multiplex.AggregateVBRModel.arrival_transform`):
``b_abs = buffer_size * M``.  ``buffer_size=0`` selects the bufferless
multiplexer and the Gaussian bufferless loss formula
(:func:`bufferless_loss_gaussian`) as the theory reference.

Heterogeneous mixtures are planned at the *dominant* Hurst exponent
(``max_c H_c``): the slowest-decaying class controls the overflow tail,
so the resulting curves are conservative for the faster classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import erf, exp, pi, sqrt
from typing import Optional, Sequence, Union

import numpy as np

from .._validation import (
    check_in_range,
    check_nonnegative_float,
    check_positive_float,
    check_positive_int,
)
from ..core.aggregate import (
    ShardedAggregateModel,
    SourceClass,
    SourcePopulation,
    as_population,
)
from ..exceptions import ValidationError
from ..observability import current_context
from ..stats.random import RandomState, spawn_rngs
from .multiplexer import AtmMultiplexer
from .theory import norros_effective_bandwidth, norros_overflow_approximation

__all__ = [
    "EffectiveBandwidthCurve",
    "LossVsN",
    "effective_bandwidth_vs_n",
    "admissible_sources",
    "bufferless_loss_gaussian",
    "loss_vs_n",
]

PopulationArg = Union[SourcePopulation, SourceClass, Sequence[SourceClass]]


@dataclass(frozen=True)
class EffectiveBandwidthCurve:
    """Effective bandwidth of the mixture as a function of N.

    ``bandwidths`` are absolute capacities; ``per_source`` divides by N
    — its decrease with N *is* the multiplexing gain promised by the
    theory.  ``utilizations`` (= mean rate over bandwidth) rise toward
    1 as the aggregate smooths.
    """

    n_values: np.ndarray
    mean_rates: np.ndarray
    bandwidths: np.ndarray
    buffer_size: float
    epsilon: float
    hurst: float

    @property
    def per_source(self) -> np.ndarray:
        """Effective bandwidth per admitted source."""
        return self.bandwidths / self.n_values

    @property
    def utilizations(self) -> np.ndarray:
        """Achievable utilization when provisioned at the bandwidth."""
        return self.mean_rates / self.bandwidths


@dataclass(frozen=True)
class LossVsN:
    """Measured loss ratio vs. N with its theory reference.

    ``loss_ratios`` are simulated cell-loss ratios of the sharded
    aggregate through a finite-buffer (or bufferless) multiplexer at
    fixed utilization; ``theory`` is the Norros overflow approximation
    (``buffer_size > 0``) or the Gaussian bufferless loss formula
    (``buffer_size = 0``) at the same operating point.
    """

    n_values: np.ndarray
    loss_ratios: np.ndarray
    theory: np.ndarray
    mean_rates: np.ndarray
    utilization: float
    buffer_size: float

    @property
    def multiplexing_gain(self) -> np.ndarray:
        """Loss improvement relative to the smallest N in the sweep."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.loss_ratios[0] / self.loss_ratios


def _per_source_moments(population: PopulationArg):
    """(per-source mean, variance coefficient, dominant H) of a mixture."""
    pop = as_population(population)
    mean = pop.mean_rate / pop.num_sources
    return pop, mean, pop.variance_coefficient, pop.hurst


def effective_bandwidth_vs_n(
    population: PopulationArg,
    n_values: Sequence[int],
    *,
    buffer_size: float,
    epsilon: float,
) -> EffectiveBandwidthCurve:
    """Norros effective bandwidth of the mixture at each source count.

    ``buffer_size`` is normalized by the aggregate mean rate and must
    be positive (the effective-bandwidth formula diverges at ``b = 0``;
    use :func:`bufferless_loss_gaussian` for the bufferless regime).
    ``epsilon`` is the target overflow probability.
    """
    curve = _effective_bandwidths(population, n_values, buffer_size, epsilon)
    current_context().inc(
        "capacity.effective_bandwidth_points", curve.n_values.size
    )
    return curve


def _effective_bandwidths(
    population: PopulationArg,
    n_values: Sequence[int],
    buffer_size: float,
    epsilon: float,
) -> EffectiveBandwidthCurve:
    """:func:`effective_bandwidth_vs_n` without the metric."""
    buffer_size = check_positive_float(buffer_size, "buffer_size")
    epsilon = check_in_range(
        epsilon, "epsilon", 0.0, 1.0,
        inclusive_low=False, inclusive_high=False,
    )
    pop, mean, coeff, hurst = _per_source_moments(population)
    counts = np.atleast_1d(np.asarray(n_values, dtype=int))
    if counts.size == 0 or np.any(counts <= 0):
        raise ValidationError("n_values must be positive source counts")
    bandwidths = np.empty(counts.size, dtype=float)
    mean_rates = np.empty(counts.size, dtype=float)
    for i, n in enumerate(counts):
        mean_rates[i] = n * mean
        bandwidths[i] = norros_effective_bandwidth(
            hurst=hurst,
            mean_rate=mean_rates[i],
            variance_coefficient=coeff,
            buffer_size=buffer_size * mean_rates[i],
            epsilon=epsilon,
        )
    return EffectiveBandwidthCurve(
        n_values=counts,
        mean_rates=mean_rates,
        bandwidths=bandwidths,
        buffer_size=buffer_size,
        epsilon=epsilon,
        hurst=hurst,
    )


def admissible_sources(
    population: PopulationArg,
    *,
    capacity: float,
    buffer_size: float,
    epsilon: float,
    n_max: int = 1_000_000,
) -> int:
    """Largest N of the mixture admissible on a link of ``capacity``.

    The admission rule is ``EB(N) <= capacity`` with the effective
    bandwidth of :func:`effective_bandwidth_vs_n`.  EB is strictly
    increasing in N under continuous mixture scaling, so the answer is
    found by integer bisection; returns 0 when even one source's
    effective bandwidth exceeds the capacity.
    """
    capacity = check_positive_float(capacity, "capacity")
    n_max = check_positive_int(n_max, "n_max")

    def bandwidth(n: int) -> float:
        return float(
            _effective_bandwidths(
                population, [n], buffer_size, epsilon
            ).bandwidths[0]
        )

    current_context().inc("capacity.admission_evals")
    if bandwidth(1) > capacity:
        return 0
    if bandwidth(n_max) <= capacity:
        return n_max
    lo, hi = 1, n_max  # invariant: EB(lo) <= capacity < EB(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bandwidth(mid) <= capacity:
            lo = mid
        else:
            hi = mid
    return lo


def bufferless_loss_gaussian(
    *, mean_rate: float, std: float, capacity: float
) -> float:
    """Gaussian-approximation loss ratio of a bufferless multiplexer.

    With per-slot aggregate work ``A ~ N(M, S^2)`` and capacity ``c``,
    the expected lost work per slot is ``E[(A - c)^+] = S (phi(z) -
    z Phibar(z))`` with ``z = (c - M) / S``, and the loss ratio divides
    by the offered work ``M``.  The CLT makes this sharp for large N —
    the bufferless anchor of the admission rule.
    """
    mean_rate = check_positive_float(mean_rate, "mean_rate")
    std = check_positive_float(std, "std")
    capacity = check_positive_float(capacity, "capacity")
    z = (capacity - mean_rate) / std
    phi = exp(-0.5 * z * z) / sqrt(2.0 * pi)
    phibar = 0.5 * (1.0 - erf(z / sqrt(2.0)))
    return float(std * (phi - z * phibar) / mean_rate)


def loss_vs_n(
    population: PopulationArg,
    n_values: Sequence[int],
    *,
    utilization: float,
    buffer_size: float = 0.0,
    horizon: int = 4096,
    replications: int = 1,
    batch_size: int = 256,
    shards: int = 1,
    processes: Optional[int] = None,
    random_state: RandomState = None,
) -> LossVsN:
    """Simulated loss ratio of the sharded aggregate at each N.

    For each ``n`` the mixture is rescaled to ``n`` integer sources,
    generated by :class:`~repro.core.aggregate.ShardedAggregateModel`,
    and pushed through an :class:`AtmMultiplexer` with service
    ``M / utilization`` and buffer ``buffer_size * M`` (normalized by
    the aggregate mean; 0 = bufferless).  Loss ratios pool lost and
    offered work across ``replications`` independent paths.  ``theory``
    holds the matching analytic reference: the Gaussian bufferless
    formula at ``buffer_size = 0``, Norros' ``P(Q > b)`` otherwise.
    ``processes`` is forwarded to the engine's block-level thread pool
    (``None`` defers to ``REPRO_WORKERS``); like ``shards``, it never
    changes the simulated bits.
    """
    ctx = current_context()
    utilization = check_in_range(
        utilization, "utilization", 0.0, 1.0,
        inclusive_low=False, inclusive_high=False,
    )
    buffer_size = check_nonnegative_float(buffer_size, "buffer_size")
    horizon = check_positive_int(horizon, "horizon")
    replications = check_positive_int(replications, "replications")
    pop = as_population(population)
    counts = np.atleast_1d(np.asarray(n_values, dtype=int))
    if counts.size == 0 or np.any(counts <= 0):
        raise ValidationError("n_values must be positive source counts")
    rngs = spawn_rngs(random_state, counts.size * replications)
    loss = np.empty(counts.size, dtype=float)
    theory = np.empty(counts.size, dtype=float)
    mean_rates = np.empty(counts.size, dtype=float)
    for i, n in enumerate(counts):
        scaled = pop.scaled_to(int(n))
        engine = ShardedAggregateModel(scaled, batch_size=batch_size)
        mean_rate = scaled.mean_rate
        mean_rates[i] = mean_rate
        service = mean_rate / utilization
        mux = AtmMultiplexer(service, buffer_size=buffer_size * mean_rate)
        lost = 0.0
        offered = 0.0
        with ctx.time("capacity.loss_seconds", n=int(n)):
            for r in range(replications):
                feed = engine.generate(
                    horizon,
                    shards=shards,
                    processes=processes,
                    random_state=rngs[i * replications + r],
                )
                result = mux.simulate(feed.arrivals)
                lost += float(result.lost.sum())
                offered += result.offered
        loss[i] = lost / offered if offered > 0 else 0.0
        ctx.inc("capacity.loss_points", n=int(n))
        if buffer_size == 0.0:
            theory[i] = bufferless_loss_gaussian(
                mean_rate=mean_rate,
                std=sqrt(scaled.slot_variance),
                capacity=service,
            )
        else:
            theory[i] = float(
                norros_overflow_approximation(
                    [buffer_size * mean_rate],
                    hurst=scaled.hurst,
                    mean_rate=mean_rate,
                    service_rate=service,
                    variance_coefficient=scaled.variance_coefficient,
                )[0]
            )
    return LossVsN(
        n_values=counts,
        loss_ratios=loss,
        theory=theory,
        mean_rates=mean_rates,
        utilization=utilization,
        buffer_size=buffer_size,
    )
