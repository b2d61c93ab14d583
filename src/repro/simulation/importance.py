"""Mean-twisted background processes and IS overflow estimators.

Implements Appendix B of the paper.  The twisted background process is
``X'_k = X_k + m*`` — same correlation, shifted mean.  Simulating under
the twisted law and unbiasing with the likelihood ratio

.. math:: L(k) = \\frac{f_X(x'_1, ..., x'_k)}{f_{X'}(x'_1, ..., x'_k)}

gives an unbiased estimator of rare overflow probabilities whose
variance collapses near the right ``m*``.

Both densities factor into the conditional Gaussians produced by
Hosking's recursion, which share the conditional variance ``v_k`` and
coefficients ``phi_kj`` (eq. 35-41).  Writing ``e_k = x_k - m_k`` for
the innovation of the *untwisted* path and ``s_k = sum_j phi_kj``, the
per-step log likelihood-ratio increment reduces to

.. math::

    \\log L_k = -\\frac{2 e_k c_k + c_k^2}{2 v_k},
    \\qquad c_k = m^* (1 - s_k)

which is algebraically identical to the paper's eq. 45-48 but evaluated
in log space for numerical stability (``s_1 = 0`` recovers eq. 48 for
the first sample).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple, Union

import numpy as np

from .._validation import (
    check_finite_float,
    check_positive_float,
    check_positive_int,
)
from ..exceptions import SimulationError, SimulationWarning, ValidationError
from ..observability import ensure_context
from ..processes import registry
from ..processes.correlation import CorrelationModel
from ..processes.hosking import CoeffTableArg
from ..processes.hosking_blocked import BlockSizeArg
from ..processes.registry import BackendArg
from ..processes.source import GaussianSource
from ..stats.random import RandomState
from .estimators import ISEstimate, effective_sample_size

__all__ = [
    "TwistedBackground",
    "is_overflow_probability",
    "is_transient_overflow_curve",
]

ArrivalTransform = Callable[[np.ndarray], np.ndarray]


def _apply_transform(
    transform: ArrivalTransform, values: np.ndarray, step: int
) -> np.ndarray:
    """Apply a stationary or time-varying arrival transform.

    Transforms carrying a truthy ``time_varying`` attribute are called
    as ``transform(values, step)`` — used by GOP-phase-aware composite
    video transforms whose marginal depends on the slot's frame type.
    """
    if getattr(transform, "time_varying", False):
        return np.asarray(transform(values, step), dtype=float)
    return np.asarray(transform(values), dtype=float)


def batched_arrivals(
    transform: ArrivalTransform, paths: np.ndarray
) -> np.ndarray:
    """Map batched background paths ``(size, k)`` through ``transform``.

    Stationary transforms are applied to the whole batch in one call
    (they are elementwise, so the 2-D pass is exact); time-varying
    transforms (``transform.time_varying``) are called per slot with
    the replication vector and the step index, matching the
    importance-sampling convention ``transform(values, step)``.  Shared
    by the batched plain-MC runner and the shared-path twist sweep.
    """
    if getattr(transform, "time_varying", False):
        arrivals = np.empty_like(paths)
        for step in range(paths.shape[1]):
            arrivals[:, step] = np.asarray(
                transform(paths[:, step], step), dtype=float
            )
        return arrivals
    arrivals = np.asarray(transform(paths), dtype=float)
    if arrivals.shape != paths.shape:
        raise ValidationError(
            "stationary transform must be elementwise "
            f"(shape-preserving); mapped {paths.shape} to "
            f"{arrivals.shape}"
        )
    return arrivals


@dataclass(frozen=True)
class TwistedStep:
    """One step of a twisted background generation.

    Attributes
    ----------
    twisted_values:
        The twisted samples ``x'_k = x_k + m*`` for every replication.
    log_lr_increment:
        Per-replication increment of ``log L``.
    """

    twisted_values: np.ndarray
    log_lr_increment: np.ndarray


class TwistedBackground:
    """Step-at-a-time twisted background process with likelihood ratios.

    Parameters
    ----------
    correlation:
        Correlation model (or autocovariance sequence) of the
        *untwisted* background process — or an already-built
        :class:`~repro.processes.source.GaussianSource` advertising
        conditional stepping.
    horizon:
        Maximum number of steps.
    twisted_mean:
        The twist ``m*`` (0 gives plain Monte Carlo with ``L = 1``);
        a non-finite twist raises :class:`~repro.exceptions.ValidationError`.
    size:
        Number of parallel replications.
    random_state:
        Seed or generator.
    coeff_table:
        Passed through to the conditional backend:
        ``None`` (default) shares Durbin-Levinson coefficients via the
        fingerprint cache, an explicit table is used directly, and
        ``False`` keeps a private incremental recursion.
    backend:
        Registry name of the conditional generation backend (or a
        :class:`~repro.processes.source.GaussianSource` instance).
        ``"auto"`` (default) selects Hosking — the only backend exposing
        the exact per-step conditional moments the likelihood ratios
        need.  Backends without the conditional capability are rejected
        here, at construction, never mid-run.
    block_size:
        Forwarded to the conditional backend factory (``B > 1`` routes
        Hosking stepping through the blocked BLAS-3 kernel; the default
        keeps the exact per-step loop — see
        :func:`~repro.processes.hosking.hosking_generate`).  Ignored
        when an already-built source instance is supplied — instances
        carry their own block size from construction.
    metrics:
        Optional :class:`~repro.observability.RunContext`; records
        retirement counters and the all-retired-early degeneracy
        signal.  Never touches the random stream.
    """

    def __init__(
        self,
        correlation: Union[
            CorrelationModel, Sequence[float], GaussianSource
        ],
        horizon: int,
        *,
        twisted_mean: float = 0.0,
        size: int = 1,
        random_state: RandomState = None,
        coeff_table: CoeffTableArg = None,
        backend: BackendArg = "auto",
        block_size: BlockSizeArg = None,
        metrics=None,
    ) -> None:
        self.twisted_mean = check_finite_float(twisted_mean, "twisted_mean")
        self._metrics = ensure_context(metrics)
        if isinstance(correlation, GaussianSource):
            source = registry.resolve(
                correlation, None, conditional=True, metrics=self._metrics
            )
        elif isinstance(backend, GaussianSource):
            source = registry.resolve(
                backend, None, conditional=True, metrics=self._metrics
            )
        else:
            source = registry.resolve(
                backend,
                correlation,
                conditional=True,
                coeff_table=coeff_table,
                block_size=block_size,
                metrics=self._metrics,
            )
        self._source = source
        self._process = source.stream(
            horizon,
            size=size,
            random_state=random_state,
            metrics=self._metrics,
        )
        # Plain Monte Carlo (m* == 0) has identically-zero log-LR
        # increments; hand out one cached read-only buffer instead of
        # allocating a fresh np.zeros(size) every step.
        if self.twisted_mean == 0.0:
            zero = np.zeros(self._process.size)
            zero.flags.writeable = False
            self._zero_increments = zero
        else:
            self._zero_increments = None

    @property
    def source(self) -> GaussianSource:
        """The conditional :class:`GaussianSource` driving this process."""
        return self._source

    @property
    def size(self) -> int:
        """Number of parallel replications."""
        return self._process.size

    @property
    def horizon(self) -> int:
        """Maximum number of steps."""
        return self._process.horizon

    @property
    def step_index(self) -> int:
        """Number of steps generated so far."""
        return self._process.step_index

    @property
    def active_count(self) -> int:
        """Number of replications still being generated."""
        return self._process.active_count

    def retire(self, replications: np.ndarray) -> int:
        """Stop generating the given replications; return active count.

        Delegates to :meth:`repro.processes.hosking.HoskingProcess.retire`;
        active replications' paths and likelihood ratios are bit-for-bit
        unchanged by retirement (innovations are still drawn for every
        replication to keep the stream aligned).

        Retiring the *last* active replication before the horizon is a
        degeneracy signal — every subsequent :meth:`step` is pure
        bookkeeping with no surviving path — so it emits a
        :class:`~repro.exceptions.SimulationWarning` and an
        ``is.all_retired`` counter.  (The overflow estimators never
        trigger this: they stop calling ``retire`` once no survivors
        remain.)
        """
        before = self._process.active_count
        remaining = self._process.retire(replications)
        retired = before - remaining
        if retired:
            self._metrics.inc(
                "is.retired", retired, twist=self.twisted_mean
            )
            if (
                remaining == 0
                and self._process.step_index < self._process.horizon
            ):
                self._metrics.inc(
                    "is.all_retired", twist=self.twisted_mean
                )
                warnings.warn(
                    "every replication of the twisted background "
                    f"(m*={self.twisted_mean:g}) was retired at step "
                    f"{self._process.step_index} of "
                    f"{self._process.horizon}; further steps carry no "
                    "information",
                    SimulationWarning,
                    stacklevel=2,
                )
        return remaining

    def step(self) -> TwistedStep:
        """Generate the next twisted samples and log-LR increments."""
        hs = self._process.step()
        m_star = self.twisted_mean
        if m_star == 0.0:
            increments = self._zero_increments
        else:
            innovation = hs.values - hs.cond_mean
            c = m_star * (1.0 - hs.phi_sum)
            increments = -(2.0 * innovation * c + c * c) / (
                2.0 * hs.cond_variance
            )
        return TwistedStep(
            twisted_values=hs.values + m_star,
            log_lr_increment=increments,
        )


def _check_common(
    transform: ArrivalTransform,
    service_rate: float,
    buffer_size: float,
    horizon: int,
    replications: int,
) -> Tuple[float, float, int, int]:
    if not callable(transform):
        raise ValidationError("transform must be a callable array -> array")
    return (
        check_positive_float(service_rate, "service_rate"),
        check_positive_float(buffer_size, "buffer_size"),
        check_positive_int(horizon, "horizon"),
        check_positive_int(replications, "replications"),
    )


def is_overflow_probability(
    correlation: Union[CorrelationModel, Sequence[float]],
    transform: ArrivalTransform,
    *,
    service_rate: float,
    buffer_size: float,
    horizon: int,
    twisted_mean: float,
    replications: int,
    random_state: RandomState = None,
    coeff_table: CoeffTableArg = None,
    backend: BackendArg = "auto",
    block_size: BlockSizeArg = None,
    metrics=None,
) -> ISEstimate:
    """IS estimate of ``P(Q_k > b)`` via the workload-crossing event.

    This is the paper's Appendix B procedure: per replication, generate
    the twisted background step by step, map through the marginal
    transform to arrivals, accumulate the workload
    ``W_i = sum (Y'_j - mu)``, and on the first crossing ``W_i > b``
    record the likelihood ratio ``L(i)`` accumulated so far and stop
    that replication.  Replications that never cross contribute 0.

    Parameters
    ----------
    correlation:
        Background correlation model.
    transform:
        Maps background samples to arrivals per slot (should produce
        unit-mean arrivals so that ``buffer_size`` is the paper's
        normalized buffer size).
    service_rate:
        Service per slot, ``mu = 1 / utilization`` for unit-mean input.
    buffer_size:
        Normalized buffer threshold ``b``.
    horizon:
        Simulation stop time ``k`` (the paper uses ``k = 10 b`` for its
        steady-state-like estimates).
    twisted_mean:
        The twist ``m*`` (0 = plain Monte Carlo).
    replications:
        Number of i.i.d. replications ``N``.
    random_state:
        Seed or generator.
    coeff_table:
        Durbin-Levinson coefficient source (see
        :class:`TwistedBackground`).
    backend:
        Conditional generation backend (registry name or
        :class:`~repro.processes.source.GaussianSource`; see
        :class:`TwistedBackground`).  Validated at construction.
    block_size:
        Blocked-kernel block size for the conditional backend (see
        :class:`TwistedBackground`); the default keeps the exact
        per-step loop.
    metrics:
        Optional :class:`~repro.observability.RunContext`; records the
        estimate's wall time, replication/hit/retirement counters, the
        likelihood-ratio weight summary and the effective sample size —
        all labelled by the twist ``m*``.  Purely observational: the
        estimate and its random stream are bit-identical with or
        without it.
    """
    mu, b, k, n = _check_common(
        transform, service_rate, buffer_size, horizon, replications
    )
    ctx = ensure_context(metrics)
    twist = check_finite_float(twisted_mean, "twisted_mean")
    with ctx.time("is.leg_seconds", twist=twist):
        background = TwistedBackground(
            correlation,
            k,
            twisted_mean=twisted_mean,
            size=n,
            random_state=random_state,
            coeff_table=coeff_table,
            backend=backend,
            block_size=block_size,
            metrics=ctx,
        )
        workload = np.zeros(n)
        log_lr = np.zeros(n)
        weights = np.zeros(n)
        hit_times = np.full(n, -1, dtype=int)
        active = np.ones(n, dtype=bool)
        for i in range(k):
            # Check activity BEFORE stepping: once every replication has
            # crossed (or been retired) there is nothing left to simulate,
            # and a Hosking step costs O(active * i).
            if not np.any(active):
                break
            ts = background.step()
            arrivals = _apply_transform(transform, ts.twisted_values, i)
            if arrivals.shape != (n,):
                raise SimulationError(
                    "transform must map (n,) background samples to (n,) "
                    "arrivals"
                )
            log_lr[active] += ts.log_lr_increment[active]
            workload[active] += arrivals[active] - mu
            newly_hit = active & (workload > b)
            if np.any(newly_hit):
                weights[newly_hit] = np.exp(log_lr[newly_hit])
                hit_times[newly_hit] = i
                active[newly_hit] = False
                # Row compaction: crossed replications stop paying for
                # the conditional-mean product inside subsequent Hosking
                # steps.  Skipped when no survivors remain — the loop
                # exits on the next iteration anyway, and retiring the
                # last row would spuriously trip the all-retired-early
                # degeneracy warning on what is a *successful* batch.
                if np.any(active):
                    background.retire(newly_hit)
        probability = float(weights.mean())
        variance = (
            float(weights.var(ddof=1)) / n if n > 1 else float("nan")
        )
        hit_mask = hit_times >= 0
        hits = int(hit_mask.sum())
        mean_hit_time = (
            float(hit_times[hit_mask].mean()) if hits else float("nan")
        )
        ess = effective_sample_size(weights[hit_mask])
    ctx.inc("is.replications", n, twist=twist)
    ctx.inc("is.hits", hits, twist=twist)
    ctx.inc("is.steps", int(background.step_index), twist=twist)
    ctx.set("is.ess", ess, twist=twist)
    if hits:
        ctx.observe_many("is.weight", weights[hit_mask], twist=twist)
    else:
        ctx.inc("is.zero_hit_estimates", twist=twist)
        warnings.warn(
            f"importance-sampling estimate at m*={twist:g} finished "
            f"with 0 overflow hits in {n} replications (horizon {k}, "
            f"buffer {b:g}); the zero estimate carries no information — "
            "increase replications or move the twist toward the "
            "variance valley",
            SimulationWarning,
            stacklevel=2,
        )
    return ISEstimate(
        probability=probability,
        variance=variance,
        replications=n,
        hits=hits,
        twisted_mean=twist,
        mean_hit_time=mean_hit_time,
        ess=ess,
    )


def is_transient_overflow_curve(
    correlation: Union[CorrelationModel, Sequence[float]],
    transform: ArrivalTransform,
    *,
    service_rate: float,
    buffer_size: float,
    horizon: int,
    twisted_mean: float,
    replications: int,
    initial: float = 0.0,
    random_state: RandomState = None,
    coeff_table: CoeffTableArg = None,
    backend: BackendArg = "auto",
    block_size: BlockSizeArg = None,
    metrics=None,
) -> np.ndarray:
    """IS estimates of the transient ``P(Q_j > b)`` for all ``j <= k``.

    Runs the Lindley recursion from ``initial`` under the twisted law
    and, at every slot ``j``, forms the unbiased estimate
    ``mean(1{Q_j > b} exp(log L_j))``.  One batch of replications thus
    yields the whole transient curve of Fig. 15 — for both the
    empty-buffer (``initial=0``) and full-buffer (``initial=b``)
    starting conditions.

    Returns an array of length ``horizon`` with the estimate per slot.
    """
    mu, b, k, n = _check_common(
        transform, service_rate, buffer_size, horizon, replications
    )
    if initial < 0:
        raise ValidationError("initial queue content must be non-negative")
    ctx = ensure_context(metrics)
    twist = check_finite_float(twisted_mean, "twisted_mean")
    with ctx.time("is.leg_seconds", twist=twist, initial=float(initial)):
        background = TwistedBackground(
            correlation,
            k,
            twisted_mean=twisted_mean,
            size=n,
            random_state=random_state,
            coeff_table=coeff_table,
            backend=backend,
            block_size=block_size,
            metrics=ctx,
        )
        queue = np.full(n, float(initial))
        log_lr = np.zeros(n)
        curve = np.empty(k, dtype=float)
        for j in range(k):
            ts = background.step()
            arrivals = _apply_transform(transform, ts.twisted_values, j)
            log_lr += ts.log_lr_increment
            queue = np.maximum(queue + arrivals - mu, 0.0)
            indicator = queue > b
            if np.any(indicator):
                curve[j] = float(np.exp(log_lr[indicator]).sum()) / n
            else:
                curve[j] = 0.0
    ctx.inc("is.replications", n, twist=twist, initial=float(initial))
    ctx.inc("is.steps", k, twist=twist, initial=float(initial))
    if ctx.enabled:
        final_weights = np.exp(log_lr)
        ctx.set(
            "is.ess",
            effective_sample_size(final_weights),
            twist=twist,
            initial=float(initial),
        )
        ctx.observe_many(
            "is.weight", final_weights, twist=twist, initial=float(initial)
        )
    return curve
