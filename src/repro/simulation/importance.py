"""Mean-twisted importance-sampling overflow estimators (Appendix B).

Implements Appendix B of the paper.  The twisted background process is
``X'_k = X_k + m*`` — same correlation, shifted mean.  Simulating under
the twisted law and unbiasing with the likelihood ratio

.. math::

    L(\\tau) = \\frac{f_X(x'_0, ..., x'_\\tau)}{f_{X'}(x'_0, ..., x'_\\tau)}

gives an unbiased estimator of rare overflow probabilities whose
variance collapses near the right ``m*``.

The paper builds ``L`` one step at a time from Hosking's conditional
densities (eq. 42-48).  With ``e_k`` the innovation of the untwisted
path, ``v_k`` the conditional variance and ``s_k = sum_j phi_kj``, step
``k`` adds ``-(2 e_k c_k + c_k^2) / (2 v_k)`` with ``c_k = m* (1 - s_k)``
to ``log L``.  Under a mean twist those increments sum to a closed form
in the whole path.  Writing ``Sigma_tau`` for the covariance of
``x_0 .. x_tau``, ``w_tau = Sigma_tau^{-1} 1`` and ``q_tau = 1' w_tau``:

.. math::

    \\log L(\\tau) = -m^* w_\\tau^\\top x'_{0..\\tau}
                     + \\tfrac12 m^{*2} q_\\tau

By optional stopping the overflow estimator needs ``L`` only at each
replication's first crossing.  So a leg never steps: it draws its
``(n, k)`` paths in one call of an exact unconditional generator
(Davies-Harte by default), adds ``m*`` in place, calls the transform
once, finds the first crossings and weights them in one pass over the
shared Durbin-Levinson coefficient table, which gives ``w_tau`` and
``q_tau`` recursively (:func:`_lr_weights`):

.. math::

    w_\\tau = (w_{\\tau-1}, 0) + c_\\tau \\ell_\\tau, \\quad
    q_\\tau = q_{\\tau-1} + (1 - s_\\tau) c_\\tau, \\quad
    c_\\tau = (1 - s_\\tau) / v_\\tau

with ``ell_tau = (-phi_{tau,tau}, ..., -phi_{tau,1}, 1)``.  At
``m* = 0`` the pass is skipped: ``L = 1`` and the leg is plain Monte
Carlo.  The weights assume the paths have exactly the covariance
``Sigma`` of the table, which is why only unclipped Davies-Harte and
Hosking may draw them (:func:`_path_source`).
"""

from __future__ import annotations

import warnings
from typing import Callable, Iterator, Sequence, Tuple, Union

import numpy as np

from .._validation import (
    check_finite_float,
    check_nonnegative_float,
    check_positive_float,
    check_positive_int,
)
from ..exceptions import SimulationError, SimulationWarning, ValidationError
from ..observability import current_context
from ..processes import registry
from ..processes.coeff_table import CoefficientTable, get_coefficient_table
from ..processes.correlation import CorrelationModel
from ..processes.registry import BackendArg
from ..processes.source import (
    DaviesHarteSource,
    GaussianSource,
    HoskingSource,
)
from ..queueing.lindley import lindley_recursion
from ..stats.random import RandomState
from .estimators import ISEstimate, effective_sample_size

__all__ = [
    "is_overflow_probability",
    "is_transient_overflow_curve",
]

ArrivalTransform = Callable[[np.ndarray], np.ndarray]

#: Registry backends whose sampled law is exactly ``N(0, Sigma)`` for
#: the model's autocovariance — the law the closed-form weights assume.
#: ``fgn`` and ``farima`` sample by Hurst exponent, not by the acvf;
#: ``rmd`` and ``mg_infinity`` are approximate.
_EXACT_BACKENDS = ("davies_harte", "hosking")


def batched_arrivals(
    transform: ArrivalTransform, paths: np.ndarray
) -> np.ndarray:
    """Map batched background paths ``(size, k)`` through ``transform``.

    Stationary transforms are applied to the whole batch in one call
    (they are elementwise, so the 2-D pass is exact); time-varying
    transforms (``transform.time_varying``) are called per slot with
    the replication vector and the step index,
    ``transform(values, step)``.  Shared by the importance-sampling
    legs and the batched plain-MC runner.
    """
    if getattr(transform, "time_varying", False):
        arrivals = np.empty_like(paths)
        for step in range(paths.shape[1]):
            slot = np.asarray(transform(paths[:, step], step), dtype=float)
            if slot.shape != paths.shape[:1]:
                raise ValidationError(
                    "time-varying transform must be elementwise "
                    f"(shape-preserving); mapped {paths.shape[:1]} to "
                    f"{slot.shape} at step {step}"
                )
            arrivals[:, step] = slot
        return arrivals
    arrivals = np.asarray(transform(paths), dtype=float)
    if arrivals.shape != paths.shape:
        raise ValidationError(
            "stationary transform must be elementwise "
            f"(shape-preserving); mapped {paths.shape} to "
            f"{arrivals.shape}"
        )
    return arrivals


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


def _path_source(
    correlation: Union[CorrelationModel, Sequence[float]],
    backend: BackendArg,
) -> GaussianSource:
    """Resolve a leg's path generator, rejecting any inexact law.

    ``auto`` and ``davies_harte`` resolve to Davies-Harte with
    ``on_negative_eigenvalues="raise"``: clipping would change the
    covariance the weights assume, and a non-embeddable model should
    run on ``hosking`` instead.  Instances are accepted when their law
    is exact: any :class:`HoskingSource`, and a
    :class:`DaviesHarteSource` that raises instead of clipping.
    """
    if isinstance(backend, GaussianSource):
        exact = isinstance(backend, HoskingSource) or (
            isinstance(backend, DaviesHarteSource)
            and backend.describe()["on_negative_eigenvalues"] == "raise"
        )
        options = {}
    else:
        auto = isinstance(backend, str) and backend.strip().lower() == "auto"
        name = "davies_harte" if auto else registry.get(backend).name
        exact = name in _EXACT_BACKENDS
        options = (
            {"on_negative_eigenvalues": "raise"}
            if name == "davies_harte" else {}
        )
    if not exact:
        raise ValidationError(
            f"backend {backend!r} cannot draw importance-sampling paths: "
            "the likelihood ratio needs the model's exact Gaussian law; "
            "use backend='auto' (Davies-Harte) or 'hosking'"
        )
    return registry.resolve(backend, correlation, **options)


def _leg_arrivals(
    transform: ArrivalTransform, paths: np.ndarray
) -> np.ndarray:
    """One transform call over a leg's twisted paths, checked.

    A shape-changing transform raises
    :class:`~repro.exceptions.SimulationError`; non-finite arrivals
    raise :class:`~repro.exceptions.ValidationError` instead of turning
    into a zero-hit estimate.
    """
    try:
        arrivals = batched_arrivals(transform, paths)
    except ValidationError as exc:
        raise SimulationError(
            f"transform must map background samples to arrivals of the "
            f"same shape: {exc}"
        ) from exc
    if not np.isfinite(arrivals).all():
        raise ValidationError("transform returned non-finite arrivals")
    return arrivals


def _first_crossings(
    arrivals: np.ndarray, service_rate: float, buffer_size: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Rows whose workload crosses ``b``, and their first crossing slot.

    Consumes ``arrivals``: the workload ``W_j = sum_{i<=j} (Y_i - mu)``
    is accumulated in place.
    """
    arrivals -= service_rate
    np.cumsum(arrivals, axis=1, out=arrivals)
    crossed = arrivals > buffer_size
    rows = np.flatnonzero(crossed.any(axis=1))
    return rows, crossed[rows].argmax(axis=1)


def _lr_weights(
    table: CoefficientTable, horizon: int
) -> Iterator[Tuple[int, np.ndarray, float]]:
    """Yield ``(tau, w_tau, q_tau)`` for ``tau = 0 .. horizon - 1``.

    ``w_tau = Sigma_tau^{-1} 1`` and ``q_tau = 1' w_tau``, from one pass
    over the table's packed rows.  One length-``horizon`` buffer holds
    ``w``; the yielded view is overwritten by the next step.
    """
    gain = 1.0 - table.phi_sums(horizon)
    c = gain / table.variances(horizon)
    q = np.cumsum(gain * c)
    packed = table.packed_rows(horizon)
    w = np.empty(horizon)
    w[0] = c[0]
    yield 0, w[:1], float(q[0])
    offset = 0
    for tau in range(1, horizon):
        w[:tau] -= c[tau] * packed[offset : offset + tau][::-1]
        w[tau] = c[tau]
        offset += tau
        yield tau, w[: tau + 1], float(q[tau])


def _stopped_log_lr(
    table: CoefficientTable,
    twisted: np.ndarray,
    rows: np.ndarray,
    times: np.ndarray,
    m_star: float,
) -> np.ndarray:
    """``log L`` of each hit row at its first crossing, in closed form.

    ``twisted`` holds the twisted paths ``x' = x + m*``; row
    ``rows[i]`` first crossed at slot ``times[i]``.  The pass stops at
    the latest crossing.
    """
    order = np.argsort(times, kind="stable")
    horizon = int(times[order[-1]]) + 1
    bounds = np.searchsorted(times[order], np.arange(horizon + 1))
    log_lr = np.empty(rows.size)
    for tau, w, q in _lr_weights(table, horizon):
        stop = order[bounds[tau] : bounds[tau + 1]]
        if stop.size:
            log_lr[stop] = m_star * (
                0.5 * m_star * q - twisted[rows[stop], : tau + 1] @ w
            )
    return log_lr


def _weigh_crossings(
    source: GaussianSource,
    twisted: np.ndarray,
    arrivals: np.ndarray,
    *,
    service_rate: float,
    buffer_size: float,
    m_star: float,
) -> Tuple[ISEstimate, np.ndarray]:
    """The estimate of ``P(Q_k > b)`` from one batch of twisted paths.

    Consumes ``arrivals`` (see :func:`_first_crossings`).  Returns the
    estimate and the weights ``L`` of the rows that cross, taken at
    their first crossing.
    """
    n, k = twisted.shape
    rows, times = _first_crossings(arrivals, service_rate, buffer_size)
    if m_star == 0.0 or rows.size == 0:
        hit_weights = np.ones(rows.size)
    else:
        table = get_coefficient_table(source.acvf(k), k)
        hit_weights = np.exp(
            _stopped_log_lr(table, twisted, rows, times, m_star)
        )
    weights = np.zeros(n)
    weights[rows] = hit_weights
    estimate = ISEstimate(
        probability=float(weights.mean()),
        variance=float(weights.var(ddof=1)) / n if n > 1 else float("nan"),
        replications=n,
        hits=int(rows.size),
        twisted_mean=m_star,
        mean_hit_time=float(times.mean()) if rows.size else float("nan"),
        ess=effective_sample_size(hit_weights),
    )
    return estimate, hit_weights


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
    backend: BackendArg = "auto",
) -> ISEstimate:
    """IS estimate of ``P(Q_k > b)`` via the workload-crossing event.

    This is the paper's Appendix B procedure: per replication, generate
    the twisted background, map it through the marginal transform to
    arrivals, accumulate the workload ``W_i = sum (Y'_j - mu)``, and at
    the first crossing ``W_i > b`` record the likelihood ratio ``L(i)``.
    Replications that never cross contribute 0.  All replications are
    drawn as whole paths in one call and weighted by the closed-form
    ``L`` (see the module docstring).

    Parameters
    ----------
    correlation:
        Background correlation model.
    transform:
        Maps background samples to arrivals per slot (should produce
        unit-mean arrivals so that ``buffer_size`` is the paper's
        normalized buffer size).  Must be elementwise and return finite
        arrivals.
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
    backend:
        Path generator: ``"auto"``/``"davies_harte"`` (Davies-Harte,
        raising on a negative embedding eigenvalue) or ``"hosking"``
        (the exact fallback for a non-embeddable model), or an
        instance of either whose law is exact (see
        :func:`_path_source`).  Other backends raise
        :class:`~repro.exceptions.ValidationError` before any draw.

    The current run context (see :func:`repro.observability.recording`)
    records the estimate's wall time, replication/hit/slot counters,
    the likelihood-ratio weight summary and the effective sample size —
    all labelled by the twist ``m*``.  Purely observational: the
    estimate and its random stream are bit-identical with or without
    a bound context.
    """
    mu, b, k, n = _check_common(
        transform, service_rate, buffer_size, horizon, replications
    )
    ctx = current_context()
    twist = check_finite_float(twisted_mean, "twisted_mean")
    with ctx.time("is.leg_seconds", twist=twist):
        source = _path_source(correlation, backend)
        paths = source.sample(k, size=n, random_state=random_state)
        paths += twist
        estimate, hit_weights = _weigh_crossings(
            source,
            paths,
            _leg_arrivals(transform, paths),
            service_rate=mu,
            buffer_size=b,
            m_star=twist,
        )
    ctx.inc("is.replications", n, twist=twist)
    ctx.inc("is.hits", estimate.hits, twist=twist)
    ctx.inc("is.steps", k, twist=twist)
    ctx.set("is.ess", estimate.ess, twist=twist)
    if estimate.hits:
        ctx.observe_many("is.weight", hit_weights, twist=twist)
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
    return estimate


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
    backend: BackendArg = "auto",
) -> np.ndarray:
    """IS estimates of the transient ``P(Q_j > b)`` for all ``j <= k``.

    Runs the Lindley recursion from ``initial`` under the twisted law
    and, at every slot ``j``, forms the unbiased estimate
    ``sum_p 1{Q_pj > b} L_p(j) / n`` with the closed-form ``L_p(j)`` of
    every row at every slot.  One batch of replications thus yields the
    whole transient curve of Fig. 15 — for both the empty-buffer
    (``initial=0``) and full-buffer (``initial=b``) starting
    conditions.  ``backend`` is as in :func:`is_overflow_probability`.

    Returns an array of length ``horizon`` with the estimate per slot.
    """
    mu, b, k, n = _check_common(
        transform, service_rate, buffer_size, horizon, replications
    )
    start = check_nonnegative_float(initial, "initial")
    ctx = current_context()
    twist = check_finite_float(twisted_mean, "twisted_mean")
    with ctx.time("is.leg_seconds", twist=twist, initial=start):
        source = _path_source(correlation, backend)
        paths = source.sample(k, size=n, random_state=random_state)
        paths += twist
        queue = lindley_recursion(
            _leg_arrivals(transform, paths), mu, initial=start
        )
        if twist == 0.0:
            curve = (queue > b).mean(axis=0)
            log_lr = np.zeros(n)
        else:
            curve = np.empty(k)
            table = get_coefficient_table(source.acvf(k), k)
            for tau, w, q in _lr_weights(table, k):
                log_lr = twist * (0.5 * twist * q - paths[:, : tau + 1] @ w)
                curve[tau] = np.exp(log_lr[queue[:, tau] > b]).sum() / n
    ctx.inc("is.replications", n, twist=twist, initial=start)
    ctx.inc("is.steps", k, twist=twist, initial=start)
    if ctx.enabled:
        final_weights = np.exp(log_lr)
        ctx.set(
            "is.ess",
            effective_sample_size(final_weights),
            twist=twist,
            initial=start,
        )
        ctx.observe_many(
            "is.weight", final_weights, twist=twist, initial=start
        )
    return curve
