"""Heuristic search for the favorable twisted mean (Fig. 14).

A closed-form optimal twist is intractable after the marginal
transform (paper §4), so the paper scans candidate values of ``m*``,
plots the estimator's normalized variance, and picks the bottom of the
clearly visible "valley" — reporting ``m* = 3.2`` and a variance
reduction of roughly 1000x for its configuration.
:func:`search_twisted_mean` automates exactly that scan.

Two evaluation strategies are offered:

- **Independent streams** (the default): every grid point runs its own
  batch of :func:`~repro.simulation.importance.is_overflow_probability`
  — ``T`` grid points cost ``T`` full Hosking generations.
- **Shared paths** (:func:`sweep_twists`, or
  ``search_twisted_mean(..., shared_paths=True)``): mean twisting only
  *shifts* the background (``X' = X + m*``), so one batch of untwisted
  paths plus the per-step conditional moments determines every
  candidate's estimator exactly.  The log-LR increment
  ``-(2 e_k c_k + c_k^2) / (2 v_k)`` with ``c_k = m* (1 - s_k)`` needs
  only the stored innovations ``e_k = sqrt(v_k) z_k`` and the table
  moments ``v_k``/``s_k`` — the whole Fig. 14 scan collapses from
  ``T`` generations to one.  The shared strategy evaluates all grid
  points on *common* random numbers (one path batch), so its estimates
  agree with independent streams within Monte-Carlo error, not
  bit-for-bit; grid points are positively correlated with each other,
  which actually *smooths* the valley shape for the argmin decision.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Union

import numpy as np

from .._validation import (
    check_1d_array,
    check_finite_float,
    check_positive_int,
)
from ..exceptions import SimulationError, SimulationWarning, ValidationError
from ..observability import ensure_context
from ..processes.coeff_table import (
    CoefficientTable,
    cache_metrics,
    resolve_acvf,
)
from ..processes.correlation import CorrelationModel
from ..processes.hosking import (
    CoeffTableArg,
    _resolve_table,
    hosking_generate,
)
from ..processes.hosking_blocked import BlockSizeArg
from ..processes.registry import BackendArg
from ..stats.random import RandomState, make_rng, spawn_rngs
from .estimators import ISEstimate, effective_sample_size
from .importance import (
    ArrivalTransform,
    _check_common,
    batched_arrivals,
    is_overflow_probability,
)
from .parallel import run_legs

__all__ = [
    "TwistSearchResult",
    "search_twisted_mean",
    "sweep_twists",
    "refine_twisted_mean",
]


@dataclass(frozen=True)
class TwistSearchResult:
    """Outcome of a normalized-variance scan over twist values.

    Attributes
    ----------
    twist_values:
        The scanned ``m*`` grid.
    estimates:
        One :class:`~repro.simulation.estimators.ISEstimate` per grid
        point (same order).
    """

    twist_values: np.ndarray
    estimates: List[ISEstimate]

    @property
    def normalized_variances(self) -> np.ndarray:
        """Normalized variance per grid point (the Fig. 14 y-axis)."""
        return np.array([e.normalized_variance for e in self.estimates])

    @property
    def scaled_variances(self) -> np.ndarray:
        """Normalized variances rescaled to a max of 1 (plot scaling)."""
        values = self.normalized_variances
        finite = values[np.isfinite(values)]
        if finite.size == 0:
            return values
        peak = float(finite.max())
        return values / peak if peak > 0 else values

    @property
    def best_index(self) -> int:
        """Index of the valley bottom (minimum finite normalized variance)."""
        values = self.normalized_variances
        finite = np.where(np.isfinite(values), values, np.inf)
        if not np.any(np.isfinite(values)):
            raise SimulationError(
                "no twist value produced a finite normalized variance; "
                "increase replications or widen the grid"
            )
        return int(np.argmin(finite))

    @property
    def best_twist(self) -> float:
        """The favorable (near-optimal) ``m*``."""
        return float(self.twist_values[self.best_index])

    @property
    def best_estimate(self) -> ISEstimate:
        """The estimate at the favorable twist."""
        return self.estimates[self.best_index]

    def variance_reduction_vs(self, baseline_index: int = 0) -> float:
        """Variance-reduction factor of the best twist vs a grid point.

        With index 0 pointing at ``m* = 0`` (plain Monte Carlo) this is
        the paper's "required number of replications ... reduced by
        1000" figure of merit.
        """
        baseline = self.estimates[baseline_index].normalized_variance
        best = self.best_estimate.normalized_variance
        if not np.isfinite(baseline) or best <= 0:
            return float("inf")
        return baseline / best


def search_twisted_mean(
    correlation: Union[CorrelationModel, Sequence[float]],
    transform: ArrivalTransform,
    *,
    service_rate: float,
    buffer_size: float,
    horizon: int,
    twist_values: Sequence[float],
    replications: int,
    random_state: RandomState = None,
    workers: Optional[int] = None,
    backend: BackendArg = "auto",
    block_size: BlockSizeArg = None,
    shared_paths: bool = False,
    metrics=None,
) -> TwistSearchResult:
    """Scan twist values and measure the estimator's normalized variance.

    By default each grid point runs an independent batch of
    :func:`~repro.simulation.importance.is_overflow_probability` with
    ``replications`` replications (independent streams are spawned per
    point so results are reproducible regardless of grid ordering).
    Every grid point shares the background model, hence one shared
    Durbin-Levinson coefficient table; ``workers`` additionally runs
    grid points concurrently without changing any estimate.
    ``backend`` selects the conditional generation backend (validated
    at construction; see
    :class:`~repro.simulation.importance.TwistedBackground`) and
    ``block_size`` routes Hosking stepping through the blocked BLAS-3
    kernel.

    ``shared_paths=True`` switches to :func:`sweep_twists`: one batch
    of untwisted paths evaluates the whole grid (common random numbers
    across grid points; estimates agree with the independent-stream
    default within Monte-Carlo error, not bit-for-bit).  In shared
    mode the grid has no independent legs, so ``workers`` is unused,
    and the moments come from the Hosking recursion — ``backend`` must
    be ``"auto"`` or ``"hosking"``.

    ``metrics`` (optional :class:`~repro.observability.RunContext`)
    records the valley trajectory — a ``twist_search.normalized_variance``
    gauge per probed ``m*`` plus the chosen ``twist_search.best_twist``
    — alongside each grid point's leg timings and ESS.
    """
    if shared_paths:
        _require_hosking_backend(backend, "shared_paths=True")
        return sweep_twists(
            correlation,
            transform,
            service_rate=service_rate,
            buffer_size=buffer_size,
            horizon=horizon,
            twist_values=twist_values,
            replications=replications,
            random_state=random_state,
            block_size=block_size,
            metrics=metrics,
        )
    grid = check_1d_array(twist_values, "twist_values")
    check_positive_int(replications, "replications")
    ctx = ensure_context(metrics)
    rngs = spawn_rngs(random_state, grid.size)
    children = [
        ctx.child(probe=i, twist=float(m_star))
        for i, m_star in enumerate(grid)
    ]
    with cache_metrics(ctx):
        jobs = [
            partial(
                is_overflow_probability,
                correlation,
                transform,
                service_rate=service_rate,
                buffer_size=buffer_size,
                horizon=horizon,
                twisted_mean=float(m_star),
                replications=replications,
                random_state=rng,
                backend=backend,
                block_size=block_size,
                metrics=child,
            )
            for m_star, rng, child in zip(grid, rngs, children)
        ]
        estimates = run_legs(jobs, workers, metrics=ctx)
    ctx.merge_children(children)
    result = TwistSearchResult(twist_values=grid, estimates=estimates)
    _record_trajectory(ctx, result)
    return result


def _require_hosking_backend(backend: BackendArg, what: str) -> None:
    """Reject backends the shared-path sweep cannot serve.

    The sweep reads conditional moments straight from the
    Durbin-Levinson coefficient table, so only the Hosking recursion
    (the sole conditional backend) is meaningful.
    """
    if isinstance(backend, str) and backend.strip().lower().replace(
        "-", "_"
    ) in ("auto", "hosking"):
        return
    raise ValidationError(
        f"{what} evaluates twists from Hosking conditional moments and "
        f"supports backend='auto' or 'hosking' only, got {backend!r}"
    )


def sweep_twists(
    correlation: Union[CorrelationModel, Sequence[float]],
    transform: ArrivalTransform,
    *,
    service_rate: float,
    buffer_size: float,
    horizon: int,
    twist_values: Sequence[float],
    replications: int,
    random_state: RandomState = None,
    coeff_table: CoeffTableArg = None,
    block_size: BlockSizeArg = None,
    metrics=None,
) -> TwistSearchResult:
    """Evaluate a whole Fig. 14 twist grid from ONE background generation.

    Twisting is a mean shift: under the twisted law the background is
    ``X'_k = X_k + m*`` with unchanged conditional variances and
    coefficients.  So one batch of *untwisted* paths ``X`` (plus the
    innovations ``e_k = sqrt(v_k) z_k`` and the table moments ``v_k``,
    ``s_k``) determines, for **every** candidate ``m*`` at once:

    - the twisted arrivals — ``transform(X + m*)`` per slot;
    - the cumulative log likelihood ratio — per-step increments
      ``-(2 e_k c_k + c_k^2) / (2 v_k)`` with ``c_k = m* (1 - s_k)``
      (the paper's eq. 45-48 in log space, exactly as
      :class:`~repro.simulation.importance.TwistedBackground` computes
      them step by step);
    - the workload-crossing time — first ``i`` with
      ``sum_{j<=i} (Y'_j - mu) > b``.

    Each grid point's estimator is then identical in form to
    :func:`~repro.simulation.importance.is_overflow_probability`
    (weight ``exp(log L)`` at the first crossing, 0 on no crossing),
    evaluated on this shared path batch instead of an independent one —
    collapsing the scan from ``T`` Hosking generations to one.  All
    grid points share the same paths (common random numbers), so
    estimates match independent per-twist runs within Monte-Carlo
    error, and the grid points are mutually correlated.

    Parameters mirror :func:`search_twisted_mean`; ``coeff_table``
    follows the usual convention (``None`` = shared fingerprint cache,
    explicit table used directly, ``False`` = private table built from
    scratch) and ``block_size`` selects the generation kernel for the
    single path batch.

    ``metrics`` records ``twist_sweep.generations`` (always 1 per
    call), ``twist_sweep.paths``, ``twist_sweep.twists``, per-twist
    ``twist_sweep.hits``, the ``twist_sweep.seconds`` timer, the
    ``hosking.*`` engine gauges of the one generation, and the same
    ``twist_search.*`` valley trajectory as the independent-stream
    scan.
    """
    grid = check_1d_array(twist_values, "twist_values")
    mu, b, k, n = _check_common(
        transform, service_rate, buffer_size, horizon, replications
    )
    ctx = ensure_context(metrics)
    with ctx.time("twist_sweep.seconds"), cache_metrics(ctx):
        if coeff_table is False:
            table = CoefficientTable(resolve_acvf(correlation, k))
        else:
            table = _resolve_table(correlation, k, coeff_table)
        variances = np.asarray(table.variances(k))
        sqrt_variances = np.asarray(table.sqrt_variances(k))
        phi_sums = np.asarray(table.phi_sums(k))
        rng = make_rng(random_state)
        z = rng.standard_normal((n, k))
        paths = hosking_generate(
            correlation,
            k,
            size=n,
            innovations=z,
            coeff_table=table,
            block_size=block_size,
            metrics=ctx,
        )
        ctx.inc("twist_sweep.generations")
        ctx.inc("twist_sweep.paths", n)
        ctx.inc("twist_sweep.twists", grid.size)
        # Innovations of the untwisted paths: e_k = x_k - m_k
        # = sqrt(v_k) z_k — no conditional means need storing.
        innovations = z * sqrt_variances
        estimates: List[ISEstimate] = []
        for m_star in grid:
            estimates.append(
                _evaluate_twist(
                    float(m_star),
                    paths,
                    innovations,
                    variances,
                    phi_sums,
                    transform,
                    mu=mu,
                    b=b,
                    ctx=ctx,
                )
            )
    result = TwistSearchResult(twist_values=grid, estimates=estimates)
    _record_trajectory(ctx, result)
    return result


def _evaluate_twist(
    m_star: float,
    paths: np.ndarray,
    innovations: np.ndarray,
    variances: np.ndarray,
    phi_sums: np.ndarray,
    transform: ArrivalTransform,
    *,
    mu: float,
    b: float,
    ctx,
) -> ISEstimate:
    """One grid point of :func:`sweep_twists` on the shared path batch."""
    n, k = paths.shape
    arrivals = batched_arrivals(transform, paths + m_star)
    workload = np.cumsum(arrivals - mu, axis=1)
    crossed = workload > b
    hit = crossed.any(axis=1)
    first = np.argmax(crossed, axis=1)
    hits = int(hit.sum())
    weights = np.zeros(n)
    if m_star == 0.0:
        # Plain Monte Carlo: L = 1 identically.
        weights[hit] = 1.0
    elif hits:
        c = m_star * (1.0 - phi_sums)
        log_lr = np.cumsum(
            -(2.0 * innovations * c + c * c) / (2.0 * variances), axis=1
        )
        rows = np.flatnonzero(hit)
        weights[rows] = np.exp(log_lr[rows, first[rows]])
    probability = float(weights.mean())
    variance = float(weights.var(ddof=1)) / n if n > 1 else float("nan")
    mean_hit_time = float(first[hit].mean()) if hits else float("nan")
    ess = effective_sample_size(weights[hit])
    ctx.inc("twist_sweep.hits", hits, twist=m_star)
    ctx.set("is.ess", ess, twist=m_star)
    if not hits:
        ctx.inc("twist_sweep.zero_hit_estimates", twist=m_star)
        warnings.warn(
            f"shared-path sweep at m*={m_star:g} finished with 0 "
            f"overflow hits in {n} replications (horizon {k}, buffer "
            f"{b:g}); the zero estimate carries no information",
            SimulationWarning,
            stacklevel=3,
        )
    return ISEstimate(
        probability=probability,
        variance=variance,
        replications=n,
        hits=hits,
        twisted_mean=m_star,
        mean_hit_time=mean_hit_time,
        ess=ess,
    )


def _record_trajectory(ctx, result: TwistSearchResult) -> None:
    """Record a search's variance-valley trajectory into ``ctx``."""
    if not ctx.enabled:
        return
    for probe, (m_star, estimate) in enumerate(
        zip(result.twist_values, result.estimates)
    ):
        ctx.set(
            "twist_search.normalized_variance",
            float(estimate.normalized_variance),
            probe=probe,
            twist=float(m_star),
        )
    ctx.inc("twist_search.probes", len(result.estimates))
    try:
        ctx.set("twist_search.best_twist", result.best_twist)
    except SimulationError:
        # No finite-variance probe: leave the gauge unset; the zero-hit
        # counters/warnings from the estimator already flag the cause.
        pass


def refine_twisted_mean(
    correlation: Union[CorrelationModel, Sequence[float]],
    transform: ArrivalTransform,
    *,
    service_rate: float,
    buffer_size: float,
    horizon: int,
    bracket: tuple,
    replications: int,
    iterations: int = 6,
    random_state: RandomState = None,
    backend: BackendArg = "auto",
    block_size: BlockSizeArg = None,
    metrics=None,
) -> TwistSearchResult:
    """Golden-section refinement of the variance valley.

    After a coarse grid scan locates the valley's neighbourhood, this
    narrows the bracket by golden-section steps on the (noisy)
    normalized-variance objective.  Each probe is an independent IS
    batch; with the per-probe sampling noise, a handful of iterations
    is the useful maximum — the goal is "favorable", not "optimal",
    exactly as the paper frames it.  Probes are inherently sequential
    (each bracket update depends on the previous objective value), so
    this runner has no ``workers`` knob; it still benefits from the
    shared coefficient table, since every probe reuses the same
    background model and horizon.

    Returns a :class:`TwistSearchResult` over every probed twist (in
    probing order) whose :attr:`~TwistSearchResult.best_twist` is the
    refined choice.  ``metrics`` records the probing trajectory exactly
    as :func:`search_twisted_mean` does (probe index = probing order).
    A non-finite ``bracket`` endpoint raises
    :class:`~repro.exceptions.ValidationError`; a pair that is not
    increasing raises :class:`~repro.exceptions.SimulationError`.
    """
    for endpoint in bracket:
        check_finite_float(endpoint, "bracket")
    if len(bracket) != 2 or not bracket[0] < bracket[1]:
        raise SimulationError(
            f"bracket must be an increasing pair, got {bracket!r}"
        )
    check_positive_int(replications, "replications")
    ctx = ensure_context(metrics)
    iterations = max(1, int(iterations))
    rngs = spawn_rngs(random_state, 2 * iterations + 2)
    rng_iter = iter(rngs)
    probes: List[float] = []
    estimates: List[ISEstimate] = []

    def objective(m_star: float) -> float:
        estimate = is_overflow_probability(
            correlation,
            transform,
            service_rate=service_rate,
            buffer_size=buffer_size,
            horizon=horizon,
            twisted_mean=float(m_star),
            replications=replications,
            random_state=next(rng_iter),
            backend=backend,
            block_size=block_size,
            metrics=ctx.scoped(probe=len(probes), twist=float(m_star)),
        )
        probes.append(float(m_star))
        estimates.append(estimate)
        value = estimate.normalized_variance
        return value if np.isfinite(value) else np.inf

    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    low, high = float(bracket[0]), float(bracket[1])
    with cache_metrics(ctx):
        x1 = high - inv_phi * (high - low)
        x2 = low + inv_phi * (high - low)
        f1, f2 = objective(x1), objective(x2)
        for _ in range(iterations - 1):
            if f1 <= f2:
                high, x2, f2 = x2, x1, f1
                x1 = high - inv_phi * (high - low)
                f1 = objective(x1)
            else:
                low, x1, f1 = x1, x2, f2
                x2 = low + inv_phi * (high - low)
                f2 = objective(x2)
    result = TwistSearchResult(
        twist_values=np.asarray(probes), estimates=estimates
    )
    _record_trajectory(ctx, result)
    return result
