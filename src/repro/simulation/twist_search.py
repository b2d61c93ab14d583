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
  — ``T`` grid points cost ``T`` path draws.
- **Shared paths** (:func:`sweep_twists`): mean twisting only
  *shifts* the background (``X' = X + m*``), so one batch of untwisted
  paths determines every candidate's estimator exactly — each twist is
  one transform call and one closed-form likelihood-ratio pass over
  the same paths.  The shared strategy evaluates all grid points on
  *common* random numbers (one path batch), so its estimates agree
  with independent streams within Monte-Carlo error, not bit-for-bit;
  grid points are positively correlated with each other, which
  actually *smooths* the valley shape for the argmin decision.
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
from ..exceptions import SimulationError, SimulationWarning
from ..observability import current_context, recording
from ..processes.coeff_table import cache_metrics
from ..processes.correlation import CorrelationModel
from ..processes.registry import BackendArg
from ..processes.source import GaussianSource
from ..stats.random import RandomState, spawn_rngs
from .estimators import ISEstimate
from .importance import (
    ArrivalTransform,
    _check_common,
    _leg_arrivals,
    _path_source,
    _weigh_crossings,
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

        Raises
        ------
        SimulationError
            If the baseline grid point had no hits: its normalized
            variance is undefined, so no reduction can be read off it.
        """
        baseline = self.estimates[baseline_index]
        if baseline.hits == 0:
            raise SimulationError(
                f"baseline grid point {baseline_index} (m* = "
                f"{baseline.twisted_mean:g}) had 0 hits in "
                f"{baseline.replications} replications, so it has no "
                "normalized variance to compare against; raise "
                "replications or lower the buffer"
            )
        best = self.best_estimate.normalized_variance
        if not np.isfinite(baseline.normalized_variance) or best <= 0:
            return float("inf")
        return baseline.normalized_variance / best


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
) -> TwistSearchResult:
    """Scan twist values and measure the estimator's normalized variance.

    By default each grid point runs an independent batch of
    :func:`~repro.simulation.importance.is_overflow_probability` with
    ``replications`` replications (independent streams are spawned per
    point so results are reproducible regardless of grid ordering).
    Every grid point shares the background model, hence one shared
    Durbin-Levinson coefficient table; ``workers`` additionally runs
    grid points concurrently without changing any estimate.
    ``backend`` selects the path generator (validated before any draw;
    see :func:`~repro.simulation.importance.is_overflow_probability`).

    :func:`sweep_twists` evaluates the same grid from one batch of
    untwisted paths instead (common random numbers across grid points;
    estimates agree with this independent-stream scan within
    Monte-Carlo error, not bit-for-bit).

    The current run context (see :func:`repro.observability.recording`)
    records the valley trajectory — a ``twist_search.normalized_variance``
    gauge per probed ``m*`` plus the chosen ``twist_search.best_twist``
    — alongside each grid point's leg timings and ESS, labelled
    ``probe``/``twist``.
    """
    grid = check_1d_array(twist_values, "twist_values")
    check_positive_int(replications, "replications")
    ctx = current_context()
    rngs = spawn_rngs(random_state, grid.size)
    with cache_metrics(ctx):
        legs = [
            (
                {"probe": i, "twist": float(m_star)},
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
                ),
            )
            for i, (m_star, rng) in enumerate(zip(grid, rngs))
        ]
        estimates = run_legs(legs, workers)
    result = TwistSearchResult(twist_values=grid, estimates=estimates)
    _record_trajectory(ctx, result)
    return result


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
    backend: BackendArg = "auto",
) -> TwistSearchResult:
    """Evaluate a whole Fig. 14 twist grid from ONE background draw.

    Twisting is a mean shift: under the twisted law the background is
    ``X'_k = X_k + m*`` with an unchanged covariance.  So one batch of
    *untwisted* paths ``X`` determines, for **every** candidate ``m*``:

    - the twisted arrivals — one ``transform(X + m*)`` call;
    - the workload-crossing time — first ``i`` with
      ``sum_{j<=i} (Y'_j - mu) > b``;
    - the likelihood ratio at that crossing — the closed form of
      :mod:`~repro.simulation.importance`, one pass over the shared
      coefficient table per twist (none at ``m* = 0``, which is plain
      Monte Carlo).

    Each grid point's estimator is then identical in form to
    :func:`~repro.simulation.importance.is_overflow_probability`,
    evaluated on this shared path batch instead of an independent one.
    All grid points share the same paths (common random numbers), so
    estimates match independent per-twist runs within Monte-Carlo
    error, and the grid points are mutually correlated.

    Parameters mirror :func:`search_twisted_mean`; ``backend`` selects
    the generator of the one path batch, as in
    :func:`~repro.simulation.importance.is_overflow_probability`.

    The current run context records ``twist_sweep.generations`` (always
    1 per call), ``twist_sweep.paths``, ``twist_sweep.twists``, per-twist
    ``twist_sweep.hits``, the ``twist_sweep.seconds`` timer, and the
    same ``twist_search.*`` valley trajectory as the independent-stream
    scan.
    """
    grid = check_1d_array(twist_values, "twist_values")
    mu, b, k, n = _check_common(
        transform, service_rate, buffer_size, horizon, replications
    )
    ctx = current_context()
    with ctx.time("twist_sweep.seconds"), cache_metrics(ctx):
        source = _path_source(correlation, backend)
        paths = source.sample(k, size=n, random_state=random_state)
        ctx.inc("twist_sweep.generations")
        ctx.inc("twist_sweep.paths", n)
        ctx.inc("twist_sweep.twists", grid.size)
        estimates: List[ISEstimate] = []
        for m_star in grid:
            estimates.append(
                _evaluate_twist(
                    float(m_star), source, paths, transform,
                    mu=mu, b=b, ctx=ctx,
                )
            )
    result = TwistSearchResult(twist_values=grid, estimates=estimates)
    _record_trajectory(ctx, result)
    return result


def _evaluate_twist(
    m_star: float,
    source: GaussianSource,
    paths: np.ndarray,
    transform: ArrivalTransform,
    *,
    mu: float,
    b: float,
    ctx,
) -> ISEstimate:
    """One grid point of :func:`sweep_twists` on the shared path batch."""
    n, k = paths.shape
    twisted = paths + m_star
    estimate, _ = _weigh_crossings(
        source,
        twisted,
        _leg_arrivals(transform, twisted),
        service_rate=mu,
        buffer_size=b,
        m_star=m_star,
    )
    ctx.inc("twist_sweep.hits", estimate.hits, twist=m_star)
    ctx.set("is.ess", estimate.ess, twist=m_star)
    if not estimate.hits:
        ctx.inc("twist_sweep.zero_hit_estimates", twist=m_star)
        warnings.warn(
            f"shared-path sweep at m*={m_star:g} finished with 0 "
            f"overflow hits in {n} replications (horizon {k}, buffer "
            f"{b:g}); the zero estimate carries no information",
            SimulationWarning,
            stacklevel=3,
        )
    return estimate


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
    refined choice.  The current run context records the probing
    trajectory exactly as :func:`search_twisted_mean` does (probe
    index = probing order).
    A non-finite ``bracket`` endpoint or an ``iterations`` that is not
    a positive integer raises :class:`~repro.exceptions.ValidationError`;
    a pair that is not increasing raises
    :class:`~repro.exceptions.SimulationError`.
    """
    for endpoint in bracket:
        check_finite_float(endpoint, "bracket")
    if len(bracket) != 2 or not bracket[0] < bracket[1]:
        raise SimulationError(
            f"bracket must be an increasing pair, got {bracket!r}"
        )
    check_positive_int(replications, "replications")
    ctx = current_context()
    iterations = check_positive_int(iterations, "iterations")
    rngs = spawn_rngs(random_state, 2 * iterations + 2)
    rng_iter = iter(rngs)
    probes: List[float] = []
    estimates: List[ISEstimate] = []

    def objective(m_star: float) -> float:
        with recording(ctx.scoped(probe=len(probes), twist=float(m_star))):
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
