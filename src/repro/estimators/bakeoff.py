"""Cross-estimator statistical bake-off harness (paired design).

The paper adopts ``H ~= 0.92`` from an R/S pox diagram and cross-checks
it with a variance-time plot — both graphical estimators with
substantial small-sample bias.  This module quantifies that bias: it
generates known-``H`` traces through the backend registry and runs
*every* registered Hurst estimator on the *same* paths (a paired
design, so estimator differences are not confounded with path noise),
reporting per-estimator bias, standard deviation, RMSE and nominal CI
coverage per ``(backend, hurst, horizon)`` cell.

Design
------
- **Paired paths.** Each cell draws ``replications`` paths once (one
  child generator per cell via :func:`~repro.stats.random.spawn_rngs`,
  so the path set is independent of which estimators run) and feeds
  the identical array to every estimator.
- **Failure isolation.** An estimator raising
  :class:`~repro.exceptions.EstimationError` on one path contributes
  ``nan`` to that cell and bumps the ``bakeoff.failures`` counter;
  the bake-off itself never aborts mid-matrix.
- **Nominal CIs.** Where an estimator exposes a slope standard error
  (:attr:`~repro.estimators.regression.LineFit.stderr`), a nominal
  95% interval ``hurst ± 1.96 se_H`` is scored against the true ``H``.
  Log-log regression points are correlated, so these intervals
  under-cover — the harness *measures* by how much rather than
  pretending the OLS theory applies.

Observability
-------------
Under a bound run context (:func:`repro.observability.recording`) the
run records ``bakeoff.cells``, ``bakeoff.paths``, ``bakeoff.estimates``
and ``bakeoff.failures`` counters, ``bakeoff.generate_seconds`` /
``bakeoff.estimator_seconds`` timers, and ``bakeoff.bias`` /
``bakeoff.rmse`` / ``bakeoff.coverage`` gauges labelled by
estimator/backend/hurst/horizon (catalogued in
``docs/observability.md``).  With none bound it records into the shared
:data:`~repro.observability.NULL_CONTEXT`; the benchmark suite holds
that metrics-off path to a <2% overhead bound.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .._validation import check_in_range, check_positive_int
from ..exceptions import EstimationError, ValidationError
from ..observability import current_context
from ..processes import registry
from ..processes.correlation import FGNCorrelation
from ..stats.random import RandomState, spawn_rngs
from . import dfa, mavar, periodogram, rs_analysis, variance_time, whittle
from .dfa import dfa_estimate
from .mavar import mavar_estimate
from .periodogram import periodogram_estimate
from .rs_analysis import rs_estimate
from .variance_time import variance_time_estimate
from .whittle import whittle_estimate

__all__ = [
    "EstimatorSpec",
    "HURST_ESTIMATORS",
    "BakeoffCell",
    "BakeoffResult",
    "run_bakeoff",
]

#: z-score of the nominal two-sided 95% interval.
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class EstimatorSpec:
    """One Hurst estimator entered in the bake-off.

    Attributes
    ----------
    name:
        Registry key (matches the CLI ``--estimators`` tokens).
    run:
        ``run(values) -> (hurst, hurst_stderr)`` returning the Hurst
        point estimate (estimator defaults) and the nominal standard
        error of the *Hurst* estimate — the slope standard error
        mapped through the estimator's slope-to-H transform, or
        ``nan`` when the estimator provides none (Whittle).
    min_length:
        Shortest series the estimator accepts (its ``MIN_LENGTH``).
    """

    name: str
    run: Callable[[np.ndarray], Tuple[float, float]]
    min_length: int

    def estimate(self, values: np.ndarray) -> float:
        """The Hurst point estimate alone."""
        return self.run(values)[0]


def _run_variance_time(x: np.ndarray) -> Tuple[float, float]:
    est = variance_time_estimate(x)
    return est.hurst, est.fit.stderr / 2.0


def _run_rs(x: np.ndarray) -> Tuple[float, float]:
    est = rs_estimate(x)
    return est.hurst, est.fit.stderr


def _run_periodogram(x: np.ndarray) -> Tuple[float, float]:
    est = periodogram_estimate(x)
    return est.hurst, est.fit.stderr / 2.0


def _run_dfa(x: np.ndarray) -> Tuple[float, float]:
    est = dfa_estimate(x)
    return est.hurst, est.fit.stderr


def _run_whittle(x: np.ndarray) -> Tuple[float, float]:
    return whittle_estimate(x).hurst, float("nan")


def _run_mavar(x: np.ndarray) -> Tuple[float, float]:
    est = mavar_estimate(x)
    return est.hurst, est.fit.stderr / 2.0


#: The default bake-off field: every Hurst estimator in the library.
#: H maps from the fitted slope as slope itself (R/S, DFA),
#: (1 - slope)/2 (variance-time via beta, periodogram) or
#: (slope + 2)/2 (MAVAR), so the slope standard error scales by the
#: same factor.
HURST_ESTIMATORS: Dict[str, EstimatorSpec] = {
    spec.name: spec
    for spec in (
        EstimatorSpec(
            "variance_time", _run_variance_time, variance_time.MIN_LENGTH
        ),
        EstimatorSpec("rs", _run_rs, rs_analysis.MIN_LENGTH),
        EstimatorSpec(
            "periodogram", _run_periodogram, periodogram.MIN_LENGTH
        ),
        EstimatorSpec("dfa", _run_dfa, dfa.MIN_LENGTH),
        EstimatorSpec("whittle", _run_whittle, whittle.MIN_LENGTH),
        EstimatorSpec("mavar", _run_mavar, mavar.MIN_LENGTH),
    )
}


@dataclass(frozen=True)
class BakeoffCell:
    """One ``(estimator, backend, hurst, horizon)`` cell of the matrix.

    Attributes
    ----------
    estimator, backend:
        Registry names.
    hurst:
        True Hurst parameter of the generated paths.
    horizon:
        Path length in samples.
    estimates:
        Per-replication Hurst estimates (``nan`` where the estimator
        failed on a path).
    stderrs:
        Per-replication nominal Hurst standard errors (``nan`` where
        unavailable).
    seconds:
        Wall-clock seconds this estimator spent on the cell's paths.
    """

    estimator: str
    backend: str
    hurst: float
    horizon: int
    estimates: np.ndarray
    stderrs: np.ndarray
    seconds: float

    @property
    def failures(self) -> int:
        """Number of replications on which the estimator failed."""
        return int(np.count_nonzero(~np.isfinite(self.estimates)))

    @property
    def bias(self) -> float:
        """Mean estimate minus the true ``H`` (nan if nothing finite)."""
        finite = self.estimates[np.isfinite(self.estimates)]
        if finite.size == 0:
            return float("nan")
        return float(finite.mean() - self.hurst)

    @property
    def std(self) -> float:
        """Sample standard deviation of the finite estimates."""
        finite = self.estimates[np.isfinite(self.estimates)]
        if finite.size < 2:
            return float("nan")
        return float(finite.std(ddof=1))

    @property
    def rmse(self) -> float:
        """Root mean squared error against the true ``H``."""
        finite = self.estimates[np.isfinite(self.estimates)]
        if finite.size == 0:
            return float("nan")
        return float(np.sqrt(np.mean((finite - self.hurst) ** 2)))

    @property
    def coverage(self) -> float:
        """Empirical coverage of the nominal 95% interval (nan if none)."""
        ok = np.isfinite(self.estimates) & np.isfinite(self.stderrs)
        if not ok.any():
            return float("nan")
        half = _Z95 * self.stderrs[ok]
        hit = np.abs(self.estimates[ok] - self.hurst) <= half
        return float(np.mean(hit))


@dataclass(frozen=True)
class BakeoffResult:
    """Full bake-off matrix plus summary accessors.

    Attributes
    ----------
    hursts, horizons, backends, estimators:
        The grids the matrix spans.
    replications:
        Paths per cell.
    cells:
        Every :class:`BakeoffCell`, ordered backend-major then hurst,
        horizon, estimator (deterministic for a fixed seed).
    """

    hursts: Tuple[float, ...]
    horizons: Tuple[int, ...]
    backends: Tuple[str, ...]
    estimators: Tuple[str, ...]
    replications: int
    cells: Tuple[BakeoffCell, ...] = field(repr=False)

    def cell(
        self,
        estimator: str,
        backend: str,
        hurst: float,
        horizon: int,
    ) -> BakeoffCell:
        """Look up one cell (raises ``ValidationError`` when absent)."""
        for c in self.cells:
            if (
                c.estimator == estimator
                and c.backend == backend
                and math.isclose(c.hurst, hurst)
                and c.horizon == horizon
            ):
                return c
        raise ValidationError(
            f"no bake-off cell ({estimator!r}, {backend!r}, "
            f"hurst={hurst}, horizon={horizon})"
        )

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Pooled |bias|, std, RMSE, coverage per estimator.

        Pooling averages the per-cell values over the whole grid
        (cells where a metric is ``nan`` — e.g. Whittle coverage —
        are skipped for that metric).
        """
        out: Dict[str, Dict[str, float]] = {}
        for name in self.estimators:
            rows = [c for c in self.cells if c.estimator == name]
            out[name] = {
                "abs_bias": _nanmean([abs(c.bias) for c in rows]),
                "std": _nanmean([c.std for c in rows]),
                "rmse": _nanmean([c.rmse for c in rows]),
                "coverage": _nanmean([c.coverage for c in rows]),
                "failures": float(sum(c.failures for c in rows)),
                "seconds": float(sum(c.seconds for c in rows)),
            }
        return out

    def winner(self, metric: str = "rmse") -> str:
        """Estimator with the smallest pooled ``metric``.

        ``metric`` is one of ``"rmse"``, ``"abs_bias"``, ``"std"``.
        """
        if metric not in ("rmse", "abs_bias", "std"):
            raise ValidationError(
                f"metric must be 'rmse', 'abs_bias' or 'std', "
                f"got {metric!r}"
            )
        summary = self.summary()
        ranked = [
            (summary[name][metric], name)
            for name in self.estimators
            if math.isfinite(summary[name][metric])
        ]
        if not ranked:
            raise EstimationError(
                "bake-off produced no finite estimates to rank"
            )
        return min(ranked)[1]

    def table(self) -> str:
        """ASCII summary table (pooled metrics, winner-first order)."""
        summary = self.summary()
        order = sorted(
            self.estimators,
            key=lambda n: (
                not math.isfinite(summary[n]["rmse"]),
                summary[n]["rmse"],
            ),
        )
        header = (
            f"{'estimator':<14} {'|bias|':>8} {'std':>8} "
            f"{'rmse':>8} {'cover95':>8} {'fail':>5} {'sec':>7}"
        )
        lines = [header, "-" * len(header)]
        for name in order:
            row = summary[name]
            lines.append(
                f"{name:<14} {row['abs_bias']:>8.4f} {row['std']:>8.4f} "
                f"{row['rmse']:>8.4f} {_fmt_cov(row['coverage']):>8} "
                f"{int(row['failures']):>5d} {row['seconds']:>7.2f}"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (grids, summary, per-cell stats)."""
        return {
            "hursts": list(self.hursts),
            "horizons": list(self.horizons),
            "backends": list(self.backends),
            "estimators": list(self.estimators),
            "replications": self.replications,
            "winner_rmse": self.winner("rmse"),
            "summary": self.summary(),
            "cells": [
                {
                    "estimator": c.estimator,
                    "backend": c.backend,
                    "hurst": c.hurst,
                    "horizon": c.horizon,
                    "bias": c.bias,
                    "std": c.std,
                    "rmse": c.rmse,
                    "coverage": c.coverage,
                    "failures": c.failures,
                    "seconds": c.seconds,
                }
                for c in self.cells
            ],
        }


def _nanmean(values: Sequence[float]) -> float:
    finite = [v for v in values if v is not None and math.isfinite(v)]
    if not finite:
        return float("nan")
    return float(np.mean(finite))


def _fmt_cov(value: float) -> str:
    return "-" if not math.isfinite(value) else f"{value:.2f}"


def run_bakeoff(
    *,
    hursts: Sequence[float] = (0.6, 0.7, 0.8, 0.9),
    horizons: Sequence[int] = (1 << 12, 1 << 14),
    backends: Sequence[str] = ("davies_harte",),
    estimators: Optional[Sequence[str]] = None,
    replications: int = 8,
    random_state: RandomState = None,
) -> BakeoffResult:
    """Run the paired cross-estimator bake-off.

    Parameters
    ----------
    hursts:
        True Hurst parameters of the generated fGn paths, each in
        (0, 1).
    horizons:
        Path lengths in samples.
    backends:
        Backend registry names used to generate paths (``"all"``
        expands to every registered backend).
    estimators:
        Estimator names from :data:`HURST_ESTIMATORS`; default all six.
    replications:
        Paths per ``(backend, hurst, horizon)`` cell; every estimator
        sees the identical path set.
    random_state:
        Seed or generator; one child stream is spawned per path cell,
        so the matrix is reproducible and cells are independent.

    The current run context records the ``bakeoff.*`` catalogue (see
    the module docstring).
    """
    hursts = tuple(
        check_in_range(
            float(h), "hurst", 0.0, 1.0,
            inclusive_low=False, inclusive_high=False,
        )
        for h in hursts
    )
    horizons = tuple(
        check_positive_int(int(n), "horizon") for n in horizons
    )
    if isinstance(backends, str):
        backends = (backends,)
    if len(backends) == 1 and backends[0] == "all":
        backends = registry.names()
    backends = tuple(registry.get(name).name for name in backends)
    if estimators is None:
        estimators = tuple(HURST_ESTIMATORS)
    else:
        unknown = [e for e in estimators if e not in HURST_ESTIMATORS]
        if unknown:
            available = ", ".join(repr(n) for n in HURST_ESTIMATORS)
            raise ValidationError(
                f"estimator must be one of {available}, "
                f"got {unknown[0]!r}"
            )
        estimators = tuple(estimators)
    replications = check_positive_int(replications, "replications")
    if not hursts or not horizons or not backends or not estimators:
        raise ValidationError(
            "bake-off needs at least one hurst, horizon, backend "
            "and estimator"
        )
    min_horizon = min(horizons)
    for name in estimators:
        spec = HURST_ESTIMATORS[name]
        if min_horizon < spec.min_length:
            raise ValidationError(
                f"horizon must be at least {spec.min_length} for "
                f"estimator {name!r}, got {min_horizon}"
            )

    ctx = current_context()
    path_cells = [
        (backend, h, horizon)
        for backend in backends
        for h in hursts
        for horizon in horizons
    ]
    rngs = spawn_rngs(random_state, len(path_cells))

    cells = []
    for (backend, h, horizon), rng in zip(path_cells, rngs):
        source = registry.create(backend, FGNCorrelation(h))
        with ctx.time("bakeoff.generate_seconds", backend=backend):
            paths = source.sample(
                horizon, size=replications, random_state=rng
            )
        ctx.inc("bakeoff.paths", replications, backend=backend)
        for name in estimators:
            spec = HURST_ESTIMATORS[name]
            estimates = np.full(replications, np.nan)
            stderrs = np.full(replications, np.nan)
            start = time.perf_counter()
            for i in range(replications):
                try:
                    estimates[i], stderrs[i] = spec.run(paths[i])
                except EstimationError:
                    ctx.inc(
                        "bakeoff.failures",
                        estimator=name,
                        backend=backend,
                    )
            seconds = time.perf_counter() - start
            cell = BakeoffCell(
                estimator=name,
                backend=backend,
                hurst=h,
                horizon=horizon,
                estimates=estimates,
                stderrs=stderrs,
                seconds=seconds,
            )
            cells.append(cell)
            ctx.inc("bakeoff.cells")
            ctx.inc(
                "bakeoff.estimates",
                replications - cell.failures,
                estimator=name,
            )
            ctx.timer(
                "bakeoff.estimator_seconds", estimator=name
            ).observe(seconds)
            labels = dict(
                estimator=name,
                backend=backend,
                hurst=f"{h:g}",
                horizon=str(horizon),
            )
            ctx.set("bakeoff.bias", cell.bias, **labels)
            ctx.set("bakeoff.rmse", cell.rmse, **labels)
            if math.isfinite(cell.coverage):
                ctx.set("bakeoff.coverage", cell.coverage, **labels)

    return BakeoffResult(
        hursts=hursts,
        horizons=horizons,
        backends=backends,
        estimators=estimators,
        replications=replications,
        cells=tuple(cells),
    )
