"""Tests for the shared-path twist sweep (single-generation Fig. 14).

``sweep_twists`` evaluates an entire twist grid from ONE batch of
untwisted background paths; these tests pin (a) agreement of the
closed-form likelihood ratio with the per-step sum of eq. 42-48 on the
same shared paths, (b) statistical agreement with independent
per-twist ``is_overflow_probability`` runs, and (c) the
single-generation property via the ``twist_sweep.*`` metrics.
"""

import numpy as np
import pytest

from repro.exceptions import SimulationWarning, ValidationError
from repro.observability import RunContext, recording
from repro.processes.coeff_table import (
    CoefficientTable,
    clear_coefficient_cache,
    resolve_acvf,
    set_coefficient_cache_limits,
)
from repro.processes.correlation import ExponentialCorrelation
from repro.processes.hosking import hosking_generate
from repro.simulation import (
    is_overflow_probability,
    is_transient_overflow_curve,
    sweep_twists,
)
from repro.stats.random import make_rng

CORR = ExponentialCorrelation(0.3)
MU = 3.5
BUFFER = 8.0
HORIZON = 80
GRID = np.linspace(0.0, 4.5, 10)  # the Fig. 14 scan
#: A tighter queue whose plain-MC (m* = 0) leg has hits at a few
#: hundred replications, for bookkeeping tests over grids that start
#: at 0 (a zero-hit leg raises under the suite's warning filter).
HIT_MU = 3.0
HIT_BUFFER = 6.0


def arrivals(x):
    return x + 2.0


@pytest.fixture(scope="module")
def sweep_result():
    return sweep_twists(
        CORR,
        arrivals,
        service_rate=MU,
        buffer_size=BUFFER,
        horizon=HORIZON,
        twist_values=GRID,
        replications=4000,
        random_state=7,
    )


class TestSweepShape:
    def test_grid_preserved(self, sweep_result):
        np.testing.assert_array_equal(sweep_result.twist_values, GRID)
        assert len(sweep_result.estimates) == GRID.size

    def test_valley_interior(self, sweep_result):
        assert 0.0 < sweep_result.best_twist < GRID[-1]

    def test_replications_per_estimate(self, sweep_result):
        assert all(e.replications == 4000 for e in sweep_result.estimates)

    def test_twisted_mean_recorded(self, sweep_result):
        for m_star, e in zip(GRID, sweep_result.estimates):
            assert e.twisted_mean == m_star


class TestSequentialEquivalence:
    """The closed-form likelihood ratio IS the per-step sum of eq. 42-48.

    With ``backend="hosking"`` a leg's paths are
    ``hosking_generate(random_state=seed)``, i.e. the paths of
    ``hosking_generate(innovations=z)`` for
    ``z = make_rng(seed).standard_normal((n, k))``; the reference sums
    the per-step increments ``-(2 e_j c_j + c_j^2) / (2 v_j)`` with
    ``c_j = m* (1 - s_j)`` and ``e_j = sqrt(v_j) z_j`` along them.
    """

    def _shared_paths(self, seed, replications, horizon=HORIZON):
        table = CoefficientTable(resolve_acvf(CORR, horizon))
        z = make_rng(seed).standard_normal((replications, horizon))
        paths = hosking_generate(
            CORR, horizon, size=replications, innovations=z
        )
        return table, z, paths

    def _per_step_log_lr(self, table, z, m_star):
        """Cumulative per-step ``log L`` of every row at every slot."""
        horizon = z.shape[1]
        variances = np.asarray(table.variances(horizon))
        c = m_star * (1.0 - np.asarray(table.phi_sums(horizon)))
        e = np.sqrt(variances) * z
        return np.cumsum(-(2.0 * e * c + c * c) / (2.0 * variances), axis=1)

    def _sequential_reference(self, m_star, seed, replications):
        table, z, paths = self._shared_paths(seed, replications)
        log_lr = self._per_step_log_lr(table, z, m_star)
        workload = np.cumsum(arrivals(paths + m_star) - MU, axis=1)
        weights = np.zeros(replications)
        hits = 0
        for row in range(replications):
            crossed = np.flatnonzero(workload[row] > BUFFER)
            if crossed.size:
                weights[row] = np.exp(log_lr[row, crossed[0]])
                hits += 1
        return float(weights.mean()), hits

    @pytest.mark.parametrize("m_star", [0.7, 1.5, 2.5])
    def test_matches_sequential_reference(self, m_star):
        seed, replications = 19, 400
        result = sweep_twists(
            CORR, arrivals, service_rate=MU, buffer_size=BUFFER,
            horizon=HORIZON, twist_values=[m_star],
            replications=replications, random_state=seed,
            backend="hosking",
        )
        leg = is_overflow_probability(
            CORR, arrivals, service_rate=MU, buffer_size=BUFFER,
            horizon=HORIZON, twisted_mean=m_star,
            replications=replications, random_state=seed,
            backend="hosking",
        )
        probability, hits = self._sequential_reference(
            m_star, seed, replications
        )
        for estimate in (result.estimates[0], leg):
            assert estimate.hits == hits
            np.testing.assert_allclose(
                estimate.probability, probability, rtol=1e-12
            )

    def test_transient_matches_per_slot_sum(self):
        # Every row is weighted at every slot, where log L crosses 0:
        # compare with an absolute tolerance too.
        seed, replications, horizon, m_star = 23, 300, 60, 1.0
        curve = is_transient_overflow_curve(
            CORR, arrivals, service_rate=MU, buffer_size=BUFFER,
            horizon=horizon, twisted_mean=m_star,
            replications=replications, random_state=seed,
            backend="hosking",
        )
        table, z, paths = self._shared_paths(seed, replications, horizon)
        log_lr = self._per_step_log_lr(table, z, m_star)
        queue = np.zeros(replications)
        reference = np.empty(horizon)
        for j, slot in enumerate(arrivals(paths + m_star).T):
            queue = np.maximum(queue + slot - MU, 0.0)
            reference[j] = np.exp(log_lr[queue > BUFFER, j]).sum()
        reference /= replications
        assert reference[-1] > 0
        np.testing.assert_allclose(curve, reference, rtol=1e-12, atol=1e-15)


class TestAgreesWithPerTwist:
    """Shared-path estimates match independent per-twist IS runs
    within Monte-Carlo error (the collapse is free of bias)."""

    @pytest.mark.parametrize("m_star", [0.5, 1.0, 1.5, 2.0])
    def test_within_mc_error(self, sweep_result, m_star):
        idx = int(np.argmin(np.abs(GRID - m_star)))
        shared = sweep_result.estimates[idx]
        independent = is_overflow_probability(
            CORR,
            arrivals,
            service_rate=MU,
            buffer_size=BUFFER,
            horizon=HORIZON,
            twisted_mean=float(GRID[idx]),
            replications=4000,
            random_state=1234 + idx,
        )
        spread = np.sqrt(shared.variance + independent.variance)
        assert abs(shared.probability - independent.probability) < 5 * spread

    def test_probability_scale(self, sweep_result):
        # All well-hit grid points agree on the order of magnitude.
        # "Well hit" is an effective sample size of at least 50: an
        # over-twisted point hits on every path, but one heavy weight
        # can carry its estimate (m* = 4.5 here: 4000 hits, ESS ~1).
        probs = [
            e.probability
            for e in sweep_result.estimates
            if e.ess >= 50
        ]
        assert len(probs) >= 3
        ref = np.median(probs)
        for p in probs:
            assert p == pytest.approx(ref, rel=1.0)


class TestSingleGeneration:
    def test_one_generation_serves_whole_grid(self):
        with recording(RunContext()) as ctx:
            sweep_twists(
                CORR, arrivals, service_rate=HIT_MU, buffer_size=HIT_BUFFER,
                horizon=HORIZON, twist_values=GRID, replications=600,
                random_state=5,
            )
        flat = {}
        for entry in ctx.snapshot():
            # Timer entries expose "total" instead of "value".
            flat.setdefault(entry["name"], 0.0)
            flat[entry["name"]] += entry.get(
                "value", entry.get("total", 0.0)
            )
        assert flat["twist_sweep.generations"] == 1
        assert flat["twist_sweep.twists"] == GRID.size
        assert flat["twist_sweep.paths"] == 600
        assert flat["twist_sweep.seconds"] > 0

    def test_per_twist_hit_counters(self, sweep_result):
        with recording(RunContext()) as ctx:
            sweep_twists(
                CORR, arrivals, service_rate=HIT_MU, buffer_size=HIT_BUFFER,
                horizon=HORIZON, twist_values=GRID[:3], replications=400,
                random_state=5,
            )
        hit_entries = [
            e for e in ctx.snapshot() if e["name"] == "twist_sweep.hits"
        ]
        assert len(hit_entries) == 3
        assert {e["labels"]["twist"] for e in hit_entries} == {
            str(float(m)) for m in GRID[:3]
        } or len({tuple(e["labels"].items()) for e in hit_entries}) == 3


class TestSharedPathsDelegate:
    @pytest.mark.parametrize(
        "backend", ["auto", "hosking", "Hosking", "davies_harte"]
    )
    def test_accepted_backends(self, backend):
        result = sweep_twists(
            CORR, arrivals, service_rate=MU, buffer_size=BUFFER,
            horizon=40, twist_values=[1.0], replications=100,
            random_state=2, backend=backend,
        )
        assert len(result.estimates) == 1

    @pytest.mark.parametrize("backend", ["fgn", "rmd"])
    def test_rejected_backends(self, backend):
        with pytest.raises(ValidationError, match="backend"):
            sweep_twists(
                CORR, arrivals, service_rate=MU, buffer_size=BUFFER,
                horizon=40, twist_values=[1.0], replications=100,
                backend=backend,
            )


class TestEdgeCases:
    def test_zero_hits_warn(self):
        with pytest.warns(SimulationWarning, match="0 overflow hits"):
            result = sweep_twists(
                CORR, arrivals, service_rate=MU, buffer_size=1e6,
                horizon=20, twist_values=[0.0], replications=30,
                random_state=1,
            )
        assert result.estimates[0].probability == 0.0
        assert result.estimates[0].hits == 0

    def test_zero_twist_is_plain_mc(self):
        result = sweep_twists(
            CORR, arrivals, service_rate=MU, buffer_size=2.0,
            horizon=40, twist_values=[0.0], replications=500,
            random_state=6,
        )
        estimate = result.estimates[0]
        # With m* = 0 every weight is the indicator itself.
        assert estimate.probability == pytest.approx(
            estimate.hits / estimate.replications
        )

    def test_rejects_bad_replications(self):
        with pytest.raises(ValidationError):
            sweep_twists(
                CORR, arrivals, service_rate=MU, buffer_size=BUFFER,
                horizon=40, twist_values=[1.0], replications=0,
            )

    def test_private_table_when_cache_disabled(self):
        base = sweep_twists(
            CORR, arrivals, service_rate=MU, buffer_size=BUFFER,
            horizon=40, twist_values=[1.0, 2.0], replications=300,
            random_state=9,
        )
        # Horizons above the cache cap get a private coefficient table.
        clear_coefficient_cache()
        set_coefficient_cache_limits(max_cached_horizon=10)
        try:
            uncached = sweep_twists(
                CORR, arrivals, service_rate=MU, buffer_size=BUFFER,
                horizon=40, twist_values=[1.0, 2.0], replications=300,
                random_state=9,
            )
        finally:
            set_coefficient_cache_limits(max_cached_horizon=4096)
        np.testing.assert_array_equal(
            [e.probability for e in uncached.estimates],
            [e.probability for e in base.estimates],
        )
