"""Regression tests for the zero-hit degeneracy signal.

Before this signal existed, an importance-sampling run whose
replications never hit completed silently and returned a vacuous
estimate.  Now:

- an estimate finishing with zero overflow hits warns and counts
  ``is.zero_hit_estimates``;
- a batch where every replication *hits* (a successful outcome), or
  only some do, must NOT warn.
"""

import warnings

import pytest

from repro.exceptions import SimulationWarning
from repro.observability import RunContext, recording
from repro.processes.correlation import ExponentialCorrelation
from repro.simulation.importance import is_overflow_probability

CORR = ExponentialCorrelation(0.5)


class TestEstimatorOutcomes:
    def test_zero_hit_estimate_warns_and_counts(self):
        ctx = RunContext()
        with pytest.warns(SimulationWarning, match="0 overflow hits"), \
                recording(ctx):
            estimate = is_overflow_probability(
                CORR,
                lambda x: x + 0.01,  # arrivals far below service
                service_rate=5.0,
                buffer_size=50.0,
                horizon=10,
                twisted_mean=0.0,
                replications=20,
                random_state=1,
            )
        assert estimate.hits == 0
        assert estimate.probability == 0.0
        assert estimate.ess == 0.0
        entries = {e["name"]: e for e in ctx.snapshot()}
        assert entries["is.zero_hit_estimates"]["value"] == 1.0
        assert "is.weight" not in entries

    def test_full_success_batch_does_not_warn(self):
        # Every replication overflows almost immediately; the estimator
        # must not misreport this success as a degeneracy.
        ctx = RunContext()
        with warnings.catch_warnings(), recording(ctx):
            warnings.simplefilter("error", SimulationWarning)
            estimate = is_overflow_probability(
                CORR,
                lambda x: x + 10.0,  # arrivals far above service
                service_rate=1.0,
                buffer_size=1.0,
                horizon=30,
                twisted_mean=0.0,
                replications=25,
                random_state=2,
            )
        assert estimate.hits == estimate.replications
        assert estimate.probability == pytest.approx(1.0)
        entries = {e["name"]: e for e in ctx.snapshot()}
        assert "is.zero_hit_estimates" not in entries

    def test_partial_hits_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", SimulationWarning)
            estimate = is_overflow_probability(
                CORR,
                lambda x: x + 2.0,
                service_rate=2.5,
                buffer_size=2.0,
                horizon=25,
                twisted_mean=1.0,
                replications=60,
                random_state=42,
            )
        assert 0 < estimate.hits < estimate.replications
