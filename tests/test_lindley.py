"""Tests for the Lindley recursion and workload processes (eq. 16-17)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.marginals.parametric import GammaDistribution
from repro.marginals.transform import MarginalTransform
from repro.processes.correlation import FGNCorrelation
from repro.processes.davies_harte import davies_harte_generate
from repro.queueing import AtmMultiplexer
from repro.queueing.lindley import (
    _BLOCK,
    finite_lindley_recursion,
    lindley_recursion,
    workload_paths,
    workload_supremum,
)
from repro.queueing.overflow import steady_state_overflow_from_trace

#: Tolerance of the closed-form kernel against the per-slot loop, fixed
#: from float64 eps and the block length B: an in-block partial sum
#: carries at most one rounding per slot of its block, and the loop one
#: per slot of the (at most three-block) path.
RTOL = 4 * _BLOCK * np.finfo(float).eps


def _reference_lindley(arrivals, service_rate, initial=0.0):
    """The per-slot Lindley loop ``lindley_recursion`` used to run.

    ``service_rate`` may be a column of per-row rates.
    """
    increments = np.asarray(arrivals, dtype=float) - service_rate
    out = np.empty_like(increments)
    q = np.broadcast_to(
        np.asarray(initial, dtype=float), increments[..., 0].shape
    ).copy()
    for j in range(increments.shape[-1]):
        q = np.maximum(q + increments[..., j], 0.0)
        out[..., j] = q
    return out


def _assert_matches_loop(got, want, increments, initial):
    """``got`` is allclose to the loop within :data:`RTOL`.

    The absolute tolerance scales with the largest partial sum either
    side can form: the initial content plus twice the largest path-wise
    partial sum of the increments.
    """
    scale = np.max(np.abs(initial)) + 2 * np.max(
        np.abs(np.cumsum(increments, axis=-1))
    )
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * scale)


class TestLindleyRecursion:
    def test_hand_computed_example(self):
        arrivals = np.array([3.0, 0.0, 5.0, 0.0])
        q = lindley_recursion(arrivals, service_rate=2.0)
        # Q: max(0+1,0)=1, max(1-2,0)=0, max(0+3,0)=3, max(3-2,0)=1.
        np.testing.assert_allclose(q, [1.0, 0.0, 3.0, 1.0])

    def test_initial_content(self):
        arrivals = np.array([0.0, 0.0])
        q = lindley_recursion(arrivals, service_rate=1.0, initial=5.0)
        np.testing.assert_allclose(q, [4.0, 3.0])

    def test_batch_shape(self):
        arrivals = np.ones((4, 10))
        q = lindley_recursion(arrivals, service_rate=2.0)
        assert q.shape == (4, 10)
        np.testing.assert_allclose(q, 0.0)

    def test_per_replication_initial(self):
        arrivals = np.zeros((2, 3))
        q = lindley_recursion(
            arrivals, service_rate=1.0, initial=np.array([0.0, 10.0])
        )
        np.testing.assert_allclose(q[0], [0.0, 0.0, 0.0])
        np.testing.assert_allclose(q[1], [9.0, 8.0, 7.0])

    def test_queue_never_negative(self, rng):
        arrivals = rng.exponential(size=(5, 200))
        q = lindley_recursion(arrivals, service_rate=1.5)
        assert np.all(q >= 0)

    def test_rejects_negative_initial(self):
        with pytest.raises(ValidationError):
            lindley_recursion(np.ones(3), 1.0, initial=-1.0)

    def test_rejects_3d(self):
        with pytest.raises(ValidationError):
            lindley_recursion(np.ones((2, 2, 2)), 1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            lindley_recursion(np.ones((2, 0)), 1.0)


class TestClosedFormKernel:
    @settings(max_examples=40, deadline=None)
    @given(
        length=st.sampled_from(
            [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]
        ),
        rows=st.sampled_from([None, 1, 3]),
        utilization=st.one_of(
            st.floats(min_value=0.1, max_value=0.95),
            st.floats(min_value=1.05, max_value=3.0),
        ),
        shape=st.floats(min_value=0.2, max_value=5.0),
        initial_scale=st.floats(min_value=0.0, max_value=500.0),
        per_row_initial=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_per_slot_loop(self, length, rows, utilization,
                                   shape, initial_scale, per_row_initial,
                                   seed):
        rng = np.random.default_rng(seed)
        size = length if rows is None else (rows, length)
        arrivals = rng.gamma(shape, 1.0 / shape, size=size)
        mu = 1.0 / utilization
        if rows is not None and per_row_initial:
            initial = rng.uniform(0.0, initial_scale, size=rows)
        else:
            initial = initial_scale
        got = lindley_recursion(arrivals, mu, initial=initial)
        want = _reference_lindley(arrivals, mu, initial)
        assert got.shape == arrivals.shape
        assert np.all(got >= 0.0)
        _assert_matches_loop(got, want, arrivals - mu, initial)

    def test_trace_overflow_fractions_match_loop(self):
        """The Figs. 16-17 trace-driven fractions on a 238,626-frame
        unit-mean LRD trace are those of the per-slot loop."""
        frames = 238_626
        background = davies_harte_generate(
            FGNCorrelation(0.89), frames, random_state=2024
        )
        sizes = MarginalTransform(GammaDistribution(0.8, 1.0))(background)
        arrivals = sizes / sizes.mean()
        utilizations = np.array([0.8, 0.6, 0.4, 0.2])
        buffers = (25, 50, 100, 150, 200, 250)
        rates = 1.0 / utilizations
        want = _reference_lindley(
            np.broadcast_to(arrivals, (rates.size, frames)),
            rates[:, None],
        )
        for rate, queue in zip(rates, want):
            got = lindley_recursion(arrivals, rate)
            _assert_matches_loop(got, queue, arrivals - rate, 0.0)
            fractions = [
                e.probability for e in
                steady_state_overflow_from_trace(arrivals, rate, buffers)
            ]
            assert fractions == [float(np.mean(queue > b)) for b in buffers]
        # The heaviest load overflows every buffer, so the check bites.
        assert all(np.mean(want[0] > b) > 0 for b in buffers)


class TestNonFiniteArrivals:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "run",
        [
            lambda a: lindley_recursion(a, 0.5),
            lambda a: finite_lindley_recursion(a, 0.5, 2.0),
            lambda a: workload_supremum(a, 0.5),
            lambda a: AtmMultiplexer(1.0, buffer_size=2.0).simulate(a),
        ],
        ids=["lindley_recursion", "finite_lindley_recursion",
             "workload_supremum", "AtmMultiplexer.simulate"],
    )
    def test_rejected_naming_arrivals(self, run, bad):
        arrivals = np.array([[1.0, 0.0, 1.0, 0.0], [1.0, bad, 1.0, 0.0]])
        with pytest.raises(ValidationError, match="arrivals"):
            run(arrivals[1])
        with pytest.raises(ValidationError, match="arrivals"):
            run(arrivals)


class TestWorkload:
    def test_paths_cumulative(self):
        arrivals = np.array([3.0, 1.0, 4.0])
        w = workload_paths(arrivals, service_rate=2.0)
        np.testing.assert_allclose(w, [1.0, 0.0, 2.0])

    def test_supremum_monotone(self, rng):
        arrivals = rng.exponential(size=(3, 100))
        sup = workload_supremum(arrivals, service_rate=1.2)
        assert np.all(np.diff(sup, axis=-1) >= 0)
        assert np.all(sup >= 0)

    def test_lindley_equals_workload_form_in_law(self, rng):
        """eq. 16 and eq. 17 agree: P(Q_k > b) = P(sup W > b) for
        exchangeable (here iid) arrivals, checked by Monte Carlo."""
        k, n, b, mu = 50, 20_000, 3.0, 1.3
        arrivals = rng.exponential(size=(n, k))
        q_k = lindley_recursion(arrivals, mu)[:, -1]
        sup = workload_supremum(arrivals, mu)[:, -1]
        p_lindley = np.mean(q_k > b)
        p_workload = np.mean(sup > b)
        assert p_lindley == pytest.approx(p_workload, abs=0.01)

    def test_lindley_from_empty_equals_sup_minus_min_identity(self):
        """Pathwise: Q_k = W_k - min(0, min_{i<=k} W_i) for Q_0 = 0."""
        rng = np.random.default_rng(7)
        arrivals = rng.exponential(size=200)
        mu = 1.1
        q = lindley_recursion(arrivals, mu)
        w = workload_paths(arrivals, mu)
        running_min = np.minimum(np.minimum.accumulate(w), 0.0)
        np.testing.assert_allclose(q, w - running_min, atol=1e-12)


class TestLindleyStep:
    def test_infinite_step_matches_recursion_formula(self):
        from repro.queueing.lindley import lindley_step

        rng = np.random.default_rng(7)
        q = rng.uniform(0, 3, size=5)
        inc = rng.normal(size=5)
        stepped, overflow = lindley_step(q, inc)
        np.testing.assert_array_equal(
            stepped, np.maximum(q + inc, 0.0)
        )
        assert overflow is None

    def test_finite_step_sheds_above_capacity(self):
        from repro.queueing.lindley import lindley_step

        q = np.array([0.5, 1.75, 0.0])
        inc = np.array([1.0, 1.0, -1.0])
        stepped, overflow = lindley_step(q, inc, 2.0)
        np.testing.assert_array_equal(stepped, [1.5, 2.0, 0.0])
        np.testing.assert_array_equal(overflow, [0.0, 0.75, 0.0])


class TestFiniteLindleyRecursion:
    def test_matches_legacy_inline_loop_bitwise(self, rng):
        # Regression for the dedupe: the shared step must reproduce the
        # multiplexer's historical finite-buffer loop bit for bit.
        from repro.queueing.lindley import finite_lindley_recursion

        arrivals = rng.gamma(2.0, 1.0, size=(4, 64))
        mu, cap, initial = 2.1, 3.0, 0.75
        increments = arrivals - mu
        queue = np.empty_like(increments)
        lost = np.empty_like(increments)
        q = np.broadcast_to(
            np.asarray(initial, dtype=float), increments[..., 0].shape
        ).copy()
        for j in range(increments.shape[-1]):
            q = q + increments[..., j]
            overflow = np.maximum(q - cap, 0.0)
            q = np.clip(q, 0.0, cap)
            queue[..., j] = q
            lost[..., j] = overflow
        got_queue, got_lost = finite_lindley_recursion(
            arrivals, mu, cap, initial=initial
        )
        np.testing.assert_array_equal(got_queue, queue)
        np.testing.assert_array_equal(got_lost, lost)

    def test_zero_capacity_is_bufferless(self):
        from repro.queueing.lindley import finite_lindley_recursion

        arrivals = np.array([2.0, 0.5, 3.0])
        queue, lost = finite_lindley_recursion(arrivals, 1.0, 0.0)
        np.testing.assert_array_equal(queue, np.zeros(3))
        np.testing.assert_array_equal(lost, [1.0, 0.0, 2.0])

    def test_validation(self):
        from repro.queueing.lindley import finite_lindley_recursion

        with pytest.raises(ValidationError):
            finite_lindley_recursion(np.ones(4), 1.0, 2.0, initial=-0.1)
        with pytest.raises(ValidationError):
            finite_lindley_recursion(np.ones(4), 1.0, 2.0, initial=2.5)
        with pytest.raises(ValidationError):
            finite_lindley_recursion(np.ones((2, 2, 2)), 1.0, 2.0)
        with pytest.raises(ValidationError):
            finite_lindley_recursion(np.ones(4), 1.0, -1.0)
