"""Tests for importance sampling (Appendix B).

The key correctness properties:

- likelihood ratios average to 1 under the twisted law (unbiasedness of
  the underlying change of measure);
- with ``m* = 0`` the procedure reduces exactly to plain Monte Carlo;
- IS and MC estimates agree (within sampling error) on non-rare events;
- a good twist reduces the estimator's variance.
"""

import numpy as np
import pytest

from repro.exceptions import SimulationError, ValidationError
from repro.processes.correlation import (
    CompositeCorrelation,
    ExponentialCorrelation,
    FGNCorrelation,
    WhiteNoiseCorrelation,
)
from repro.simulation.importance import (
    TwistedBackground,
    is_overflow_probability,
    is_transient_overflow_curve,
)
from repro.simulation.runner import overflow_vs_buffer_curve


def identity_transform(x):
    """Arrivals = background + 2 (mean 2, can exceed service)."""
    return x + 2.0


class TestTwistedBackground:
    def test_zero_twist_zero_loglr(self):
        bg = TwistedBackground(
            FGNCorrelation(0.8), 20, twisted_mean=0.0, size=5,
            random_state=0,
        )
        for _ in range(20):
            step = bg.step()
            np.testing.assert_array_equal(step.log_lr_increment, 0.0)

    def test_twist_shifts_values(self):
        corr = WhiteNoiseCorrelation()
        bg0 = TwistedBackground(corr, 10, twisted_mean=0.0, size=1000,
                                random_state=1)
        bg2 = TwistedBackground(corr, 10, twisted_mean=2.0, size=1000,
                                random_state=1)
        v0 = np.concatenate([bg0.step().twisted_values for _ in range(10)])
        v2 = np.concatenate([bg2.step().twisted_values for _ in range(10)])
        np.testing.assert_allclose(v2 - v0, 2.0)

    @pytest.mark.parametrize(
        "corr",
        [
            WhiteNoiseCorrelation(),
            ExponentialCorrelation(0.1),
            FGNCorrelation(0.8),
            CompositeCorrelation.paper_fit().with_continuity(),
        ],
    )
    def test_likelihood_ratios_average_to_one(self, corr):
        """E_{X'}[L] = 1: the fundamental change-of-measure identity.

        The twist and horizon are kept small so L is a lognormal with
        modest variance — large twists make the Monte Carlo mean of L
        converge impossibly slowly (that heavy tail is exactly why the
        estimator multiplies L by a rare-event indicator in practice).
        """
        horizon, size, m_star = 10, 100_000, 0.25
        bg = TwistedBackground(corr, horizon, twisted_mean=m_star,
                               size=size, random_state=2)
        log_lr = np.zeros(size)
        for _ in range(horizon):
            log_lr += bg.step().log_lr_increment
        assert np.exp(log_lr).mean() == pytest.approx(1.0, abs=0.05)

    def test_white_noise_loglr_closed_form(self):
        """For iid N(0,1), log L_k = -(2 x_k m* + m*^2)/2 exactly."""
        m_star = 1.5
        bg = TwistedBackground(
            WhiteNoiseCorrelation(), 5, twisted_mean=m_star, size=100,
            random_state=3,
        )
        for _ in range(5):
            step = bg.step()
            x = step.twisted_values - m_star  # untwisted draws
            expected = -(2 * x * m_star + m_star**2) / 2.0
            np.testing.assert_allclose(step.log_lr_increment, expected,
                                       atol=1e-12)


_TWIST_ENTRY_POINTS = {
    "TwistedBackground": lambda m: TwistedBackground(
        ExponentialCorrelation(0.3), 10, twisted_mean=m, size=4,
        random_state=0,
    ),
    "is_overflow_probability": lambda m: is_overflow_probability(
        ExponentialCorrelation(0.3), identity_transform, service_rate=3.5,
        buffer_size=8.0, horizon=20, twisted_mean=m, replications=10,
        random_state=0,
    ),
    "is_transient_overflow_curve": lambda m: is_transient_overflow_curve(
        ExponentialCorrelation(0.3), identity_transform, service_rate=3.5,
        buffer_size=8.0, horizon=20, twisted_mean=m, replications=10,
        random_state=0,
    ),
    "overflow_vs_buffer_curve": lambda m: overflow_vs_buffer_curve(
        ExponentialCorrelation(0.3), identity_transform, utilization=0.6,
        buffer_sizes=[4.0, 8.0], twisted_mean=m, replications=10,
        random_state=0, workers=1,
    ),
}


@pytest.mark.parametrize("entry", sorted(_TWIST_ENTRY_POINTS))
@pytest.mark.parametrize("twist", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_twist(entry, twist):
    # A NaN twist used to return probability 0.0 and an infinite one
    # NaN — plausible-looking wrong answers instead of an error.
    with pytest.raises(ValidationError, match="twisted_mean"):
        _TWIST_ENTRY_POINTS[entry](twist)


class TestIsOverflowProbability:
    def test_zero_twist_equals_mc_indicator_mean(self):
        est = is_overflow_probability(
            WhiteNoiseCorrelation(),
            identity_transform,
            service_rate=2.5,
            buffer_size=3.0,
            horizon=40,
            twisted_mean=0.0,
            replications=4000,
            random_state=4,
        )
        # With m*=0, weights are exactly 0/1 indicators.
        assert est.probability == pytest.approx(est.hits / 4000)
        assert est.twisted_mean == 0.0

    def test_is_matches_mc_on_non_rare_event(self):
        kwargs = dict(
            transform=identity_transform,
            service_rate=2.3,
            buffer_size=2.0,
            horizon=50,
        )
        corr = ExponentialCorrelation(0.2)
        mc = is_overflow_probability(
            corr, twisted_mean=0.0, replications=20_000, random_state=5,
            **kwargs,
        )
        is_est = is_overflow_probability(
            corr, twisted_mean=0.6, replications=20_000, random_state=6,
            **kwargs,
        )
        # Agreement within joint 3-sigma.
        sigma = np.hypot(mc.std_error, is_est.std_error)
        assert abs(mc.probability - is_est.probability) < 3 * sigma + 1e-12

    def test_variance_reduction_for_rare_event(self):
        kwargs = dict(
            transform=identity_transform,
            service_rate=3.5,
            buffer_size=8.0,
            horizon=80,
            replications=3000,
        )
        corr = ExponentialCorrelation(0.3)
        mc = is_overflow_probability(
            corr, twisted_mean=0.0, random_state=7, **kwargs
        )
        tw = is_overflow_probability(
            corr, twisted_mean=1.2, random_state=8, **kwargs
        )
        assert tw.hits > mc.hits
        assert tw.normalized_variance < mc.normalized_variance

    def test_estimate_in_unit_interval_and_finite(self):
        est = is_overflow_probability(
            FGNCorrelation(0.8),
            identity_transform,
            service_rate=3.0,
            buffer_size=5.0,
            horizon=50,
            twisted_mean=1.0,
            replications=500,
            random_state=9,
        )
        assert 0.0 <= est.probability <= 1.0
        assert np.isfinite(est.variance)
        assert est.mean_hit_time >= 0 or np.isnan(est.mean_hit_time)

    def test_reproducible(self):
        kwargs = dict(
            transform=identity_transform,
            service_rate=3.0,
            buffer_size=4.0,
            horizon=30,
            twisted_mean=0.8,
            replications=200,
        )
        corr = ExponentialCorrelation(0.1)
        a = is_overflow_probability(corr, random_state=11, **kwargs)
        b = is_overflow_probability(corr, random_state=11, **kwargs)
        assert a.probability == b.probability

    def test_rejects_non_callable_transform(self):
        with pytest.raises(ValidationError):
            is_overflow_probability(
                WhiteNoiseCorrelation(),
                "not callable",
                service_rate=1.0,
                buffer_size=1.0,
                horizon=10,
                twisted_mean=0.0,
                replications=10,
            )

    def test_rejects_bad_transform_output(self):
        with pytest.raises(SimulationError, match="transform"):
            is_overflow_probability(
                WhiteNoiseCorrelation(),
                lambda x: np.zeros(3),
                service_rate=1.0,
                buffer_size=1.0,
                horizon=10,
                twisted_mean=0.0,
                replications=10,
                random_state=0,
            )


class TestTransientCurve:
    def test_matches_mc_lindley_at_fixed_time(self):
        """IS transient estimate is unbiased: compare against direct MC."""
        from repro.queueing.lindley import lindley_recursion
        from repro.processes.hosking import hosking_generate

        corr = ExponentialCorrelation(0.2)
        mu, b, k = 2.4, 1.5, 30
        curve = is_transient_overflow_curve(
            corr,
            identity_transform,
            service_rate=mu,
            buffer_size=b,
            horizon=k,
            twisted_mean=0.4,
            replications=40_000,
            random_state=12,
        )
        x = hosking_generate(corr, k, size=40_000, random_state=13)
        arrivals = identity_transform(x)
        q = lindley_recursion(arrivals, mu)
        mc = np.mean(q[:, -1] > b)
        assert curve[-1] == pytest.approx(mc, abs=0.02)

    def test_full_buffer_start_dominates_early(self):
        corr = ExponentialCorrelation(0.2)
        common = dict(
            transform=identity_transform,
            service_rate=2.6,
            buffer_size=2.0,
            horizon=15,
            twisted_mean=0.0,
            replications=8000,
        )
        empty = is_transient_overflow_curve(
            corr, initial=0.0, random_state=14, **common
        )
        full = is_transient_overflow_curve(
            corr, initial=2.0, random_state=14, **common
        )
        assert full[0] >= empty[0]
        assert np.all(full[:5] >= empty[:5] - 0.02)

    def test_curve_length(self):
        curve = is_transient_overflow_curve(
            WhiteNoiseCorrelation(),
            identity_transform,
            service_rate=3.0,
            buffer_size=1.0,
            horizon=25,
            twisted_mean=0.0,
            replications=100,
            random_state=15,
        )
        assert curve.shape == (25,)

    def test_rejects_negative_initial(self):
        with pytest.raises(ValidationError):
            is_transient_overflow_curve(
                WhiteNoiseCorrelation(),
                identity_transform,
                service_rate=1.0,
                buffer_size=1.0,
                horizon=5,
                twisted_mean=0.0,
                replications=10,
                initial=-1.0,
            )


def seed_style_is_overflow(
    correlation, transform, *, service_rate, buffer_size, horizon,
    twisted_mean, replications, random_state,
):
    """The seed's loop, byte for byte: step first, no early stop, no
    retirement.  Used as the bit-exactness reference for the rewritten
    :func:`is_overflow_probability`."""
    from repro.simulation.estimators import ISEstimate

    background = TwistedBackground(
        correlation, horizon, twisted_mean=twisted_mean,
        size=replications, random_state=random_state, coeff_table=False,
    )
    n, mu, b = replications, service_rate, buffer_size
    workload = np.zeros(n)
    log_lr = np.zeros(n)
    weights = np.zeros(n)
    hit_times = np.full(n, -1, dtype=int)
    active = np.ones(n, dtype=bool)
    for i in range(horizon):
        ts = background.step()
        arrivals = np.asarray(transform(ts.twisted_values), dtype=float)
        log_lr[active] += ts.log_lr_increment[active]
        workload[active] += arrivals[active] - mu
        newly_hit = active & (workload > b)
        if np.any(newly_hit):
            weights[newly_hit] = np.exp(log_lr[newly_hit])
            hit_times[newly_hit] = i
            active[newly_hit] = False
        if not np.any(active):
            break
    probability = float(weights.mean())
    variance = float(weights.var(ddof=1)) / n if n > 1 else float("nan")
    hits = int((hit_times >= 0).sum())
    mean_hit = (
        float(hit_times[hit_times >= 0].mean()) if hits else float("nan")
    )
    return ISEstimate(
        probability=probability, variance=variance, replications=n,
        hits=hits, twisted_mean=float(twisted_mean),
        mean_hit_time=mean_hit,
    )


class TestLoopOrderAndCompaction:
    def test_bitwise_identical_to_seed_loop(self):
        kwargs = dict(
            transform=identity_transform,
            service_rate=2.6,
            buffer_size=2.5,
            horizon=60,
            twisted_mean=0.8,
            replications=500,
        )
        corr = CompositeCorrelation.paper_fit().with_continuity()
        new = is_overflow_probability(corr, random_state=30, **kwargs)
        ref = seed_style_is_overflow(corr, random_state=30, **kwargs)
        assert new.probability == ref.probability
        assert new.variance == ref.variance
        assert new.hits == ref.hits
        assert new.mean_hit_time == ref.mean_hit_time

    def test_no_step_once_all_replications_crossed(self):
        # Regression: the seed stepped the background once more after the
        # final replication crossed, paying a full O(n * k) Hosking step
        # whose output was discarded.
        calls = {"n": 0}
        original = TwistedBackground.step

        def counting_step(self):
            calls["n"] += 1
            return original(self)

        def always_hit(values):
            return values + 100.0  # every replication crosses at slot 0

        import repro.simulation.importance as imp

        old = imp.TwistedBackground.step
        imp.TwistedBackground.step = counting_step
        try:
            est = is_overflow_probability(
                WhiteNoiseCorrelation(),
                always_hit,
                service_rate=1.0,
                buffer_size=1.0,
                horizon=50,
                twisted_mean=0.0,
                replications=8,
                random_state=31,
            )
        finally:
            imp.TwistedBackground.step = old
        assert est.hits == 8
        assert calls["n"] == 1

    def test_retire_reported_by_active_count(self):
        bg = TwistedBackground(
            FGNCorrelation(0.8), 10, twisted_mean=0.5, size=6,
            random_state=32,
        )
        bg.step()
        assert bg.active_count == 6
        assert bg.retire(np.array([0, 5])) == 4
        assert bg.active_count == 4
        bg.step()  # still advances the shared clock
        assert bg.step_index == 2
