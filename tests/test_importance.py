"""Tests for importance sampling (Appendix B).

The key correctness properties:

- likelihood ratios average to 1 under the twisted law (unbiasedness of
  the underlying change of measure);
- with ``m* = 0`` the procedure reduces exactly to plain Monte Carlo;
- IS and MC estimates agree (within sampling error) on non-rare events;
- a good twist reduces the estimator's variance;
- only generators whose law is exactly the model's Gaussian law may
  draw the paths the closed-form weights assume.
"""

import numpy as np
import pytest

from repro.exceptions import (
    CorrelationError,
    SimulationError,
    ValidationError,
)
from repro.processes.coeff_table import CoefficientTable, resolve_acvf
from repro.processes.correlation import (
    CompositeCorrelation,
    ExponentialCorrelation,
    FGNCorrelation,
    WhiteNoiseCorrelation,
)
from repro.processes.davies_harte import davies_harte_generate
from repro.processes.source import DaviesHarteSource, HoskingSource
from repro.simulation.importance import (
    _stopped_log_lr,
    is_overflow_probability,
    is_transient_overflow_curve,
)
from repro.simulation.runner import overflow_vs_buffer_curve


def identity_transform(x):
    """Arrivals = background + 2 (mean 2, can exceed service)."""
    return x + 2.0


def log_lr_at(correlation, twisted, slot, m_star):
    """Closed-form ``log L(slot)`` of every row of ``twisted``."""
    n, k = twisted.shape
    table = CoefficientTable(resolve_acvf(correlation, k))
    return _stopped_log_lr(
        table, twisted, np.arange(n), np.full(n, slot), m_star
    )


class TestTwistedBackground:
    """The twisted background ``X' = X + m*`` and its likelihood ratio."""

    def test_zero_twist_zero_loglr(self):
        corr = FGNCorrelation(0.8)
        paths = davies_harte_generate(corr, 20, size=5, random_state=0)
        for slot in range(20):
            np.testing.assert_array_equal(
                log_lr_at(corr, paths, slot, 0.0), 0.0
            )

    def test_twist_shifts_values(self):
        # Same seed, two twists: the transform sees the same paths
        # shifted by exactly m*.
        seen = {}

        def recording(m_star):
            def transform(x):
                seen[m_star] = np.array(x, copy=True)
                return np.ones_like(x)
            return transform

        for m_star in (0.0, 2.0):
            is_overflow_probability(
                WhiteNoiseCorrelation(), recording(m_star),
                service_rate=0.5, buffer_size=1.0, horizon=10,
                twisted_mean=m_star, replications=1000, random_state=1,
            )
        np.testing.assert_allclose(seen[2.0] - seen[0.0], 2.0)

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
        twisted = m_star + davies_harte_generate(
            corr, horizon, size=size, random_state=2,
            on_negative_eigenvalues="raise",
        )
        log_lr = log_lr_at(corr, twisted, horizon - 1, m_star)
        assert np.exp(log_lr).mean() == pytest.approx(1.0, abs=0.05)

    def test_white_noise_loglr_closed_form(self):
        """For iid N(0,1), log L_k = -(2 x_k m* + m*^2)/2 exactly."""
        m_star = 1.5
        corr = WhiteNoiseCorrelation()
        x = davies_harte_generate(corr, 5, size=100, random_state=3)
        increments = -(2 * x * m_star + m_star**2) / 2.0
        for slot in range(5):
            np.testing.assert_allclose(
                log_lr_at(corr, x + m_star, slot, m_star),
                increments[:, : slot + 1].sum(axis=1),
                atol=1e-12,
            )


_TWIST_ENTRY_POINTS = {
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

    def test_rejects_non_finite_transform_output(self):
        # A NaN arrival never crosses the buffer, so this used to return
        # probability 0.0 with only a zero-hit warning.
        with pytest.raises(ValidationError, match="transform"):
            is_overflow_probability(
                WhiteNoiseCorrelation(),
                lambda x: np.full_like(x, np.nan),
                service_rate=1.0,
                buffer_size=1.0,
                horizon=10,
                twisted_mean=1.0,
                replications=10,
                random_state=0,
            )

    def test_rejects_bad_time_varying_transform_output(self):
        # A scalar per slot would broadcast silently over the batch.
        class ScalarPerSlot:
            time_varying = True

            def __call__(self, values, step):
                return 1.0

        with pytest.raises(SimulationError, match="transform"):
            is_overflow_probability(
                WhiteNoiseCorrelation(),
                ScalarPerSlot(),
                service_rate=1.0,
                buffer_size=1.0,
                horizon=10,
                twisted_mean=0.0,
                replications=10,
                random_state=0,
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

    @pytest.mark.parametrize("initial", [np.nan, np.inf])
    def test_rejects_non_finite_initial(self, initial):
        # NaN used to give an all-zero curve and inf a curve of ~1 at
        # every slot, both without an error.
        with pytest.raises(ValidationError, match="initial"):
            is_transient_overflow_curve(
                WhiteNoiseCorrelation(),
                identity_transform,
                service_rate=1.0,
                buffer_size=1.0,
                horizon=20,
                twisted_mean=0.5,
                replications=10,
                initial=initial,
                random_state=0,
            )


def _leg(correlation=ExponentialCorrelation(0.3), **kwargs):
    return is_overflow_probability(
        correlation, identity_transform, service_rate=3.0,
        buffer_size=4.0, horizon=20, twisted_mean=1.0, replications=50,
        random_state=0, **kwargs,
    )


class TestPathBackends:
    """Only generators of the model's exact law may draw IS paths."""

    @pytest.mark.parametrize(
        "backend", ["fgn", "farima", "rmd", "mg_infinity"]
    )
    def test_rejects_inexact_backends(self, backend):
        with pytest.raises(ValidationError, match="backend"):
            _leg(FGNCorrelation(0.8), backend=backend)

    def test_rejects_clipping_davies_harte_instance(self):
        source = DaviesHarteSource(ExponentialCorrelation(0.3))
        with pytest.raises(ValidationError, match="backend"):
            _leg(backend=source)

    @pytest.mark.parametrize(
        "backend", ["auto", "davies_harte", "Davies-Harte", "hosking"]
    )
    def test_accepts_exact_backends(self, backend):
        assert _leg(backend=backend).hits > 0

    def test_accepts_exact_instances(self):
        corr = ExponentialCorrelation(0.3)
        for source in (
            HoskingSource(corr),
            DaviesHarteSource(corr, on_negative_eigenvalues="raise"),
        ):
            assert _leg(backend=source).hits > 0

    def test_non_embeddable_model_raises_and_hosking_runs(self):
        # A positive-definite acvf whose circulant embedding at this
        # horizon has a negative eigenvalue (min -0.044): Davies-Harte
        # refuses to clip it, and the exact Hosking fallback draws it.
        lags = np.arange(21.0)
        acvf = np.exp(-lags / 20.0) * np.cos(lags / 5.0)
        with pytest.raises(CorrelationError, match="hosking"):
            _leg(acvf)
        assert _leg(acvf, backend="hosking").replications == 50
