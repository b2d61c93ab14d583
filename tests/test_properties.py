"""Property-based tests (hypothesis) on core invariants.

These cover structural guarantees that must hold for *any* valid input,
not just hand-picked cases:

- Durbin-Levinson on any exponential-mixture ACF yields positive,
  non-increasing conditional variances and |pacf| < 1;
- the marginal transform is monotone and respects the target's support
  for arbitrary Gamma targets;
- the Lindley recursion is monotone in arrivals and initial content and
  never negative;
- histogram round trips conserve mass;
- FGN/FARIMA correlation models stay within [-1, 1] and are symmetric.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.marginals.parametric import GammaDistribution
from repro.marginals.transform import MarginalTransform
from repro.processes.correlation import (
    CompositeCorrelation,
    ExponentialMixtureCorrelation,
    FARIMACorrelation,
    FGNCorrelation,
)
from repro.processes.partial_corr import DurbinLevinson
from repro.queueing.lindley import lindley_recursion
from repro.stats.histogram import frequency_histogram

# Keep examples small so the suite stays fast.
FAST = settings(max_examples=30, deadline=None)


hurst_values = st.floats(min_value=0.05, max_value=0.95,
                         allow_nan=False, allow_infinity=False)


class TestCorrelationProperties:
    @FAST
    @given(hurst=hurst_values, lag=st.integers(min_value=0, max_value=500))
    def test_fgn_bounded_and_symmetric(self, hurst, lag):
        model = FGNCorrelation(hurst)
        value = model(lag)
        assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9
        assert model(-lag) == pytest.approx(value)

    @FAST
    @given(d=st.floats(min_value=0.01, max_value=0.49))
    def test_farima_acf_positive_decreasing(self, d):
        model = FARIMACorrelation(d)
        values = model(np.arange(1, 50))
        assert np.all(values > 0)
        assert np.all(np.diff(values) <= 1e-12)

    @FAST
    @given(
        weights=st.lists(
            st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=4
        ),
        rates=st.lists(
            st.floats(min_value=0.001, max_value=2.0), min_size=4, max_size=4
        ),
    )
    def test_exponential_mixture_durbin_levinson_valid(self, weights, rates):
        w = np.asarray(weights[: len(weights)])
        r = np.asarray(rates[: len(weights)])
        w = w / w.sum()
        model = ExponentialMixtureCorrelation(w, r)
        state = DurbinLevinson(model.acvf(40))
        last_variance = state.variance
        for _ in range(39):
            _, variance = state.advance()
            assert 0 < variance <= last_variance + 1e-12
            last_variance = variance
        assert np.all(np.abs(state.partials) < 1.0)

    @FAST
    @given(
        rate=st.floats(min_value=0.001, max_value=0.1),
        exponent=st.floats(min_value=0.05, max_value=0.9),
        knee=st.floats(min_value=10.0, max_value=120.0),
        nugget=st.floats(min_value=0.0, max_value=0.4),
    )
    def test_composite_with_continuity_is_pd_when_polya_convex(
        self, rate, exponent, knee, nugget
    ):
        model = CompositeCorrelation(
            srd_weights=[1.0],
            srd_rates=[rate],
            lrd_amplitude=min(0.99, 0.9 * knee**exponent),
            lrd_exponent=exponent,
            knee=knee,
            nugget=nugget,
        ).with_continuity()
        # Polya's criterion only covers the convex regime (head decays
        # at least as steeply as the tail at the knee); outside it,
        # positive definiteness is not guaranteed.
        assume(model.polya_convex)
        state = DurbinLevinson(model.acvf(120))
        for _ in range(119):
            state.advance()
        assert np.all(np.abs(state.partials) < 1.0)

    def test_polya_convex_flags_known_cases(self):
        paper = CompositeCorrelation.paper_fit().with_continuity()
        assert paper.polya_convex
        # Slow head + aggressive tail at a small knee is non-convex.
        bad = CompositeCorrelation(
            srd_weights=[1.0],
            srd_rates=[0.0156],
            lrd_amplitude=0.9 * 10**0.5,
            lrd_exponent=0.5,
            knee=10.0,
        ).with_continuity()
        assert not bad.polya_convex


class TestTransformProperties:
    @FAST
    @given(
        shape=st.floats(min_value=0.5, max_value=10.0),
        scale=st.floats(min_value=0.1, max_value=1000.0),
    )
    def test_transform_monotone_and_in_support(self, shape, scale):
        tr = MarginalTransform(GammaDistribution(shape, scale))
        x = np.linspace(-5, 5, 101)
        y = np.asarray(tr(x))
        assert np.all(np.diff(y) >= -1e-12)
        assert np.all(y >= 0.0)

    @FAST
    @given(
        shape=st.floats(min_value=0.5, max_value=5.0),
        scale=st.floats(min_value=0.5, max_value=100.0),
        x=st.floats(min_value=-4.0, max_value=4.0),
    )
    def test_inverse_is_left_inverse(self, shape, scale, x):
        tr = MarginalTransform(GammaDistribution(shape, scale))
        assert tr.inverse(tr(x)) == pytest.approx(x, abs=1e-5)


class TestLindleyProperties:
    arrivals_strategy = st.lists(
        st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=50
    )

    @FAST
    @given(arrivals=arrivals_strategy,
           mu=st.floats(min_value=0.1, max_value=5.0))
    def test_queue_never_negative(self, arrivals, mu):
        q = lindley_recursion(np.asarray(arrivals), mu)
        assert np.all(q >= 0.0)

    @FAST
    @given(arrivals=arrivals_strategy,
           mu=st.floats(min_value=0.1, max_value=5.0),
           bump=st.floats(min_value=0.0, max_value=3.0))
    def test_monotone_in_arrivals(self, arrivals, mu, bump):
        base = np.asarray(arrivals)
        q_low = lindley_recursion(base, mu)
        q_high = lindley_recursion(base + bump, mu)
        assert np.all(q_high >= q_low - 1e-12)

    @FAST
    @given(arrivals=arrivals_strategy,
           mu=st.floats(min_value=0.1, max_value=5.0),
           initial=st.floats(min_value=0.0, max_value=20.0))
    def test_monotone_in_initial_content(self, arrivals, mu, initial):
        base = np.asarray(arrivals)
        q_zero = lindley_recursion(base, mu, initial=0.0)
        q_init = lindley_recursion(base, mu, initial=initial)
        assert np.all(q_init >= q_zero - 1e-12)
        # And the head start never exceeds the initial content itself.
        assert np.all(q_init - q_zero <= initial + 1e-12)


class TestHistogramProperties:
    @FAST
    @given(
        data=st.lists(
            st.floats(min_value=-1e6, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=200,
        ),
        bins=st.integers(min_value=1, max_value=50),
    )
    def test_mass_conserved(self, data, bins):
        arr = np.asarray(data)
        if np.ptp(arr) == 0:
            arr = arr + np.linspace(0, 1, arr.size)
        h = frequency_histogram(arr, bins=bins)
        assert h.total == arr.size
        assert h.frequencies.sum() == pytest.approx(1.0)


class TestSpreadingProperties:
    @FAST
    @given(
        frames=st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=1, max_size=30,
        ),
        factor=st.integers(min_value=1, max_value=20),
    )
    def test_totals_preserved(self, frames, factor):
        from repro.queueing.spreading import spread_arrivals

        arr = np.asarray(frames)
        out = spread_arrivals(arr, factor)
        np.testing.assert_allclose(
            out.reshape(arr.size, factor).sum(axis=1), arr, atol=1e-9
        )

    @FAST
    @given(
        frames=st.lists(
            st.floats(min_value=0.0, max_value=50.0),
            min_size=2, max_size=20,
        ),
        factor=st.integers(min_value=2, max_value=10),
        mu=st.floats(min_value=0.5, max_value=10.0),
    )
    def test_spreading_never_increases_peak_queue(self, frames, factor,
                                                  mu):
        from repro.queueing.spreading import (
            slice_service_rate,
            spread_arrivals,
        )

        arr = np.asarray(frames)
        q_frames = lindley_recursion(arr, mu)
        q_slices = lindley_recursion(
            spread_arrivals(arr, factor), slice_service_rate(mu, factor)
        )
        assert q_slices.max() <= q_frames.max() + 1e-9


class TestEmpiricalDistributionProperties:
    @FAST
    @given(
        data=st.lists(
            st.floats(min_value=-1e5, max_value=1e5,
                      allow_nan=False, allow_infinity=False),
            min_size=4, max_size=120,
        ),
        q=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_cdf_ppf_consistency(self, data, q):
        from repro.marginals.empirical import EmpiricalDistribution

        arr = np.asarray(data)
        if np.ptp(arr) == 0:
            arr = arr + np.linspace(0, 1, arr.size)
        dist = EmpiricalDistribution(arr, bins=20)
        value = float(dist.ppf(q))
        # ppf is within support, cdf(ppf(q)) ~ q for the histogram CDF.
        assert arr.min() - 1e-9 <= value <= arr.max() + 1e-9
        assert float(dist.cdf(value)) == pytest.approx(q, abs=1e-6)


def _finite_floats(min_size, max_size):
    """The float strategy of the empirical-CDF consistency test."""
    return st.lists(
        st.floats(min_value=-1e5, max_value=1e5,
                  allow_nan=False, allow_infinity=False),
        min_size=min_size, max_size=max_size,
    )


class TestHistogramEntryPoints:
    """Every entry point that builds a histogram, on the float strategy
    above without its constant-data guard: subnormal, sub-resolution
    and zero ranges either work or raise a library error."""

    @FAST
    @given(data=_finite_floats(4, 120), bins=st.integers(1, 200))
    def test_frequency_histogram(self, data, bins):
        h = frequency_histogram(data, bins=bins)
        assert h.total == len(data)
        assert h.edges[0] <= min(data) and max(data) <= h.edges[-1]

    @FAST
    @given(data=_finite_floats(4, 120), q=st.floats(0.01, 0.99))
    def test_empirical_distribution(self, data, q):
        from repro.marginals.empirical import EmpiricalDistribution

        dist = EmpiricalDistribution(data, bins=20)
        value = float(dist.ppf(q))
        # ppf stays inside the bins that hold data.
        width = float(dist.histogram.widths.max())
        assert min(data) - width <= value <= max(data) + width
        assert float(dist.cdf(value)) == pytest.approx(q, abs=1e-6)

    @FAST
    @given(data=_finite_floats(4, 120),
           method=st.sampled_from(["histogram", "exact"]))
    def test_marginal_transform(self, data, method):
        from repro.marginals.empirical import EmpiricalDistribution

        transform = MarginalTransform(
            EmpiricalDistribution(data, bins=20, method=method)
        )
        y = transform(np.linspace(-6.0, 6.0, 25))
        assert np.all(np.isfinite(y))
        assert np.all(np.diff(y) >= 0)

    @FAST
    @given(data=_finite_floats(40, 200),
           method=st.sampled_from(["histogram", "exact"]))
    def test_unified_fit(self, data, method):
        from repro.core import UnifiedVBRModel
        from repro.exceptions import ReproError

        model = UnifiedVBRModel(
            max_lag=10, histogram_bins=20, marginal_method=method,
            attenuation_method="analytic",
        )
        try:
            model.fit(np.asarray(data))
        except ReproError:
            pass
        # The marginal step runs first and always completes.
        assert model.transform_ is not None

    @FAST
    @given(data=_finite_floats(40, 200))
    def test_composite_fit(self, data):
        from repro.core import CompositeMPEGModel
        from repro.exceptions import ReproError
        from repro.video.gop import GopStructure
        from repro.video.trace import VideoTrace

        trace = VideoTrace(np.abs(data), gop=GopStructure("IBBP"))
        model = CompositeMPEGModel(
            max_lag_i=10, histogram_bins=20, attenuation_method="analytic"
        )
        try:
            model.fit(trace)
        except ReproError:
            pass


class TestNorrosProperties:
    @FAST
    @given(
        hurst=st.floats(min_value=0.55, max_value=0.95),
        b1=st.floats(min_value=0.1, max_value=100.0),
        scale=st.floats(min_value=1.1, max_value=10.0),
    )
    def test_monotone_decreasing_in_buffer(self, hurst, b1, scale):
        from repro.queueing.theory import norros_overflow_approximation

        p = norros_overflow_approximation(
            [b1, b1 * scale],
            hurst=hurst,
            mean_rate=1.0,
            service_rate=2.0,
            variance_coefficient=1.0,
        )
        assert p[1] <= p[0]

    @FAST
    @given(
        hurst=st.floats(min_value=0.55, max_value=0.95),
        epsilon=st.floats(min_value=1e-6, max_value=0.4),
    )
    def test_effective_bandwidth_inverts_approximation(self, hurst,
                                                       epsilon):
        from repro.queueing.theory import (
            norros_effective_bandwidth,
            norros_overflow_approximation,
        )

        mu = norros_effective_bandwidth(
            hurst=hurst, mean_rate=1.0, variance_coefficient=1.0,
            buffer_size=37.0, epsilon=epsilon,
        )
        p = norros_overflow_approximation(
            [37.0], hurst=hurst, mean_rate=1.0, service_rate=mu,
            variance_coefficient=1.0,
        )[0]
        assert p == pytest.approx(epsilon, rel=1e-5)


class TestCoefficientTableProperties:
    """Table-backed generation must be bit-identical to the in-step
    Durbin-Levinson path for any Hurst parameter, horizon, and batch."""

    @FAST
    @given(
        hurst=hurst_values,
        # The lowest cap is 1, so the in-step source needs n >= 2.
        n=st.integers(min_value=2, max_value=40),
        size=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_generate_bit_identical(self, hurst, n, size, seed):
        from repro.processes.hosking import hosking_generate
        from tests.conftest import coefficient_cache_cap

        model = FGNCorrelation(hurst)
        z = np.random.default_rng(seed).standard_normal((size, n))
        with coefficient_cache_cap(n):
            with_table = hosking_generate(
                model, n, size=size, innovations=z
            )
        with coefficient_cache_cap(n - 1):
            in_step = hosking_generate(model, n, size=size, innovations=z)
        np.testing.assert_array_equal(with_table, in_step)

    @FAST
    @given(
        hurst=hurst_values,
        n=st.integers(min_value=2, max_value=40),
    )
    def test_table_rows_match_recursion(self, hurst, n):
        from repro.processes.coeff_table import CoefficientTable

        acvf = FGNCorrelation(hurst).acvf(n)
        table = CoefficientTable(acvf)
        state = DurbinLevinson(acvf)
        for k in range(1, n):
            phi, variance = state.advance()
            np.testing.assert_array_equal(table.phi_row(k), phi)
            assert table.variance(k) == variance
