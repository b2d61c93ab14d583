"""Tests for parametric marginal distributions."""

import numpy as np
import pytest
from scipy import stats

from repro.exceptions import ValidationError
from repro.marginals.parametric import (
    GammaDistribution,
    GammaParetoDistribution,
    LognormalDistribution,
    NormalDistribution,
    ParetoDistribution,
)


class TestGamma:
    def test_moments(self):
        d = GammaDistribution(shape=3.0, scale=2.0)
        assert d.mean == pytest.approx(6.0)
        assert d.variance == pytest.approx(12.0)

    def test_cdf_ppf_roundtrip(self):
        d = GammaDistribution(2.5, 1.5)
        q = np.array([0.05, 0.5, 0.95])
        np.testing.assert_allclose(d.cdf(d.ppf(q)), q, atol=1e-10)

    def test_sampling_mean(self, rng):
        d = GammaDistribution(2.0, 3.0)
        s = d.sample(50_000, rng)
        assert s.mean() == pytest.approx(6.0, rel=0.03)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValidationError):
            GammaDistribution(-1.0, 1.0)


class TestPareto:
    def test_tail_law(self):
        d = ParetoDistribution(alpha=2.0, xm=3.0)
        # P(X > x) = (xm/x)^alpha.
        x = 6.0
        assert 1 - d.cdf(x) == pytest.approx((3.0 / 6.0) ** 2)

    def test_support_starts_at_xm(self):
        d = ParetoDistribution(1.5, 2.0)
        assert d.ppf(0.0) == pytest.approx(2.0)

    def test_mean(self):
        d = ParetoDistribution(3.0, 1.0)
        assert d.mean == pytest.approx(1.5)


class TestLognormalAndNormal:
    def test_lognormal_median(self):
        d = LognormalDistribution(mu=1.0, sigma=0.5)
        assert d.ppf(0.5) == pytest.approx(np.exp(1.0))

    def test_normal_symmetry(self):
        d = NormalDistribution(2.0, 3.0)
        assert d.ppf(0.5) == pytest.approx(2.0)
        assert d.mean == 2.0
        assert d.variance == pytest.approx(9.0)


class TestGammaPareto:
    def _dist(self, alpha=3.0):
        return GammaParetoDistribution(
            shape=2.0, scale=1000.0, tail_alpha=alpha, splice_quantile=0.95
        )

    def test_cdf_continuous_at_splice(self):
        d = self._dist()
        eps = 1e-6 * d.splice_point
        below = d.cdf(d.splice_point - eps)
        above = d.cdf(d.splice_point + eps)
        assert above - below < 1e-4

    def test_cdf_at_splice_equals_quantile(self):
        d = self._dist()
        assert d.cdf(d.splice_point) == pytest.approx(0.95)

    def test_ppf_roundtrip_both_pieces(self):
        d = self._dist()
        for q in (0.1, 0.5, 0.9, 0.97, 0.999):
            assert d.cdf(d.ppf(q)) == pytest.approx(q, abs=1e-9)

    def test_ppf_monotone(self):
        d = self._dist()
        q = np.linspace(0.001, 0.999, 500)
        values = np.asarray(d.ppf(q))
        assert np.all(np.diff(values) >= 0)

    def test_tail_heavier_than_gamma(self):
        d = self._dist(alpha=1.5)
        pure_gamma = GammaDistribution(2.0, 1000.0)
        q = 0.9999
        assert d.ppf(q) > pure_gamma.ppf(q)

    def test_mean_matches_sampling(self, rng):
        d = self._dist(alpha=4.0)
        s = d.sample(200_000, rng)
        assert s.mean() == pytest.approx(d.mean, rel=0.03)

    def test_infinite_mean_for_alpha_below_one(self):
        d = self._dist(alpha=0.9)
        assert d.mean == float("inf")

    def test_infinite_variance_for_alpha_below_two(self):
        d = self._dist(alpha=1.5)
        assert d.variance == float("inf")

    def test_finite_variance_matches_sampling(self, rng):
        d = self._dist(alpha=6.0)
        s = d.sample(400_000, rng)
        assert d.variance == pytest.approx(float(s.var()), rel=0.1)

    def test_scalar_in_scalar_out(self):
        d = self._dist()
        assert isinstance(d.cdf(100.0), float)
        assert isinstance(d.ppf(0.5), float)

    def test_rejects_bad_splice(self):
        with pytest.raises(ValidationError):
            GammaParetoDistribution(2.0, 1.0, 2.0, splice_quantile=1.0)


class TestValidation:
    @pytest.mark.parametrize(
        "cls, mu",
        [
            (NormalDistribution, float("nan")),
            (LognormalDistribution, float("nan")),
            (NormalDistribution, float("inf")),
            (NormalDistribution, "abc"),
            # exp(mu) overflows to inf / underflows to 0.
            (LognormalDistribution, 800.0),
            (LognormalDistribution, -800.0),
        ],
    )
    def test_rejects_bad_mu(self, cls, mu, recwarn):
        with pytest.raises(ValidationError, match="mu"):
            cls(mu, 1.0)
        assert not [w for w in recwarn if w.category is RuntimeWarning]


# (distribution, frozen scipy.stats reference, cdf arguments at and
# below the support's lower edge).
_SUBNORMAL = 5e-324
_PARITY_CASES = {
    "gamma": (
        GammaDistribution(4.0, 0.5),
        stats.gamma(4.0, scale=0.5),
        [0.0, -0.0, -_SUBNORMAL, -1.0],
    ),
    # shape * scale * scale != shape * (scale * scale) here, so the
    # moments' operation order shows.
    "gamma-small-shape": (
        GammaDistribution(0.3, 0.7),
        stats.gamma(0.3, scale=0.7),
        [0.0, -_SUBNORMAL, _SUBNORMAL],
    ),
    # alpha = 1 makes both exponents -1, which numpy's power loop
    # computes as a reciprocal when the exponent has stride 0.
    "pareto-alpha-1": (
        ParetoDistribution(1.0, 2.0),
        stats.pareto(1.0, scale=2.0),
        [2.0, np.nextafter(2.0, 0.0), np.nextafter(2.0, 3.0), 0.0, -1.0],
    ),
    "pareto": (
        ParetoDistribution(2.5, 1.1),
        stats.pareto(2.5, scale=1.1),
        [1.1, np.nextafter(1.1, 0.0), 1.0, 0.0],
    ),
    "pareto-infinite-mean": (
        ParetoDistribution(0.7, 1.0),
        stats.pareto(0.7, scale=1.0),
        [1.0, np.nextafter(1.0, 0.0), -1.0],
    ),
    "lognormal": (
        LognormalDistribution(1.0, 0.5),
        stats.lognorm(0.5, scale=np.exp(1.0)),
        [0.0, -0.0, -_SUBNORMAL, _SUBNORMAL, -1.0],
    ),
    # math.exp(sigma**2) is one ulp off np.exp(sigma**2) here, and
    # both moments show it.
    "lognormal-narrow": (
        LognormalDistribution(-3.0, 0.05),
        stats.lognorm(0.05, scale=np.exp(-3.0)),
        [0.0, -_SUBNORMAL],
    ),
    "lognormal-codec": (
        LognormalDistribution(np.log(3000.0) - 0.405, 0.9),
        stats.lognorm(0.9, scale=np.exp(np.log(3000.0) - 0.405)),
        [0.0, -1.0],
    ),
    "normal": (
        NormalDistribution(10.0, 2.5),
        stats.norm(10.0, 2.5),
        [-1e308, 1e308],
    ),
    "standard-normal": (
        NormalDistribution(),
        stats.norm(),
        [-40.0, 40.0, -0.0],
    ),
}

_Q_EDGES = [0.0, 1.0, -0.1, 1.1, np.nan, 1e-300, 1.0 - 2.0**-53,
            -np.inf, np.inf]


def _arguments(edges, interior):
    """Every argument form: each edge as a Python float and as a 0-d
    array, arrays where only some entries are valid (in scipy's layout
    these pass shape parameters as 1-element arrays), arrays where all
    are valid (parameters broadcast), a strided view, a 2-D array and
    Python / numpy integers."""
    edges = np.asarray(edges, dtype=float)
    mixed = np.concatenate([edges, interior])
    return (
        [float(v) for v in edges]
        + [np.asarray(v) for v in edges]
        + [
            edges,
            mixed,
            interior,
            interior[::3],
            interior[:1],
            np.array([np.nan, interior[0]]),
            mixed[: mixed.size - mixed.size % 4].reshape(4, -1),
            0,
            1,
            np.arange(4),
        ]
    )


def _assert_same(actual, expected):
    assert type(actual) is type(expected)
    np.testing.assert_array_equal(actual, expected, strict=True)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("case", list(_PARITY_CASES))
class TestScipyParity:
    """The closed forms return the frozen scipy.stats objects' bits,
    NaN positions and scalar type included."""

    def test_ppf(self, case):
        dist, frozen, _ = _PARITY_CASES[case]
        rng = np.random.default_rng(41)
        interior = np.concatenate(
            [rng.uniform(size=4000), [1e-300, 1.0 - 2.0**-53, 0.5]]
        )
        for arg in _arguments(_Q_EDGES, interior):
            _assert_same(dist.ppf(arg), frozen.ppf(arg))

    def test_cdf(self, case):
        dist, frozen, lower_edges = _PARITY_CASES[case]
        rng = np.random.default_rng(43)
        interior = frozen.ppf(rng.uniform(size=4000))
        edges = lower_edges + [-np.inf, np.inf, np.nan, 1e308]
        for arg in _arguments(edges, interior):
            _assert_same(dist.cdf(arg), frozen.cdf(arg))

    def test_moments(self, case):
        dist, frozen, _ = _PARITY_CASES[case]
        assert dist.mean == float(frozen.mean())
        assert dist.variance == float(frozen.var())


def _gamma_pareto_reference(shape, scale, alpha, splice_quantile):
    """GammaPareto mean and variance computed on frozen scipy.stats
    objects."""
    body = stats.gamma(shape, scale=scale)
    splice = float(body.ppf(splice_quantile))
    tail_mass = 1.0 - splice_quantile
    if alpha <= 1.0:
        mean = float("inf")
    else:
        truncated = shape * scale * float(
            stats.gamma(shape + 1.0, scale=scale).cdf(splice)
        )
        mean = truncated + tail_mass * (alpha * splice / (alpha - 1.0))
    if alpha <= 2.0:
        return mean, float("inf")
    qs = np.linspace(0.0, splice_quantile, 4097)[1:]
    body_second = float(np.trapezoid(np.asarray(body.ppf(qs)) ** 2, qs))
    second = body_second + tail_mass * (
        alpha * splice**2 / (alpha - 2.0)
    )
    return mean, second - mean**2


@pytest.mark.parametrize(
    "params",
    [(2.0, 1000.0, 3.0, 0.95), (6.0, 1100.0, 12.0, 0.97),
     (2.2, 550.0, 1.5, 0.97), (3.0, 850.0, 0.9, 0.9)],
)
def test_gamma_pareto_moments_match_scipy(params):
    d = GammaParetoDistribution(*params[:3], splice_quantile=params[3])
    assert (d.mean, d.variance) == _gamma_pareto_reference(*params)
