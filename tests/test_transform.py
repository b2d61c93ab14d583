"""Tests for the marginal inversion transform (eq. 7)."""

from functools import partial

import numpy as np
import pytest
from scipy import special, stats

from repro.core.aggregate import ShardedAggregateModel, SourceClass
from repro.exceptions import ValidationError
from repro.marginals.attenuation import analytic_attenuation
from repro.marginals.empirical import EmpiricalDistribution
from repro.marginals.parametric import (
    GammaDistribution,
    LognormalDistribution,
    NormalDistribution,
)
from repro.marginals.transform import MarginalTransform, _monotone_slopes
from repro.video.synthetic import SyntheticCodecConfig, SyntheticMPEGCodec

_GAMMA_VALUES = np.random.default_rng(11).gamma(3.0, 1.0, size=500)

# Targets that take the generic copula branch: both empirical methods
# and one parametric marginal without a fast path.
_GENERIC_TARGETS = (
    EmpiricalDistribution(_GAMMA_VALUES),
    EmpiricalDistribution(_GAMMA_VALUES, method="exact"),
    LognormalDistribution(1.0, 0.5),
)

# Phi edge values: both infinities, NaN, beyond the saturation of Phi,
# both signed zeros and the smallest subnormal.
_PHI_EDGES = np.array(
    [-np.inf, np.inf, np.nan, -40.0, 40.0, -0.0, 0.0, 5e-324]
)


def _reference_h(target, x):
    """Reference ``h`` with Phi from ``scipy.stats.norm.cdf``."""
    u = np.clip(stats.norm.cdf(x), 1e-300, float(np.nextafter(1, 0)))
    return target.ppf(u)


def _frozen_gamma_h(shape, scale, x):
    """Reference Gamma ``h``: the frozen ``scipy.stats`` round trip."""
    u = np.clip(stats.norm.cdf(x), 1e-300, float(np.nextafter(1, 0)))
    return stats.gamma(shape, scale=scale).ppf(u)


def _exact_gamma_h(shape, scale, x):
    """The exact Gamma ``h`` the table is built from (and falls back to
    outside its grid): ``gammaincinv(shape, clip(Phi(x))) * scale`` for
    ``x < 0`` and ``gammainccinv(shape, max(Phi(-x), 1e-300)) * scale``
    for ``x >= 0``."""
    x = np.asarray(x, dtype=float)
    u = np.clip(special.ndtr(x), 1e-300, float(np.nextafter(1, 0)))
    q = np.maximum(special.ndtr(-x), 1e-300)
    with np.errstate(invalid="ignore"):
        upper = special.gammainccinv(shape, q)
    return np.where(x >= 0, upper, special.gammaincinv(shape, u)) * scale


def _reference_inverse(target, y):
    """Reference ``h^{-1}`` with Phi^{-1} from ``scipy.stats.norm.ppf``."""
    return stats.norm.ppf(target.cdf(y))


def _assert_same_outcome(actual, reference, arg):
    """``actual(arg)`` equals ``reference(arg)`` bit for bit (NaN == NaN),
    or raises ``ValueError`` where the reference does (numpy's quantile
    rejects a NaN level in the exact empirical ppf)."""
    try:
        expected = reference(arg)
    except ValueError:
        with pytest.raises(ValueError):
            actual(arg)
        return
    out = actual(arg)
    assert np.shape(out) == np.shape(arg)
    assert np.array_equal(out, expected, equal_nan=True)


def _shapes(values):
    """The argument shapes ``h`` accepts: scalar, 0-d, (n,) and (m, n)."""
    flat = np.asarray(values, dtype=float).ravel()
    args = [float(v) for v in flat[: _PHI_EDGES.size]]
    args += [np.asarray(v) for v in flat[: _PHI_EDGES.size]]
    args += [flat, flat[: flat.size - flat.size % 8].reshape(-1, 8)]
    return args


class TestMarginalTransform:
    def test_identity_for_standard_normal_target(self):
        tr = MarginalTransform(NormalDistribution(0.0, 1.0))
        x = np.linspace(-3, 3, 50)
        np.testing.assert_allclose(tr(x), x, atol=1e-9)

    def test_monotone(self):
        tr = MarginalTransform(GammaDistribution(2.0, 1.0))
        x = np.linspace(-4, 4, 100)
        y = tr(x)
        assert np.all(np.diff(y) >= 0)

    def test_output_has_target_marginal(self, rng):
        target = GammaDistribution(3.0, 2.0)
        tr = MarginalTransform(target)
        x = rng.standard_normal(100_000)
        y = tr(x)
        assert y.mean() == pytest.approx(target.mean, rel=0.02)
        assert np.quantile(y, 0.9) == pytest.approx(
            float(target.ppf(0.9)), rel=0.02
        )

    def test_inverse_roundtrip(self):
        tr = MarginalTransform(GammaDistribution(2.0, 1.0))
        x = np.linspace(-3, 3, 25)
        np.testing.assert_allclose(tr.inverse(tr(x)), x, atol=1e-7)

    def test_empirical_target(self, rng):
        data = rng.gamma(2.0, 1000.0, size=5000)
        tr = MarginalTransform(EmpiricalDistribution(data, bins=100))
        y = tr(rng.standard_normal(50_000))
        assert y.mean() == pytest.approx(data.mean(), rel=0.05)
        assert y.min() >= data.min() - 1e-9
        assert y.max() <= data.max() + 1e-9

    def test_scalar_dispatch(self):
        tr = MarginalTransform(NormalDistribution(5.0, 2.0))
        assert isinstance(tr(0.0), float)
        assert tr(0.0) == pytest.approx(5.0)

    def test_shape_preserved(self):
        tr = MarginalTransform(GammaDistribution(2.0, 1.0))
        x = np.zeros((3, 4))
        assert tr(x).shape == (3, 4)

    def test_table_matches_call(self):
        tr = MarginalTransform(GammaDistribution(2.0, 1.0))
        grid = np.linspace(-6, 6, 13)
        np.testing.assert_allclose(tr.table(grid), tr(grid))

    def test_rejects_non_distribution(self):
        with pytest.raises(ValidationError):
            MarginalTransform(lambda x: x)

    def test_hurst_preserved_by_transform(self):
        """Numerical check of the Appendix A theorem: Y = h(X) keeps H."""
        from repro.estimators.variance_time import variance_time_estimate
        from repro.processes.fgn import fgn_generate

        h_true = 0.85
        x = fgn_generate(h_true, 1 << 16, random_state=7)
        tr = MarginalTransform(GammaDistribution(2.0, 1.0))
        y = tr(x)
        est = variance_time_estimate(np.asarray(y))
        assert est.hurst == pytest.approx(h_true, abs=0.1)


class TestFastPaths:
    """Closed-form fast paths of the aggregate engine's hot loop."""

    def test_gamma_table_allclose_to_frozen_scipy(self):
        # The Gamma branch reads h from a 2^16-node table, so it matches
        # the frozen scipy.stats round trip to the stated bound, not
        # bit for bit: |h_table - h| <= tol * max(h, E[Y]) with tol =
        # 1e-7 for shape >= 0.05 and 1e-8 for shape >= 1.  The dense
        # grid spans both grid edges; its spacing is not a multiple of
        # the node spacing, so it samples every part of a cell.
        x = np.concatenate([
            np.random.default_rng(3).normal(size=(4, 257)).ravel(),
            np.linspace(-6.0, 6.0, 60_001),
        ])
        for shape in (0.05, 0.1, 0.5, 1.0, 2.0, 6.0, 50.0, 1000.0):
            tol = 1e-8 if shape >= 1.0 else 1e-7
            for scale in (1e-3, 1.0, 1e3):
                tr = MarginalTransform(GammaDistribution(shape, scale))
                reference = _frozen_gamma_h(shape, scale, x)
                error = np.abs(tr(x) - reference)
                bound = tol * np.maximum(reference, shape * scale)
                assert np.all(error <= bound), (shape, scale)

    def test_normal_fast_path_is_affine(self):
        target = NormalDistribution(10.0, 2.5)
        tr = MarginalTransform(target)
        x = np.random.default_rng(5).normal(size=1024)
        np.testing.assert_array_equal(tr(x), 10.0 + 2.5 * x)
        # The affine form is the exact h; the copula roundtrip only
        # agrees to ppf rounding.
        u = np.clip(stats.norm.cdf(x), 1e-300, float(np.nextafter(1, 0)))
        np.testing.assert_allclose(tr(x), target.ppf(u), rtol=1e-12)

    def test_normal_fast_path_survives_extreme_arguments(self):
        # Beyond |x| ~ 8 the copula path saturates at Phi(x) == 1 and
        # needs clipping; the affine path is exact out to any x.
        tr = MarginalTransform(NormalDistribution(0.0, 1.0))
        x = np.array([-40.0, -9.0, 9.0, 40.0])
        np.testing.assert_array_equal(tr(x), x)
        assert np.all(np.isfinite(tr(x)))

    def test_generic_path_still_used_for_empirical(self):
        x = np.concatenate(
            [
                _PHI_EDGES,
                np.linspace(-3, 3, 64),
                np.random.default_rng(13).normal(scale=3.0, size=256),
            ]
        )
        for target in _GENERIC_TARGETS:
            tr = MarginalTransform(target)
            assert tr._fast == "generic"
            for arg in _shapes(x):
                _assert_same_outcome(tr, partial(_reference_h, target), arg)

    def test_inverse_matches_scipy_norm_ppf(self):
        for target in _GENERIC_TARGETS:
            tr = MarginalTransform(target)
            # Outside the support (below the data, at and below zero
            # for the lognormal, above the data) plus foreground draws.
            y = np.concatenate(
                [
                    _PHI_EDGES,
                    [-1.0, _GAMMA_VALUES.min(), _GAMMA_VALUES.max(), 1e3],
                    target.sample(256, np.random.default_rng(17)),
                ]
            )
            for arg in _shapes(y):
                _assert_same_outcome(
                    tr.inverse, partial(_reference_inverse, target), arg
                )

    @pytest.mark.parametrize(
        "case", ["transform", "inverse", "codec-intra", "codec-ibp"]
    )
    def test_phi_skips_scipy_stats_dispatch(self, monkeypatch, case):
        # Phi / Phi^{-1} are the scipy.special ufuncs on the copula
        # paths; scipy.stats.norm's per-call dispatch must stay off them.
        def forbidden(*args, **kwargs):
            raise AssertionError("scipy.stats.norm dispatch on a copula path")

        monkeypatch.setattr(stats.norm, "cdf", forbidden)
        monkeypatch.setattr(stats.norm, "ppf", forbidden)
        tr = MarginalTransform(EmpiricalDistribution(_GAMMA_VALUES))
        if case == "transform":
            assert np.all(np.isfinite(tr(np.linspace(-3, 3, 64))))
        elif case == "inverse":
            assert np.all(np.isfinite(tr.inverse(np.linspace(1.0, 5.0, 64))))
        else:
            config = (
                SyntheticCodecConfig.intraframe_paper_like(num_frames=3000)
                if case == "codec-intra"
                else SyntheticCodecConfig.paper_like(num_frames=3000)
            )
            trace = SyntheticMPEGCodec(config).generate(random_state=1)
            assert trace.sizes.size == 3000

    def test_scalar_inputs_keep_float_semantics(self):
        tr = MarginalTransform(GammaDistribution(2.0, 1.5))
        out = tr(0.3)
        assert isinstance(out, float)
        tr_norm = MarginalTransform(NormalDistribution(1.0, 2.0))
        assert isinstance(tr_norm(0.0), float)
        assert tr_norm(0.0) == pytest.approx(1.0)


class TestGammaTable:
    """The tabulated Gamma transform: exact outside the grid and at its
    nodes, monotone in floating point, built once per transform with
    the same bits on any thread, and off ``gammaincinv`` inside the
    grid."""

    def test_outside_grid_and_nodes_bitwise_exact(self):
        edge = 5.5
        points = np.array([
            np.nextafter(edge, np.inf), np.nextafter(-edge, -np.inf),
            -40.0, 40.0, -np.inf, np.inf, np.nan,
            -0.0, 0.0, 5e-324, -edge, edge, -edge + 11 / 2**16,
        ])
        inside = np.random.default_rng(19).uniform(-5.0, 5.0, 2000)
        for shape, scale in ((0.5, 1e-3), (6.0, 1.0), (50.0, 1e3)):
            tr = MarginalTransform(GammaDistribution(shape, scale))
            exact = _exact_gamma_h(shape, scale, points)
            np.testing.assert_array_equal(tr(points), exact)
            for point, value in zip(points, exact):
                np.testing.assert_array_equal(tr(float(point)), value)
            # Scattered through a block that is mostly inside the grid.
            x = np.concatenate([inside, points, inside])
            np.testing.assert_array_equal(
                tr(x)[inside.size:inside.size + points.size], exact
            )

    def test_every_layout_reads_the_same_bits(self):
        # An engine block is a row view of a wider synthesis buffer;
        # the read slices it in place, and a long 1-D input in pieces.
        tr = MarginalTransform(GammaDistribution(2.0, 1.5))
        wide = 3.0 * np.random.default_rng(31).standard_normal((40, 4096))
        block = wide[:, :2048]
        flat = tr(block.ravel())
        np.testing.assert_array_equal(tr(block).ravel(), flat)
        np.testing.assert_array_equal(tr(block.T).T.ravel(), flat)
        np.testing.assert_array_equal(
            tr(block.reshape(4, 10, 2048)).ravel(), flat
        )
        np.testing.assert_array_equal(
            np.concatenate([tr(flat_x) for flat_x in block]), flat
        )

    def test_monotone_across_nodes_and_edges(self):
        # At y ~ 2e4-1e5 one ulp is ~4e-12 to 1.5e-11, above the 1e-12
        # slack of the property test: the table must not step down
        # even by one ulp, inside a cell or across a node.  The ulp
        # sweeps stop at the grid edges: outside, the exact formula
        # is not monotone one ulp at a time (gammaincinv's own noise,
        # e.g. below x = -5.5), so the edges are crossed in 1e-9 steps.
        tr = MarginalTransform(GammaDistribution(50.0, 1e3))
        step = 11 / 2**16
        ulp = np.spacing(5.5)
        nodes = np.concatenate([
            [0.0],
            -5.5 + step * np.random.default_rng(37).integers(1, 2**16, 40),
        ])
        sweeps = [
            np.linspace(-5.7, 5.7, 400_001),
            -5.5 + ulp * np.arange(65),
            5.5 - ulp * np.arange(65),
            np.linspace(-5.5 - 1e-6, -5.5 + 1e-6, 2001),
            np.linspace(5.5 - 1e-6, 5.5 + 1e-6, 2001),
        ]
        for node in nodes:
            sweeps.append(node + np.arange(-64, 65) * abs(np.spacing(node)))
            sweeps.append(node + np.linspace(-2 * step, 2 * step, 4001))
        x = np.unique(np.concatenate(sweeps))
        y = tr(x)
        assert y.min() > 1e4
        assert np.all(np.diff(y) >= 0.0)

    def test_slopes_never_overshoot_next_node(self):
        # Node ratios of 2-8 make np.diff round; here 15 of the 399 raw
        # slopes carry nodes[i] + slope past nodes[i + 1].
        nodes = np.cumprod(np.random.default_rng(29).uniform(2, 8, 400))
        raw = np.diff(nodes)
        assert np.any(nodes[:-1] + raw > nodes[1:])
        slopes = _monotone_slopes(nodes)
        assert np.all(nodes[:-1] + slopes <= nodes[1:])
        assert np.all((0.0 <= slopes) & (slopes <= raw))
        assert np.all(raw - slopes <= 4 * np.spacing(raw))

    def test_cold_build_bit_identical_across_processes(self):
        # Each engine starts with a cold table; at processes > 1 the
        # first blocks race to build it on pool threads.
        feeds = []
        for processes in (1, 2, 3):
            klass = SourceClass(
                "gamma", correlation=0.8,
                marginal=GammaDistribution(2.0, 1.5), count=12,
            )
            assert klass.transform._table is None
            engine = ShardedAggregateModel(klass, batch_size=2)
            feeds.append(
                engine.generate(64, processes=processes, random_state=5)
            )
        for feed in feeds[1:]:
            np.testing.assert_array_equal(feed.arrivals, feeds[0].arrivals)

    @pytest.mark.parametrize("shape", [0.05, 0.5, 2.0, 6.0, 50.0])
    def test_attenuation_matches_exact_path(self, shape):
        # The order-200 Gauss-Hermite nodes reach |x| ~ 27: most are
        # read from the table, the outer ones take the exact path.
        klass = SourceClass(
            "gamma", correlation=0.8,
            marginal=GammaDistribution(shape, 3.0), count=1,
        )
        exact = analytic_attenuation(partial(_exact_gamma_h, shape, 3.0))
        assert klass.attenuation == pytest.approx(exact, abs=1e-8)

    def test_table_read_skips_gammaincinv(self, monkeypatch):
        # Once built, the table serves every point of the grid; only
        # points outside it reach gammaincinv (x < 0, and NaN) or
        # gammainccinv (x > 0), each one exactly once.
        tr = MarginalTransform(GammaDistribution(6.0, 1.0))
        tr(0.0)
        passed = {"gammaincinv": [], "gammainccinv": []}
        for name in passed:
            def spy(shape, u, _name=name, _inverse=getattr(special, name)):
                passed[_name].append(np.array(u, dtype=float).ravel())
                return _inverse(shape, u)

            monkeypatch.setattr(special, name, spy)
        rng = np.random.default_rng(41)
        x = np.clip(rng.standard_normal((1024, 2048)), -5.5, 5.5)
        tr(x)
        assert passed == {"gammaincinv": [], "gammainccinv": []}
        lower = np.array([-np.inf, -40.0, np.nextafter(-5.5, -np.inf),
                          np.nan])
        upper = np.array([6.0, 8.5, 40.0, np.inf])
        outside = np.concatenate([lower, upper])
        x.flat[rng.choice(x.size, outside.size, replace=False)] = outside
        tr(x)
        np.testing.assert_array_equal(
            np.sort(np.concatenate(passed["gammaincinv"])),
            np.sort(np.clip(
                special.ndtr(lower), 1e-300, float(np.nextafter(1, 0))
            )),
        )
        np.testing.assert_array_equal(
            np.sort(np.concatenate(passed["gammainccinv"])),
            np.sort(np.maximum(special.ndtr(-upper), 1e-300)),
        )

    @pytest.mark.parametrize("shape", [0.5, 6.0, 50.0])
    def test_upper_tail_strictly_increasing(self, shape):
        # Past the grid, 1 - Phi(x) cancels: a formula on Phi(x) turns
        # into a staircase from x ~ 7.5 and is constant from x ~ 8.16,
        # where Phi(x) rounds to 1 - 2^-53.  The upper tail Phi(-x)
        # keeps h strictly increasing there.
        tr = MarginalTransform(GammaDistribution(shape, 1.0))
        y = tr(np.linspace(7.5, 9.0, 151))
        assert np.all(np.diff(y) > 0.0)
