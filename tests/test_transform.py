"""Tests for the marginal inversion transform (eq. 7)."""

from functools import partial

import numpy as np
import pytest
from scipy import stats

from repro.exceptions import ValidationError
from repro.marginals.empirical import EmpiricalDistribution
from repro.marginals.parametric import (
    GammaDistribution,
    LognormalDistribution,
    NormalDistribution,
)
from repro.marginals.transform import MarginalTransform
from repro.video.synthetic import SyntheticCodecConfig, SyntheticMPEGCodec

_GAMMA_VALUES = np.random.default_rng(11).gamma(3.0, 1.0, size=500)

# Targets that take the generic copula branch: both empirical methods
# and one scipy-backed parametric marginal without a fast path.
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

    def test_gamma_fast_path_bitwise_matches_frozen_scipy(self):
        # The direct gammaincinv(shape, ndtr(x)) * scale ufunc chain
        # must reproduce the frozen-distribution roundtrip bit for bit
        # — this is the pin that lets the engine skip scipy's per-call
        # dispatch without changing any generated feed.
        target = GammaDistribution(4.0, 0.5)
        tr = MarginalTransform(target)
        x = np.random.default_rng(3).normal(size=(4, 257))
        u = np.clip(stats.norm.cdf(x), 1e-300, float(np.nextafter(1, 0)))
        legacy = target.ppf(u)
        np.testing.assert_array_equal(tr(x), legacy)

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
