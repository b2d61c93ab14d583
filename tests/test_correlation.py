"""Tests for the correlation-model hierarchy."""

import numpy as np
import pytest

from repro.exceptions import CorrelationError, ValidationError
from repro.processes.correlation import (
    CompositeCorrelation,
    ExponentialCorrelation,
    ExponentialMixtureCorrelation,
    FARIMACorrelation,
    FGNCorrelation,
    PowerLawCorrelation,
    RescaledCorrelation,
    WhiteNoiseCorrelation,
)
from repro.processes.partial_corr import validate_acvf_pd


class TestBaseBehaviour:
    def test_lag_zero_is_one(self):
        for model in (
            FGNCorrelation(0.8),
            ExponentialCorrelation(0.1),
            WhiteNoiseCorrelation(),
        ):
            assert model(0) == 1.0

    def test_symmetry(self):
        model = FGNCorrelation(0.7)
        assert model(-5) == model(5)

    def test_scalar_and_array_dispatch(self):
        model = ExponentialCorrelation(0.2)
        scalar = model(3)
        array = model([3])
        assert isinstance(scalar, float)
        assert isinstance(array, np.ndarray)
        assert scalar == pytest.approx(array[0])

    def test_acvf_length_and_head(self):
        acvf = FGNCorrelation(0.6).acvf(10)
        assert acvf.shape == (10,)
        assert acvf[0] == 1.0

    def test_rejects_2d_lags(self):
        with pytest.raises(ValidationError):
            FGNCorrelation(0.6)(np.zeros((2, 2)))


class TestWhiteNoise:
    def test_zero_off_diagonal(self):
        model = WhiteNoiseCorrelation()
        np.testing.assert_array_equal(model([1, 2, 3]), [0.0, 0.0, 0.0])


class TestFGN:
    def test_known_lag1_value(self):
        # r(1) = 2^{2H-1} - 1.
        h = 0.75
        assert FGNCorrelation(h)(1) == pytest.approx(2 ** (2 * h - 1) - 1)

    def test_h_half_is_white_noise(self):
        model = FGNCorrelation(0.5)
        np.testing.assert_allclose(model([1, 2, 5]), 0.0, atol=1e-12)

    def test_negative_correlations_for_small_h(self):
        assert FGNCorrelation(0.3)(1) < 0

    def test_tail_asymptotics(self):
        # r(k) ~ H(2H-1) k^{2H-2}.
        h = 0.9
        model = FGNCorrelation(h)
        k = 1000.0
        expected = h * (2 * h - 1) * k ** (2 * h - 2)
        assert model(k) == pytest.approx(expected, rel=1e-3)

    def test_hurst_property(self):
        assert FGNCorrelation(0.85).hurst == 0.85

    def test_invalid_hurst(self):
        with pytest.raises(ValidationError):
            FGNCorrelation(1.2)

    def test_positive_definite(self):
        assert validate_acvf_pd(FGNCorrelation(0.95).acvf(200))


class TestExponential:
    def test_decay(self):
        model = ExponentialCorrelation(0.5)
        assert model(2) == pytest.approx(np.exp(-1.0))

    def test_no_hurst(self):
        assert ExponentialCorrelation(0.1).hurst is None

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValidationError):
            ExponentialCorrelation(0.0)


class TestExponentialMixture:
    def test_matches_weighted_sum(self):
        model = ExponentialMixtureCorrelation([0.3, 0.7], [0.1, 1.0])
        k = 2.0
        expected = 0.3 * np.exp(-0.2) + 0.7 * np.exp(-2.0)
        assert model(k) == pytest.approx(expected)

    def test_rejects_weights_not_summing_to_one(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            ExponentialMixtureCorrelation([0.5, 0.4], [0.1, 0.2])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValidationError, match="same length"):
            ExponentialMixtureCorrelation([1.0], [0.1, 0.2])

    def test_rejects_negative_weight(self):
        with pytest.raises(ValidationError):
            ExponentialMixtureCorrelation([-0.5, 1.5], [0.1, 0.2])


class TestPowerLaw:
    def test_values(self):
        model = PowerLawCorrelation(0.8, 0.5)
        assert model(4) == pytest.approx(0.8 / 2.0)

    def test_hurst_from_exponent(self):
        assert PowerLawCorrelation(0.5, 0.2).hurst == pytest.approx(0.9)

    def test_no_hurst_for_summable_tail(self):
        assert PowerLawCorrelation(0.5, 1.5).hurst is None

    def test_caps_at_one_for_tiny_lags(self):
        model = PowerLawCorrelation(0.9, 0.5)
        assert model(0.01) <= 1.0


class TestComposite:
    def test_paper_fit_matches_eq13(self):
        model = CompositeCorrelation.paper_fit()
        assert model(30) == pytest.approx(np.exp(-0.00565 * 30))
        assert model(100) == pytest.approx(1.59468 * 100 ** (-0.2))

    def test_paper_fit_not_pd_raw(self):
        # The printed eq. 13 constants violate eq. 12; the raw piecewise
        # function fails positive definiteness just past the knee.
        model = CompositeCorrelation.paper_fit()
        assert not validate_acvf_pd(model.acvf(100))

    def test_with_continuity_closes_gap_and_is_pd(self):
        model = CompositeCorrelation.paper_fit().with_continuity()
        assert model.continuity_gap == pytest.approx(0.0, abs=1e-12)
        assert validate_acvf_pd(model.acvf(500))

    def test_hurst(self):
        assert CompositeCorrelation.paper_fit().hurst == pytest.approx(0.9)

    def test_compensated_tail_scaling(self):
        base = CompositeCorrelation.paper_fit()
        comp = base.compensated(0.94)
        assert comp.lrd_amplitude == pytest.approx(1.59468 / 0.94)
        # eq. 14: the head meets r_hat(Kt)/a at the knee.
        target = base(60.0) / 0.94 if 60.0 >= base.knee else None
        assert comp(60.0) == pytest.approx(base(60.0) / 0.94, rel=1e-9)

    def test_compensated_is_pd(self):
        comp = CompositeCorrelation.paper_fit().compensated(0.94)
        assert validate_acvf_pd(comp.acvf(500))

    def test_compensated_rejects_bad_attenuation(self):
        with pytest.raises(ValidationError):
            CompositeCorrelation.paper_fit().compensated(0.0)

    def test_compensated_rejects_too_strong_attenuation(self):
        with pytest.raises(CorrelationError):
            CompositeCorrelation.paper_fit().compensated(0.1)

    def test_srd_only(self):
        model = CompositeCorrelation.paper_fit()
        srd = model.srd_only()
        assert isinstance(srd, ExponentialMixtureCorrelation)
        assert srd(10) == pytest.approx(np.exp(-0.0565))

    def test_nugget_drops_head(self):
        model = CompositeCorrelation(
            srd_weights=[1.0],
            srd_rates=[0.01],
            lrd_amplitude=0.5,
            lrd_exponent=0.2,
            knee=60.0,
            nugget=0.2,
        )
        assert model(0) == 1.0
        assert model(1) == pytest.approx(0.8 * np.exp(-0.01))
        # Tail is unaffected by the nugget.
        assert model(100) == pytest.approx(0.5 * 100 ** (-0.2))

    def test_nugget_model_is_pd(self):
        model = CompositeCorrelation(
            srd_weights=[1.0],
            srd_rates=[0.005],
            lrd_amplitude=0.7,
            lrd_exponent=0.2,
            knee=60.0,
            nugget=0.1,
        ).with_continuity()
        assert validate_acvf_pd(model.acvf(300))

    def test_rejects_tail_above_one_at_knee(self):
        with pytest.raises(ValidationError, match="exceeds 1"):
            CompositeCorrelation(
                srd_weights=[1.0],
                srd_rates=[0.01],
                lrd_amplitude=3.0,
                lrd_exponent=0.1,
                knee=2.0,
            )


class TestFARIMA:
    def test_known_recursion(self):
        # r(k)/r(k-1) = (k - 1 + d) / (k - d).
        d = 0.3
        model = FARIMACorrelation(d)
        for k in (1, 2, 5, 10):
            ratio = model(k) / model(k - 1) if k > 1 else model(1)
            expected = (k - 1 + d) / (k - d)
            if k > 1:
                assert ratio == pytest.approx(expected, rel=1e-9)
        assert model(1) == pytest.approx(d / (1 - d))

    def test_hurst(self):
        assert FARIMACorrelation(0.4).hurst == pytest.approx(0.9)

    def test_from_hurst(self):
        assert FARIMACorrelation.from_hurst(0.8).d == pytest.approx(0.3)

    def test_from_hurst_rejects_srd(self):
        with pytest.raises(ValidationError):
            FARIMACorrelation.from_hurst(0.4)

    def test_rejects_d_out_of_range(self):
        with pytest.raises(ValidationError):
            FARIMACorrelation(0.5)

    def test_positive_definite(self):
        assert validate_acvf_pd(FARIMACorrelation(0.45).acvf(200))

    def test_non_integer_lags_monotone(self):
        model = FARIMACorrelation(0.3)
        values = model(np.array([1.0, 1.5, 2.0]))
        assert values[0] > values[1] > values[2]


class TestRescaled:
    def test_eq15_rescaling(self):
        base = ExponentialCorrelation(0.12)
        rescaled = RescaledCorrelation(base, 12.0)
        assert rescaled(12) == pytest.approx(base(1))
        assert rescaled(6) == pytest.approx(base(0.5))

    def test_hurst_passthrough(self):
        assert RescaledCorrelation(FGNCorrelation(0.9), 12).hurst == 0.9

    def test_rejects_non_model_base(self):
        with pytest.raises(ValidationError):
            RescaledCorrelation("not a model", 12)
