"""Tests for the composite MPEG I/B/P model (§3.3)."""

import numpy as np
import pytest

from repro.core.composite import CompositeMPEGModel
from repro.exceptions import NotFittedError, ValidationError
from repro.processes.correlation import RescaledCorrelation
from repro.video.gop import FrameType
from repro.video.trace import VideoTrace


class TestFit:
    def test_requires_gop_trace(self, intra_trace):
        with pytest.raises(ValidationError, match="no GOP"):
            CompositeMPEGModel().fit(intra_trace)

    def test_requires_video_trace(self):
        with pytest.raises(ValidationError):
            CompositeMPEGModel().fit(np.ones(1000))

    def test_unfitted_raises(self):
        model = CompositeMPEGModel()
        with pytest.raises(NotFittedError):
            model.generate(100)
        with pytest.raises(NotFittedError):
            _ = model.background_correlation

    def test_fitted_state(self, fitted_composite):
        assert set(fitted_composite.transforms_) == {"I", "P", "B"}
        assert isinstance(
            fitted_composite.background_correlation, RescaledCorrelation
        )
        assert fitted_composite.i_model.background_ is not None

    def test_background_rescaled_by_gop_period(self, fitted_composite):
        bg = fitted_composite.background_correlation
        assert bg.scale == 12
        inner = fitted_composite.i_model.background_correlation
        assert bg(12) == pytest.approx(float(inner(1)))


class TestGenerate:
    def test_output_is_video_trace(self, fitted_composite):
        out = fitted_composite.generate(1200, random_state=1)
        assert isinstance(out, VideoTrace)
        assert out.num_frames == 1200
        assert out.gop.i_period == 12

    def test_per_type_marginals_match(self, fitted_composite, ibp_trace):
        # Pool several short generations: a single LRD path's marginal
        # wanders with its low-frequency excursion.
        outs = [
            fitted_composite.generate(1_200, random_state=2 + i)
            for i in range(40)
        ]
        for ft in FrameType:
            real = ibp_trace.sizes_of(ft)
            model = np.concatenate([o.sizes_of(ft) for o in outs])
            assert model.mean() == pytest.approx(real.mean(), rel=0.08)
            assert np.quantile(model, 0.9) == pytest.approx(
                np.quantile(real, 0.9), rel=0.1
            )

    def test_type_ordering_preserved(self, fitted_composite):
        out = fitted_composite.generate(24_000, random_state=3)
        means = {
            ft.value: out.sizes_of(ft).mean() for ft in FrameType
        }
        assert means["I"] > means["P"] > means["B"]

    def test_acf_periodicity_reproduced(self, fitted_composite, ibp_trace):
        """Figs. 9-11: the composite model reproduces the oscillating
        frame-level ACF including the period-12 GOP structure."""
        from repro.estimators.acf import sample_acf

        out = fitted_composite.generate(60_000, random_state=4)
        emp = sample_acf(ibp_trace.sizes, 60)
        model = sample_acf(out.sizes, 60)
        for lag in (3, 12, 24, 36, 60):
            assert model[lag] == pytest.approx(emp[lag], abs=0.12)

    def test_hosking_method(self, fitted_composite):
        out = fitted_composite.generate(
            600, backend="hosking", random_state=5
        )
        assert out.num_frames == 600

    def test_invalid_method(self, fitted_composite):
        with pytest.raises(ValidationError):
            fitted_composite.generate(100, backend="nope")

    def test_reproducible(self, fitted_composite):
        a = fitted_composite.generate(500, random_state=6)
        b = fitted_composite.generate(500, random_state=6)
        np.testing.assert_array_equal(a.sizes, b.sizes)


class TestRepr:
    def test_unfitted(self):
        assert "unfitted" in repr(CompositeMPEGModel())

    def test_fitted(self, fitted_composite):
        assert "IBBPBBPBBPBB" in repr(fitted_composite)
