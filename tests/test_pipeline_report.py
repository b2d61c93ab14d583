"""Tests for the model fit report."""

import pytest

from repro.core.pipeline import fit_report
from repro.core.unified import UnifiedVBRModel
from repro.exceptions import NotFittedError


class TestFitReport:
    def test_requires_fitted_model(self):
        with pytest.raises(NotFittedError):
            fit_report(UnifiedVBRModel())

    def test_fields_populated(self, fitted_unified):
        report = fit_report(fitted_unified)
        assert report.hurst == fitted_unified.hurst
        assert report.knee == fitted_unified.acf_fit_.knee
        assert report.attenuation == fitted_unified.attenuation
        assert report.marginal_mean > 0
        assert 0 <= report.nugget < 1

    def test_rows_and_str(self, fitted_unified):
        report = fit_report(fitted_unified)
        rows = report.rows()
        assert "Hurst (adopted)" in rows
        assert "Attenuation a" in rows
        text = str(report)
        assert "Knee lag Kt" in text
        assert str(report.knee) in text
