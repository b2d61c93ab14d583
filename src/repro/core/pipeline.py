"""Fit reporting and end-to-end convenience helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..exceptions import NotFittedError
from .unified import UnifiedVBRModel

__all__ = ["ModelFitReport", "fit_report"]


@dataclass(frozen=True)
class ModelFitReport:
    """A printable summary of a fitted unified model.

    Attributes mirror the quantities the paper reports in §3.2:
    the two Hurst estimates, the adopted value, the composite ACF fit
    parameters (eq. 13), and the attenuation factor (Step 3).
    """

    hurst_variance_time: float
    hurst_rs: float
    hurst: float
    knee: int
    srd_rates: tuple
    srd_weights: tuple
    lrd_amplitude: float
    lrd_exponent: float
    nugget: float
    acf_rmse: float
    attenuation: float
    background_srd_rate: float
    background_lrd_amplitude: float
    marginal_mean: float
    marginal_std: float

    def rows(self) -> Dict[str, str]:
        """Rows for tabular printing."""
        return {
            "Hurst (variance-time)": f"{self.hurst_variance_time:.4f}",
            "Hurst (R/S)": f"{self.hurst_rs:.4f}",
            "Hurst (adopted)": f"{self.hurst:.4f}",
            "Knee lag Kt": str(self.knee),
            "SRD rates": ", ".join(f"{r:.5f}" for r in self.srd_rates),
            "SRD weights": ", ".join(f"{w:.3f}" for w in self.srd_weights),
            "LRD amplitude L": f"{self.lrd_amplitude:.4f}",
            "LRD exponent gamma": f"{self.lrd_exponent:.4f}",
            "Nugget (lag-0 noise mass)": f"{self.nugget:.4f}",
            "ACF fit RMSE": f"{self.acf_rmse:.4f}",
            "Attenuation a": f"{self.attenuation:.4f}",
            "Background SRD rate": f"{self.background_srd_rate:.5f}",
            "Background LRD amplitude": f"{self.background_lrd_amplitude:.4f}",
            "Marginal mean (bytes/frame)": f"{self.marginal_mean:.1f}",
            "Marginal std (bytes/frame)": f"{self.marginal_std:.1f}",
        }

    def __str__(self) -> str:
        width = max(len(k) for k in self.rows())
        return "\n".join(
            f"{key.ljust(width)}  {value}"
            for key, value in self.rows().items()
        )


def fit_report(model: UnifiedVBRModel) -> ModelFitReport:
    """Build a :class:`ModelFitReport` from a fitted unified model."""
    if model.background_ is None:
        raise NotFittedError("fit the model before requesting a report")
    fitted = model.acf_fit_.model
    background = model.background_
    return ModelFitReport(
        hurst_variance_time=model.variance_time_.hurst,
        hurst_rs=model.rs_.hurst,
        hurst=model.hurst,
        knee=model.acf_fit_.knee,
        srd_rates=tuple(float(r) for r in fitted.srd.rates),
        srd_weights=tuple(float(w) for w in fitted.srd.weights),
        lrd_amplitude=fitted.lrd_amplitude,
        lrd_exponent=fitted.lrd_exponent,
        nugget=fitted.nugget,
        acf_rmse=model.acf_fit_.rmse,
        attenuation=model.attenuation,
        background_srd_rate=float(background.srd.rates[0]),
        background_lrd_amplitude=background.lrd_amplitude,
        marginal_mean=model.marginal_.mean,
        marginal_std=float(model.marginal_.variance**0.5),
    )
