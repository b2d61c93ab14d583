"""Tests for MixtureCorrelation and golden-section twist refinement."""

import numpy as np
import pytest

from repro.exceptions import SimulationError, ValidationError
from repro.processes.correlation import (
    ExponentialCorrelation,
    FGNCorrelation,
    MixtureCorrelation,
    WhiteNoiseCorrelation,
)
from repro.processes.partial_corr import validate_acvf_pd
from repro.simulation.twist_search import refine_twisted_mean


class TestMixtureCorrelation:
    def test_weighted_average(self):
        mix = MixtureCorrelation(
            [ExponentialCorrelation(0.1), WhiteNoiseCorrelation()],
            [3.0, 1.0],
        )
        k = 5.0
        expected = 0.75 * np.exp(-0.5)
        assert mix(k) == pytest.approx(expected)

    def test_head_is_one(self):
        mix = MixtureCorrelation(
            [FGNCorrelation(0.8), ExponentialCorrelation(0.2)],
            [1.0, 1.0],
        )
        assert mix(0) == 1.0

    def test_pd_preserved(self):
        mix = MixtureCorrelation(
            [FGNCorrelation(0.9), ExponentialCorrelation(0.05),
             WhiteNoiseCorrelation()],
            [0.5, 0.4, 0.1],
        )
        assert validate_acvf_pd(mix.acvf(200))

    def test_hurst_is_max_component(self):
        mix = MixtureCorrelation(
            [FGNCorrelation(0.7), FGNCorrelation(0.9)], [1.0, 1.0]
        )
        assert mix.hurst == 0.9

    def test_hurst_none_for_srd_only(self):
        mix = MixtureCorrelation(
            [ExponentialCorrelation(0.1), WhiteNoiseCorrelation()],
            [1.0, 1.0],
        )
        assert mix.hurst is None

    def test_superposition_law(self, rng):
        """The mixture equals the sample correlation of superposed
        independent processes with matching variances."""
        from repro.processes.davies_harte import davies_harte_generate
        from repro.estimators.acf import sample_acf

        c1, c2 = FGNCorrelation(0.85), ExponentialCorrelation(0.3)
        v1, v2 = 2.0, 1.0
        n = 1 << 15
        x1 = davies_harte_generate(c1, n, random_state=1) * np.sqrt(v1)
        x2 = davies_harte_generate(c2, n, random_state=2) * np.sqrt(v2)
        combined_acf = sample_acf(x1 + x2, 20, mean=0.0)
        mix = MixtureCorrelation([c1, c2], [v1, v2])
        for k in (1, 5, 20):
            assert combined_acf[k] == pytest.approx(
                float(mix(k)), abs=0.05
            )

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            MixtureCorrelation([], [])

    def test_rejects_weight_mismatch(self):
        with pytest.raises(ValidationError):
            MixtureCorrelation([WhiteNoiseCorrelation()], [1.0, 2.0])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValidationError):
            MixtureCorrelation(
                [WhiteNoiseCorrelation(), WhiteNoiseCorrelation()],
                [1.0, 0.0],
            )

    def test_rejects_non_model_component(self):
        with pytest.raises(ValidationError):
            MixtureCorrelation(["nope"], [1.0])


class TestRefineTwistedMean:
    def _refine(self, bracket=(0.5, 3.5), iterations=5):
        return refine_twisted_mean(
            ExponentialCorrelation(0.3),
            lambda x: x + 2.0,
            service_rate=3.5,
            buffer_size=8.0,
            horizon=80,
            bracket=bracket,
            replications=800,
            iterations=iterations,
            random_state=11,
        )

    def test_probes_inside_bracket(self):
        result = self._refine()
        assert np.all(result.twist_values >= 0.5)
        assert np.all(result.twist_values <= 3.5)
        assert len(result.estimates) == 6  # 2 initial + 4 refinements

    def test_best_twist_beats_bracket_edges(self):
        result = self._refine()
        # The refined point's normalized variance is no worse than a
        # direct probe at the bracket edges.
        from repro.simulation.importance import is_overflow_probability

        edge = is_overflow_probability(
            ExponentialCorrelation(0.3),
            lambda x: x + 2.0,
            service_rate=3.5,
            buffer_size=8.0,
            horizon=80,
            twisted_mean=0.5,
            replications=800,
            random_state=12,
        )
        assert (
            result.best_estimate.normalized_variance
            <= edge.normalized_variance * 1.5
        )

    def test_rejects_bad_bracket(self):
        with pytest.raises(SimulationError):
            self._refine(bracket=(2.0, 1.0))

    @pytest.mark.parametrize("bracket", [(0.0, np.inf), (np.nan, 1.0)])
    def test_rejects_non_finite_bracket(self, bracket):
        with pytest.raises(ValidationError, match="bracket"):
            self._refine(bracket=bracket)
