"""Tests for scene-change detection."""

import numpy as np
import pytest

from repro.exceptions import EstimationError, ValidationError
from repro.processes import plan_chunks
from repro.video.scenes import detect_scene_changes


def step_series(levels, segment=100, noise=0.02, seed=0):
    """Piecewise-constant levels with small multiplicative noise."""
    rng = np.random.default_rng(seed)
    parts = [
        level * (1.0 + noise * rng.standard_normal(segment))
        for level in levels
    ]
    return np.concatenate(parts)


class TestDetectSceneChanges:
    def test_clean_steps_detected(self):
        x = step_series([1000.0, 3000.0, 800.0])
        cuts = detect_scene_changes(x, threshold=0.5, window=10)
        assert cuts.size == 2
        # Cuts land near the true boundaries (100 and 200).
        assert abs(cuts[0] - 100) <= 10
        assert abs(cuts[1] - 200) <= 10

    def test_no_cuts_in_stationary_noise(self):
        rng = np.random.default_rng(1)
        x = 1000.0 * (1.0 + 0.05 * rng.standard_normal(2000))
        cuts = detect_scene_changes(x, threshold=0.5)
        assert cuts.size == 0

    def test_min_gap_debounces(self):
        x = step_series([1000.0, 5000.0], segment=50)
        many = detect_scene_changes(x, threshold=0.5, window=10,
                                    min_gap=1)
        debounced = detect_scene_changes(x, threshold=0.5, window=10,
                                         min_gap=40)
        assert debounced.size <= many.size
        assert debounced.size == 1

    def test_short_series_returns_empty(self):
        cuts = detect_scene_changes(np.ones(10) * 5, window=12)
        assert cuts.size == 0

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValidationError):
            detect_scene_changes(np.ones(100), threshold=0.0)


class TestSceneStatistics:
    def test_detected_cuts_drive_chunk_planning(self):
        # End-to-end with the chunked pipeline: detected scene cuts
        # feed plan_chunks as candidate boundaries, so every interior
        # chunk edge is an actual scene change.
        x = step_series([1000.0, 3000.0, 800.0, 2500.0, 1500.0])
        cuts = detect_scene_changes(x, threshold=0.5, window=10)
        assert cuts.size >= 3
        plan = plan_chunks(
            x.size, 120, boundaries=cuts, min_chunk=40
        )
        interior = plan.edges[1:-1]
        assert interior.size > 0
        assert set(interior) <= set(int(c) for c in cuts)
        # The plan still covers the series exactly once.
        assert plan.edges[0] == 0
        assert plan.edges[-1] == x.size
        np.testing.assert_array_equal(
            np.diff(plan.edges),
            [chunk.length for chunk in plan.chunks],
        )

    def test_codec_scene_scale_recovered(self, intra_trace):
        """On the synthetic codec (true scene process: Pareto lengths,
        min 30, capped at 900) the detector's mean scene length lands
        in the right order of magnitude."""
        sizes = intra_trace.sizes[:30_000]
        cuts = detect_scene_changes(sizes, threshold=0.6)
        lengths = np.diff(np.concatenate([[0], cuts, [sizes.size]]))
        assert 30 <= lengths.mean() <= 300
        assert lengths.max() <= 3000
