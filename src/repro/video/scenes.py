"""Scene-change detection and scene-length statistics.

The autocorrelation "knee" the paper fits (eq. 10-13) has a physical
origin: scene changes.  Within a scene, frame sizes are highly
correlated; across a cut they decorrelate, so the SRD decay rate
reflects the scene-length scale.  This module detects cuts from the
frame-size series (a large relative jump against a local baseline) —
analysis that lets a user check whether a fitted knee is consistent
with the editing rhythm of their material.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .._validation import (
    check_min_length,
    check_positive_float,
    check_positive_int,
)

__all__ = ["detect_scene_changes"]


def detect_scene_changes(
    sizes,
    *,
    threshold: float = 0.6,
    window: int = 12,
    min_gap: Optional[int] = None,
) -> np.ndarray:
    """Detect scene-change frames from a frame-size series.

    Compares the *median* frame size of the ``window`` frames before
    each candidate frame against the median of the ``window`` frames
    from it onward; a cut is declared where the relative change of the
    medians exceeds ``threshold``.  Medians over whole windows are
    robust against the per-frame coding noise that makes single-frame
    jump detectors fire constantly on high-variance video.  Candidate
    cuts closer than ``min_gap`` (default: ``window``) to the previous
    accepted cut are suppressed, keeping at most one detection per
    transition.

    A cut makes the jump statistic exceed the threshold over a *range*
    of nearby candidates (any window straddling the boundary shifts the
    after-median); detections are therefore grouped into runs separated
    by at least ``min_gap`` quiet frames, and each run reports the
    single candidate with the largest jump.

    Intended for intraframe-coded series (every frame coded alike); on
    I/B/P traces run it on the I-frame subsequence.

    Returns the 0-based indices of detected cuts.
    """
    arr = check_min_length(sizes, "sizes", 4)
    threshold = check_positive_float(threshold, "threshold")
    window = check_positive_int(window, "window")
    if min_gap is None:
        min_gap = window
    min_gap = check_positive_int(min_gap, "min_gap")

    if arr.size < 2 * window + 1:
        return np.asarray([], dtype=int)

    # Rolling medians via a strided window view (O(n w log w), fine for
    # the window sizes scene detection uses).
    from numpy.lib.stride_tricks import sliding_window_view

    windows = sliding_window_view(arr, window)
    medians = np.median(windows, axis=1)
    # For candidate t: before = median(arr[t-window:t]) = medians[t-window],
    # after = median(arr[t:t+window]) = medians[t].
    candidates = np.arange(window, arr.size - window + 1)
    before = medians[candidates - window]
    after = medians[candidates]
    valid = before > 0
    jump = np.zeros(candidates.size)
    jump[valid] = np.abs(after[valid] - before[valid]) / before[valid]

    above = jump > threshold
    if not np.any(above):
        return np.asarray([], dtype=int)
    hot_positions = candidates[above]
    hot_jumps = jump[above]
    # Group consecutive hot candidates (gaps < min_gap) into runs and
    # keep each run's peak.
    cuts = []
    run_start = 0
    for i in range(1, hot_positions.size + 1):
        end_of_run = (
            i == hot_positions.size
            or hot_positions[i] - hot_positions[i - 1] >= min_gap
        )
        if end_of_run:
            segment = slice(run_start, i)
            peak = int(
                hot_positions[segment][np.argmax(hot_jumps[segment])]
            )
            cuts.append(peak)
            run_start = i
    return np.asarray(cuts, dtype=int)

