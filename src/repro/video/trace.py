"""Video trace container.

A :class:`VideoTrace` couples a frame-size series (bytes per frame)
with its frame-type sequence and frame rate, and provides the views the
modeling pipeline needs: per-type subsequences (for the composite MPEG
model's per-type histograms), aggregate statistics, and cell-arrival
conversion for the queueing experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .._validation import check_1d_array, check_positive_float
from ..exceptions import ValidationError
from ..stats.summary import SeriesSummary, summarize
from .gop import FrameType, GopStructure

__all__ = ["VideoTrace"]


@dataclass(frozen=True)
class VideoTrace:
    """An (empirical or synthetic) VBR video trace.

    Attributes
    ----------
    sizes:
        Bytes per frame.
    frame_rate:
        Frames per second (the paper's trace runs at 30 fps).
    gop:
        The GOP structure; ``None`` for intraframe-only traces (every
        frame coded as I).
    name:
        Human-readable label used in reports.
    """

    sizes: np.ndarray
    frame_rate: float = 30.0
    gop: Optional[GopStructure] = None
    name: str = "trace"

    def __post_init__(self) -> None:
        sizes = check_1d_array(self.sizes, "sizes")
        if np.any(sizes < 0):
            raise ValidationError("frame sizes must be non-negative")
        object.__setattr__(self, "sizes", sizes)
        check_positive_float(self.frame_rate, "frame_rate")
        if self.gop is not None and not isinstance(self.gop, GopStructure):
            raise ValidationError(
                f"gop must be a GopStructure or None, got {self.gop!r}"
            )

    @property
    def num_frames(self) -> int:
        """Number of frames in the trace."""
        return int(self.sizes.size)

    @property
    def duration_seconds(self) -> float:
        """Trace duration in seconds."""
        return self.num_frames / self.frame_rate

    @property
    def mean_rate_bps(self) -> float:
        """Mean bit rate in bits per second."""
        return float(self.sizes.mean()) * 8.0 * self.frame_rate

    @property
    def peak_rate_bps(self) -> float:
        """Peak (single-frame) bit rate in bits per second."""
        return float(self.sizes.max()) * 8.0 * self.frame_rate

    @property
    def frame_types(self) -> np.ndarray:
        """Frame-type characters per frame ('I' everywhere if no GOP)."""
        if self.gop is None:
            return np.full(self.num_frames, "I")
        return self.gop.type_codes(self.num_frames)

    def sizes_of(self, frame_type: FrameType) -> np.ndarray:
        """Frame sizes of one type, in temporal order.

        For an intraframe-only trace, ``FrameType.I`` returns the whole
        series and other types are empty.
        """
        if self.gop is None:
            if frame_type is FrameType.I:
                return self.sizes.copy()
            return np.empty(0, dtype=float)
        mask = self.gop.mask(frame_type, self.num_frames)
        return self.sizes[mask]

    def type_summaries(self) -> Dict[str, SeriesSummary]:
        """Per-frame-type summary statistics."""
        out: Dict[str, SeriesSummary] = {}
        for ft in FrameType:
            values = self.sizes_of(ft)
            if values.size:
                out[ft.value] = summarize(values)
        return out

    def summary(self) -> SeriesSummary:
        """Whole-trace summary statistics."""
        return summarize(self.sizes)

    def cells_per_slot(self, cell_payload_bytes: int = 48) -> np.ndarray:
        """Convert frame sizes into ATM cell counts per frame slot.

        Each frame is segmented into fixed-payload cells (default: the
        48-byte ATM payload), all arriving within the frame's slot —
        the arrival model of the paper's §4 queueing study.
        """
        if cell_payload_bytes <= 0:
            raise ValidationError("cell_payload_bytes must be positive")
        return np.ceil(self.sizes / float(cell_payload_bytes))

    def normalized_sizes(self) -> np.ndarray:
        """Sizes divided by the mean (unit-mean arrival process).

        The paper's queueing figures use the *normalized* buffer size,
        i.e. buffer capacity measured in units of the mean arrival per
        slot; feeding the queue unit-mean arrivals makes buffer sizes
        directly comparable across models.
        """
        mean = float(self.sizes.mean())
        if mean <= 0:
            raise ValidationError("cannot normalize a zero-mean trace")
        return self.sizes / mean

    def slice(self, start: int, stop: int) -> "VideoTrace":
        """Return a sub-trace of frames ``start:stop`` (GOP-aligned only
        when ``start`` is a multiple of the GOP period)."""
        if not 0 <= start < stop <= self.num_frames:
            raise ValidationError(
                f"invalid slice [{start}, {stop}) for {self.num_frames} frames"
            )
        if (
            self.gop is not None
            and start % self.gop.i_period != 0
        ):
            raise ValidationError(
                "slice start must be GOP-aligned (multiple of "
                f"{self.gop.i_period}) to keep frame types consistent"
            )
        return VideoTrace(
            sizes=self.sizes[start:stop],
            frame_rate=self.frame_rate,
            gop=self.gop,
            name=f"{self.name}[{start}:{stop}]",
        )

    def __repr__(self) -> str:
        gop_str = self.gop.pattern_string if self.gop else "intraframe"
        return (
            f"VideoTrace(name={self.name!r}, frames={self.num_frames}, "
            f"fps={self.frame_rate}, gop={gop_str})"
        )
