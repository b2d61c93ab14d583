"""Frequency histograms (Fig. 1 and Fig. 12 of the paper).

The paper presents marginal distributions as *relative frequency*
histograms of bytes/frame.  :class:`Histogram` is a small immutable
container with the bin edges, counts, and relative frequencies, plus
helpers to evaluate overlap between two histograms (used by tests and
the Fig. 12 bench to quantify model/trace agreement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .._validation import check_1d_array, check_positive_int
from ..exceptions import ValidationError

__all__ = ["Histogram", "frequency_histogram"]


@dataclass(frozen=True)
class Histogram:
    """A frequency histogram over fixed bins.

    Attributes
    ----------
    edges:
        Bin edges of length ``len(counts) + 1``.
    counts:
        Number of samples in each bin.
    """

    edges: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        edges = np.asarray(self.edges, dtype=float)
        counts = np.asarray(self.counts, dtype=float)
        if edges.ndim != 1 or counts.ndim != 1:
            raise ValidationError("edges and counts must be one-dimensional")
        if edges.size != counts.size + 1:
            raise ValidationError(
                "edges must have exactly one more entry than counts"
            )
        if np.any(np.diff(edges) <= 0):
            raise ValidationError("edges must be strictly increasing")
        if np.any(counts < 0):
            raise ValidationError("counts must be non-negative")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> float:
        """Total number of samples in the histogram."""
        return float(self.counts.sum())

    @property
    def centers(self) -> np.ndarray:
        """Bin mid-points."""
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def widths(self) -> np.ndarray:
        """Bin widths."""
        return np.diff(self.edges)

    @property
    def frequencies(self) -> np.ndarray:
        """Relative frequency per bin (sums to 1 for non-empty data)."""
        total = self.total
        if total == 0:
            return np.zeros_like(self.counts)
        return self.counts / total

    @property
    def density(self) -> np.ndarray:
        """Probability density per bin (integrates to 1)."""
        total = self.total
        if total == 0:
            return np.zeros_like(self.counts)
        return self.counts / (total * self.widths)

    def overlap(self, other: "Histogram") -> float:
        """Return the histogram-intersection similarity in [0, 1].

        Both histograms must share identical bin edges.  A value of 1
        means identical relative frequencies.
        """
        if self.edges.shape != other.edges.shape or not np.allclose(
            self.edges, other.edges
        ):
            raise ValidationError(
                "histograms must share identical bin edges for overlap"
            )
        return float(np.minimum(self.frequencies, other.frequencies).sum())

    def mode_center(self) -> float:
        """Return the center of the most populated bin."""
        if self.total == 0:
            raise ValidationError("cannot take the mode of an empty histogram")
        return float(self.centers[int(np.argmax(self.counts))])


#: Fewest float spacings, at the data's scale, that one equal-width bin
#: may span.  numpy cannot place bin edges closer than a few spacings
#: apart, and a piecewise-linear CDF over narrower bins inverts no better
#: than about ``1 / (2 * _MIN_SPACINGS_PER_BIN)`` in probability.
_MIN_SPACINGS_PER_BIN = 2**20


def _resolvable_range(
    low: float, high: float, bins: int
) -> Optional[Tuple[float, float]]:
    """A deterministic widening of a degenerate ``[low, high]``, or None.

    A bin must span ``_MIN_SPACINGS_PER_BIN`` float spacings at the
    data's scale, and at least the smallest normal float: below it the
    slope of a CDF segment, mass over width, overflows.  A range too
    narrow for ``bins`` such bins (zero included) is replaced by the
    narrowest wide enough, centred on it; any other range is kept
    (None).
    """
    scale = max(abs(low), abs(high))
    width = bins * max(
        _MIN_SPACINGS_PER_BIN * np.spacing(scale), np.finfo(float).tiny
    )
    if high - low >= width:
        return None
    middle = low + (high - low) / 2
    return (middle - width / 2, middle + width / 2)


def frequency_histogram(
    values: Sequence[float],
    *,
    bins: int = 50,
    edges: Optional[Sequence[float]] = None,
    value_range: Optional[Tuple[float, float]] = None,
) -> Histogram:
    """Build a :class:`Histogram` from raw samples.

    Parameters
    ----------
    values:
        Sample values (e.g. bytes per frame).
    bins:
        Number of equal-width bins when ``edges`` is not given.
    edges:
        Explicit bin edges; overrides ``bins``/``value_range``.
    value_range:
        ``(low, high)`` range for equal-width binning; defaults to the
        data range.  A range too narrow to hold ``bins`` bins at float
        resolution (constant data, say) is widened symmetrically to the
        narrowest one that does.
    """
    arr = check_1d_array(values, "values")
    if edges is not None:
        edge_arr = check_1d_array(edges, "edges")
        if edge_arr.size < 2 or np.any(np.diff(edge_arr) <= 0):
            raise ValidationError(
                "edges must hold at least two strictly increasing values"
            )
        counts, out_edges = np.histogram(arr, bins=edge_arr)
    else:
        bins = check_positive_int(bins, "bins")
        if value_range is None:
            low, high = float(arr.min()), float(arr.max())
        else:
            low, high = (float(v) for v in value_range)
            if not (np.isfinite(low) and np.isfinite(high) and low <= high):
                raise ValidationError(
                    "value_range must be a finite (low, high) with "
                    f"low <= high, got {value_range!r}"
                )
        value_range = _resolvable_range(low, high, bins) or value_range
        counts, out_edges = np.histogram(arr, bins=bins, range=value_range)
    return Histogram(edges=out_edges, counts=counts.astype(float))
