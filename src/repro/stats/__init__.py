"""Shared numeric and statistical utilities.

This subpackage holds the small, generic building blocks used throughout
the library: frequency histograms (Fig. 1, 12 of the paper), Q-Q
computations (Fig. 13), series aggregation (variance-time analysis), and
seeded random-generator helpers.
"""

from .aggregate import aggregation_levels
from .asciiplot import ascii_plot
from .histogram import Histogram, frequency_histogram
from .qq import qq_points, quantiles
from .random import make_rng, spawn_rngs
from .summary import SeriesSummary, summarize

__all__ = [
    "ascii_plot",
    "Histogram",
    "frequency_histogram",
    "qq_points",
    "quantiles",
    "aggregation_levels",
    "make_rng",
    "spawn_rngs",
    "SeriesSummary",
    "summarize",
]
