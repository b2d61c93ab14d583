"""Shared fixtures for the test suite.

Expensive artifacts (synthetic traces, fitted models) are session-scoped
so the suite stays fast while many test modules can exercise them.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import settings

from repro.core import CompositeMPEGModel, UnifiedVBRModel
from repro.processes.coeff_table import (
    _set_coefficient_cache_limits,
    clear_coefficient_cache,
    coefficient_cache_info,
)
from repro.processes.spectral_cache import (
    _set_spectral_cache_limits,
    clear_spectral_cache,
    spectral_cache_info,
)
from repro.video import SyntheticCodecConfig, SyntheticMPEGCodec

# Every run draws the same Hypothesis examples: the seed derives from
# each test, and no example database carries failures between runs.
# The test modules' own ``settings(...)`` objects inherit this profile,
# since it is loaded before they are imported.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def pytest_addoption(parser):
    """``--seed-offset K`` shifts every seed matrix in the statistical
    harness by ``K`` (see ``make test-stats-matrix``).

    The statistical tests pin seed families so CI is deterministic; the
    offset reruns the same designs on neighbouring families, which is
    how tolerance retunings prove they were not fitted to one lucky
    draw.
    """
    parser.addoption(
        "--seed-offset",
        action="store",
        type=int,
        default=0,
        help="shift statistical-test seed matrices by this amount",
    )


@pytest.fixture(scope="session")
def seed_offset(request):
    """The ``--seed-offset`` value (0 in a plain run)."""
    return int(request.config.getoption("--seed-offset"))


@pytest.fixture(scope="session")
def rng():
    """A deterministic generator for ad-hoc sampling in tests."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def intra_trace():
    """A medium-length intraframe-only synthetic trace (Figs. 1-8 style)."""
    config = SyntheticCodecConfig.intraframe_paper_like(num_frames=60_000)
    return SyntheticMPEGCodec(config).generate(random_state=101)


@pytest.fixture(scope="session")
def ibp_trace():
    """A medium-length interframe (I/B/P) synthetic trace (§3.3 style)."""
    config = SyntheticCodecConfig.paper_like(num_frames=60_000)
    return SyntheticMPEGCodec(config).generate(random_state=202)


@pytest.fixture(scope="session")
def fitted_unified(intra_trace):
    """A unified model fitted to the intraframe trace.

    Uses the hermite-inverse background (the library's strongest
    calibration); the paper's compensated method is tested separately.
    """
    return UnifiedVBRModel(
        max_lag=300, background_method="hermite-inverse"
    ).fit(intra_trace, random_state=303)


def pooled_generation(model, *, paths=192, length=800, seed=0):
    """Pool many short independent foreground paths.

    A single path of a strongly LRD process wanders too much at low
    frequencies for stable marginal comparisons — each path contributes
    roughly *one* effective observation of the low-frequency mode — so
    the ensemble marginal is recovered by pooling many short paths
    rather than one long one.
    """
    out = model.generate(
        length, size=paths, backend="davies-harte", random_state=seed
    )
    return np.asarray(out).ravel()


@pytest.fixture(scope="session")
def fitted_composite(ibp_trace):
    """A composite MPEG model fitted to the interframe trace."""
    return CompositeMPEGModel(max_lag_i=30).fit(ibp_trace, random_state=404)


@contextmanager
def coefficient_cache_cap(horizon: int):
    """Lower the coefficient cache's horizon cap inside the block.

    ``hosking_generate`` reads the shared table for a horizon up to the
    cap and runs the Durbin-Levinson recursion in step above it, so a
    lowered cap lets a short path drive the in-step source.  The cache
    is emptied on entry and exit, and the previous cap is restored.
    """
    previous = coefficient_cache_info().max_cached_horizon
    clear_coefficient_cache()
    _set_coefficient_cache_limits(max_cached_horizon=horizon)
    try:
        yield
    finally:
        _set_coefficient_cache_limits(max_cached_horizon=previous)
        clear_coefficient_cache()


@contextmanager
def spectral_cache_cap(length: int):
    """Lower the spectral cache's path-length cap inside the block.

    ``davies_harte_generate`` reads its spectrum from the shared cache
    for a path up to the cap and from an uncached table built for the
    call above it, so a lowered cap lets a short path drive the
    uncached source.  The cache is emptied on entry and exit, and the
    previous cap is restored.
    """
    previous = spectral_cache_info().max_cached_length
    clear_spectral_cache()
    _set_spectral_cache_limits(max_cached_length=length)
    try:
        yield
    finally:
        _set_spectral_cache_limits(max_cached_length=previous)
        clear_spectral_cache()
