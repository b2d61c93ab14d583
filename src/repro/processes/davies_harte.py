"""Davies-Harte (circulant embedding) generation of Gaussian processes.

Hosking's method is exact but O(n^2); generating a trace the length of
the paper's empirical record (238,626 frames) that way is impractical.
The Davies-Harte method embeds the target covariance in a circulant
matrix, diagonalises it with an FFT, and synthesizes exact samples in
O(n log n) — provided the circulant eigenvalues are non-negative, which
holds for fractional Gaussian noise and is checked (with an optional
clipping fallback) for arbitrary correlation models.

This generator is what makes the long synthetic "empirical" trace
substitute feasible; the ablation bench compares it against Hosking.

The spectral decomposition (model ACVF plus circulant eigenvalues) is
shared across calls through :mod:`repro.processes.spectral_cache` —
the unconditional-path counterpart of the Hosking path's coefficient
tables.  It is the only spectrum source: a path longer than the cache's
length cap gets an uncached table built for that call.  Caching is
RNG-neutral: a warm, cold or uncached spectrum draws the same samples
in the same order.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .._validation import (
    check_choice,
    check_finite_float,
    check_min_length,
    check_positive_int,
)
from ..stats.random import RandomState, make_rng
from .correlation import CorrelationModel
from .spectral_cache import (
    apply_eigenvalue_policy,
    circulant_eigenvalues,
    get_spectral_table,
)

__all__ = [
    "davies_harte_generate",
    "circulant_eigenvalues",
    "workspace_stats",
]

# ---------------------------------------------------------------------
# Per-worker noise workspace
# ---------------------------------------------------------------------
# The aggregate engine calls this generator once per (batch, horizon)
# block — hundreds of times per feed with identical geometry — and the
# white-noise buffer is the largest allocation of a call (batch x 2n
# doubles).  One buffer per thread (so one per pool worker), keyed by
# shape and replaced when the geometry changes, removes that churn.
# Reuse is RNG-neutral: ``Generator.standard_normal(out=buf)`` draws
# the same stream, and writes the same bits, as a fresh allocation.

_workspace_tls = threading.local()
_workspace_lock = threading.Lock()
_workspace_stats: Dict[str, int] = {"hits": 0, "builds": 0}


def _noise_buffer(shape: Tuple[int, int]) -> np.ndarray:
    """A per-thread float64 buffer of ``shape``, reused across calls."""
    buffer = getattr(_workspace_tls, "noise", None)
    if buffer is not None and buffer.shape == shape:
        with _workspace_lock:
            _workspace_stats["hits"] += 1
        return buffer
    buffer = np.empty(shape, dtype=float)
    _workspace_tls.noise = buffer
    with _workspace_lock:
        _workspace_stats["builds"] += 1
    return buffer


def workspace_stats() -> Dict[str, int]:
    """Snapshot of this process's workspace reuse counters.

    ``hits`` counts calls served by an existing same-shape buffer,
    ``builds`` counts (re)allocations, summed over every thread.
    """
    with _workspace_lock:
        return dict(_workspace_stats)


def davies_harte_generate(
    correlation: Union[CorrelationModel, Sequence[float]],
    n: int,
    *,
    size: Optional[int] = None,
    mean: float = 0.0,
    random_state: RandomState = None,
    on_negative_eigenvalues: str = "clip",
) -> np.ndarray:
    """Generate Gaussian sample paths via circulant embedding.

    Parameters
    ----------
    correlation:
        Correlation model or explicit autocovariance ``r(0) .. r(n)``
        (at least ``n + 1`` values when given as a sequence).
    n:
        Length of each sample path.
    size:
        Number of replications; ``None`` returns a 1-D array.  Batched
        requests share one FFT pass over all replications and draw the
        exact same streams as ``size`` sequential single-path calls on
        spawned generators would.
    mean:
        Process mean added to the zero-mean output.
    random_state:
        Seed or generator.
    on_negative_eigenvalues:
        ``"clip"`` zeroes negative eigenvalues (warning when they are
        material, reporting the count and total mass clipped),
        ``"raise"`` raises :class:`~repro.exceptions.CorrelationError`.
        FGN embeddings are provably non-negative; fitted composite
        models occasionally produce tiny negative values from
        discretisation.  Clipping is counted in the current run
        context's ``spectral.clipped_eigenvalues`` counter (see
        :func:`repro.observability.recording`).

    Returns
    -------
    numpy.ndarray
        Shape ``(n,)`` or ``(size, n)``.

    Raises
    ------
    repro.exceptions.CorrelationError
        When ``r(0) <= 0``, or when the embedding has negative
        eigenvalues under ``on_negative_eigenvalues="raise"``.

    Notes
    -----
    The synthesis draws white noise ``g`` (one ``standard_normal``
    fill of ``batch x 2n`` values) and filters it by the square roots
    of the ``n + 1`` distinct embedding eigenvalues:
    ``irfft(rfft(g) * sqrt(eig_half))[:, :n]``.  Because ``g`` is real
    and the embedding spectrum is symmetric, this equals the complex
    full-spectrum filter ``ifft(fft(g) * sqrt(eig)).real`` up to
    floating-point rounding (``tests/test_davies_harte.py`` pins the
    agreement at rtol 1e-10) at half the FFT flops and scratch memory.
    """
    n = check_positive_int(n, "n")
    check_choice(
        on_negative_eigenvalues, "on_negative_eigenvalues", ("clip", "raise")
    )
    flat = size is None
    batch = 1 if flat else check_positive_int(size, "size")
    mean = check_finite_float(mean, "mean")

    if not isinstance(correlation, CorrelationModel):
        correlation = check_min_length(correlation, "correlation", n + 1)[
            : n + 1
        ]
    entry = get_spectral_table(correlation, n).eigenvalues(n)
    eigenvalues = apply_eigenvalue_policy(
        entry, on_negative_eigenvalues, stacklevel=3
    )

    m = 2 * n
    rng = make_rng(random_state)
    # Per-worker workspace: the same stream bits land in a reused
    # buffer instead of a fresh allocation per call.
    g = rng.standard_normal(out=_noise_buffer((batch, m)))
    # rfft never computes the redundant conjugate half, irfft never
    # materializes a complex output.
    spectrum = np.fft.rfft(g, axis=1)
    spectrum *= np.sqrt(eigenvalues)
    paths = np.fft.irfft(spectrum, n=m, axis=1)[:, :n]
    paths += mean
    return paths[0] if flat else paths
