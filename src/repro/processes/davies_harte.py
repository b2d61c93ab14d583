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
tables.  ``spectral_table=`` follows the same convention as
``coeff_table=`` there: ``None``/``True`` use the shared fingerprint
cache, ``False`` recomputes from scratch (the seed behaviour), and an
explicit :class:`~repro.processes.spectral_cache.SpectralTable` is
used as-is.  Caching is RNG-neutral: every variant draws the same
samples in the same order.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .._validation import check_choice, check_min_length, check_positive_int
from ..exceptions import ValidationError
from ..stats.random import RandomState, make_rng
from .acvf_cache import check_table_arg, resolve_acvf
from .correlation import CorrelationModel
from .spectral_cache import (
    EigenvalueEntry,
    SpectralTable,
    apply_eigenvalue_policy,
    build_eigenvalue_entry,
    circulant_eigenvalues,
    get_spectral_table,
)

__all__ = [
    "davies_harte_generate",
    "circulant_eigenvalues",
    "check_davies_harte_options",
    "SpectralTableArg",
    "workspace_stats",
    "reset_workspace_stats",
]

#: Type of the ``spectral_table`` argument: ``None`` (or ``True``) uses
#: the shared fingerprint cache, an explicit :class:`SpectralTable` is
#: used as-is (the caller vouches that it was built from the same
#: autocovariance), and ``False`` recomputes the spectrum per call.
SpectralTableArg = Union[None, bool, SpectralTable]

# ---------------------------------------------------------------------
# Per-worker noise workspace
# ---------------------------------------------------------------------
# The aggregate engine calls this generator once per (batch, horizon)
# block — hundreds of times per feed with identical geometry — and the
# white-noise buffer is the largest allocation of a call (batch x 2n
# doubles).  One buffer per thread (workers in a process pool are
# single-threaded processes, so "per thread" is "per worker"), keyed by
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
    ``builds`` counts (re)allocations.  Counters are process-local: a
    process-pool worker accumulates its own (its deltas surface in the
    parent's metrics only for in-line execution).
    """
    with _workspace_lock:
        return dict(_workspace_stats)


def reset_workspace_stats() -> None:
    """Zero the workspace counters (tests and benches)."""
    with _workspace_lock:
        _workspace_stats["hits"] = 0
        _workspace_stats["builds"] = 0


def check_davies_harte_options(
    on_negative_eigenvalues: str, spectral_table: SpectralTableArg
) -> None:
    """Validate the generator's options before any draw.

    Raises :class:`~repro.exceptions.ValidationError` naming the bad
    argument; :class:`~repro.processes.source.DaviesHarteSource` calls
    this at construction, so its options fail before any simulation
    work starts.
    """
    check_choice(
        on_negative_eigenvalues, "on_negative_eigenvalues", ("clip", "raise")
    )
    check_table_arg(
        spectral_table, "spectral_table", SpectralTable, "recompute per call"
    )


def _resolve_entry(
    correlation: Union[CorrelationModel, np.ndarray],
    n: int,
    spectral_table: SpectralTableArg,
) -> EigenvalueEntry:
    """The eigenvalue entry driving an ``n``-sample generation."""
    if spectral_table is None or spectral_table is True:
        return get_spectral_table(correlation, n).eigenvalues(n)
    if spectral_table is False:
        return build_eigenvalue_entry(resolve_acvf(correlation, n + 1))
    if spectral_table.max_length < n:
        raise ValidationError(
            f"spectral_table of horizon {spectral_table.horizon} lags "
            f"cannot generate {n} samples"
        )
    return spectral_table.eigenvalues(n)


def davies_harte_generate(
    correlation: Union[CorrelationModel, Sequence[float]],
    n: int,
    *,
    size: Optional[int] = None,
    mean: float = 0.0,
    random_state: RandomState = None,
    on_negative_eigenvalues: str = "clip",
    spectral_table: SpectralTableArg = None,
    metrics=None,
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
        discretisation.
    spectral_table:
        ``None``/``True`` resolve the spectrum through the shared
        cache (:func:`~repro.processes.spectral_cache.get_spectral_table`),
        ``False`` recomputes it for this call, an explicit
        :class:`~repro.processes.spectral_cache.SpectralTable` is used
        directly.  All three produce bit-identical output.
    metrics:
        Optional duck-typed metrics context (e.g. a
        :class:`repro.observability.RunContext`); receives the
        ``spectral.clipped_eigenvalues`` counter when clipping occurs.

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
    check_davies_harte_options(on_negative_eigenvalues, spectral_table)
    flat = size is None
    batch = 1 if flat else check_positive_int(size, "size")

    if not isinstance(correlation, CorrelationModel):
        correlation = check_min_length(correlation, "correlation", n + 1)[
            : n + 1
        ]
    entry = _resolve_entry(correlation, n, spectral_table)
    eigenvalues = apply_eigenvalue_policy(
        entry,
        on_negative_eigenvalues,
        metrics=metrics,
        stacklevel=3,
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
