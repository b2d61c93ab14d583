"""Shared circulant-embedding spectra with an acvf-keyed cache.

The Davies-Harte generator is the backend the registry's ``auto``
policy picks for every request — the long-trace synthesis of
Figs. 8-13 and the replicated buffer sweeps, plain and importance
sampled, of the §4 experiments —
yet the seed implementation re-evaluated the model autocovariance and
re-ran the circulant FFT from scratch on every call, even when all legs
of a sweep share one fitted background model.  This module factors the
spectral decomposition out into a :class:`SpectralTable`, the
unconditional-path counterpart of the conditional path's
:class:`~repro.processes.coeff_table.CoefficientTable`:

- **Memoized ACVF with prefix extension.**  Each table stores one
  autocovariance prefix ``r(0) .. r(L)``; a longer request
  :meth:`extends <SpectralTable.extend>` the prefix in place and a
  shorter one slices it, so the model's ``acvf`` is evaluated once at
  the longest lag any consumer has touched.  All built-in
  :class:`~repro.processes.correlation.CorrelationModel` evaluations
  are prefix-stable (lag ``k``'s value does not depend on the requested
  length), so a sliced prefix is bit-identical to a fresh short
  evaluation — the property test in ``tests/test_spectral_cache.py``
  pins this down.
- **Eigenvalue entries per path length.**  The circulant eigenvalues
  for an ``n``-sample path (one real FFT of the length-``2n``
  embedding of ``r(0) .. r(n)``, keeping the ``n + 1`` distinct
  values of its symmetric spectrum) are cached per table as immutable
  :class:`EigenvalueEntry` records, built lock-safely for concurrent
  thread-pool readers: construction is double-checked under the table
  lock, published entries are read-only, and readers of an existing
  entry never take the lock.
- **Shared cache.**  :func:`get_spectral_table` serves tables from the
  acvf-keyed cache of :mod:`repro.processes.acvf_cache`, the same one
  :func:`~repro.processes.coeff_table.get_coefficient_table` uses
  (leading lags hashed, full prefix equality verified on every hit, a
  weak per-model memo so repeated requests for the same live
  :class:`CorrelationModel` skip the acvf evaluation entirely, LRU
  eviction).

Clipping bookkeeping (the count, total mass, and extrema of any
negative eigenvalues) is recorded per entry so the generator's
``on_negative_eigenvalues`` policy behaves identically on a cache hit
and on a miss, and so degenerate fitted ACFs surface in metrics exports
(the ``spectral.clipped_eigenvalues`` counter).

Everything here is RNG-neutral: a cached spectrum is bit-identical to a
freshly computed one, so cached and uncached generation draw the same
samples in the same order.
"""

from __future__ import annotations

import time
import warnings
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .._validation import check_min_length, check_positive_int
from ..exceptions import CorrelationError, ValidationError
from ..observability import current_context
from .acvf_cache import AcvfTable, AcvfTableCache
from .correlation import CorrelationModel

__all__ = [
    "EigenvalueEntry",
    "SpectralTable",
    "circulant_eigenvalues",
    "build_eigenvalue_entry",
    "apply_eigenvalue_policy",
    "get_spectral_table",
    "clear_spectral_cache",
    "spectral_cache_info",
    "set_spectral_cache_limits",
    "spectral_cache_metrics",
]

#: Relative threshold separating numerical clipping noise from a
#: materially non-embeddable correlation (same value as the seed
#: generator used): a warning is emitted only when the most negative
#: eigenvalue is below ``-threshold * max eigenvalue``.
_MATERIAL_CLIP_RATIO = 1e-6


def circulant_eigenvalues(acvf: Sequence[float]) -> np.ndarray:
    """Return the distinct eigenvalues of the circulant embedding of ``acvf``.

    ``acvf`` supplies ``r(0) .. r(n)``; the embedding is the length-2n
    sequence ``r(0), ..., r(n), r(n-1), ..., r(1)`` whose DFT gives the
    eigenvalues.  The embedding is real and even, so its spectrum is
    symmetric (``eig[2n - j] == eig[j]``) and one real FFT
    (``numpy.fft.rfft``) yields its ``n + 1`` distinct values
    ``h_0 .. h_n`` — all the real-FFT synthesis reads and all the cache
    stores.  All eigenvalues non-negative means exact generation is
    possible.
    """
    r = check_min_length(acvf, "acvf", 2)
    circ = np.concatenate([r, r[-2:0:-1]])
    # .copy() detaches the real view from the complex rfft output so
    # the cache stores n + 1 doubles, not a view pinning 2(n + 1).
    return np.fft.rfft(circ).real.copy()


class EigenvalueEntry:
    """One cached circulant spectrum with its clipping bookkeeping.

    Attributes
    ----------
    half_eigenvalues:
        The ``n + 1`` distinct eigenvalues ``h_0 .. h_n`` with
        negatives clipped to zero, read-only.
    clipped_count:
        Number of negative eigenvalues that were clipped, counted with
        their multiplicity in the length-``2n`` embedding spectrum
        (interior values appear twice); 0 for an exactly embeddable
        correlation.
    clipped_mass:
        Total absolute mass ``sum |eig_j|`` over the clipped
        eigenvalues (embedding-spectrum multiplicity).
    min_eigenvalue:
        Most negative raw eigenvalue (0.0 when nothing was clipped).
    max_eigenvalue:
        Largest raw eigenvalue, the scale the materiality threshold is
        relative to (0.0 when nothing was clipped — it is only
        computed, and only meaningful, alongside clipping).
    """

    __slots__ = (
        "_half",
        "clipped_count",
        "clipped_mass",
        "min_eigenvalue",
        "max_eigenvalue",
    )

    def __init__(
        self,
        half_eigenvalues: np.ndarray,
        clipped_count: int = 0,
        clipped_mass: float = 0.0,
        min_eigenvalue: float = 0.0,
        max_eigenvalue: float = 0.0,
    ) -> None:
        half = np.asarray(half_eigenvalues, dtype=float)
        half.flags.writeable = False
        self._half = half
        self.clipped_count = int(clipped_count)
        self.clipped_mass = float(clipped_mass)
        self.min_eigenvalue = float(min_eigenvalue)
        self.max_eigenvalue = float(max_eigenvalue)

    @property
    def half_eigenvalues(self) -> np.ndarray:
        """The stored ``n + 1`` distinct (clipped) eigenvalues."""
        return self._half

    @property
    def material(self) -> bool:
        """Whether the clipping is material rather than numerical noise."""
        return (
            self.clipped_count > 0
            and self.min_eigenvalue
            < -_MATERIAL_CLIP_RATIO * self.max_eigenvalue
        )

    @property
    def nbytes(self) -> int:
        """Bytes held by the stored spectrum."""
        return int(self._half.nbytes)

    def __repr__(self) -> str:
        return (
            f"EigenvalueEntry(n={self._half.size - 1}, "
            f"clipped_count={self.clipped_count})"
        )


def build_eigenvalue_entry(acvf: Sequence[float]) -> EigenvalueEntry:
    """Build an :class:`EigenvalueEntry` from ``r(0) .. r(n)``.

    The raw spectrum comes from :func:`circulant_eigenvalues` (one real
    FFT); negatives are clipped to zero here, once, with the
    count/mass/extrema recorded at embedding-spectrum multiplicity
    (interior values count twice, the DC and Nyquist endpoints once) so
    the per-call policy in the generator warns or raises identically on
    every reuse.
    """
    raw = circulant_eigenvalues(acvf)
    # Fast path first: embeddable correlations (the common case) need
    # only the min/max scan, not the mask allocations below — the
    # bypass path pays this on every generate() call, so it is bounded
    # to a small fraction of a generation in the ablation bench.
    minimum = float(raw.min())
    if minimum >= 0.0:
        count = 0
        clipped_mass = 0.0
        minimum = 0.0
        maximum = 0.0
        half = raw
    else:
        negative = raw < 0
        # Embedding-spectrum multiplicity: index j of the half spectrum
        # appears twice in the embedding except the endpoints (DC and
        # Nyquist), which appear once.
        weights = np.full(raw.size, 2.0)
        weights[0] = 1.0
        weights[-1] = 1.0
        count = int((weights[negative]).sum())
        clipped_mass = float(-(weights[negative] * raw[negative]).sum())
        maximum = float(raw.max())
        half = np.where(negative, 0.0, raw)
    return EigenvalueEntry(
        half,
        clipped_count=count,
        clipped_mass=clipped_mass,
        min_eigenvalue=minimum,
        max_eigenvalue=maximum,
    )


def apply_eigenvalue_policy(
    entry: EigenvalueEntry,
    on_negative_eigenvalues: str,
    *,
    stacklevel: int = 3,
) -> np.ndarray:
    """Enforce the negative-eigenvalue policy for one generation call.

    Returns the ``n + 1`` distinct (clipped) eigenvalues the real-FFT
    synthesis consumes.  ``"raise"`` raises
    :class:`~repro.exceptions.CorrelationError` whenever the entry
    records clipping; ``"clip"`` counts the clipped eigenvalues (module
    statistics plus the current run context's
    ``spectral.clipped_eigenvalues`` counter) and warns when the
    clipping is material.  Because the entry carries the raw-spectrum
    bookkeeping, the policy behaves identically whether the entry came
    from a cache hit or was just built.
    """
    if entry.clipped_count:
        if on_negative_eigenvalues == "raise":
            raise CorrelationError(
                "circulant embedding has negative eigenvalues "
                f"(min {entry.min_eigenvalue:.3e}); the correlation is "
                "not embeddable — the 'hosking' backend draws it exactly"
            )
        _CACHE.count("clipped_eigenvalues", entry.clipped_count)
        current_context().inc(
            "spectral.clipped_eigenvalues", entry.clipped_count
        )
        if entry.material:
            warnings.warn(
                "circulant embedding clipped "
                f"{entry.clipped_count} negative eigenvalues "
                f"(min {entry.min_eigenvalue:.3e}, total mass "
                f"{entry.clipped_mass:.3e} against max eigenvalue "
                f"{entry.max_eigenvalue:.3e}); output correlation is "
                "approximate",
                RuntimeWarning,
                stacklevel=stacklevel,
            )
    return entry.half_eigenvalues


class SpectralTable(AcvfTable):
    """All circulant spectra for one autocovariance, built lazily.

    Parameters
    ----------
    acvf:
        Autocovariance sequence ``r(0), ..., r(L)`` (copied).  The
        table supports path lengths up to ``L`` — an ``n``-sample
        generation reads the prefix ``r(0) .. r(n)``.

    Notes
    -----
    The table is safe to share across threads: eigenvalue entries are
    built under an internal lock with a double-checked lookup, stored
    entries are immutable (read-only arrays), and :meth:`extend` only
    grows the acvf prefix — entries built from a shorter prefix stay
    valid because extension never changes already-covered lags.
    """

    min_lags = 2
    lookup = "get_spectral_table"
    #: Eigenvalue entries kept per table (insertion-order eviction).  A
    #: Fig. 16 sweep touches one entry per buffer size, so a few dozen
    #: covers every runner in the repository.
    max_entries = 32

    def __init__(self, acvf: Union[Sequence[float], np.ndarray]) -> None:
        super().__init__(acvf)
        self._entries = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def max_length(self) -> int:
        """Longest path length this table can drive (``horizon - 1``)."""
        return self._acvf.size - 1

    @property
    def entry_count(self) -> int:
        """Number of cached eigenvalue entries."""
        return len(self._entries)

    def acvf_prefix(self, length: int) -> np.ndarray:
        """Read-only view of ``r(0) .. r(length - 1)``."""
        length = check_positive_int(length, "length")
        acvf = self._acvf
        if length > acvf.size:
            raise ValidationError(
                f"table holds {acvf.size} lags, requested {length}"
            )
        view = acvf[:length]
        view.flags.writeable = False
        return view

    def nbytes(self) -> int:
        """Approximate memory footprint of the cached spectra."""
        with self._lock:
            return int(
                self._acvf.nbytes
                + sum(
                    entry.nbytes for entry in self._entries.values()
                )
            )

    # ------------------------------------------------------------------
    # Eigenvalue entries
    # ------------------------------------------------------------------

    def eigenvalues(self, n: int) -> EigenvalueEntry:
        """The (clipped) circulant spectrum for an ``n``-sample path.

        Built from ``r(0) .. r(n)`` on first request and cached;
        concurrent requests for the same length build it exactly once
        (double-checked under the table lock).  Readers of an existing
        entry never block.
        """
        n = check_positive_int(n, "n")
        entry = self._entries.get(n)
        if entry is not None:
            _CACHE.count("eigenvalue_hits")
            return entry
        with self._lock:
            entry = self._entries.get(n)
            if entry is not None:
                _CACHE.count("eigenvalue_hits")
                return entry
            if n + 1 > self._acvf.size:
                raise ValidationError(
                    f"table of horizon {self.horizon} lags supports "
                    f"path lengths up to {self.max_length}, "
                    f"requested {n}"
                )
            start = time.perf_counter()
            entry = build_eigenvalue_entry(self._acvf[: n + 1])
            elapsed = time.perf_counter() - start
            while len(self._entries) >= self.max_entries:
                del self._entries[next(iter(self._entries))]
            self._entries[n] = entry
        _CACHE.count("eigenvalue_builds")
        _CACHE.count("eigenvalue_build_seconds", elapsed)
        return entry

    def __repr__(self) -> str:
        return (
            f"SpectralTable(horizon={self.horizon}, "
            f"entries={self.entry_count})"
        )


class SpectralCacheInfo(NamedTuple):
    """Statistics for :func:`get_spectral_table` and the entry builds."""

    hits: int
    misses: int
    extensions: int
    evictions: int
    tables: int
    eigenvalue_entries: int
    eigenvalue_builds: int
    eigenvalue_hits: int
    clipped_eigenvalues: int
    max_tables: int
    max_cached_length: int


#: The shared cache.  An entry costs O(path length) doubles — linear,
#: unlike the quadratic coefficient tables — so the length cap is
#: generous: it covers the paper's full 238,626-frame trace with room
#: to spare.  Longer requests get an uncached table.
_CACHE = AcvfTableCache(
    "spectral",
    SpectralTable,
    lag_offset=1,
    max_tables=8,
    max_request=1 << 20,
    request_limit="max_cached_length",
    counters=("eigenvalue_builds", "eigenvalue_hits"),
    timers=("eigenvalue_build_seconds",),
    tallies=("clipped_eigenvalues",),
)


def get_spectral_table(
    correlation: Union[CorrelationModel, Sequence[float], np.ndarray],
    n: int,
) -> SpectralTable:
    """Return a (possibly shared) spectral table covering ``n`` samples.

    ``n`` is the *path length*; the table resolves the ``n + 1``
    autocovariance lags the circulant embedding needs.  A live
    :class:`CorrelationModel` whose table already covers the request is
    served from the per-model memo without evaluating its acvf; see
    :meth:`AcvfTableCache.get
    <repro.processes.acvf_cache.AcvfTableCache.get>` for the full
    lookup order.  Requests beyond the length cap (see
    :func:`set_spectral_cache_limits`) return an uncached table.
    """
    return _CACHE.get(correlation, n)


def clear_spectral_cache() -> None:
    """Empty the shared table cache and reset its statistics."""
    _CACHE.clear()


def spectral_cache_info() -> SpectralCacheInfo:
    """Current hit/miss/extension/build counters and capacity settings."""
    stats = _CACHE.stats()
    return SpectralCacheInfo(
        hits=stats["hits"],
        misses=stats["misses"],
        extensions=stats["extensions"],
        evictions=stats["evictions"],
        tables=stats["tables"],
        eigenvalue_entries=sum(
            table.entry_count for table in _CACHE.tables()
        ),
        eigenvalue_builds=stats["eigenvalue_builds"],
        eigenvalue_hits=stats["eigenvalue_hits"],
        clipped_eigenvalues=stats["clipped_eigenvalues"],
        max_tables=_CACHE.max_tables,
        max_cached_length=_CACHE.max_request,
    )


def spectral_cache_metrics(ctx, **labels):
    """Record spectral-cache activity within a block into ``ctx``.

    The deltas land as ``spectral.hits`` / ``.misses`` /
    ``.extensions`` / ``.evictions`` / ``.eigenvalue_builds`` /
    ``.eigenvalue_hits`` counters, the accumulated
    ``spectral.eigenvalue_build_seconds`` as one summary observation,
    and a ``spectral.tables`` gauge; ``None`` or a disabled context
    makes the block free (see :meth:`AcvfTableCache.metrics
    <repro.processes.acvf_cache.AcvfTableCache.metrics>`).
    """
    return _CACHE.metrics(ctx, **labels)


def set_spectral_cache_limits(
    *,
    max_tables: Optional[int] = None,
    max_cached_length: Optional[int] = None,
    max_entries_per_table: Optional[int] = None,
) -> None:
    """Adjust the cache budget.

    ``max_tables`` bounds the number of live tables (LRU eviction);
    ``max_cached_length`` bounds the path length served from the cache
    (a cached entry costs ``n + 1`` doubles — linear, so the default
    cap is far above the coefficient-table one);
    ``max_entries_per_table`` bounds the per-table eigenvalue entries
    (insertion-order eviction).
    """
    if max_entries_per_table is not None:
        max_entries_per_table = check_positive_int(
            max_entries_per_table, "max_entries_per_table"
        )
    _CACHE.set_limits(max_tables=max_tables, max_request=max_cached_length)
    if max_entries_per_table is not None:
        SpectralTable.max_entries = max_entries_per_table
