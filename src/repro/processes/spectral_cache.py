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
  embedding of ``r(0) .. r(n)``, storing only the ``n + 1`` distinct
  half-spectrum values — the embedding is real and even, so the other
  half is a bitwise mirror materialized on demand)
  are cached per table as immutable :class:`EigenvalueEntry` records,
  built lock-safely for concurrent thread-pool readers: construction is
  double-checked under the table lock, published entries are read-only,
  and readers of an existing entry never take the lock.
- **Fingerprint cache plus a per-model memo.**  :func:`get_spectral_table`
  memoizes tables behind the same fingerprint-keyed LRU discipline as
  :func:`~repro.processes.coeff_table.get_coefficient_table` (leading
  lags hashed, full prefix equality verified on every hit), with an
  identity-keyed weak per-model memo on top so repeated requests for
  the same live :class:`CorrelationModel` skip the acvf evaluation
  entirely when the cached prefix already covers them.

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

import threading
import time
import warnings
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, List, NamedTuple, Optional, Sequence, Union

import numpy as np

from .._validation import check_choice, check_min_length, check_positive_int
from ..exceptions import CorrelationError, ValidationError
from .coeff_table import acvf_fingerprint
from .correlation import CorrelationModel

__all__ = [
    "EigenvalueEntry",
    "SpectralTable",
    "circulant_eigenvalues",
    "mirror_spectrum",
    "build_eigenvalue_entry",
    "apply_eigenvalue_policy",
    "get_spectral_table",
    "clear_spectral_cache",
    "spectral_cache_info",
    "set_spectral_cache_limits",
    "spectral_cache_metrics",
]

#: Default cache capacity (number of tables kept alive).
_DEFAULT_MAX_TABLES = 8

#: Default largest path length served from the shared cache.  A table
#: costs O(path length) doubles per eigenvalue entry (linear, unlike the
#: quadratic coefficient tables), so the cap is generous: it covers the
#: paper's full 238,626-frame trace with room to spare.  Longer requests
#: bypass the cache (callers may still build and pass an explicit table).
_DEFAULT_MAX_CACHED_LENGTH = 1 << 20

#: Default number of per-path-length eigenvalue entries kept per table
#: (insertion-order eviction).  A Fig. 16 sweep touches one entry per
#: buffer size, so a few dozen covers every runner in the repository.
_DEFAULT_MAX_ENTRIES = 32

#: Relative threshold separating numerical clipping noise from a
#: materially non-embeddable correlation (same value as the seed
#: generator used): a warning is emitted only when the most negative
#: eigenvalue is below ``-threshold * max eigenvalue``.
_MATERIAL_CLIP_RATIO = 1e-6


def mirror_spectrum(half: np.ndarray) -> np.ndarray:
    """Mirror a half spectrum ``h_0 .. h_n`` into the full DFT order.

    The circulant embedding of ``r(0) .. r(n)`` is real and even, so
    its full length-``2n`` spectrum is ``[h_0 .. h_n, h_{n-1} .. h_1]``
    — every full-spectrum value is a bitwise copy of a half-spectrum
    one, which is what makes the two :func:`circulant_eigenvalues`
    views (and the two :class:`EigenvalueEntry` views) agree bit for
    bit by construction.
    """
    half = np.asarray(half)
    return np.concatenate([half, half[-2:0:-1]])


def circulant_eigenvalues(
    acvf: Sequence[float], *, spectrum: str = "half"
) -> np.ndarray:
    """Return the eigenvalues of the circulant embedding of ``acvf``.

    ``acvf`` supplies ``r(0) .. r(n)``; the embedding is the length-2n
    sequence ``r(0), ..., r(n), r(n-1), ..., r(1)`` whose DFT gives the
    eigenvalues.  All eigenvalues non-negative means exact generation
    is possible.

    ``spectrum`` selects the view:

    - ``"full"`` — all ``2n`` eigenvalues, in DFT order.  This is what
      the legacy full-FFT synthesis path consumes.
    - ``"half"`` — the ``n + 1`` distinct eigenvalues (the embedding is
      real and even, so the spectrum is symmetric:
      ``eig[2n - j] == eig[j]``).  This is what the real-FFT synthesis
      path consumes, and all the storage the cache keeps.

    Both views come from **one** half-length real FFT
    (``numpy.fft.rfft`` — the embedding is real, so the redundant
    negative-frequency half is never computed): the full spectrum is
    the mirror ``[h_0 .. h_n, h_{n-1} .. h_1]`` of the half spectrum,
    so the two views agree bit for bit *by construction*.  (An earlier
    revision computed the two views with two different FFT calls, which
    differed at the last-ulp level — enough to break the
    cached/uncached bit-identity contract.  Deriving one view from the
    other makes the agreement structural rather than numerical.)
    """
    check_choice(spectrum, "spectrum", ("half", "full"))
    r = check_min_length(acvf, "acvf", 2)
    circ = np.concatenate([r, r[-2:0:-1]])
    # .copy() detaches the real view from the complex rfft output so
    # the cache stores n + 1 doubles, not a view pinning 2(n + 1).
    half = np.fft.rfft(circ).real.copy()
    return mirror_spectrum(half) if spectrum == "full" else half


class EigenvalueEntry:
    """One cached circulant spectrum with its clipping bookkeeping.

    Only the ``n + 1`` distinct half-spectrum values are *stored* (the
    embedding spectrum is symmetric); the legacy full-spectrum view is
    materialized lazily — and cached — on first access, as the bitwise
    mirror of the half spectrum (:func:`mirror_spectrum`), so the two
    views always agree bit for bit and consumers of the real-FFT
    synthesis path never pay for the redundant half.

    Attributes
    ----------
    half_eigenvalues:
        The ``n + 1`` distinct eigenvalues ``h_0 .. h_n`` with
        negatives clipped to zero, read-only.  This is all the cache
        stores.
    eigenvalues:
        Full-spectrum view (length ``2n``, DFT order), read-only —
        lazily mirrored from :attr:`half_eigenvalues` and cached, so
        repeated access returns the identical object.
    clipped_count:
        Number of negative eigenvalues that were clipped, counted with
        *full-spectrum multiplicity* (interior half-spectrum values
        appear twice in the embedding); 0 for an exactly embeddable
        correlation.
    clipped_mass:
        Total absolute mass ``sum |eig_j|`` over the clipped
        eigenvalues (full-spectrum multiplicity).
    min_eigenvalue:
        Most negative raw eigenvalue (0.0 when nothing was clipped).
    max_eigenvalue:
        Largest raw eigenvalue, the scale the materiality threshold is
        relative to (0.0 when nothing was clipped — it is only
        computed, and only meaningful, alongside clipping).
    """

    __slots__ = (
        "_half",
        "_full",
        "clipped_count",
        "clipped_mass",
        "min_eigenvalue",
        "max_eigenvalue",
    )

    def __init__(
        self,
        eigenvalues: Optional[np.ndarray] = None,
        clipped_count: int = 0,
        clipped_mass: float = 0.0,
        min_eigenvalue: float = 0.0,
        max_eigenvalue: float = 0.0,
        *,
        half_eigenvalues: Optional[np.ndarray] = None,
    ) -> None:
        if (eigenvalues is None) == (half_eigenvalues is None):
            raise ValidationError(
                "EigenvalueEntry takes exactly one of eigenvalues= "
                "(full spectrum) or half_eigenvalues="
            )
        if half_eigenvalues is not None:
            half = np.asarray(half_eigenvalues, dtype=float)
            half.flags.writeable = False
            self._half = half
            self._full: Optional[np.ndarray] = None
        else:
            full = np.asarray(eigenvalues, dtype=float)
            full.flags.writeable = False
            # The distinct values are the first m/2 + 1 (DFT order);
            # a read-only slice view, so no storage is duplicated.
            half = full[: full.size // 2 + 1]
            half.flags.writeable = False
            self._half = half
            self._full = full
        self.clipped_count = int(clipped_count)
        self.clipped_mass = float(clipped_mass)
        self.min_eigenvalue = float(min_eigenvalue)
        self.max_eigenvalue = float(max_eigenvalue)

    @property
    def half_eigenvalues(self) -> np.ndarray:
        """The stored ``n + 1`` distinct (clipped) eigenvalues."""
        return self._half

    @property
    def eigenvalues(self) -> np.ndarray:
        """Full-spectrum view, mirrored lazily and cached."""
        if self._full is None:
            full = mirror_spectrum(self._half)
            full.flags.writeable = False
            self._full = full
        return self._full

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
        """Bytes held by the stored spectra (owning arrays only)."""
        total = 0
        for array in (self._half, self._full):
            if array is not None and array.base is None:
                total += array.nbytes
        return int(total)

    def __repr__(self) -> str:
        return (
            f"EigenvalueEntry(n={self._half.size - 1}, "
            f"clipped_count={self.clipped_count})"
        )


def build_eigenvalue_entry(acvf: Sequence[float]) -> EigenvalueEntry:
    """Build an :class:`EigenvalueEntry` from ``r(0) .. r(n)``.

    The raw half spectrum comes from :func:`circulant_eigenvalues`
    (``spectrum="half"`` — one real FFT); negatives are clipped to
    zero here, once, with the count/mass/extrema recorded at
    *full-spectrum multiplicity* (interior values count twice, the DC
    and Nyquist endpoints once) so the per-call policy in the
    generator warns or raises identically to the legacy full-spectrum
    build on every reuse.
    """
    raw = circulant_eigenvalues(acvf, spectrum="half")
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
        # Full-spectrum multiplicity: index j of the half spectrum
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
        half_eigenvalues=half,
        clipped_count=count,
        clipped_mass=clipped_mass,
        min_eigenvalue=minimum,
        max_eigenvalue=maximum,
    )


def apply_eigenvalue_policy(
    entry: EigenvalueEntry,
    on_negative_eigenvalues: str,
    *,
    metrics=None,
    stacklevel: int = 3,
    spectrum: str = "full",
) -> np.ndarray:
    """Enforce the negative-eigenvalue policy for one generation call.

    Returns the (clipped) eigenvalues to generate with — the full
    2n-point spectrum by default, or the stored ``n + 1`` distinct
    values with ``spectrum="half"`` (what the real-FFT synthesis path
    consumes; the two views are bitwise-consistent mirrors).
    ``"raise"`` raises :class:`~repro.exceptions.CorrelationError`
    whenever the entry records clipping; ``"clip"`` counts the clipped
    eigenvalues (module statistics plus the optional ``metrics``
    context's ``spectral.clipped_eigenvalues`` counter) and warns when
    the clipping is material.  Because the entry carries the
    raw-spectrum bookkeeping, the policy behaves identically whether
    the entry came from a cache hit or was just built.
    """
    check_choice(spectrum, "spectrum", ("half", "full"))
    if entry.clipped_count:
        if on_negative_eigenvalues == "raise":
            raise CorrelationError(
                "circulant embedding has negative eigenvalues "
                f"(min {entry.min_eigenvalue:.3e}); the correlation is "
                "not embeddable — the 'hosking' backend draws it exactly"
            )
        with _stats_lock:
            _stats["clipped_eigenvalues"] += entry.clipped_count
        if metrics is not None and getattr(metrics, "enabled", True):
            metrics.inc(
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
    return (
        entry.half_eigenvalues if spectrum == "half" else entry.eigenvalues
    )


class SpectralTable:
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

    def __init__(
        self, acvf: Union[Sequence[float], np.ndarray]
    ) -> None:
        if isinstance(acvf, CorrelationModel):
            raise ValidationError(
                "SpectralTable takes an explicit acvf sequence; use "
                "get_spectral_table(model, n) for model-driven lookup"
            )
        r = np.array(np.asarray(acvf, dtype=float), copy=True)
        if r.ndim != 1 or r.size < 2:
            raise ValidationError(
                "acvf must be a 1-D sequence of at least 2 lags "
                f"(r(0), r(1), ...), got shape {r.shape}"
            )
        self._lock = threading.RLock()
        self._acvf = r
        self._entries: "OrderedDict[int, EigenvalueEntry]" = OrderedDict()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def horizon(self) -> int:
        """Number of stored autocovariance lags (``len(acvf)``)."""
        return self._acvf.size

    @property
    def max_length(self) -> int:
        """Longest path length this table can drive (``horizon - 1``)."""
        return self._acvf.size - 1

    @property
    def acvf(self) -> np.ndarray:
        """The autocovariance backing this table (read-only view)."""
        view = self._acvf[:]
        view.flags.writeable = False
        return view

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
            _note_entry_hit()
            return entry
        with self._lock:
            entry = self._entries.get(n)
            if entry is not None:
                _note_entry_hit()
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
            while len(self._entries) >= _max_entries:
                self._entries.popitem(last=False)
            self._entries[n] = entry
        _note_entry_build(elapsed)
        return entry

    # ------------------------------------------------------------------
    # Prefix sharing
    # ------------------------------------------------------------------

    def is_prefix_of(self, acvf: np.ndarray) -> bool:
        """True if this table's acvf is a leading prefix of ``acvf``."""
        other = np.asarray(acvf, dtype=float)
        mine = self._acvf
        m = min(mine.size, other.size)
        return bool(np.array_equal(mine[:m], other[:m]))

    def extend(
        self, acvf: Union[Sequence[float], np.ndarray]
    ) -> "SpectralTable":
        """Grow the stored acvf in place to cover a longer prefix.

        ``acvf`` must extend the current sequence exactly (bit-for-bit
        prefix match).  Cached eigenvalue entries are kept: each was
        built from a prefix the extension does not touch, so they stay
        bit-identical to what a fresh build would produce.
        """
        new = np.array(np.asarray(acvf, dtype=float), copy=True)
        if new.ndim != 1:
            raise ValidationError(
                f"acvf must be one-dimensional, got shape {new.shape}"
            )
        with self._lock:
            if not self.is_prefix_of(new):
                raise ValidationError(
                    "extension acvf disagrees with the table's prefix"
                )
            if new.size <= self._acvf.size:
                return self
            self._acvf = new
        return self

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


_cache_lock = threading.RLock()
_cache: "OrderedDict[bytes, List[SpectralTable]]" = OrderedDict()
#: Identity-keyed weak memo: the last table resolved for a live model.
#: Identity implies the exact same acvf values (model evaluation is
#: deterministic), so a memo hit needs no prefix verification and —
#: when the cached horizon already covers the request — no acvf
#: evaluation at all.
_model_memo: "weakref.WeakKeyDictionary[CorrelationModel, SpectralTable]" = (
    weakref.WeakKeyDictionary()
)
#: Leaf lock for the statistics dict: taken with other locks held but
#: never while acquiring one, so table/cache locks cannot deadlock on it.
_stats_lock = threading.Lock()
_stats: Dict[str, float] = {
    "hits": 0,
    "misses": 0,
    "extensions": 0,
    "evictions": 0,
    "entry_builds": 0,
    "entry_hits": 0,
    "entry_build_seconds": 0.0,
    "clipped_eigenvalues": 0,
}
_max_tables = _DEFAULT_MAX_TABLES
_max_cached_length = _DEFAULT_MAX_CACHED_LENGTH
_max_entries = _DEFAULT_MAX_ENTRIES


def _note_entry_hit() -> None:
    with _stats_lock:
        _stats["entry_hits"] += 1


def _note_entry_build(elapsed: float) -> None:
    with _stats_lock:
        _stats["entry_builds"] += 1
        _stats["entry_build_seconds"] += elapsed


def _resolve_request_acvf(
    correlation: Union[CorrelationModel, Sequence[float], np.ndarray],
    lags: int,
) -> np.ndarray:
    """``r(0) .. r(lags - 1)`` from a model or an explicit sequence."""
    if isinstance(correlation, CorrelationModel):
        return correlation.acvf(lags)
    acvf = np.asarray(correlation, dtype=float)
    if acvf.ndim != 1:
        raise ValidationError(
            f"acvf must be one-dimensional, got shape {acvf.shape}"
        )
    if acvf.size < lags:
        raise ValidationError(
            f"acvf of length {acvf.size} supplies too few lags for the "
            f"requested path length (needs {lags})"
        )
    return acvf[:lags]


def get_spectral_table(
    correlation: Union[CorrelationModel, Sequence[float], np.ndarray],
    n: int,
) -> SpectralTable:
    """Return a (possibly shared) spectral table covering ``n`` samples.

    ``n`` is the *path length*; the table resolves the ``n + 1``
    autocovariance lags the circulant embedding needs.  Lookup order:

    1. the weak per-model memo (identity hit — for a live
       :class:`CorrelationModel` whose cached prefix already covers the
       request, the acvf is not re-evaluated at all);
    2. the fingerprint-keyed LRU with full prefix verification, reusing
       a covering table directly or :meth:`extending
       <SpectralTable.extend>` a shorter prefix-exact one in place;
    3. a fresh table on a miss.

    Requests beyond the configured length cap (see
    :func:`set_spectral_cache_limits`) return an uncached table.
    """
    n = check_positive_int(n, "n")
    lags = n + 1
    if n > _max_cached_length:
        return SpectralTable(_resolve_request_acvf(correlation, lags))

    is_model = isinstance(correlation, CorrelationModel)
    if is_model:
        with _cache_lock:
            table = _model_memo.get(correlation)
        if table is not None and table.horizon >= lags:
            with _stats_lock:
                _stats["hits"] += 1
            return table

    acvf = _resolve_request_acvf(correlation, lags)
    key = acvf_fingerprint(acvf)
    with _cache_lock:
        bucket = _cache.get(key)
        if bucket is not None:
            for table in bucket:
                if table.is_prefix_of(acvf):
                    if table.horizon < lags:
                        table.extend(acvf)
                        with _stats_lock:
                            _stats["extensions"] += 1
                    else:
                        with _stats_lock:
                            _stats["hits"] += 1
                    _cache.move_to_end(key)
                    if is_model:
                        _model_memo[correlation] = table
                    return table
        with _stats_lock:
            _stats["misses"] += 1
        table = SpectralTable(acvf)
        _cache.setdefault(key, []).append(table)
        _cache.move_to_end(key)
        if is_model:
            _model_memo[correlation] = table
        _evict_locked()
    return table


def _evict_locked() -> None:
    """Drop least-recently-used buckets beyond the table budget."""
    total = sum(len(bucket) for bucket in _cache.values())
    while total > _max_tables and _cache:
        _, bucket = _cache.popitem(last=False)
        total -= len(bucket)
        with _stats_lock:
            _stats["evictions"] += len(bucket)


def clear_spectral_cache() -> None:
    """Empty the shared table cache and reset its statistics."""
    with _cache_lock:
        _cache.clear()
        _model_memo.clear()
        with _stats_lock:
            _stats.update(
                hits=0,
                misses=0,
                extensions=0,
                evictions=0,
                entry_builds=0,
                entry_hits=0,
                entry_build_seconds=0.0,
                clipped_eigenvalues=0,
            )


def spectral_cache_info() -> SpectralCacheInfo:
    """Current hit/miss/extension/build counters and capacity settings."""
    with _cache_lock:
        tables = sum(len(bucket) for bucket in _cache.values())
        entries = sum(
            table.entry_count
            for bucket in _cache.values()
            for table in bucket
        )
        with _stats_lock:
            return SpectralCacheInfo(
                hits=int(_stats["hits"]),
                misses=int(_stats["misses"]),
                extensions=int(_stats["extensions"]),
                evictions=int(_stats["evictions"]),
                tables=tables,
                eigenvalue_entries=entries,
                eigenvalue_builds=int(_stats["entry_builds"]),
                eigenvalue_hits=int(_stats["entry_hits"]),
                clipped_eigenvalues=int(_stats["clipped_eigenvalues"]),
                max_tables=_max_tables,
                max_cached_length=_max_cached_length,
            )


@contextmanager
def spectral_cache_metrics(metrics, **labels):
    """Record spectral-cache activity within a block into ``metrics``.

    Snapshots the shared cache counters on entry and exit and records
    the deltas as ``spectral.hits`` / ``.misses`` / ``.extensions`` /
    ``.evictions`` / ``.eigenvalue_builds`` / ``.eigenvalue_hits``
    counters, the accumulated ``spectral.eigenvalue_build_seconds``
    (as a summary observation, the PR 3 timer convention), and a
    ``spectral.tables`` gauge.

    ``metrics`` is duck-typed (anything with ``inc``/``set``/
    ``observe``, e.g. a :class:`repro.observability.RunContext`) so
    this module never imports :mod:`repro.observability` — same
    layering rule as :func:`~repro.processes.coeff_table.cache_metrics`.
    ``None`` or a disabled context makes the block free.
    """
    enabled = metrics is not None and getattr(metrics, "enabled", True)
    if not enabled:
        yield
        return
    with _stats_lock:
        before = dict(_stats)
    try:
        yield
    finally:
        with _cache_lock:
            tables = sum(len(bucket) for bucket in _cache.values())
            with _stats_lock:
                after = dict(_stats)
        for key in (
            "hits",
            "misses",
            "extensions",
            "evictions",
            "entry_builds",
            "entry_hits",
        ):
            delta = after.get(key, 0) - before.get(key, 0)
            if delta:
                name = key.replace("entry_", "eigenvalue_")
                metrics.inc(f"spectral.{name}", delta, **labels)
        build_seconds = after.get("entry_build_seconds", 0.0) - before.get(
            "entry_build_seconds", 0.0
        )
        if build_seconds > 0:
            metrics.observe(
                "spectral.eigenvalue_build_seconds",
                build_seconds,
                **labels,
            )
        metrics.set("spectral.tables", tables, **labels)


def set_spectral_cache_limits(
    *,
    max_tables: Optional[int] = None,
    max_cached_length: Optional[int] = None,
    max_entries_per_table: Optional[int] = None,
) -> None:
    """Adjust the cache budget.

    ``max_tables`` bounds the number of live tables (LRU eviction);
    ``max_cached_length`` bounds the path length served from the cache
    (a cached entry costs ``2n`` doubles — linear, so the default cap
    is far above the coefficient-table one); ``max_entries_per_table``
    bounds the per-table eigenvalue entries (insertion-order eviction).
    """
    global _max_tables, _max_cached_length, _max_entries
    with _cache_lock:
        if max_tables is not None:
            _max_tables = check_positive_int(max_tables, "max_tables")
        if max_cached_length is not None:
            _max_cached_length = check_positive_int(
                max_cached_length, "max_cached_length"
            )
        if max_entries_per_table is not None:
            _max_entries = check_positive_int(
                max_entries_per_table, "max_entries_per_table"
            )
        _evict_locked()
