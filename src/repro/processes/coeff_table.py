"""Shared Durbin-Levinson coefficient tables with an acvf-keyed cache.

Hosking's exact generator (paper eq. 1-6) spends a large share of its
O(n^2) budget on the Durbin-Levinson recursion itself, and the paper's
queueing experiments (Figs. 14-17) re-run that recursion for every
buffer size, every competing correlation model, and every twisted-mean
candidate even though the background autocovariance never changes.
This module factors the recursion out into a :class:`CoefficientTable`
that is computed once per *autocovariance sequence* and shared by every
generator run over the same background model:

- **Packed storage.**  Row ``k`` of the recursion (``phi_k1 .. phi_kk``)
  is stored in a packed lower-triangular buffer at offset
  ``k (k - 1) / 2``; conditional variances ``v_k``, their square roots,
  and the coefficient sums ``s_k = sum_j phi_kj`` (needed by the
  mean-twisting likelihood ratios of Appendix B) are stored alongside.
- **Lazy, prefix-shareable rows.**  Rows are materialized on demand up
  to the highest step any consumer has touched, so a horizon-``k`` run
  is literally a prefix read of a horizon-``n`` table — exactly the
  shape of the ``horizon = 10 b`` buffer sweeps of Fig. 16.  A table
  can also be :meth:`extended <CoefficientTable.extend>` in place when
  a longer prefix-compatible autocovariance arrives, resuming the
  recursion from its last built row instead of starting over.
- **Fingerprint cache.**  :func:`get_coefficient_table` memoizes tables
  behind a small LRU cache keyed by a fingerprint of the leading
  autocovariance lags, so independent call sites (the batch generator,
  the incremental generator, the importance-sampling runners) all share
  one table per background model without coordinating.

Because the table wraps the exact same
:class:`~repro.processes.partial_corr.DurbinLevinson` recursion, every
stored coefficient is bit-identical to what the incremental path would
have produced — table-backed generation is a pure reuse optimization,
not an approximation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, List, NamedTuple, Sequence, Union

import numpy as np

from .._validation import check_positive_int
from ..exceptions import ValidationError
from .correlation import CorrelationModel
from .partial_corr import DurbinLevinson

__all__ = [
    "CoefficientTable",
    "acvf_fingerprint",
    "get_coefficient_table",
    "clear_coefficient_cache",
    "coefficient_cache_info",
    "set_coefficient_cache_limits",
    "cache_metrics",
    "resolve_acvf",
]

#: Number of leading lags hashed by :func:`acvf_fingerprint`.  Distinct
#: models almost always differ within the first few lags; full prefix
#: equality is verified on every cache hit, so collisions only cost a
#: comparison, never correctness.
_FINGERPRINT_LAGS = 8

#: Default cache capacity (number of tables kept alive).
_DEFAULT_MAX_TABLES = 8

#: Default largest horizon served from the shared cache.  A table costs
#: O(horizon^2 / 2) doubles, so uncapped caching of very long runs
#: would dwarf the sample paths themselves; longer requests simply
#: bypass the cache (callers may still build and pass an explicit
#: table).
_DEFAULT_MAX_CACHED_HORIZON = 4096


def resolve_acvf(
    correlation: Union[CorrelationModel, Sequence[float]], n: int
) -> np.ndarray:
    """Return ``r(0..n-1)`` from a model or an explicit sequence."""
    if isinstance(correlation, CorrelationModel):
        return correlation.acvf(n)
    acvf = np.asarray(correlation, dtype=float)
    if acvf.ndim != 1:
        raise ValidationError(
            f"acvf must be one-dimensional, got shape {acvf.shape}"
        )
    if acvf.size < n:
        raise ValidationError(
            f"acvf of length {acvf.size} cannot generate {n} samples"
        )
    return acvf[:n]


class CoefficientTable:
    """All Durbin-Levinson outputs for one autocovariance, built lazily.

    Parameters
    ----------
    acvf:
        Autocovariance sequence ``r(0), ..., r(n-1)`` (copied).  The
        table supports generating up to ``n`` samples, i.e. recursion
        steps ``1 .. n-1``.
    precompute:
        Materialize every row eagerly.  The default builds rows on
        demand (see :meth:`ensure`), so consumers that stop early —
        importance-sampling replications that all crossed the buffer,
        say — never pay for rows past their stopping time.

    Notes
    -----
    Row accessors return read-only views into the packed buffer — no
    per-step copies.  The table is safe to share across threads: row
    construction and extension are serialized by an internal lock, rows
    at or below ``_built`` are immutable, and ``_built`` is only
    advanced (and the extension buffers only published) after their
    contents are fully written, so lock-free readers of built rows
    never observe partially written data.
    """

    def __init__(
        self,
        acvf: Union[CorrelationModel, Sequence[float], np.ndarray],
        *,
        precompute: bool = False,
    ) -> None:
        if isinstance(acvf, CorrelationModel):
            raise ValidationError(
                "CoefficientTable takes an explicit acvf sequence; use "
                "get_coefficient_table(model, n) for model-driven lookup"
            )
        r = np.array(np.asarray(acvf, dtype=float), copy=True)
        if r.ndim != 1 or r.size == 0:
            raise ValidationError(
                f"acvf must be a non-empty 1-D sequence, got shape {r.shape}"
            )
        self._lock = threading.RLock()
        self._acvf = r
        self._state = DurbinLevinson(r)
        n = r.size
        self._packed = np.empty(n * (n - 1) // 2, dtype=float)
        self._variances = np.empty(n, dtype=float)
        self._sqrt_variances = np.empty(n, dtype=float)
        self._phi_sums = np.empty(n, dtype=float)
        self._variances[0] = self._state.variance
        self._sqrt_variances[0] = np.sqrt(self._state.variance)
        self._phi_sums[0] = 0.0
        self._built = 0
        if precompute:
            self.ensure(self.max_step)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def horizon(self) -> int:
        """Number of samples this table can drive (``len(acvf)``)."""
        return self._acvf.size

    @property
    def max_step(self) -> int:
        """Largest recursion step available (``horizon - 1``)."""
        return self._acvf.size - 1

    @property
    def built_step(self) -> int:
        """Highest recursion step materialized so far."""
        return self._built

    @property
    def acvf(self) -> np.ndarray:
        """The autocovariance backing this table (read-only view)."""
        view = self._acvf[:]
        view.flags.writeable = False
        return view

    def nbytes(self) -> int:
        """Approximate memory footprint of the coefficient storage."""
        return int(
            self._packed.nbytes
            + self._variances.nbytes
            + self._sqrt_variances.nbytes
            + self._phi_sums.nbytes
        )

    # ------------------------------------------------------------------
    # Row construction and access
    # ------------------------------------------------------------------

    def ensure(self, step: int) -> "CoefficientTable":
        """Materialize rows up to ``step`` (no-op if already built).

        Rows at or below :attr:`built_step` are immutable, so the
        unlocked fast path is safe; the bounds check happens under the
        lock so a request racing a concurrent :meth:`extend` sees the
        enlarged horizon rather than spuriously failing.
        """
        if step <= self._built:
            return self
        with self._lock:
            if step > self.max_step:
                raise ValidationError(
                    f"table of horizon {self.horizon} supports at most step "
                    f"{self.max_step}, requested {step}"
                )
            state = self._state
            packed = self._packed
            variances = self._variances
            sqrt_variances = self._sqrt_variances
            phi_sums = self._phi_sums
            while self._built < step:
                phi, variance = state.advance()
                k = state.step
                offset = k * (k - 1) // 2
                packed[offset : offset + k] = phi
                variances[k] = variance
                sqrt_variances[k] = np.sqrt(variance)
                phi_sums[k] = phi.sum()
                # Publish only after the row data is written so
                # lock-free readers gated on _built never see a
                # half-written row.
                self._built = k
        return self

    def phi_row(self, k: int) -> np.ndarray:
        """Coefficient row ``phi_k1 .. phi_kk`` as a read-only view."""
        if k < 1:
            raise ValidationError(
                f"step must be in [1, {self.max_step}], got {k}"
            )
        if k > self._built:
            self.ensure(k)
        offset = k * (k - 1) // 2
        view = self._packed[offset : offset + k]
        view.flags.writeable = False
        return view

    def variance(self, k: int) -> float:
        """Conditional variance ``v_k`` (``v_0 = r(0)``)."""
        if k < 0:
            raise ValidationError(
                f"step must be in [0, {self.max_step}], got {k}"
            )
        if k > self._built:
            self.ensure(k)
        return float(self._variances[k])

    def sqrt_variance(self, k: int) -> float:
        """``sqrt(v_k)``, precomputed once per row."""
        if k < 0:
            raise ValidationError(
                f"step must be in [0, {self.max_step}], got {k}"
            )
        if k > self._built:
            self.ensure(k)
        return float(self._sqrt_variances[k])

    def phi_sum(self, k: int) -> float:
        """``s_k = sum_j phi_kj`` (0 at step 0), used by mean twisting."""
        if k < 0:
            raise ValidationError(
                f"step must be in [0, {self.max_step}], got {k}"
            )
        if k > self._built:
            self.ensure(k)
        return float(self._phi_sums[k])

    def sqrt_variances(self, n: int) -> np.ndarray:
        """Read-only view of ``sqrt(v_0) .. sqrt(v_{n-1})``."""
        self.ensure(n - 1)
        view = self._sqrt_variances[:n]
        view.flags.writeable = False
        return view

    def variances(self, n: int) -> np.ndarray:
        """Read-only view of ``v_0 .. v_{n-1}`` for bulk consumers.

        The importance-sampling likelihood-ratio pass reads the whole
        variance sequence at once rather than ``n`` scalar
        :meth:`variance` calls.
        """
        self.ensure(n - 1)
        view = self._variances[:n]
        view.flags.writeable = False
        return view

    def phi_sums(self, n: int) -> np.ndarray:
        """Read-only view of ``s_0 .. s_{n-1}`` (``s_0 = 0``).

        Mean twisting by ``m*`` shifts step ``k``'s conditional mean by
        ``m* (1 - s_k)`` (Appendix B), so the likelihood-ratio pass
        reads the full coefficient-sum sequence in one call.
        """
        self.ensure(n - 1)
        view = self._phi_sums[:n]
        view.flags.writeable = False
        return view

    def packed_rows(self, n: int) -> np.ndarray:
        """Read-only packed view of rows ``1 .. n-1`` for bulk consumers.

        Row ``k`` occupies ``[k (k-1) / 2, k (k+1) / 2)`` within the
        returned buffer; :func:`~repro.processes.hosking.hosking_generate`
        and the importance-sampling likelihood-ratio pass walk it with a
        running offset instead of calling :meth:`phi_row` per step.
        """
        self.ensure(n - 1)
        view = self._packed[: n * (n - 1) // 2]
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------
    # Prefix sharing
    # ------------------------------------------------------------------

    def is_prefix_of(self, acvf: np.ndarray) -> bool:
        """True if this table's acvf is a leading prefix of ``acvf``."""
        other = np.asarray(acvf, dtype=float)
        m = min(self._acvf.size, other.size)
        return bool(np.array_equal(self._acvf[:m], other[:m]))

    def extend(self, acvf: Union[Sequence[float], np.ndarray]) -> "CoefficientTable":
        """Grow the table in place to cover a longer autocovariance.

        ``acvf`` must extend the current sequence exactly (bit-for-bit
        prefix match); already-built rows are kept and the recursion
        resumes from the last built step, so extension never recomputes
        work that a shorter-horizon consumer already paid for.
        """
        new = np.array(np.asarray(acvf, dtype=float), copy=True)
        with self._lock:
            if not self.is_prefix_of(new):
                raise ValidationError(
                    "extension acvf disagrees with the table's prefix"
                )
            if new.size <= self._acvf.size:
                return self
            built = self._built
            n = new.size
            packed = np.empty(n * (n - 1) // 2, dtype=float)
            variances = np.empty(n, dtype=float)
            sqrt_variances = np.empty(n, dtype=float)
            phi_sums = np.empty(n, dtype=float)
            used = built * (built + 1) // 2
            packed[:used] = self._packed[:used]
            variances[: built + 1] = self._variances[: built + 1]
            sqrt_variances[: built + 1] = self._sqrt_variances[: built + 1]
            phi_sums[: built + 1] = self._phi_sums[: built + 1]
            state = DurbinLevinson.resume(
                new,
                step=built,
                phi=self._state.phi,
                variance=self._state.variance,
                partials=self._state.partials,
            )
            # Publish the enlarged buffers only after the prefix copy:
            # the old arrays stay valid and the new ones agree with
            # them on every row <= built, so a lock-free reader racing
            # these rebinds sees identical data either way.
            self._packed = packed
            self._variances = variances
            self._sqrt_variances = sqrt_variances
            self._phi_sums = phi_sums
            self._state = state
            self._acvf = new
        return self

    def __repr__(self) -> str:
        return (
            f"CoefficientTable(horizon={self.horizon}, "
            f"built_step={self.built_step})"
        )


def acvf_fingerprint(acvf: np.ndarray) -> bytes:
    """Cache key for an autocovariance: bytes of its leading lags.

    Only the first ``min(len(acvf), 8)`` lags are hashed — enough to
    separate real-world models — and every lookup verifies full prefix
    equality before sharing a table, so fingerprint collisions degrade
    to a plain comparison.
    """
    head = np.ascontiguousarray(
        acvf[: min(acvf.size, _FINGERPRINT_LAGS)], dtype=float
    )
    return head.tobytes()


class CacheInfo(NamedTuple):
    """Statistics for :func:`get_coefficient_table`."""

    hits: int
    misses: int
    extensions: int
    tables: int
    max_tables: int
    max_cached_horizon: int


_cache_lock = threading.RLock()
_cache: "OrderedDict[bytes, List[CoefficientTable]]" = OrderedDict()
_stats: Dict[str, int] = {
    "hits": 0, "misses": 0, "extensions": 0, "evictions": 0,
}
_max_tables = _DEFAULT_MAX_TABLES
_max_cached_horizon = _DEFAULT_MAX_CACHED_HORIZON


def get_coefficient_table(
    correlation: Union[CorrelationModel, Sequence[float], np.ndarray],
    n: int,
) -> CoefficientTable:
    """Return a (possibly shared) coefficient table covering ``n`` samples.

    The cache is keyed by :func:`acvf_fingerprint` of the resolved
    autocovariance.  A cached table whose acvf is a prefix-exact match
    is reused directly when long enough, or :meth:`extended
    <CoefficientTable.extend>` in place when the request is longer —
    either way the Durbin-Levinson recursion never runs twice over the
    same lags.  Requests beyond the configured horizon cap (see
    :func:`set_coefficient_cache_limits`) return an uncached table.
    """
    n = check_positive_int(n, "n")
    acvf = resolve_acvf(correlation, n)
    if n > _max_cached_horizon:
        return CoefficientTable(acvf)
    key = acvf_fingerprint(acvf)
    with _cache_lock:
        bucket = _cache.get(key)
        if bucket is not None:
            for table in bucket:
                if table.is_prefix_of(acvf):
                    if table.horizon < n:
                        table.extend(acvf)
                        _stats["extensions"] += 1
                    else:
                        _stats["hits"] += 1
                    _cache.move_to_end(key)
                    return table
        _stats["misses"] += 1
        table = CoefficientTable(acvf)
        _cache.setdefault(key, []).append(table)
        _cache.move_to_end(key)
        _evict_locked()
    return table


def _evict_locked() -> None:
    """Drop least-recently-used buckets beyond the table budget."""
    total = sum(len(bucket) for bucket in _cache.values())
    while total > _max_tables and _cache:
        _, bucket = _cache.popitem(last=False)
        total -= len(bucket)
        _stats["evictions"] += len(bucket)


def clear_coefficient_cache() -> None:
    """Empty the shared table cache and reset its statistics."""
    with _cache_lock:
        _cache.clear()
        _stats.update(hits=0, misses=0, extensions=0, evictions=0)


def coefficient_cache_info() -> CacheInfo:
    """Current hit/miss/extension counters and capacity settings."""
    with _cache_lock:
        return CacheInfo(
            hits=_stats["hits"],
            misses=_stats["misses"],
            extensions=_stats["extensions"],
            tables=sum(len(bucket) for bucket in _cache.values()),
            max_tables=_max_tables,
            max_cached_horizon=_max_cached_horizon,
        )


@contextmanager
def cache_metrics(metrics, **labels):
    """Record coeff-table cache activity within a block into ``metrics``.

    Snapshots the shared cache counters on entry and exit and records
    the deltas as ``coeff_table.hits`` / ``.misses`` / ``.extensions``
    / ``.evictions`` counters plus a ``coeff_table.tables`` gauge.

    ``metrics`` is duck-typed (anything with ``inc``/``set``, e.g. a
    :class:`repro.observability.RunContext`) so this module never
    imports :mod:`repro.observability` — the observability package sits
    below :mod:`repro.processes` in the import graph.  ``None`` or a
    disabled context makes the block free.
    """
    enabled = metrics is not None and getattr(metrics, "enabled", True)
    if not enabled:
        yield
        return
    with _cache_lock:
        before = dict(_stats)
    try:
        yield
    finally:
        with _cache_lock:
            after = dict(_stats)
            tables = sum(len(bucket) for bucket in _cache.values())
        for key in ("hits", "misses", "extensions", "evictions"):
            delta = after.get(key, 0) - before.get(key, 0)
            if delta:
                metrics.inc(f"coeff_table.{key}", delta, **labels)
        metrics.set("coeff_table.tables", tables, **labels)


def set_coefficient_cache_limits(
    *,
    max_tables: int = None,
    max_cached_horizon: int = None,
) -> None:
    """Adjust the cache budget (tables kept / largest cached horizon).

    ``max_tables`` bounds the number of live tables (LRU eviction);
    ``max_cached_horizon`` bounds the horizon served from the cache — a
    table costs ``~horizon^2 / 2`` doubles, so the cap keeps very long
    one-off generations from pinning large buffers.
    """
    global _max_tables, _max_cached_horizon
    with _cache_lock:
        if max_tables is not None:
            _max_tables = check_positive_int(max_tables, "max_tables")
        if max_cached_horizon is not None:
            _max_cached_horizon = check_positive_int(
                max_cached_horizon, "max_cached_horizon"
            )
        _evict_locked()
