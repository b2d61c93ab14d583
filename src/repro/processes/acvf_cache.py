"""One cache for the tables built from a background autocovariance.

The paper's generators each precompute one object per background
autocovariance and reuse it for every buffer size and twist of
Figs. 14-17: Durbin-Levinson coefficients for Hosking's recursion
(eq. 1-6, also read by Appendix B's likelihood ratios) in
:mod:`repro.processes.coeff_table`, and circulant eigenvalues for
Davies-Harte in :mod:`repro.processes.spectral_cache`.  How those
tables are resolved, shared and bounded is the same for both, and
lives here:

- :func:`resolve_acvf` — ``r(0) .. r(lags - 1)`` from a model or an
  explicit sequence, rejecting a non-positive ``r(0)``;
- :class:`AcvfTable` — the base of both tables: one stored
  autocovariance prefix, full-prefix verification, and in-place
  extension to a longer prefix-exact sequence;
- :class:`AcvfTableCache` — the fingerprint-keyed LRU (leading lags
  hashed, full prefix equality verified on every hit, a covering table
  reused and a shorter one extended in place), an identity-keyed weak
  per-model memo on top of it, the request-size cap, the
  hit/miss/extension/eviction counters and the metrics delta context
  manager.

The memo is part of the LRU rather than beside it: a memo hit
refreshes the table's LRU position, and an eviction drops the memo
entries of the tables it evicts, so every table the cache serves is
one of its at most ``max_tables`` live tables.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from .._validation import check_positive_int
from ..exceptions import CorrelationError, ValidationError
from .correlation import CorrelationModel

__all__ = [
    "AcvfTable",
    "AcvfTableCache",
    "acvf_fingerprint",
    "check_table_arg",
    "resolve_acvf",
]

AcvfLike = Union[CorrelationModel, Sequence[float], np.ndarray]
#: A memo entry: the table's bucket key and the table.
_Memo = Tuple[bytes, "AcvfTable"]

#: Number of leading lags hashed by :func:`acvf_fingerprint`.  Distinct
#: models almost always differ within the first few lags; full prefix
#: equality is verified on every cache hit, so collisions only cost a
#: comparison, never correctness.
_FINGERPRINT_LAGS = 8


def _check_variance(acvf: np.ndarray) -> np.ndarray:
    """Reject ``r(0) <= 0``: no Gaussian law has that variance."""
    if acvf.size and acvf[0] <= 0:
        raise CorrelationError(f"r(0) must be positive, got {acvf[0]}")
    return acvf


def resolve_acvf(correlation: AcvfLike, lags: int) -> np.ndarray:
    """Return ``r(0) .. r(lags - 1)`` from a model or an explicit sequence.

    Both table kinds and the uncached Davies-Harte path resolve their
    input here, so all of them reject a non-positive ``r(0)`` with the
    same :class:`~repro.exceptions.CorrelationError` as the
    Durbin-Levinson recursion.
    """
    if isinstance(correlation, CorrelationModel):
        return _check_variance(correlation.acvf(lags))
    acvf = np.asarray(correlation, dtype=float)
    if acvf.ndim != 1:
        raise ValidationError(
            f"acvf must be one-dimensional, got shape {acvf.shape}"
        )
    if acvf.size < lags:
        raise ValidationError(
            f"acvf of length {acvf.size} supplies too few lags (needs "
            f"{lags}), so it cannot generate the requested path"
        )
    return _check_variance(acvf[:lags])


def check_table_arg(value, name: str, table_type: type, bypass: str):
    """Validate a ``<name>=`` table argument before any draw.

    ``None`` or ``True`` mean the shared cache, ``False`` the uncached
    ``bypass``, and a ``table_type`` instance is used as-is; anything
    else raises :class:`~repro.exceptions.ValidationError` naming the
    argument.
    """
    if value is None or isinstance(value, (bool, table_type)):
        return value
    raise ValidationError(
        f"{name} must be a {table_type.__name__}, None (shared cache) "
        f"or False ({bypass}), got {value!r}"
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


class AcvfTable:
    """Base of the tables built from one autocovariance sequence.

    Holds a private copy of ``r(0) .. r(L)`` and a table lock.
    :meth:`extend` grows the sequence in place under that lock: it
    hands the longer sequence to :meth:`_grow`, which subclasses
    override to enlarge their own storage, and publishes it as
    :attr:`acvf` only afterwards.
    """

    #: Fewest lags the table accepts.
    min_lags = 1
    #: The cached lookup to use for a model (named in the error).
    lookup = "the cached lookup"

    def __init__(self, acvf: Union[Sequence[float], np.ndarray]) -> None:
        if isinstance(acvf, CorrelationModel):
            raise ValidationError(
                f"{type(self).__name__} takes an explicit acvf sequence; "
                f"use {self.lookup}(model, n) for model-driven lookup"
            )
        r = np.array(np.asarray(acvf, dtype=float), copy=True)
        if r.ndim != 1 or r.size < self.min_lags:
            raise ValidationError(
                f"acvf must be a 1-D sequence of at least {self.min_lags} "
                f"lag(s) (r(0), r(1), ...), got shape {r.shape}"
            )
        self._lock = threading.RLock()
        self._acvf = _check_variance(r)

    @property
    def horizon(self) -> int:
        """Number of stored autocovariance lags (``len(acvf)``)."""
        return self._acvf.size

    @property
    def acvf(self) -> np.ndarray:
        """The autocovariance backing this table (read-only view)."""
        view = self._acvf[:]
        view.flags.writeable = False
        return view

    def is_prefix_of(self, acvf: np.ndarray) -> bool:
        """True if this table's acvf and ``acvf`` agree on common lags."""
        other = np.asarray(acvf, dtype=float)
        mine = self._acvf
        m = min(mine.size, other.size)
        return bool(np.array_equal(mine[:m], other[:m]))

    def extend(self, acvf: Union[Sequence[float], np.ndarray]) -> "AcvfTable":
        """Grow the table in place to cover a longer autocovariance.

        ``acvf`` must extend the current sequence exactly (bit-for-bit
        prefix match); a shorter or equal one is a no-op.  Everything
        already derived from the current prefix stays valid, because
        extension never changes a covered lag.
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
            if new.size > self._acvf.size:
                self._grow(new)
                self._acvf = new
        return self

    def _grow(self, acvf: np.ndarray) -> None:
        """Enlarge subclass storage for ``acvf`` (called under the lock)."""


class AcvfTableCache:
    """Fingerprint-keyed LRU of :class:`AcvfTable` s with a per-model memo.

    Parameters
    ----------
    prefix:
        Metric-name prefix of :meth:`metrics` (``"coeff_table"``,
        ``"spectral"``).
    table_type:
        The :class:`AcvfTable` subclass built on a miss.
    lag_offset:
        Lags an ``n``-sample request needs beyond ``n``: 0 for the
        coefficient rows of ``r(0) .. r(n-1)``, 1 for the circulant
        embedding of ``r(0) .. r(n)``.
    max_tables:
        Live tables kept (least recently used evicted first).
    max_request:
        Largest ``n`` served from the cache; longer requests get a
        fresh, unshared table.
    request_limit:
        Public name of ``max_request`` (validation messages).
    counters, timers, tallies:
        Table-kind statistics kept beside the lookup counters.
        :meth:`metrics` records ``counters`` as counter deltas and
        ``timers`` as summary observations; ``tallies`` appear only in
        :meth:`stats`.
    """

    def __init__(
        self,
        prefix: str,
        table_type: Type[AcvfTable],
        *,
        lag_offset: int,
        max_tables: int,
        max_request: int,
        request_limit: str,
        counters: Tuple[str, ...] = (),
        timers: Tuple[str, ...] = (),
        tallies: Tuple[str, ...] = (),
    ) -> None:
        self._prefix = prefix
        self._table_type = table_type
        self._lag_offset = lag_offset
        self._request_limit = request_limit
        self.max_tables = max_tables
        self.max_request = max_request
        self._counters = ("hits", "misses", "extensions", "evictions")
        self._counters += counters
        self._timers = timers
        self._zero: Dict[str, float] = dict.fromkeys(
            self._counters + tallies, 0
        )
        self._zero.update(dict.fromkeys(timers, 0.0))
        self._lock = threading.RLock()
        # Leaf lock for the statistics: taken with other locks held but
        # never while acquiring one, so table and cache locks cannot
        # deadlock on it.
        self._stats_lock = threading.Lock()
        self._stats = dict(self._zero)
        self._buckets: "OrderedDict[bytes, List[AcvfTable]]" = OrderedDict()
        # Identity-keyed weak memo: model -> (bucket key, table).
        # Identity implies the same acvf values (model evaluation is
        # deterministic), so a memo hit needs no prefix verification
        # and, when the table already covers the request, no acvf
        # evaluation at all.
        self._memo: "weakref.WeakKeyDictionary[CorrelationModel, _Memo]" = (
            weakref.WeakKeyDictionary()
        )

    def get(self, correlation: AcvfLike, n: int) -> AcvfTable:
        """Return a (possibly shared) table covering an ``n``-sample request.

        Lookup order: the weak per-model memo (for a live
        :class:`CorrelationModel` whose table already covers the
        request, the acvf is not evaluated); then the fingerprint LRU,
        reusing a prefix-exact covering table or extending a shorter
        one in place; then a fresh table.  Requests with ``n`` above
        ``max_request`` return an uncached table.
        """
        n = check_positive_int(n, "n")
        lags = n + self._lag_offset
        if n > self.max_request:
            return self._table_type(resolve_acvf(correlation, lags))
        is_model = isinstance(correlation, CorrelationModel)
        if is_model:
            with self._lock:
                memo = self._memo.get(correlation)
                if memo is not None and memo[1].horizon >= lags:
                    self._buckets.move_to_end(memo[0])
                    self.count("hits")
                    return memo[1]
        acvf = resolve_acvf(correlation, lags)
        key = acvf_fingerprint(acvf)
        with self._lock:
            table = self._lookup_locked(key, acvf)
            if is_model:
                self._memo[correlation] = (key, table)
        return table

    def _lookup_locked(self, key: bytes, acvf: np.ndarray) -> AcvfTable:
        for table in self._buckets.get(key, ()):
            if table.is_prefix_of(acvf):
                if table.horizon < acvf.size:
                    table.extend(acvf)
                    self.count("extensions")
                else:
                    self.count("hits")
                self._buckets.move_to_end(key)
                return table
        self.count("misses")
        table = self._table_type(acvf)
        self._buckets.setdefault(key, []).append(table)
        self._buckets.move_to_end(key)
        self._evict_locked()
        return table

    def _evict_locked(self) -> None:
        """Drop least-recently-used buckets, and their memo entries,
        beyond the table budget."""
        total = sum(len(bucket) for bucket in self._buckets.values())
        evicted = set()
        while total > self.max_tables and self._buckets:
            _, bucket = self._buckets.popitem(last=False)
            total -= len(bucket)
            evicted.update(id(table) for table in bucket)
        if evicted:
            self.count("evictions", len(evicted))
            for model, (_, table) in list(self._memo.items()):
                if id(table) in evicted:
                    del self._memo[model]

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to one statistic."""
        with self._stats_lock:
            self._stats[name] += amount

    def tables(self) -> List[AcvfTable]:
        """The live tables, least recently used first."""
        with self._lock:
            return [t for bucket in self._buckets.values() for t in bucket]

    def stats(self) -> Dict[str, float]:
        """Snapshot of every statistic plus the live table count."""
        with self._lock:
            tables = sum(len(bucket) for bucket in self._buckets.values())
            with self._stats_lock:
                snapshot = dict(self._stats)
        snapshot["tables"] = tables
        return snapshot

    def clear(self) -> None:
        """Drop every table and memo entry and zero the statistics."""
        with self._lock:
            self._buckets.clear()
            self._memo.clear()
            with self._stats_lock:
                self._stats = dict(self._zero)

    def set_limits(
        self,
        *,
        max_tables: Optional[int] = None,
        max_request: Optional[int] = None,
    ) -> None:
        """Adjust the table budget and the request cap, evicting at once.

        Both values are validated before either is applied.
        """
        if max_tables is not None:
            max_tables = check_positive_int(max_tables, "max_tables")
        if max_request is not None:
            max_request = check_positive_int(max_request, self._request_limit)
        with self._lock:
            if max_tables is not None:
                self.max_tables = max_tables
            if max_request is not None:
                self.max_request = max_request
            self._evict_locked()

    @contextmanager
    def metrics(self, metrics, **labels):
        """Record the cache activity within a block into ``metrics``.

        Snapshots the statistics on entry and exit and records the
        deltas as ``<prefix>.hits`` / ``.misses`` / ``.extensions`` /
        ``.evictions`` and table-kind counters, each timer as one
        summary observation, and a ``<prefix>.tables`` gauge.

        ``metrics`` is duck-typed (anything with ``inc``/``set``/
        ``observe``, e.g. a :class:`repro.observability.RunContext`),
        so this package never imports :mod:`repro.observability`, which
        sits below it in the import graph.  ``None`` or a disabled
        context makes the block free.
        """
        if metrics is None or not getattr(metrics, "enabled", True):
            yield
            return
        before = self.stats()
        try:
            yield
        finally:
            after = self.stats()
            for key in self._counters:
                delta = after[key] - before[key]
                if delta:
                    metrics.inc(f"{self._prefix}.{key}", delta, **labels)
            for key in self._timers:
                delta = after[key] - before[key]
                if delta > 0:
                    metrics.observe(f"{self._prefix}.{key}", delta, **labels)
            metrics.set(f"{self._prefix}.tables", after["tables"], **labels)
