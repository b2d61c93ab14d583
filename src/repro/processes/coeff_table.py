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
- **Shared cache.**  :func:`get_coefficient_table` serves tables from
  the acvf-keyed cache of :mod:`repro.processes.acvf_cache` (leading-lag
  fingerprint, full prefix verification, a weak per-model memo, LRU
  eviction), so independent call sites (the batch generator, the
  exact chunk stitch, the importance-sampling likelihood ratios) all
  share one table per background model without coordinating.

Because the table wraps the exact same
:class:`~repro.processes.partial_corr.DurbinLevinson` recursion, every
stored coefficient is bit-identical to what the incremental path would
have produced — table-backed generation is a pure reuse optimization,
not an approximation.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from ..exceptions import ValidationError
from .acvf_cache import (
    AcvfTable,
    AcvfTableCache,
    acvf_fingerprint,
    resolve_acvf,
)
from .correlation import CorrelationModel
from .partial_corr import DurbinLevinson

__all__ = [
    "CoefficientTable",
    "acvf_fingerprint",
    "get_coefficient_table",
    "clear_coefficient_cache",
    "coefficient_cache_info",
    "cache_metrics",
    "resolve_acvf",
]


class CoefficientTable(AcvfTable):
    """All Durbin-Levinson outputs for one autocovariance, built lazily.

    Parameters
    ----------
    acvf:
        Autocovariance sequence ``r(0), ..., r(n-1)`` (copied).  The
        table supports generating up to ``n`` samples, i.e. recursion
        steps ``1 .. n-1``.  Rows are built on demand (see
        :meth:`ensure`), so consumers that stop early —
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

    lookup = "get_coefficient_table"

    def __init__(self, acvf: Union[Sequence[float], np.ndarray]) -> None:
        super().__init__(acvf)
        r = self._acvf
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

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def max_step(self) -> int:
        """Largest recursion step available (``horizon - 1``)."""
        return self._acvf.size - 1

    @property
    def built_step(self) -> int:
        """Highest recursion step materialized so far."""
        return self._built

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

    def _grow(self, acvf: np.ndarray) -> None:
        """Enlarge the buffers for a longer acvf, resuming the recursion.

        Already-built rows are copied over and the recursion resumes
        from the last built step, so extension never recomputes work
        that a shorter-horizon consumer already paid for.
        """
        built = self._built
        n = acvf.size
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
            acvf,
            step=built,
            phi=self._state.phi,
            variance=self._state.variance,
            partials=self._state.partials,
        )
        # Publish the enlarged buffers only after the prefix copy: the
        # old arrays stay valid and the new ones agree with them on
        # every row <= built, so a lock-free reader racing these
        # rebinds sees identical data either way.
        self._packed = packed
        self._variances = variances
        self._sqrt_variances = sqrt_variances
        self._phi_sums = phi_sums
        self._state = state

    def __repr__(self) -> str:
        return (
            f"CoefficientTable(horizon={self.horizon}, "
            f"built_step={self.built_step})"
        )


class CacheInfo(NamedTuple):
    """Statistics for :func:`get_coefficient_table`."""

    hits: int
    misses: int
    extensions: int
    evictions: int
    tables: int
    max_tables: int
    max_cached_horizon: int


#: The shared cache.  A table costs O(horizon^2 / 2) doubles, so
#: uncapped caching of very long runs would dwarf the sample paths
#: themselves: horizons above 4096 get an uncached table, and
#: :func:`~repro.processes.hosking.hosking_generate` runs the recursion
#: in step for them instead of asking for one.
_CACHE = AcvfTableCache(
    "coeff_table",
    CoefficientTable,
    lag_offset=0,
    max_tables=8,
    max_request=4096,
    request_limit="max_cached_horizon",
)


def get_coefficient_table(
    correlation: Union[CorrelationModel, Sequence[float], np.ndarray],
    n: int,
) -> CoefficientTable:
    """Return a (possibly shared) coefficient table covering ``n`` samples.

    A cached table whose acvf is a prefix-exact match is reused
    directly when long enough, or :meth:`extended
    <CoefficientTable.extend>` in place when the request is longer —
    either way the Durbin-Levinson recursion never runs twice over the
    same lags.  See :meth:`AcvfTableCache.get
    <repro.processes.acvf_cache.AcvfTableCache.get>` for the lookup
    order; requests beyond the horizon cap (4096, reported by
    :func:`coefficient_cache_info`) return an uncached table.
    """
    return _CACHE.get(correlation, n)


def clear_coefficient_cache() -> None:
    """Empty the shared table cache and reset its statistics."""
    _CACHE.clear()


def coefficient_cache_info() -> CacheInfo:
    """Current hit/miss/extension/eviction counters and capacity settings."""
    stats = _CACHE.stats()
    return CacheInfo(
        hits=stats["hits"],
        misses=stats["misses"],
        extensions=stats["extensions"],
        evictions=stats["evictions"],
        tables=stats["tables"],
        max_tables=_CACHE.max_tables,
        max_cached_horizon=_CACHE.max_request,
    )


def cache_metrics(ctx, **labels):
    """Record coeff-table cache activity within a block into ``ctx``.

    The deltas land as ``coeff_table.hits`` / ``.misses`` /
    ``.extensions`` / ``.evictions`` counters plus a
    ``coeff_table.tables`` gauge; ``None`` or a disabled context makes
    the block free (see :meth:`AcvfTableCache.metrics
    <repro.processes.acvf_cache.AcvfTableCache.metrics>`).
    """
    return _CACHE.metrics(ctx, **labels)


def _set_coefficient_cache_limits(
    *,
    max_tables: Optional[int] = None,
    max_cached_horizon: Optional[int] = None,
) -> None:
    """Adjust the cache budget (tables kept / largest cached horizon).

    A test seam: the library runs at the limits ``_CACHE`` is built
    with.  ``max_tables`` bounds the number of live tables (LRU
    eviction); ``max_cached_horizon`` bounds the horizon served from
    the cache — a table costs ``~horizon^2 / 2`` doubles, so the cap
    keeps very long one-off generations from pinning large buffers.
    """
    _CACHE.set_limits(max_tables=max_tables, max_request=max_cached_horizon)
