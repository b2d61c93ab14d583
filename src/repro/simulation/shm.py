"""Zero-copy shared-memory transport for cross-process ndarray results.

The process-parallel engines (the sharded aggregate model's per-block
partial sums, the chunked pipeline's stitched chunk legs) return large
``float64`` arrays from worker processes.  By default those arrays
travel back through pickle over a pipe — one serialize, one byte-copy
through the OS, one deserialize per result.  This module replaces that
round trip with POSIX shared memory: the *worker* copies its result
into a fresh :mod:`multiprocessing.shared_memory` segment and returns
only a tiny :class:`ShmArrayRef` descriptor ``(segment, offset, shape,
dtype)``; the *parent* maps the segment, reads the array in place (or
copies it once into caller-owned memory), and unlinks the segment.

Lifetime contract
-----------------
Segments are created by workers and owned by the parent from the moment
the descriptor is redeemed.  Every segment is unlinked on exactly one
of three paths, in order of preference:

1. normal redemption (:func:`redeem_copy` or attach/``release``);
2. the exception drain in :mod:`repro.simulation.parallel`, which
   awaits in-flight futures after a failure and discards any
   descriptors they produced;
3. the :func:`sweep_segments` ``atexit`` hook, which unlinks any
   ``/dev/shm`` entry carrying this process's name prefix.

Python's :mod:`multiprocessing.resource_tracker` would otherwise
double-manage these segments — it registers every segment on both
create *and* attach, and the worker-side and parent-side
register/unregister messages race through the tracker pipe, producing
spurious ``KeyError`` noise at best and double unlinks at worst.  Every
``SharedMemory`` call in this module therefore runs under
:func:`_tracker_bypass`, which scopes out tracker registration
entirely; lifetime is managed here alone.

Everything in this module is transport only: it never touches a random
stream, so results are bit-identical to the pickle path.
"""

from __future__ import annotations

import atexit
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import ValidationError

try:  # pragma: no cover - always present on CPython >= 3.8
    from multiprocessing import resource_tracker as _resource_tracker
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platforms without _posixshmem
    _resource_tracker = None
    _shared_memory = None

__all__ = [
    "DEFAULT_MIN_BYTES",
    "MIN_BYTES_ENV",
    "ShmArrayRef",
    "ShmExportTask",
    "shm_available",
    "export_array",
    "redeem_copy",
    "attach",
    "release",
    "discard",
    "resolve_min_bytes",
    "note_pickled",
    "shm_stats",
    "reset_shm_stats",
    "sweep_segments",
]

#: Results smaller than this (bytes) ride the pickle path — a pipe
#: round trip beats segment setup for tiny arrays.  Overridden by
#: ``REPRO_SHM_MIN_BYTES``.
DEFAULT_MIN_BYTES = 64 * 1024

#: Environment variable overriding :data:`DEFAULT_MIN_BYTES`.
MIN_BYTES_ENV = "REPRO_SHM_MIN_BYTES"

_SHM_DIR = "/dev/shm"

_lock = threading.RLock()
_stats: Dict[str, int] = {
    "segments_received": 0,
    "segments_unlinked": 0,
    "bytes_zero_copy": 0,
    "bytes_pickled": 0,
    "fallbacks": 0,
}
#: Names of segments attached in this process and not yet unlinked.
_live: set = set()
_seq = 0
_available: Optional[bool] = None


@dataclass(frozen=True)
class ShmArrayRef:
    """Descriptor for an ndarray parked in a shared-memory segment.

    This is the only thing that crosses the pipe on the zero-copy path:
    the segment name, a byte offset, and the shape/dtype needed to
    reconstruct the array view on the parent side.
    """

    segment: str
    offset: int
    shape: Tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        """Payload size in bytes described by this reference."""
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return int(np.dtype(self.dtype).itemsize) * count


@contextmanager
def _tracker_bypass():
    """Scope out resource-tracker bookkeeping for this module's segments.

    The stdlib registers every segment with the tracker on both create
    and attach and unregisters on unlink; with one side in a worker and
    the other in the parent those messages race, and the tracker would
    also unlink anything it still tracks at exit — fighting the
    explicit lifetime contract above.  Within this context manager
    ``shared_memory``'s register/unregister calls become no-ops for the
    ``"shared_memory"`` rtype (other rtypes pass through).  Held under
    ``_lock``, so concurrent callers of this module serialize; other
    threads creating *their own* tracked segments during the (tiny)
    window would skip registration, which no repro code path does.
    """
    if _resource_tracker is None:  # pragma: no cover
        yield
        return
    with _lock:
        orig_register = _resource_tracker.register
        orig_unregister = _resource_tracker.unregister

        def register(name, rtype):
            if rtype != "shared_memory":  # pragma: no cover - passthrough
                orig_register(name, rtype)

        def unregister(name, rtype):
            if rtype != "shared_memory":  # pragma: no cover - passthrough
                orig_unregister(name, rtype)

        _resource_tracker.register = register
        _resource_tracker.unregister = unregister
        try:
            yield
        finally:
            _resource_tracker.register = orig_register
            _resource_tracker.unregister = orig_unregister


def shm_available() -> bool:
    """Whether POSIX shared memory works in this environment (cached)."""
    global _available
    if _available is None:
        if _shared_memory is None:  # pragma: no cover
            _available = False
        else:
            try:
                with _tracker_bypass():
                    probe = _shared_memory.SharedMemory(create=True, size=1)
            except (OSError, ValueError):  # pragma: no cover - no /dev/shm
                _available = False
            else:
                probe.close()
                with _tracker_bypass():
                    try:
                        probe.unlink()
                    except OSError:  # pragma: no cover
                        pass
                _available = True
    return _available


def _segment_name() -> str:
    """Fresh segment name carrying the parent-process sweep prefix.

    Workers are forked from the parent, so ``os.getppid()`` inside a
    worker is the process that will run :func:`sweep_segments` — the
    prefix is what lets that atexit hook find orphans.
    """
    global _seq
    with _lock:
        _seq += 1
        seq = _seq
    return f"repro{os.getppid()}_{os.getpid()}_{seq}"


def export_array(array: np.ndarray) -> ShmArrayRef:
    """Copy ``array`` into a fresh shared segment and return its descriptor.

    Runs on the *worker* side.  The parent owns the segment once the
    descriptor is returned; it is unlinked here only if the copy itself
    fails.
    """
    array = np.asarray(array)
    size = max(int(array.nbytes), 1)
    while True:
        name = _segment_name()
        try:
            with _tracker_bypass():
                segment = _shared_memory.SharedMemory(
                    name=name, create=True, size=size
                )
            break
        except FileExistsError:  # recycled pid; bump the counter and retry
            continue
    try:
        if array.nbytes:
            view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
            np.copyto(view, array)
            del view
        ref = ShmArrayRef(
            segment=name,
            offset=0,
            shape=tuple(int(dim) for dim in array.shape),
            dtype=str(array.dtype),
        )
    except BaseException:
        segment.close()
        with _tracker_bypass():
            try:
                segment.unlink()
            except OSError:  # pragma: no cover
                pass
        raise
    segment.close()
    return ref


def attach(ref: ShmArrayRef):
    """Map ``ref``'s segment and return ``(array_view, segment)``.

    Runs on the *parent* side.  The caller must drop every view into
    ``array_view`` before calling :func:`release` on the segment.
    """
    with _tracker_bypass():
        segment = _shared_memory.SharedMemory(name=ref.segment, create=False)
    array = np.ndarray(
        ref.shape, dtype=ref.dtype, buffer=segment.buf, offset=ref.offset
    )
    with _lock:
        _stats["segments_received"] += 1
        _stats["bytes_zero_copy"] += ref.nbytes
        _live.add(ref.segment)
    return array, segment


def release(ref: ShmArrayRef, segment) -> None:
    """Close and unlink a segment returned by :func:`attach`."""
    try:
        segment.close()
    except BufferError:  # a consumer kept a view; unlink still frees the name
        pass
    with _tracker_bypass():
        try:
            segment.unlink()
        except (OSError, FileNotFoundError):  # pragma: no cover - gone
            pass
    with _lock:
        _stats["segments_unlinked"] += 1
        _live.discard(ref.segment)


def redeem_copy(ref: ShmArrayRef) -> np.ndarray:
    """Attach, copy into caller-owned memory, and unlink in one step."""
    array, segment = attach(ref)
    try:
        result = np.array(array)
    finally:
        del array
        release(ref, segment)
    return result


def discard(ref: ShmArrayRef) -> None:
    """Unlink a descriptor without materializing it (error-drain path)."""
    try:
        with _tracker_bypass():
            segment = _shared_memory.SharedMemory(
                name=ref.segment, create=False
            )
    except (OSError, FileNotFoundError):  # pragma: no cover - already swept
        return
    with _lock:
        _stats["segments_received"] += 1
        _live.add(ref.segment)
    release(ref, segment)


def resolve_min_bytes() -> int:
    """Zero-copy size threshold: ``REPRO_SHM_MIN_BYTES`` or the default.

    ``0`` sends every ndarray result through shared memory; a value
    above every result pickles them all.  Resolved in the parent at call
    time so the environment is read from the calling process, never
    from a long-lived worker's stale copy.
    """
    raw = os.environ.get(MIN_BYTES_ENV, "")
    stripped = raw.strip()
    if not raw:
        return DEFAULT_MIN_BYTES
    try:
        value = int(stripped) if stripped else None
    except ValueError:
        value = None
    if value is None or value < 0:
        raise ValidationError(
            f"{MIN_BYTES_ENV} must be a non-negative integer, got {raw!r}"
        )
    return value


class ShmExportTask:
    """Picklable task wrapper exporting large ndarray results via shm.

    Wraps a module-level task function; results that are ndarrays of at
    least ``min_bytes`` bytes come back as :class:`ShmArrayRef`
    descriptors, everything else takes the normal pickle path.  The
    threshold is captured in the parent and shipped inside the wrapper
    so stale worker environments cannot influence it.
    """

    __slots__ = ("fn", "min_bytes")

    def __init__(self, fn, min_bytes: int):
        self.fn = fn
        self.min_bytes = int(min_bytes)

    def __getstate__(self):
        return (self.fn, self.min_bytes)

    def __setstate__(self, state):
        fn, min_bytes = state
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "min_bytes", min_bytes)

    def __call__(self, payload):
        result = self.fn(payload)
        if isinstance(result, np.ndarray) and result.nbytes >= self.min_bytes:
            return export_array(result)
        return result


def note_pickled(nbytes: int) -> None:
    """Record ndarray bytes that crossed the pipe via pickle instead."""
    with _lock:
        _stats["bytes_pickled"] += int(nbytes)


def note_fallback() -> None:
    """Record a pooled process run served by pickle (shm unavailable)."""
    with _lock:
        _stats["fallbacks"] += 1


def shm_stats() -> Dict[str, int]:
    """Snapshot of transport counters (plus the ``segments_live`` gauge)."""
    with _lock:
        out = dict(_stats)
        out["segments_live"] = len(_live)
    return out


def reset_shm_stats() -> None:
    """Zero the counters (test/bench seam); the live set is untouched."""
    with _lock:
        for key in _stats:
            _stats[key] = 0


def live_segments() -> List[str]:
    """Names of segments attached but not yet unlinked (should be empty)."""
    with _lock:
        return sorted(_live)


def sweep_segments() -> int:
    """Unlink any leftover ``/dev/shm`` entry with this process's prefix.

    Registered with :mod:`atexit` as the last-resort leak backstop; safe
    to call at any time (a normal run has nothing to sweep).  Returns
    the number of entries removed.
    """
    prefix = f"repro{os.getpid()}_"
    removed = 0
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:
        names = []
    for name in names:
        if name.startswith(prefix):
            try:
                os.unlink(os.path.join(_SHM_DIR, name))
                removed += 1
            except OSError:  # pragma: no cover - raced with a release
                continue
    if removed:
        with _lock:
            _live.clear()
    return removed


atexit.register(sweep_segments)
