"""Worker-pool execution of independent simulation legs and chunk jobs.

The queueing figures are embarrassingly parallel across *legs*: one
buffer size, one background model, or one twisted-mean candidate per
leg (Figs. 14, 16, 17).  Each leg is seeded with its own child
generator from :func:`~repro.stats.random.spawn_rngs` *before* any leg
runs, so results are bit-for-bit identical whatever the worker count
or completion order — parallelism only reorders wall-clock time, never
randomness.

Two pool flavours share one private execution engine, reached through
:func:`run_tasks` (collect every result) and :func:`reduce_tasks`
(stream results into an ordered fold):

- **Threads** for the leg runners (:func:`run_legs`): the heavy
  per-step work (BLAS matrix-vector products, bulk normal draws)
  releases the GIL, the shared :mod:`~repro.processes.coeff_table`
  cache stays shared, and nothing needs to be pickled.
- **Processes** for the scene-chunked generation pipeline
  (:mod:`repro.processes.chunked`) and the sharded aggregate engine
  (:mod:`repro.core.aggregate`): tasks are pure picklable payloads, so
  they sidestep the GIL entirely and scale FFT-bound synthesis across
  cores.

Persistent shared pool
----------------------
Process pools are expensive to build (fork + interpreter warm-up per
worker), and the capacity runners used to pay that price once per
``generate()`` call.  :func:`shared_pool` keeps one process-wide,
lazily created :class:`~concurrent.futures.ProcessPoolExecutor` alive
across calls, and ``run_tasks``/``reduce_tasks`` serve every
``kind="process"`` run from it.  The pool is rebuilt only when a
different size is requested or a worker died, and it is shut down by an
:mod:`atexit` hook (or explicitly via :func:`shutdown_shared_pool`).
Each worker runs :func:`_prewarm_worker` once at spawn, paying the
backend-registry and spectral/coefficient cache imports per *worker*
instead of per task.  Pool lifetime never touches task seeding, so
results are bit-identical whichever pool serves them.

Zero-copy transport
-------------------
Pooled process runs park ndarray results of at least
``REPRO_SHM_MIN_BYTES`` bytes (default 64 KiB) in
:mod:`multiprocessing.shared_memory` segments and send back only tiny
descriptors (see :mod:`repro.simulation.shm`); smaller results, and
everything else, ride the pickle pipe.  The threshold is the only
transport setting: ``0`` sends every ndarray result through a segment,
a value above every result pickles them all.  When shared memory is
unavailable the engine falls back to pickle.  Transport only moves
bytes — results are bit-identical at any threshold.

Knobs and precedence
--------------------
``workers=`` on the runners selects the thread-pool size per call;
``None`` defers to the ``REPRO_WORKERS`` environment variable (default
1 = serial in-line execution, which bypasses the pool entirely).
``processes=`` on the process-parallel engines works the same way
against ``REPRO_PROCESSES``.  The two variables are independent: a
chunked generation running inside a threaded leg pool reads
``REPRO_PROCESSES`` for its chunk jobs and never consults
``REPRO_WORKERS``, and the leg runners never consult
``REPRO_PROCESSES``.  An explicit argument always wins over its
environment variable.  A set-but-malformed variable (zero, negative,
non-integer, or whitespace) raises
:class:`~repro.exceptions.ValidationError` naming the variable and the
offending value.  Neither knob ever changes results: pool sizing only
reorders wall-clock time.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from collections import deque
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

import numpy as np

from .._validation import check_choice, check_positive_int
from ..exceptions import ValidationError
from ..observability import ensure_context
from . import shm as _shm
from .shm import ShmArrayRef, ShmExportTask

__all__ = [
    "default_workers",
    "resolve_workers",
    "default_processes",
    "resolve_processes",
    "shared_pool",
    "shutdown_shared_pool",
    "pool_stats",
    "reset_pool_stats",
    "run_legs",
    "run_tasks",
    "reduce_tasks",
]

T = TypeVar("T")
P = TypeVar("P")

#: Environment variable consulted when ``workers=None`` (thread legs).
WORKERS_ENV = "REPRO_WORKERS"

#: Environment variable consulted when ``processes=None`` (chunk jobs).
PROCESSES_ENV = "REPRO_PROCESSES"


def _env_count(name: str) -> int:
    """Pool size implied by environment variable ``name``.

    Unset or empty means 1 (serial).  Anything else must parse as a
    positive integer; zero, negative, non-integer, and whitespace-only
    values raise a :class:`ValidationError` naming the variable and the
    offending value rather than silently running serial.
    """
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return 1
    stripped = raw.strip()
    value: Optional[int] = None
    if stripped:
        try:
            value = int(stripped)
        except ValueError:
            value = None
    if value is None or value <= 0:
        raise ValidationError(
            f"{name} must be a positive integer, got {raw!r}"
        )
    return value


def default_workers() -> int:
    """Worker count implied by the environment (``REPRO_WORKERS``).

    Returns 1 (serial) when the variable is unset or empty; raises
    :class:`ValidationError` when it is set but malformed.
    """
    return _env_count(WORKERS_ENV)


def resolve_workers(workers: Optional[int]) -> int:
    """Validate an explicit ``workers`` argument or fall back to the env."""
    if workers is None:
        return default_workers()
    return check_positive_int(workers, "workers")


def default_processes() -> int:
    """Process count implied by the environment (``REPRO_PROCESSES``).

    Returns 1 (in-line) when the variable is unset or empty; raises
    :class:`ValidationError` when it is set but malformed.
    """
    return _env_count(PROCESSES_ENV)


def resolve_processes(processes: Optional[int]) -> int:
    """Validate an explicit ``processes`` argument or fall back to the env."""
    if processes is None:
        return default_processes()
    return check_positive_int(processes, "processes")


# ---------------------------------------------------------------------------
# Persistent shared process pool
# ---------------------------------------------------------------------------

_pool_lock = threading.RLock()
_shared_pool_exec: Optional[ProcessPoolExecutor] = None
_shared_pool_size = 0
_pool_counters: Dict[str, int] = {
    "spinups": 0,
    "reuse_hits": 0,
    "shutdowns": 0,
}


def _prewarm_worker() -> None:
    """Per-worker initializer: pay heavy imports once per worker.

    Touches the backend registry and the spectral/coefficient cache
    modules so the first task on each worker does not pay their import
    cost.  Fork-started workers additionally inherit the parent's warm
    cache contents for free.
    """
    try:
        import repro.processes.coeff_table  # noqa: F401
        import repro.processes.davies_harte  # noqa: F401
        import repro.processes.registry  # noqa: F401
        import repro.processes.spectral_cache  # noqa: F401
    except ImportError:  # pragma: no cover - partial install
        pass


def shared_pool(
    processes: Optional[int] = None, *, metrics=None
) -> ProcessPoolExecutor:
    """Return the process-wide reusable pool, (re)building it if needed.

    The pool is created lazily on first use, sized by ``processes``
    (``None`` defers to ``REPRO_PROCESSES``), and kept alive across
    calls — workers spawn on demand, so an idle slot costs nothing.  A
    request for a different size, or a broken pool (a worker died),
    triggers a rebuild; otherwise the live pool is returned as-is.  The
    pool is never shut down by callers: an :mod:`atexit` hook (or an
    explicit :func:`shutdown_shared_pool`) ends its life.

    ``metrics`` records ``pool.spinups`` / ``pool.reuse_hits`` counters
    and a ``pool.size`` gauge.
    """
    global _shared_pool_exec, _shared_pool_size
    size = resolve_processes(processes)
    ctx = ensure_context(metrics)
    with _pool_lock:
        pool = _shared_pool_exec
        if (
            pool is not None
            and _shared_pool_size == size
            and not getattr(pool, "_broken", False)
        ):
            _pool_counters["reuse_hits"] += 1
            ctx.inc("pool.reuse_hits")
            ctx.set("pool.size", size)
            return pool
        if pool is not None:
            _shared_pool_exec = None
            _shared_pool_size = 0
            pool.shutdown(wait=True)
            _pool_counters["shutdowns"] += 1
        pool = ProcessPoolExecutor(
            max_workers=size, initializer=_prewarm_worker
        )
        _shared_pool_exec = pool
        _shared_pool_size = size
        _pool_counters["spinups"] += 1
        ctx.inc("pool.spinups")
        ctx.set("pool.size", size)
        return pool


def shutdown_shared_pool() -> None:
    """Shut down the shared pool (if live) and forget it.

    Safe to call repeatedly; the next :func:`shared_pool` call builds a
    fresh pool.  Registered with :mod:`atexit` so the interpreter never
    exits with live workers.
    """
    global _shared_pool_exec, _shared_pool_size
    with _pool_lock:
        pool = _shared_pool_exec
        _shared_pool_exec = None
        _shared_pool_size = 0
        if pool is not None:
            _pool_counters["shutdowns"] += 1
    if pool is not None:
        pool.shutdown(wait=True)


def pool_stats() -> Dict[str, int]:
    """Snapshot of shared-pool counters plus the current ``size`` gauge."""
    with _pool_lock:
        out = dict(_pool_counters)
        out["size"] = _shared_pool_size if _shared_pool_exec is not None else 0
    return out


def reset_pool_stats() -> None:
    """Zero the shared-pool counters (test/bench seam)."""
    with _pool_lock:
        for key in _pool_counters:
            _pool_counters[key] = 0


atexit.register(shutdown_shared_pool)


def _invoke(job: Callable[[], T]) -> T:
    """Run a zero-argument leg job (the ``run_legs`` task function)."""
    return job()


def _timed_call(fn, payload):
    """Run ``fn(payload)`` and return ``(result, wall_seconds)``.

    Module-level so it can cross a process boundary; the timing happens
    inside the worker and never touches a random stream.
    """
    start = time.perf_counter()
    result = fn(payload)
    return result, time.perf_counter() - start


def _drain_futures(futures: Sequence, timed: bool) -> None:
    """Cancel or await leftover futures, unlinking any shm results.

    The error path of the pooled engine: once a task or the consumer
    has raised, every in-flight future may still complete and park a
    segment that nobody will redeem.  Cancel what has not started,
    await the rest, and discard any descriptors they produced so the
    ``shm.segments_live`` gauge returns to zero even on failure.
    """
    for future in futures:
        future.cancel()
    for future in futures:
        if future.cancelled():
            continue
        try:
            outcome = future.result()
        except BaseException:
            continue
        result = outcome[0] if timed else outcome
        if isinstance(result, ShmArrayRef):
            _shm.discard(result)


def _execute(
    fn: Callable[[P], T],
    payloads: Sequence[P],
    deliver: Callable[[T, int], None],
    *,
    workers: Optional[int],
    kind: str,
    metrics,
    prefix: str,
    collect: bool,
) -> int:
    """The one engine behind :func:`run_tasks` and :func:`reduce_tasks`.

    Runs ``fn(payload)`` per payload — in-line, on the shared process
    pool, or on a private thread pool — and hands each result to
    ``deliver(result, index)`` strictly in submission order.
    ``collect=True`` is the :func:`run_tasks` schedule: every task is
    submitted at once and shared-memory results are copied out into
    caller-owned arrays.  Otherwise at most ``2 x pool size`` tasks are
    in flight and a zero-copy result reaches ``deliver`` as a transient
    view into the worker's segment, unlinked as soon as ``deliver``
    returns.  The shm threshold is resolved here, in the parent, so
    workers never consult their (possibly stale) environment.  Returns
    the number of payloads run.
    """
    payloads = list(payloads)
    check_choice(kind, "kind", ("thread", "process"))
    if kind == "process":
        count = resolve_processes(workers)
    else:
        count = resolve_workers(workers)
    ctx = ensure_context(metrics)
    pooled = count > 1 and len(payloads) > 1
    pool_size = min(count, len(payloads)) if pooled else 1
    ctx.set(f"{prefix}.workers", pool_size)
    ctx.inc(f"{prefix}.legs", len(payloads))
    cross_process = pooled and kind == "process"
    task_fn = fn
    if cross_process:
        if _shm.shm_available():
            task_fn = ShmExportTask(fn, _shm.resolve_min_bytes())
        else:
            _shm.note_fallback()
            ctx.inc("shm.fallbacks")
    timed = ctx.enabled
    job_seconds: List[float] = []
    tally = {"zero_copy": 0, "pickled": 0, "segments": 0}

    def hand_over(outcome, index: int) -> None:
        if timed:
            result, seconds = outcome
            job_seconds.append(seconds)
        else:
            result = outcome
        if isinstance(result, ShmArrayRef):
            tally["zero_copy"] += result.nbytes
            tally["segments"] += 1
            if collect:
                deliver(_shm.redeem_copy(result), index)
                return
            array, segment = _shm.attach(result)
            try:
                deliver(array, index)
            finally:
                del array
                _shm.release(result, segment)
            return
        if cross_process and isinstance(result, np.ndarray):
            tally["pickled"] += result.nbytes
            _shm.note_pickled(result.nbytes)
        deliver(result, index)

    def run_pooled(pool_exec: Executor) -> None:
        window = len(payloads) if collect else 2 * pool_size
        pending: deque = deque()
        submitted = 0
        try:
            for index in range(len(payloads)):
                while submitted < len(payloads) and len(pending) < window:
                    payload = payloads[submitted]
                    pending.append(
                        pool_exec.submit(_timed_call, task_fn, payload)
                        if timed
                        else pool_exec.submit(task_fn, payload)
                    )
                    submitted += 1
                hand_over(pending.popleft().result(), index)
        finally:
            _drain_futures(pending, timed)

    wall_start = time.perf_counter()
    if not pooled:
        for index, payload in enumerate(payloads):
            hand_over(_timed_call(fn, payload) if timed else fn(payload), index)
    elif kind == "process":
        run_pooled(shared_pool(count, metrics=ctx))
    else:
        with ThreadPoolExecutor(max_workers=pool_size) as pool_exec:
            run_pooled(pool_exec)
    if cross_process:
        ctx.inc("shm.bytes_zero_copy", tally["zero_copy"])
        ctx.inc("shm.bytes_pickled", tally["pickled"])
        ctx.inc("shm.segments", tally["segments"])
    if timed:
        wall = time.perf_counter() - wall_start
        ctx.observe_many(f"{prefix}.job_seconds", job_seconds)
        if wall > 0.0:
            ctx.set(f"{prefix}.occupancy", sum(job_seconds) / wall)
    return len(payloads)


def run_tasks(
    fn: Callable[[P], T],
    payloads: Sequence[P],
    *,
    workers: Optional[int] = None,
    kind: str = "thread",
    metrics=None,
    prefix: str = "parallel",
) -> List[T]:
    """Run ``fn(payload)`` for each payload, serially or on a pool.

    The collecting entry point to the engine behind :func:`run_legs`
    (threads), the chunked generation pipeline and the replication
    runners (processes).  Every task is submitted at once, and results
    are returned in submission order; any task exception propagates to
    the caller as it would serially.

    Parameters
    ----------
    fn:
        Task function.  For ``kind="process"`` it must be picklable
        (a module-level function), as must every payload.
    payloads:
        One payload per task.
    workers:
        Pool size; ``None`` defers to ``REPRO_WORKERS``
        (``kind="thread"``) or ``REPRO_PROCESSES`` (``kind="process"``).
        ``1`` — or an empty/singleton payload list — runs in-line with
        no pool.
    kind:
        ``"thread"`` (a private pool per call) or ``"process"`` (the
        process-wide :func:`shared_pool`; ndarray results cross the
        process boundary as described in the module docstring).
    metrics:
        Optional :class:`~repro.observability.RunContext`.  Records a
        ``<prefix>.workers`` gauge, a ``<prefix>.legs`` counter, a
        ``<prefix>.job_seconds`` per-task wall-time summary, a
        ``<prefix>.occupancy`` gauge (total task seconds over pool
        wall-clock seconds, i.e. the average number of busy workers),
        and — for process tasks — the ``pool.*`` / ``shm.*`` runtime
        series.  All bookkeeping happens outside the tasks' random
        streams, so seeded tasks remain bit-identical with metrics on
        or off.
    prefix:
        Metric-name prefix (``"parallel"`` for the leg runners,
        ``"chunked"`` for the chunk pipeline).
    """
    results: List[T] = []
    _execute(
        fn,
        payloads,
        lambda result, _index: results.append(result),
        workers=workers,
        kind=kind,
        metrics=metrics,
        prefix=prefix,
        collect=True,
    )
    return results


def reduce_tasks(
    fn: Callable[[P], T],
    payloads: Sequence[P],
    reducer: Callable[[T, int], None],
    *,
    workers: Optional[int] = None,
    kind: str = "process",
    metrics=None,
    prefix: str = "parallel",
) -> int:
    """Run ``fn(payload)`` per payload and *stream* results into ``reducer``.

    The streaming counterpart of :func:`run_tasks` for reductions whose
    combined results would dwarf the reduced value (e.g. the aggregate
    engine folding per-block ``(horizon,)`` partial sums into one
    feed).  ``reducer(result, index)`` is called strictly in submission
    order — index 0 first, then 1, and so on — and each result is
    released before the next is awaited, so peak memory is bounded by
    the in-flight window (at most ``2 x pool size`` undelivered
    results), **not** by ``len(payloads)``.

    The ordered fold is what keeps floating-point reductions
    bit-identical at any pool size: the reducer observes exactly the
    serial order whatever the completion order, so worker count only
    reorders wall-clock time, never arithmetic.  Exceptions from any
    task propagate to the caller (in-flight tasks are awaited and any
    shared-memory results they produced are unlinked before the
    exception leaves this function).

    On the zero-copy path the reducer receives a *transient view* into
    the worker's segment — valid only for the duration of the call; it
    must read (fold) the array, not retain it.

    Parameters mirror :func:`run_tasks` (``workers=None`` defers to
    ``REPRO_PROCESSES`` for ``kind="process"`` / ``REPRO_WORKERS`` for
    threads), and ``metrics`` records the same ``<prefix>.workers`` /
    ``.legs`` / ``.job_seconds`` / ``.occupancy`` series plus the
    ``pool.*`` / ``shm.*`` runtime series.  Returns the number of
    payloads reduced.
    """
    return _execute(
        fn,
        payloads,
        reducer,
        workers=workers,
        kind=kind,
        metrics=metrics,
        prefix=prefix,
        collect=False,
    )


def run_legs(
    jobs: Sequence[Callable[[], T]],
    workers: Optional[int] = None,
    *,
    metrics=None,
) -> List[T]:
    """Run independent zero-argument jobs, serially or on a thread pool.

    Results are returned in submission order.  ``workers=1`` (or an
    empty/singleton job list) runs in-line with no pool overhead.  Any
    job exception propagates to the caller, as it would serially.

    ``metrics`` (an optional :class:`~repro.observability.RunContext`)
    records a ``parallel.workers`` gauge, a ``parallel.legs`` counter, a
    ``parallel.job_seconds`` summary of per-job wall time, and a
    ``parallel.occupancy`` gauge — total job seconds over the pool's
    wall-clock seconds, i.e. the average number of busy workers.  All
    bookkeeping happens outside the jobs themselves, so seeded jobs
    remain bit-identical.
    """
    return run_tasks(
        _invoke,
        jobs,
        workers=workers,
        kind="thread",
        metrics=metrics,
        prefix="parallel",
    )
