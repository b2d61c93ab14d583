"""Thread-pool execution of independent simulation legs and chunk jobs.

The queueing figures are embarrassingly parallel across *legs*: one
buffer size, one background model, or one twisted-mean candidate per
leg (Figs. 14, 16, 17).  Each leg is seeded with its own child
generator from :func:`~repro.stats.random.spawn_rngs` *before* any leg
runs, so results are bit-for-bit identical whatever the worker count
or completion order — parallelism only reorders wall-clock time, never
randomness.

One engine serves every pooled job, reached through :func:`run_tasks`
(collect every result) and :func:`reduce_tasks` (stream results into
an ordered fold): the IS legs (:func:`run_legs`), the chunked
generation pipeline (:mod:`repro.processes.chunked`) and the sharded
aggregate engine (:mod:`repro.core.aggregate`).  Tasks run on a
private thread pool per call.  Their heavy work — FFTs, BLAS products,
bulk normal draws and the marginal transform's ufuncs — releases the
GIL, the shared spectral and coefficient caches stay shared, and
results are handed over in-process, so nothing is pickled.

Run context
-----------
The engine carries the caller's run context (see
:func:`repro.observability.recording`) into every task.  When the
caller's context is enabled, each task runs in a copy of the caller's
:mod:`contextvars` context under its own ``ctx.child()`` — in-line or
on a pool thread — and the engine merges the children into the
caller's context in submission order, so a snapshot is the same at any
pool size.  When no context is bound the engine copies nothing and
creates nothing.

Sizing
------
``workers=`` selects the pool size per call; ``None`` defers to the
``REPRO_WORKERS`` environment variable (default 1 = serial in-line
execution, which bypasses the pool entirely).  The engines that take
``processes=`` (aggregate feeds, chunked generation) resolve it the
same way.  An explicit argument always wins over the variable.  A
set-but-malformed variable (zero, negative, non-integer, or
whitespace) raises :class:`~repro.exceptions.ValidationError` naming
the variable and the offending value.  Pool size never changes
results: it only reorders wall-clock time.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from .._validation import check_choice, check_positive_int
from ..exceptions import ValidationError
from ..observability import current_context, recording

__all__ = [
    "default_workers",
    "resolve_workers",
    "run_legs",
    "run_tasks",
    "reduce_tasks",
]

T = TypeVar("T")
P = TypeVar("P")

#: Environment variable consulted when a pool size is ``None``.
WORKERS_ENV = "REPRO_WORKERS"


def default_workers() -> int:
    """Worker count implied by the environment (``REPRO_WORKERS``).

    Returns 1 (serial) when the variable is unset or empty.  Anything
    else must parse as a positive integer; zero, negative, non-integer,
    and whitespace-only values raise a :class:`ValidationError` naming
    the variable and the offending value rather than silently running
    serial.
    """
    raw = os.environ.get(WORKERS_ENV)
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
            f"{WORKERS_ENV} must be a positive integer, got {raw!r}"
        )
    return value


def resolve_workers(workers: Optional[int], name: str = "workers") -> int:
    """Validate an explicit pool size or fall back to the environment.

    ``name`` is the caller's argument name for the error message
    (``"processes"`` on the aggregate and chunked engines).
    """
    if workers is None:
        return default_workers()
    return check_positive_int(workers, name)


# Inert seams: perfbench/harness.py:48 imports these two names.
def pool_stats() -> Dict[str, int]:
    """Zero counters: there is no persistent pool to spin up or reuse."""
    return {"spinups": 0, "reuse_hits": 0, "shutdowns": 0, "size": 0}


def shutdown_shared_pool() -> None:
    """No-op: every pool is private to one call and ends with it."""


def _run_leg(leg: Tuple[Mapping[str, object], Callable[[], T]]) -> T:
    """Run one ``(labels, job)`` leg (the ``run_legs`` task function).

    With a context bound, the job records under ``labels`` in the
    task's child context.
    """
    labels, job = leg
    ctx = current_context()
    if not ctx.enabled:
        return job()
    with recording(ctx.scoped(**labels)):
        return job()


def _execute(
    fn: Callable[[P], T],
    payloads: Sequence[P],
    deliver: Callable[[T, int], None],
    *,
    workers: Optional[int],
    prefix: str,
    collect: bool,
) -> int:
    """The one engine behind :func:`run_tasks` and :func:`reduce_tasks`.

    Runs ``fn(payload)`` per payload — in-line, or on a private thread
    pool — and hands each result to ``deliver(result, index)`` in the
    calling thread, strictly in submission order.  ``collect=True`` is
    the :func:`run_tasks` schedule: every task is submitted at once.
    Otherwise at most ``2 x pool size`` tasks are in flight.  On an
    exception, tasks that have not started are cancelled and running
    ones are awaited before it propagates.  Returns the number of
    payloads run.

    With an enabled current context, every task records into its own
    child (see the module docstring), merged just before its result is
    delivered.
    """
    payloads = list(payloads)
    count = resolve_workers(workers)
    ctx = current_context()
    pooled = count > 1 and len(payloads) > 1
    pool_size = min(count, len(payloads)) if pooled else 1
    ctx.set(f"{prefix}.workers", pool_size)
    ctx.inc(f"{prefix}.legs", len(payloads))
    enabled = ctx.enabled
    job_seconds: List[float] = []

    def run_recorded(payload):
        # Timing and the child never touch a random stream.
        child = ctx.child()
        start = time.perf_counter()
        with recording(child):
            result = fn(payload)
        return result, child, time.perf_counter() - start

    def launch(payload) -> tuple:
        """``(callable, *args)`` of one task, built in the calling thread."""
        if enabled:
            return copy_context().run, run_recorded, payload
        return fn, payload

    def hand_over(outcome, index: int) -> None:
        if enabled:
            outcome, child, seconds = outcome
            ctx.merge_children([child])
            job_seconds.append(seconds)
        deliver(outcome, index)

    wall_start = time.perf_counter()
    if not pooled:
        for index, payload in enumerate(payloads):
            call, *args = launch(payload)
            hand_over(call(*args), index)
    else:
        window = len(payloads) if collect else 2 * pool_size
        pending: deque = deque()
        submitted = 0
        with ThreadPoolExecutor(max_workers=pool_size) as pool_exec:
            try:
                for index in range(len(payloads)):
                    while submitted < len(payloads) and len(pending) < window:
                        pending.append(
                            pool_exec.submit(*launch(payloads[submitted]))
                        )
                        submitted += 1
                    hand_over(pending.popleft().result(), index)
            finally:
                for future in pending:
                    future.cancel()
    if enabled:
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
    prefix: str = "parallel",
) -> List[T]:
    """Run ``fn(payload)`` for each payload, serially or on a thread pool.

    The collecting entry point to the engine behind :func:`run_legs`
    and the chunked generation pipeline.  Every task is submitted at
    once, and results are returned in submission order; any task
    exception propagates to the caller as it would serially.

    Parameters
    ----------
    fn:
        Task function.
    payloads:
        One payload per task.
    workers:
        Pool size; ``None`` defers to ``REPRO_WORKERS``.  ``1`` — or an
        empty/singleton payload list — runs in-line with no pool.
    kind:
        ``"thread"``; ``"process"`` is accepted and also runs threads
        (perfbench/workloads.py:339 passes it).
    prefix:
        Metric-name prefix (``"parallel"`` for the leg runners,
        ``"chunked"`` for the chunk pipeline).

    Under an enabled current context the call records a
    ``<prefix>.workers`` gauge, a ``<prefix>.legs`` counter, a
    ``<prefix>.job_seconds`` per-task wall-time summary, and a
    ``<prefix>.occupancy`` gauge (total task seconds over pool
    wall-clock seconds, i.e. the average number of busy workers), and
    merges what the tasks recorded.  All bookkeeping happens outside
    the tasks' random streams, so seeded tasks remain bit-identical
    with or without a context.
    """
    check_choice(kind, "kind", ("thread", "process"))
    results: List[T] = []
    _execute(
        fn,
        payloads,
        lambda result, _index: results.append(result),
        workers=workers,
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
    prefix: str = "parallel",
) -> int:
    """Run ``fn(payload)`` per payload and *stream* results into ``reducer``.

    The streaming counterpart of :func:`run_tasks` for reductions whose
    combined results would dwarf the reduced value (e.g. the aggregate
    engine folding per-block ``(horizon,)`` partial sums into one
    feed).  ``reducer(result, index)`` is called in the calling thread,
    strictly in submission order — index 0 first, then 1, and so on —
    and each result is released before the next is awaited, so peak
    memory is bounded by the in-flight window (at most
    ``2 x pool size`` undelivered results), **not** by
    ``len(payloads)``.

    The ordered fold is what keeps floating-point reductions
    bit-identical at any pool size: the reducer observes exactly the
    serial order whatever the completion order, so worker count only
    reorders wall-clock time, never arithmetic.  Exceptions from any
    task propagate to the caller once the tasks already running have
    finished.

    Parameters mirror :func:`run_tasks`, and the call records the same
    ``<prefix>.workers`` / ``.legs`` / ``.job_seconds`` /
    ``.occupancy`` series.  Returns the number of payloads reduced.
    """
    return _execute(
        fn,
        payloads,
        reducer,
        workers=workers,
        prefix=prefix,
        collect=False,
    )


def run_legs(
    legs: Sequence[Tuple[Mapping[str, object], Callable[[], T]]],
    workers: Optional[int] = None,
) -> List[T]:
    """Run independent ``(labels, job)`` legs, serially or on a thread pool.

    Each job is a zero-argument callable; results are returned in
    submission order.  ``workers=1`` (or an empty/singleton leg list)
    runs in-line with no pool overhead.  Any job exception propagates
    to the caller, as it would serially.

    Under an enabled current context each job records into its own
    child scoped by its ``labels`` (``leg``/``buffer``, ``probe``/
    ``twist``, ...), so per-leg series stay separable after the
    submission-order merge, and the call records the ``parallel.*``
    pool series of :func:`run_tasks`.
    """
    return run_tasks(_run_leg, legs, workers=workers, prefix="parallel")
