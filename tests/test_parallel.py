"""Failure semantics and worker resolution of the leg pool.

The runners lean on :func:`repro.simulation.parallel.run_legs` for
every figure; a leg that raises must surface the *original* exception
to the caller — same type, same message — whether the pool is bypassed
(``workers=1``) or threaded (``workers>1``), with no hang and no
partial result list.

Also covered: the engine behind :func:`repro.simulation.parallel.run_tasks`
and :func:`~repro.simulation.parallel.reduce_tasks` — submission-order
delivery, the bounded in-flight window of the streaming fold, and the
``processes=`` arguments of the aggregate and chunked engines, which
size the same thread pool from ``REPRO_WORKERS``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.exceptions import SimulationError, ValidationError
from repro.observability import RunContext, recording
from repro.simulation.parallel import (
    WORKERS_ENV,
    default_workers,
    reduce_tasks,
    resolve_workers,
    run_legs,
    run_tasks,
)


class BoomError(RuntimeError):
    pass


def make_jobs(results, failing_index=None, exc=None):
    """``(labels, job)`` legs whose jobs return their index, one
    optionally raising."""

    def job(i):
        def run():
            if i == failing_index:
                raise exc
            results.append(i)
            return i

        return run

    return [({"leg": i}, job(i)) for i in range(4)]


class TestRunLegsFailure:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_original_exception_propagates(self, workers):
        exc = BoomError("leg 2 exploded")
        with pytest.raises(BoomError, match="leg 2 exploded"):
            run_legs(make_jobs([], failing_index=2, exc=exc), workers)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_repro_exceptions_keep_their_type(self, workers):
        exc = SimulationError("no finite variance")
        with pytest.raises(SimulationError, match="no finite variance"):
            run_legs(make_jobs([], failing_index=0, exc=exc), workers)

    def test_serial_stops_at_failing_leg(self):
        # In-line execution is sequential, so legs after the failure
        # never run.
        results = []
        with pytest.raises(BoomError):
            run_legs(
                make_jobs(results, failing_index=1, exc=BoomError("x")), 1
            )
        assert results == [0]

    def test_threaded_failure_returns_no_partial_results(self):
        # All legs are submitted, but the caller sees only the
        # exception — never a truncated result list.
        outcome = None
        try:
            outcome = run_legs(
                make_jobs([], failing_index=3, exc=BoomError("late leg")), 3
            )
        except BoomError as caught:
            assert str(caught) == "late leg"
        assert outcome is None

    @pytest.mark.parametrize("workers", [1, 3])
    def test_success_returns_submission_order(self, workers):
        assert run_legs(make_jobs([]), workers) == [0, 1, 2, 3]

    def test_empty_jobs(self):
        assert run_legs([], 3) == []


class TestWorkerResolution:
    def test_explicit_workers_validated(self):
        with pytest.raises(ValidationError, match="workers"):
            resolve_workers(0)

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers(None) == 5

    def test_surrounding_whitespace_tolerated(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, " 5 ")
        assert default_workers() == 5

    def test_unset_env_means_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert default_workers() == 1

    def test_empty_env_means_serial(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "")
        assert default_workers() == 1

    @pytest.mark.parametrize(
        "raw", ["many", "0", "-3", "2.5", "   "],
        ids=["non-integer", "zero", "negative", "float", "whitespace"],
    )
    def test_malformed_env_raises_naming_variable_and_value(
        self, monkeypatch, raw
    ):
        # A set-but-broken variable must fail loudly (naming both the
        # variable and the offending value), not silently run serial.
        monkeypatch.setenv(WORKERS_ENV, raw)
        with pytest.raises(ValidationError) as err:
            default_workers()
        assert WORKERS_ENV in str(err.value)
        assert repr(raw) in str(err.value)

    def test_malformed_env_raises_through_resolve(self, monkeypatch):
        # resolve_workers(None) defers to the env, so it surfaces the
        # same error; an explicit argument never consults the env.
        monkeypatch.setenv(WORKERS_ENV, "garbage")
        with pytest.raises(ValidationError, match=WORKERS_ENV):
            resolve_workers(None)
        assert resolve_workers(3) == 3


def _double(x):
    return 2 * x


class TestRunTasks:
    # kind="process" is still accepted (the benchmark harness passes
    # it) and runs on threads like kind="thread".
    @pytest.mark.parametrize("kind", ["thread", "process"])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_submission_order(self, kind, workers):
        out = run_tasks(_double, [3, 1, 2], workers=workers, kind=kind)
        assert out == [6, 2, 4]

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValidationError, match="kind"):
            run_tasks(_double, [1], kind="fork")

    def test_metrics_record_workers_and_occupancy(self):
        with recording(RunContext()) as ctx:
            run_tasks(_double, [1, 2, 3, 4], workers=2, prefix="chunked")
        snapshot = {e["name"]: e for e in ctx.snapshot()}
        assert snapshot["chunked.workers"]["value"] == 2
        assert snapshot["chunked.legs"]["value"] == 4
        assert "chunked.job_seconds" in snapshot
        assert snapshot["chunked.occupancy"]["value"] > 0.0


class TestProcessResolution:
    """``processes=`` on the aggregate and chunked engines."""

    def test_explicit_processes_validated(self):
        # The error names the caller's argument, not the helper's.
        with pytest.raises(ValidationError, match="processes"):
            resolve_workers(0, "processes")

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "4")
        assert resolve_workers(None, "processes") == 4

    def test_unset_env_means_inline(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None, "processes") == 1


def _boom_on_two(x):
    if x == 2:
        raise SimulationError("task 2 failed")
    return 2 * x


class TestReduceTasks:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_reducer_sees_submission_order(self, workers):
        seen = []
        count = reduce_tasks(
            _double,
            [5, 1, 4, 2, 3],
            lambda result, index: seen.append((index, result)),
            workers=workers,
        )
        assert count == 5
        assert seen == [(0, 10), (1, 2), (2, 8), (3, 4), (4, 6)]

    def test_max_pending_bounds_the_window(self):
        # The O(horizon) feed memory of the aggregate engine rests on
        # this window: a slow fold must hold at most 2 x pool size tasks
        # started but not yet delivered (collecting every result, as
        # run_tasks does, would start all 40 here).
        lock = threading.Lock()
        counts = {"started": 0, "peak": 0}
        seen = []

        def task(x):
            with lock:
                counts["started"] += 1
                counts["peak"] = max(
                    counts["peak"], counts["started"] - len(seen)
                )
            return x

        def fold(result, index):
            time.sleep(0.002)
            with lock:
                seen.append(result)

        reduce_tasks(task, range(40), fold, workers=2)
        assert seen == list(range(40))
        assert 0 < counts["peak"] <= 2 * 2

    def test_exception_propagates(self):
        with pytest.raises(SimulationError, match="task 2 failed"):
            reduce_tasks(
                _boom_on_two,
                [1, 2, 3],
                lambda r, i: None,
                workers=2,
            )

    def test_metrics_recorded(self):
        with recording(RunContext()) as ctx:
            reduce_tasks(
                _double,
                [1, 2, 3, 4],
                lambda r, i: None,
                workers=2,
                prefix="aggregate_pool",
            )
        snapshot = {e["name"]: e for e in ctx.snapshot()}
        assert snapshot["aggregate_pool.workers"]["value"] == 2
        assert snapshot["aggregate_pool.legs"]["value"] == 4
        assert "aggregate_pool.job_seconds" in snapshot
