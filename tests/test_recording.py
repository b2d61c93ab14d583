"""The ambient run context: ``recording`` and the pool engine's merge rule.

``repro.observability.recording`` binds a :class:`RunContext` for a
block and restores the previous binding on exit.  The pool engine
(``repro.simulation.parallel``) runs every task of an enabled caller
under its own child context and merges the children in submission
order, so what a pooled run records must not depend on the pool size:
counters, and every gauge other than pool size and timing, are checked
equal at one and two workers for the aggregate engine, the chunked
bridge pipeline and the IS buffer sweep.
"""

import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.aggregate import ShardedAggregateModel, SourceClass
from repro.exceptions import ValidationError
from repro.marginals.parametric import NormalDistribution
from repro.observability import (
    NULL_CONTEXT,
    MetricsRegistry,
    RunContext,
    current_context,
    recording,
)
from repro.processes.chunked import ChunkedGenerator
from repro.processes.coeff_table import (
    clear_coefficient_cache,
    get_coefficient_table,
)
from repro.processes.correlation import (
    ExponentialCorrelation,
    FGNCorrelation,
    TabulatedCorrelation,
)
from repro.processes.source import DaviesHarteSource
from repro.processes.spectral_cache import clear_spectral_cache
from repro.simulation import parallel
from repro.simulation.parallel import run_tasks
from repro.simulation.runner import overflow_vs_buffer_curve

#: Gauges that report the pool size or a timing, which legitimately
#: differ between pool sizes.
POOL_OR_TIMING_GAUGES = {
    "aggregate.processes",
    "aggregate.throughput_source_slots_per_s",
    "aggregate_pool.workers",
    "aggregate_pool.occupancy",
    "chunked.processes",
    "chunked.workers",
    "chunked.occupancy",
    "parallel.workers",
    "parallel.occupancy",
}

#: Per-thread Davies-Harte workspace reuse: a pool of ``k`` fresh
#: threads allocates ``k`` workspaces where the calling thread reuses
#: its own, so these counters measure the pool itself.
PER_THREAD_COUNTERS = {
    "spectral.workspace_builds",
    "spectral.workspace_hits",
}


def stable_series(ctx):
    """Counters and the gauges that must not depend on the pool size."""
    return {
        (entry["name"], tuple(sorted(entry["labels"].items()))):
            entry["value"]
        for entry in ctx.snapshot()
        if (entry["kind"] == "counter"
            and entry["name"] not in PER_THREAD_COUNTERS)
        or (entry["kind"] == "gauge"
            and entry["name"] not in POOL_OR_TIMING_GAUGES)
    }


class TestRecording:
    def test_binds_and_restores_outer_on_exit(self):
        outer, inner = RunContext(), RunContext()
        assert current_context() is NULL_CONTEXT
        with recording(outer) as bound:
            assert bound is outer
            assert current_context() is outer
            with recording(inner):
                assert current_context() is inner
            assert current_context() is outer
        assert current_context() is NULL_CONTEXT

    def test_restores_outer_on_exception(self):
        outer = RunContext()
        with recording(outer):
            with pytest.raises(RuntimeError, match="boom"):
                with recording(RunContext()):
                    raise RuntimeError("boom")
            assert current_context() is outer
        assert current_context() is NULL_CONTEXT

    def test_none_binds_nothing(self):
        outer = RunContext()
        with recording(outer):
            with recording(None) as bound:
                assert bound is outer
                assert current_context() is outer
        with recording(None) as bound:
            assert bound is NULL_CONTEXT

    def test_registry_is_wrapped(self):
        registry = MetricsRegistry()
        with recording(registry) as ctx:
            current_context().inc("hits")
        assert ctx.registry is registry
        assert registry.snapshot()[0]["name"] == "hits"

    def test_rejects_other_values(self):
        with pytest.raises(ValidationError, match="RunContext"):
            with recording(42):
                pass


def _record_payload(x):
    ctx = current_context()
    ctx.inc("tasks")
    ctx.set("last", x)
    return ctx


class TestPoolEngine:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_task_records_into_its_own_child(self, workers):
        with recording(RunContext(scope={"run": "a"})) as ctx:
            seen = run_tasks(_record_payload, [3, 1, 2], workers=workers)
            assert current_context() is ctx
        registries = {id(task_ctx.registry) for task_ctx in seen}
        assert len(registries) == 3
        assert id(ctx.registry) not in registries
        assert all(task_ctx.scope == {"run": "a"} for task_ctx in seen)
        values = {e["name"]: e.get("value") for e in ctx.snapshot()}
        assert values["tasks"] == 3
        # Merged in submission order: the last payload's gauge wins.
        assert values["last"] == 2

    def test_no_update_lost_with_more_workers_than_cores(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with recording(RunContext()) as ctx:
                run_tasks(_record_payload, list(range(200)), workers=8)
        finally:
            sys.setswitchinterval(interval)
        values = {e["name"]: e.get("value") for e in ctx.snapshot()}
        assert values["tasks"] == 200
        assert values["last"] == 199
        assert values["parallel.legs"] == 200

    def test_nothing_copied_without_a_context(self, monkeypatch):
        def copy_forbidden():
            raise AssertionError("copied a context with none bound")

        monkeypatch.setattr(parallel, "copy_context", copy_forbidden)
        for workers in (1, 2):
            seen = run_tasks(_record_payload, [1, 2, 3], workers=workers)
            assert all(task_ctx is NULL_CONTEXT for task_ctx in seen)

    def test_pool_threads_see_no_context_after_the_call(self, monkeypatch):
        probes = []

        class ProbingExecutor(ThreadPoolExecutor):
            """Asks each idle pool thread for its context before the
            pool shuts down, i.e. after every task has returned."""

            def shutdown(self, wait=True, **kwargs):
                futures = [
                    self.submit(current_context)
                    for _ in range(self._max_workers)
                ]
                probes.extend(future.result() for future in futures)
                super().shutdown(wait=wait, **kwargs)

        monkeypatch.setattr(parallel, "ThreadPoolExecutor", ProbingExecutor)
        with recording(RunContext()):
            run_tasks(_record_payload, list(range(6)), workers=2)
        assert probes and all(ctx is NULL_CONTEXT for ctx in probes)


def _aggregate_series(processes):
    clipping = SourceClass(
        "clipped",
        # Its circulant embedding has negative eigenvalues, so every
        # block's Davies-Harte draw clips and counts it.
        correlation=TabulatedCorrelation([1.0, 0.9, 0.2, 0.0]),
        marginal=NormalDistribution(5.0, 1.0),
        count=9,
    )
    smooth = SourceClass(
        "smooth", correlation=0.8,
        marginal=NormalDistribution(8.0, 2.0), count=7,
    )
    with recording(RunContext()) as ctx, warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        engine = ShardedAggregateModel([clipping, smooth], batch_size=4)
        engine.generate(64, shards=2, processes=processes, random_state=3)
    return stable_series(ctx)


def _chunked_series(processes):
    generator = ChunkedGenerator(
        DaviesHarteSource(FGNCorrelation(0.8)),
        chunk_frames=128,
        stitch_window=32,
        processes=processes,
    )
    with recording(RunContext()) as ctx:
        generator.generate(1000, random_state=5)
    return stable_series(ctx)


def _curve_series(workers):
    correlation = ExponentialCorrelation(0.5)
    clear_coefficient_cache()
    clear_spectral_cache()
    # Prewarmed at the longest leg horizon, as the benchmark's set-up
    # does: on a cold cache the coeff_table.* deltas count hits and
    # extensions in the order the legs first reach the shared table,
    # which depends on thread scheduling.
    get_coefficient_table(correlation, 24)
    with recording(RunContext()) as ctx:
        overflow_vs_buffer_curve(
            correlation,
            lambda x: x + 2.0,
            utilization=0.8,
            buffer_sizes=[1.0, 2.0, 3.0],
            replications=40,
            twisted_mean=1.0,
            horizon_factor=8,
            random_state=7,
            workers=workers,
        )
    return stable_series(ctx)


class TestPoolSizeInvariance:
    def test_aggregate_blocks(self):
        serial, pooled = _aggregate_series(1), _aggregate_series(2)
        assert pooled == serial
        # The new series from pool tasks: block draws record into the
        # caller's context.
        clipped = serial[("spectral.clipped_eigenvalues", ())]
        assert clipped > 0 and clipped % 3 == 0
        assert serial[("aggregate_pool.legs", ())] == 5

    def test_chunked_bridge_jobs(self):
        serial, pooled = _chunked_series(1), _chunked_series(2)
        assert pooled == serial
        assert serial[("chunked.legs", ())] == 8

    def test_is_buffer_sweep(self):
        serial, pooled = _curve_series(1), _curve_series(2)
        assert pooled == serial
        assert serial[("is.hits", (("buffer", "1"), ("leg", "0"),
                                   ("twist", "1")))] > 0
