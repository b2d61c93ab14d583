"""Persistent shared pool and zero-copy shm transport (simulation runtime).

Covers the runtime contract end to end: pool lifetime (lazy creation,
reuse, resize-rebuild, shutdown), the shared-memory descriptor round
trip, the ``REPRO_SHM_MIN_BYTES`` threshold (the only transport
setting), the pickle fallback when shared memory is unavailable, and —
critically — the leak regression suite: a forced worker exception, a
mid-run ``KeyboardInterrupt``-style cancellation, and 50 back-to-back
pooled ``generate()`` calls must all leave zero live segments (checked
via the ``segments_live`` gauge *and* a raw ``/dev/shm`` listing) and
flat RSS.  Tests that need segments set the threshold to 0 and assert
that segments were in fact created.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.aggregate import ShardedAggregateModel, SourceClass
from repro.exceptions import ValidationError
from repro.marginals.parametric import NormalDistribution
from repro.observability import RunContext
from repro.simulation import shm
from repro.simulation.parallel import (
    pool_stats,
    reduce_tasks,
    reset_pool_stats,
    run_tasks,
    shared_pool,
    shutdown_shared_pool,
)
from tests.conftest import SHM_THRESHOLDS

needs_shm = pytest.mark.skipif(
    not shm.shm_available(), reason="POSIX shared memory unavailable"
)


def _fill(x):
    """Module-level task: 64 KiB result (exactly the default threshold)."""
    return np.full(8192, float(x))


def _tiny(x):
    return np.full(8, float(x))


def _scalar(x):
    return 3 * x


def _boom_large(x):
    if x == 2:
        raise RuntimeError("boom")
    return np.full(8192, float(x))


def _leftover_segments():
    """Raw /dev/shm entries carrying this process's sweep prefix."""
    if not os.path.isdir("/dev/shm"):
        return []
    prefix = f"repro{os.getpid()}_"
    return [n for n in os.listdir("/dev/shm") if n.startswith(prefix)]


@pytest.fixture()
def zero_threshold(monkeypatch):
    """Send every ndarray result of a pooled process run through shm."""
    monkeypatch.setenv(shm.MIN_BYTES_ENV, "0")


@pytest.fixture()
def fresh_runtime():
    """Start and end with no shared pool and zeroed runtime counters."""
    shutdown_shared_pool()
    reset_pool_stats()
    shm.reset_shm_stats()
    yield
    shutdown_shared_pool()


class TestSharedPool:
    def test_lazy_reuse_across_calls(self, fresh_runtime):
        for _ in range(3):
            out = run_tasks(_scalar, [1, 2, 3], workers=2, kind="process")
            assert out == [3, 6, 9]
        stats = pool_stats()
        assert stats["spinups"] == 1
        assert stats["reuse_hits"] == 2
        assert stats["size"] == 2

    def test_resize_rebuilds(self, fresh_runtime):
        first = shared_pool(2)
        assert shared_pool(2) is first
        second = shared_pool(3)
        assert second is not first
        stats = pool_stats()
        assert stats["spinups"] == 2
        assert stats["shutdowns"] == 1
        assert stats["size"] == 3

    def test_shutdown_idempotent(self, fresh_runtime):
        shared_pool(2)
        shutdown_shared_pool()
        shutdown_shared_pool()
        assert pool_stats()["size"] == 0
        # The next request builds a fresh pool.
        assert shared_pool(2).submit(_scalar, 1).result() == 3
        assert pool_stats()["spinups"] == 2

    def test_metrics_record_pool_series(self, fresh_runtime):
        ctx = RunContext()
        run_tasks(_scalar, [1, 2, 3], workers=2, kind="process", metrics=ctx)
        run_tasks(_scalar, [1, 2, 3], workers=2, kind="process", metrics=ctx)
        snapshot = {e["name"]: e for e in ctx.snapshot()}
        assert snapshot["pool.spinups"]["value"] == 1
        assert snapshot["pool.reuse_hits"]["value"] == 1
        assert snapshot["pool.size"]["value"] == 2


@needs_shm
class TestShmTransport:
    def test_descriptor_round_trip(self, fresh_runtime):
        arr = np.arange(12, dtype=np.float32).reshape(3, 4)
        ref = shm.export_array(arr)
        assert ref.shape == (3, 4)
        assert ref.dtype == "float32"
        assert ref.nbytes == arr.nbytes
        out = shm.redeem_copy(ref)
        np.testing.assert_array_equal(out, arr)
        assert out.dtype == arr.dtype
        stats = shm.shm_stats()
        assert stats["segments_received"] == 1
        assert stats["segments_unlinked"] == 1
        assert stats["segments_live"] == 0
        assert _leftover_segments() == []

    @pytest.mark.parametrize("transport", ["auto", "shm", "pickle"])
    def test_transports_are_bit_identical(
        self, fresh_runtime, shm_threshold, transport
    ):
        shm_threshold(SHM_THRESHOLDS[transport])
        expected = [_fill(x) for x in range(4)]
        got = run_tasks(_fill, range(4), workers=2, kind="process")
        for a, b in zip(expected, got):
            np.testing.assert_array_equal(a, b)
        assert shm.shm_stats()["segments_live"] == 0

    def test_auto_moves_large_results_zero_copy(self, fresh_runtime):
        run_tasks(_fill, range(4), workers=2, kind="process")
        stats = shm.shm_stats()
        assert stats["bytes_zero_copy"] == 4 * 8192 * 8
        assert stats["bytes_pickled"] == 0

    def test_auto_routes_small_results_via_pickle(self, fresh_runtime):
        run_tasks(_tiny, range(4), workers=2, kind="process")
        stats = shm.shm_stats()
        assert stats["bytes_zero_copy"] == 0
        assert stats["bytes_pickled"] == 4 * 8 * 8

    def test_forced_shm_ignores_threshold(self, fresh_runtime, zero_threshold):
        # A zero threshold sends even 64-byte results through segments.
        run_tasks(_tiny, range(4), workers=2, kind="process")
        stats = shm.shm_stats()
        assert stats["bytes_zero_copy"] == 4 * 8 * 8
        assert stats["bytes_pickled"] == 0

    def test_min_bytes_env_read_in_parent(self, fresh_runtime, monkeypatch):
        # The threshold ships inside the task wrapper, so a
        # monkeypatched parent environment applies even to long-lived
        # workers forked before the patch.
        monkeypatch.setenv(shm.MIN_BYTES_ENV, "16")
        run_tasks(_tiny, range(4), workers=2, kind="process")
        assert shm.shm_stats()["bytes_zero_copy"] == 4 * 8 * 8

    def test_malformed_min_bytes_env_raises(self, monkeypatch):
        monkeypatch.setenv(shm.MIN_BYTES_ENV, "lots")
        with pytest.raises(ValidationError, match=shm.MIN_BYTES_ENV):
            run_tasks(_fill, range(4), workers=2, kind="process")

    def test_non_ndarray_results_pass_through(
        self, fresh_runtime, zero_threshold
    ):
        out = run_tasks(_scalar, [1, 2, 3], workers=2, kind="process")
        assert out == [3, 6, 9]
        assert shm.shm_stats()["segments_received"] == 0

    def test_reduce_streams_zero_copy_views(
        self, fresh_runtime, zero_threshold
    ):
        total = np.zeros(8192)
        count = reduce_tasks(
            _fill,
            range(6),
            lambda row, index: total.__iadd__(row),
            workers=2,
            kind="process",
        )
        assert count == 6
        assert total[0] == sum(range(6))
        stats = shm.shm_stats()
        assert stats["segments_received"] == 6
        assert stats["segments_live"] == 0
        assert _leftover_segments() == []

    def test_metrics_record_shm_series(self, fresh_runtime, zero_threshold):
        ctx = RunContext()
        run_tasks(_fill, range(4), workers=2, kind="process", metrics=ctx)
        snapshot = {e["name"]: e for e in ctx.snapshot()}
        assert snapshot["shm.bytes_zero_copy"]["value"] == 4 * 8192 * 8
        assert snapshot["shm.bytes_pickled"]["value"] == 0
        assert snapshot["shm.segments"]["value"] == 4

    def test_thread_pools_never_engage_transport(
        self, fresh_runtime, zero_threshold
    ):
        out = run_tasks(_fill, range(4), workers=2, kind="thread")
        assert len(out) == 4
        assert shm.shm_stats()["segments_received"] == 0


class TestShmFallback:
    def test_unavailable_shm_falls_back_to_pickle(
        self, fresh_runtime, zero_threshold, monkeypatch
    ):
        # Without POSIX shared memory the pickle pipe is the only path:
        # even a zero threshold must pickle, bit for bit, and count one
        # fallback per pooled call.
        monkeypatch.setattr(shm, "shm_available", lambda: False)
        ctx = RunContext()
        expected = [_fill(x) for x in range(4)]
        collected = run_tasks(
            _fill, range(4), workers=2, kind="process", metrics=ctx
        )
        folded = []
        reduce_tasks(
            _fill,
            range(4),
            lambda row, index: folded.append(np.array(row)),
            workers=2,
            kind="process",
            metrics=ctx,
        )
        for want, got, fold in zip(expected, collected, folded):
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(fold, want)
        stats = shm.shm_stats()
        assert stats["fallbacks"] == 2
        assert stats["segments_received"] == 0
        assert stats["bytes_pickled"] == 2 * 4 * 8192 * 8
        snapshot = {e["name"]: e for e in ctx.snapshot()}
        assert snapshot["shm.fallbacks"]["value"] == 2
        assert snapshot["shm.segments"]["value"] == 0


@needs_shm
@pytest.mark.usefixtures("zero_threshold")
class TestLeakRegression:
    def test_worker_exception_leaves_zero_live_segments(self, fresh_runtime):
        with pytest.raises(RuntimeError, match="boom"):
            run_tasks(_boom_large, range(8), workers=2, kind="process")
        stats = shm.shm_stats()
        assert stats["segments_received"] > 0
        assert stats["segments_live"] == 0
        assert stats["segments_received"] == stats["segments_unlinked"]
        assert _leftover_segments() == []

    def test_mid_run_cancellation_unlinks_segments(self, fresh_runtime):
        # A KeyboardInterrupt out of the fold (the mid-run ^C shape)
        # must drain in-flight futures and unlink their segments before
        # propagating.
        def interrupt(row, index):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            reduce_tasks(_fill, range(8), interrupt, workers=2, kind="process")
        assert shm.shm_stats()["segments_received"] > 0
        assert shm.shm_stats()["segments_live"] == 0
        assert _leftover_segments() == []

    def test_reduce_worker_exception_drains_window(self, fresh_runtime):
        total = np.zeros(8192)
        with pytest.raises(RuntimeError, match="boom"):
            reduce_tasks(
                _boom_large, range(8),
                lambda row, index: total.__iadd__(row),
                workers=2, kind="process",
            )
        assert shm.shm_stats()["segments_received"] > 0
        assert shm.shm_stats()["segments_live"] == 0
        assert _leftover_segments() == []

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="needs procfs"
    )
    def test_repeated_generate_holds_rss_flat(self, fresh_runtime):
        def rss_bytes():
            with open("/proc/self/status") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1]) * 1024
            return 0

        klass = SourceClass(
            "v", correlation=0.8,
            marginal=NormalDistribution(10.0, 2.0), count=16,
        )
        engine = ShardedAggregateModel(klass, batch_size=4)

        def generate(seed):
            return engine.generate(256, processes=2, random_state=seed)

        for i in range(10):  # warm every cache and the pool first
            generate(i)
        baseline = rss_bytes()
        for i in range(50):
            generate(100 + i)
        growth = rss_bytes() - baseline
        assert growth < 32 * 1024 * 1024, f"RSS grew {growth} bytes"
        assert shm.shm_stats()["segments_received"] > 0
        assert shm.shm_stats()["segments_live"] == 0
        assert _leftover_segments() == []
