"""Ablation — cross-process result transport (IPC).

Pooled process runs return large ndarray results through shared-memory
descriptors instead of pipe round trips; ``REPRO_SHM_MIN_BYTES`` (the
only transport setting) decides which results take that path.  This
bench isolates the transport on the acceptance aggregate workload
(N=10^6 sources scaled by ``REPRO_BENCH_SCALE``, 2048-slot horizon):

- **Transport:** one full-scale pooled generation with the threshold at
  0 (every partial sum through a segment) and one with a threshold
  above every result (everything pickled), bit-identical by
  construction and asserted so.  During the shm run, >= 90% of the
  partial-sum bytes crossing the process boundary must move zero-copy
  (asserted via the ``shm.*`` metrics; holds at ``processes=2`` even on
  a 1-core box), and the pickle run must create no segment.  The
  threshold is forced both ways because task results straddle the
  64 KiB default: 2 blocks (32 KiB) per task at smoke scale, 128 KiB
  at full scale.
- **Leaks:** each run must end with zero live segments — checked
  through the ``segments_live`` gauge *and* a raw ``/dev/shm`` listing
  under this process's sweep prefix.
"""

import os
import time

import numpy as np
import pytest

from repro.core.aggregate import ShardedAggregateModel
from repro.observability import RunContext
from repro.simulation import shm

from .conftest import SCALE, format_series
from .test_ablation_aggregate import heterogeneous_population

#: Acceptance workload: N=10^6 at full scale, floored so the smoke
#: pass still ships hundreds of partial-sum blocks per transport.
SCALE_SOURCES = max(50_000, int(round(1_000_000 * SCALE)))
SCALE_HORIZON = 2048
SCALE_BATCH = 1024
#: Fraction of cross-process result bytes that must move through
#: shared-memory segments during the shm-transport run.
ZERO_COPY_BOUND = 0.9
#: ``REPRO_SHM_MIN_BYTES`` of each run: every ndarray result through a
#: segment, and a threshold above every result (all pickled).
SHM_ALL = "0"
SHM_NONE = str(2**40)


def _assert_no_leaks(phase):
    assert shm.shm_stats()["segments_live"] == 0, phase
    if os.path.isdir("/dev/shm"):
        prefix = f"repro{os.getpid()}_"
        leftovers = [
            name for name in os.listdir("/dev/shm")
            if name.startswith(prefix)
        ]
        assert leftovers == [], f"{phase}: {leftovers}"


def _shm_series(ctx):
    series = {e["name"]: e.get("value") for e in ctx.snapshot()}
    return (
        series["shm.bytes_zero_copy"],
        series["shm.bytes_pickled"],
        series["shm.segments"],
    )


def test_ipc_transport(benchmark, emit, record_bench, monkeypatch):
    if not shm.shm_available():
        pytest.skip("POSIX shared memory unavailable")
    cores = os.cpu_count() or 1
    processes = min(max(cores, 2), 16)
    population = heterogeneous_population().scaled_to(SCALE_SOURCES)

    # Identical pooled generation, only the result path differs.  Each
    # run has its own ctx so the shm.* series measure exactly one
    # generation.
    shm.reset_shm_stats()
    shm_ctx = RunContext()
    pickle_ctx = RunContext()
    shm_engine = ShardedAggregateModel(
        population, batch_size=SCALE_BATCH, metrics=shm_ctx
    )
    pickle_engine = ShardedAggregateModel(
        population, batch_size=SCALE_BATCH, metrics=pickle_ctx
    )
    shm_feed = None

    def run_shm():
        nonlocal shm_feed
        shm_feed = shm_engine.generate(
            SCALE_HORIZON, shards=16, processes=processes, random_state=42,
        )

    monkeypatch.setenv(shm.MIN_BYTES_ENV, SHM_ALL)
    start = time.perf_counter()
    benchmark.pedantic(run_shm, rounds=1, iterations=1)
    shm_seconds = max(time.perf_counter() - start, 1e-9)
    _assert_no_leaks("shm run")

    monkeypatch.setenv(shm.MIN_BYTES_ENV, SHM_NONE)
    start = time.perf_counter()
    pickle_feed = pickle_engine.generate(
        SCALE_HORIZON, shards=16, processes=processes, random_state=42,
    )
    pickle_seconds = max(time.perf_counter() - start, 1e-9)
    _assert_no_leaks("pickle run")
    np.testing.assert_array_equal(shm_feed.arrivals, pickle_feed.arrivals)

    zero_copy, pickled, segments = _shm_series(shm_ctx)
    zero_copy_fraction = zero_copy / max(zero_copy + pickled, 1.0)
    pickle_zero_copy, pickle_pickled, pickle_segments = _shm_series(
        pickle_ctx
    )

    emit(
        f"== IPC ablation: N={SCALE_SOURCES} aggregate "
        f"(horizon={SCALE_HORIZON}, processes={processes}, "
        f"{cores} cores) ==",
        *format_series(
            ("measure", "value", "bound"),
            [
                ("shm transport", f"{shm_seconds:.2f}s", "-"),
                ("pickle transport", f"{pickle_seconds:.2f}s", "-"),
                (
                    "zero-copy bytes",
                    f"{zero_copy_fraction:.1%} of "
                    f"{(zero_copy + pickled) / 2**20:.0f} MiB",
                    f">= {ZERO_COPY_BOUND:.0%}",
                ),
            ],
        ),
        "feeds bit-identical across transports; zero live segments "
        "after every run",
    )
    record_bench(
        "ipc_transport",
        num_sources=SCALE_SOURCES,
        horizon=SCALE_HORIZON,
        batch_size=SCALE_BATCH,
        cores=cores,
        processes=processes,
        shm_seconds=shm_seconds,
        pickle_seconds=pickle_seconds,
        zero_copy_bytes=zero_copy,
        pickled_bytes=pickled,
        segments=segments,
        zero_copy_fraction=zero_copy_fraction,
    )
    assert segments > 0
    assert zero_copy_fraction >= ZERO_COPY_BOUND, (
        f"{zero_copy_fraction:.1%} of result bytes moved zero-copy"
    )
    assert pickle_zero_copy == 0 and pickle_segments == 0
    assert pickle_pickled == zero_copy + pickled
