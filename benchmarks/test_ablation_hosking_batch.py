"""Ablation — batch-vectorised Hosking vs naive per-path generation.

DESIGN.md calls out the batch vectorisation of Hosking's O(n^2) method
as a key engineering choice: the Durbin-Levinson coefficient recursion
runs once per batch instead of once per path, and each step's
conditional means are one matrix-vector product.  This bench measures
the speedup at the paper's replication scale.
"""

import time

import numpy as np

from repro.processes.coeff_table import clear_coefficient_cache
from repro.processes.correlation import CompositeCorrelation
from repro.processes.hosking import hosking_generate

from .conftest import format_series, scaled

N = 500
REPLICATIONS = 200


def test_ablation_hosking_batch(benchmark, emit, record_bench):
    correlation = CompositeCorrelation.paper_fit().with_continuity()
    reps = scaled(REPLICATIONS)

    def batched():
        return hosking_generate(
            correlation, N, size=reps, random_state=1
        )

    def naive_path(i):
        # Emptying the cache keeps the naive loop paying the per-path
        # Durbin-Levinson recursion this ablation is about; otherwise
        # the shared table would quietly absorb most of the naive cost.
        clear_coefficient_cache()
        return hosking_generate(correlation, N, random_state=1000 + i)

    start = time.perf_counter()
    naive_paths = np.stack([naive_path(i) for i in range(reps)])
    naive_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched_paths = benchmark.pedantic(batched, rounds=1, iterations=1)
    batch_seconds = max(time.perf_counter() - start, 1e-9)

    speedup = naive_seconds / batch_seconds
    rows = [
        ("naive loop", f"{naive_seconds:.3f}s"),
        ("batched", f"{batch_seconds:.3f}s"),
        ("speedup", f"{speedup:.1f}x"),
    ]
    emit(
        f"== Ablation: Hosking batching (n={N}, {reps} paths) ==",
        *format_series(("variant", "wall time"), rows),
    )
    record_bench(
        "hosking_batch",
        n=N,
        replications=reps,
        naive_seconds=naive_seconds,
        batched_seconds=batch_seconds,
        speedup=speedup,
    )
    assert batched_paths.shape == naive_paths.shape
    # Both sample the same law (match second moments loosely).
    # Loose: pooled variance of LRD paths fluctuates at this scale.
    np.testing.assert_allclose(
        batched_paths.var(), naive_paths.var(), rtol=0.25
    )
    assert speedup > 3.0
