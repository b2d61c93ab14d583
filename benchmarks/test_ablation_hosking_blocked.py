"""Ablation — blocked BLAS-3 Hosking kernel vs the per-step loop.

The per-step Hosking loop pays one O(k) matrix-vector product per step
— memory-bound level-2 work on a reversed view.  The blocked kernel
(``block_size=B``) lifts the old-history contribution of B consecutive
steps into a single GEMM against a contiguous reversed buffer, leaving
only the O(B^2) within-block triangle sequential.  This bench measures
the speedup over a (replications, horizon) grid — including the
unscaled 256 x 4096 acceptance workload — and bounds the overhead of
the exact ``block_size=1`` bypass.

Both bounds are wall-clock ratios, so each is measured over repeated
rounds and asserted on the median of the per-round ratios: a single
round on a loaded host can land on either side of the bound.  A round
runs the two variants in ABBA order (after one untimed warm-up call
each), so whichever position runs faster cancels out of its ratio.
The bypass runs take milliseconds at smoke scale, so their median needs
more rounds to settle within the 2% bound.
"""

import gc
import time

import numpy as np

from repro.processes.coeff_table import get_coefficient_table
from repro.processes.correlation import FGNCorrelation
from repro.processes.hosking import hosking_generate

from .conftest import format_series, scaled

CORRELATION = FGNCorrelation(0.8)
BLOCK = 64
#: (replications, horizon) grid; the last row is the acceptance
#: workload (unscaled: 256 x 4096).
GRID = ((256, 1024), (256, 4096))
ROUNDS = 5
BYPASS_REPS = 128
BYPASS_HORIZON = 1024
BYPASS_ROUNDS = 100


def _timed(reps, horizon, block_size):
    start = time.perf_counter()
    paths = hosking_generate(
        CORRELATION,
        horizon,
        size=reps,
        random_state=1,
        block_size=block_size,
    )
    return paths, max(time.perf_counter() - start, 1e-9)


def _abba_rounds(reps, horizon, slow, fast, rounds):
    """Time ``slow`` and ``fast`` block sizes in ABBA rounds.

    Returns the last paths of each, their median seconds, and the
    median per-round ratio ``slow / fast``.  The garbage collector is
    off while the rounds run, as in :mod:`timeit`, so a collection of
    the session's heap does not land in one variant's slot.
    """
    for block_size in (slow, fast):
        _timed(reps, horizon, block_size)
    paths = {}
    seconds = {slow: [], fast: []}
    ratios = []
    gc.disable()
    try:
        for _ in range(rounds):
            spent = {slow: 0.0, fast: 0.0}
            for block_size in (slow, fast, fast, slow):
                paths[block_size], elapsed = _timed(reps, horizon, block_size)
                seconds[block_size].append(elapsed)
                spent[block_size] += elapsed
            ratios.append(spent[slow] / spent[fast])
    finally:
        gc.enable()
    return (
        paths[slow],
        paths[fast],
        float(np.median(seconds[slow])),
        float(np.median(seconds[fast])),
        float(np.median(ratios)),
    )


def test_ablation_hosking_blocked(benchmark, emit, record_bench):
    # Warm the shared coefficient table outside the timers: both
    # variants read the same Durbin-Levinson rows from it, and this
    # ablation is about the conditional-mean products.
    longest = max(h for _, h in GRID)
    get_coefficient_table(CORRELATION, longest).ensure(longest - 1)

    rows = []
    grid_records = []
    for reps_base, horizon in GRID:
        reps = scaled(reps_base)
        if (reps_base, horizon) == GRID[-1]:
            measured = benchmark.pedantic(
                _abba_rounds,
                args=(reps, horizon, 1, BLOCK, ROUNDS),
                rounds=1,
                iterations=1,
            )
        else:
            measured = _abba_rounds(reps, horizon, 1, BLOCK, ROUNDS)
        (per_step_paths, blocked_paths, per_step_seconds, blocked_seconds,
         speedup) = measured
        # Same seed => same innovation stream; the kernels must agree
        # to the documented allclose contract.
        np.testing.assert_allclose(
            blocked_paths, per_step_paths, rtol=1e-10, atol=1e-10
        )
        rows.append(
            (
                f"{reps} x {horizon}",
                f"{per_step_seconds:.3f}s",
                f"{blocked_seconds:.3f}s",
                f"{speedup:.1f}x",
            )
        )
        grid_records.append(
            {
                "replications": reps,
                "horizon": horizon,
                "rounds": ROUNDS,
                "per_step_seconds": per_step_seconds,
                "blocked_seconds": blocked_seconds,
                "speedup": speedup,
            }
        )

    # Bypass overhead: block_size=1 runs the identical legacy loop, so
    # its cost over the implicit default is timing noise only.
    bypass_reps = scaled(BYPASS_REPS)
    *_, bypass_ratio = _abba_rounds(
        bypass_reps, BYPASS_HORIZON, 1, None, BYPASS_ROUNDS
    )
    bypass_overhead = bypass_ratio - 1.0

    emit(
        f"== Ablation: blocked Hosking kernel (B={BLOCK}, median of "
        f"{ROUNDS} ABBA rounds) ==",
        *format_series(
            ("reps x horizon", "per-step", "blocked", "speedup"), rows
        ),
        f"block_size=1 bypass overhead: {bypass_overhead * 100:+.2f}% "
        f"(median of {BYPASS_ROUNDS} ABBA rounds)",
    )
    record_bench(
        "hosking_blocked",
        block_size=BLOCK,
        grid=grid_records,
        bypass_replications=bypass_reps,
        bypass_horizon=BYPASS_HORIZON,
        bypass_rounds=BYPASS_ROUNDS,
        bypass_overhead=bypass_overhead,
    )

    # The acceptance workload must clear 3x at smoke scale (the full
    # 256 x 4096 run lands around 8x).
    assert grid_records[-1]["speedup"] > 3.0
    assert bypass_overhead < 0.02
