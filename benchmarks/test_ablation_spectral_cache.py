"""Ablation — shared spectral tables vs per-call embedding (Fig. 16).

The Davies-Harte generator is exact in O(n log n), but the seed
implementation re-evaluated the model autocovariance and re-ran the
circulant eigenvalue FFT on *every* call — once per replication, per
leg, even though every leg of a ``horizon = 10 b`` buffer sweep reads a
prefix of one spectrum.  This bench replays a Fig. 16-style plain-MC
overflow sweep two ways:

- **seed**: the original per-replication loop — one
  :func:`davies_harte_generate` call per replication on a cold cache
  (:func:`clear_spectral_cache` before each draw, so every call pays a
  fresh acvf + eigenvalue FFT);
- **cached**: :func:`mc_overflow_vs_buffer_curve` — one shared
  :class:`SpectralTable` prewarmed at the largest horizon, every leg
  slicing its prefix, and each leg drawing all replications as a single
  batched FFT pass.

The two must agree bit for bit (the cache is RNG-neutral and batched
generation consumes the stream in the same order) while the cached path
must be at least 3x faster.

A second bound pins the *bypass* path: a cold-cache (or over-cap)
generation routes through :func:`build_eigenvalue_entry` /
:func:`apply_eigenvalue_policy` instead of the seed's inline FFT, and
that bookkeeping must stay under 2% of a per-call generation.  The bound is computed from a
microbenchmark of the bookkeeping delta (entry construction + policy
check minus the raw FFT both variants share) — comparing whole-sweep
wall times would drown a sub-millisecond effect in noise.

Replications are deliberately *not* scaled by ``REPRO_BENCH_SCALE``:
the speedup ratio depends on the calls-per-leg geometry, so shrinking
the sweep would measure a different ablation.  The whole bench takes a
few seconds.
"""

import time

import numpy as np

from repro.processes.correlation import CompositeCorrelation
from repro.processes.davies_harte import davies_harte_generate
from repro.processes.spectral_cache import (
    apply_eigenvalue_policy,
    build_eigenvalue_entry,
    circulant_eigenvalues,
    clear_spectral_cache,
    spectral_cache_info,
)
from repro.observability import RunContext, recording
from repro.observability.sinks import sanitize_value
from repro.queueing.multiplexer import service_rate_for_utilization
from repro.queueing.overflow import transient_overflow_mc
from repro.simulation.runner import mc_overflow_vs_buffer_curve
from repro.stats.random import spawn_rngs

from .conftest import format_series

#: Smaller than the IS sweep's buffers on purpose: plain MC can only
#: resolve the moderate probabilities of small buffers anyway, and the
#: short-horizon legs are exactly where per-call embedding overhead
#: dominates.
BUFFERS = [10.0, 20.0, 30.0, 40.0, 50.0]
REPLICATIONS = 400
UTILIZATION = 0.85
HORIZON_FACTOR = 10
SEED = 1995

#: Acceptance threshold for the cache-bypass bookkeeping overhead.
MAX_BYPASS_OVERHEAD = 0.02


def _model():
    return CompositeCorrelation.paper_fit().with_continuity()


def _transform(x):
    """Cheap unit-mean-ish marginal so the bench isolates generation."""
    return np.maximum(x + 1.0, 0.0)


def _seed_style_sweep(model):
    """The seed's loop: per-replication calls, per-call embedding."""
    mu = service_rate_for_utilization(1.0, UTILIZATION)
    rngs = spawn_rngs(SEED, len(BUFFERS))
    estimates = []
    for b, rng in zip(BUFFERS, rngs):
        horizon = int(HORIZON_FACTOR * b)
        rows = np.empty((REPLICATIONS, horizon))
        for i in range(REPLICATIONS):
            clear_spectral_cache()
            rows[i] = davies_harte_generate(
                model, horizon, random_state=rng
            )
        estimates.append(
            transient_overflow_mc(_transform(rows), mu, b)
        )
    return estimates


def _bypass_bookkeeping_seconds(model, rounds=200):
    """Per-call cost the bypass path adds over the seed's inline step.

    The seed generator's spectral step was the full FFT followed by a
    negative-eigenvalue scan (``eig < 0`` + ``np.any``) to drive the
    clip/raise policy; the bypass path replaces it with
    :func:`build_eigenvalue_entry` + :func:`apply_eigenvalue_policy`.
    The delta between those two — entry construction, bookkeeping
    floats, the immutability flag — is what this measures.
    """
    horizon = int(HORIZON_FACTOR * BUFFERS[-1])
    acvf = model.acvf(horizon + 1)

    def best(fn):
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    def seed_step():
        # The seed's full embedding spectrum: one real FFT of the
        # embedding, mirrored to all 2n eigenvalues.
        half = circulant_eigenvalues(acvf)
        eigenvalues = np.concatenate([half, half[-2:0:-1]])
        if np.any(eigenvalues < 0):  # pragma: no cover - clean model
            raise AssertionError("bench model must be embeddable")

    seed = best(seed_step)
    entry = best(
        lambda: apply_eigenvalue_policy(
            build_eigenvalue_entry(acvf), "clip"
        )
    )
    return max(entry - seed, 0.0)


def test_ablation_spectral_cache(benchmark, emit, record_bench):
    model = _model()

    start = time.perf_counter()
    seed_estimates = _seed_style_sweep(model)
    seed_seconds = time.perf_counter() - start

    # Cold cache so the cached path pays for its own table build.
    clear_spectral_cache()
    ctx = RunContext()

    def cached_sweep():
        with recording(ctx):
            return mc_overflow_vs_buffer_curve(
                model,
                _transform,
                utilization=UTILIZATION,
                buffer_sizes=BUFFERS,
                replications=REPLICATIONS,
                horizon_factor=HORIZON_FACTOR,
                random_state=SEED,
                workers=1,
            )

    start = time.perf_counter()
    curve = benchmark.pedantic(cached_sweep, rounds=1, iterations=1)
    cached_seconds = max(time.perf_counter() - start, 1e-9)

    speedup = seed_seconds / cached_seconds
    info = spectral_cache_info()

    calls = len(BUFFERS) * REPLICATIONS
    per_call_wall = seed_seconds / calls
    bookkeeping = _bypass_bookkeeping_seconds(model)
    bypass_overhead = bookkeeping / per_call_wall

    rows = [
        ("seed (per-call embedding)", f"{seed_seconds:.3f}s"),
        ("shared table + batched legs", f"{cached_seconds:.3f}s"),
        ("speedup", f"{speedup:.1f}x"),
        (
            "table cache",
            f"{info.misses} miss, {info.hits} hits, "
            f"{info.eigenvalue_builds} eigenvalue builds",
        ),
        (
            "bypass bookkeeping",
            f"{bypass_overhead * 100:.3f}% of a per-call generation "
            f"(threshold {MAX_BYPASS_OVERHEAD * 100:.0f}%)",
        ),
    ]
    emit(
        f"== Ablation: spectral cache sharing "
        f"(Fig. 16 MC sweep, b_max={BUFFERS[-1]:g}, "
        f"{REPLICATIONS} replications) ==",
        *format_series(("variant", "wall time"), rows),
    )
    spectral_snapshot = [
        {
            key: sanitize_value(value)
            for key, value in entry.items()
            if not isinstance(value, list)
        }
        for entry in ctx.snapshot()
        if str(entry["name"]).startswith(("spectral.", "mc."))
    ]
    record_bench(
        "spectral_cache_sweep",
        buffers=BUFFERS,
        replications=REPLICATIONS,
        seed_seconds=seed_seconds,
        cached_seconds=cached_seconds,
        speedup=speedup,
        bypass_bookkeeping_seconds=bookkeeping,
        bypass_overhead_fraction=bypass_overhead,
        bypass_threshold=MAX_BYPASS_OVERHEAD,
        cache_info=dict(info._asdict()),
        metrics_snapshot=spectral_snapshot,
    )

    cached_probs = [e.probability for e in curve.estimates]
    seed_probs = [e.probability for e in seed_estimates]
    # Bitwise agreement: the cache is an optimisation, not a different
    # estimator (RNG-neutral, batched draw == sequential draws).
    assert cached_probs == seed_probs
    # All legs share one prewarmed table: a single miss, one eigenvalue
    # build per distinct horizon.
    assert info.misses == 1
    assert info.eigenvalue_builds == len(BUFFERS)
    assert speedup >= 3.0
    assert bypass_overhead < MAX_BYPASS_OVERHEAD, (
        f"cache-bypass bookkeeping {bypass_overhead:.4%} exceeds "
        f"{MAX_BYPASS_OVERHEAD:.0%} of a per-call generation"
    )
