"""The scene-chunked generation pipeline (repro.processes.chunked).

Four contract families:

- **Planning** (hypothesis): planned chunks cover the horizon exactly
  once, interior edges land on the alignment grid (or on the provided
  scene boundaries), and the minimum-chunk floor holds.
- **Exact stitch**: the chunked Hosking-path output is bit-identical
  to ``hosking_generate`` on the chunk-seeded innovations at any chunk
  size, from the cached table and from the in-step recursion above the
  cache cap, and thread-count invariant bit for bit.
- **Bridge stitch**: the conditional-mean map equals
  ``conditional_forecast``, and so does the generator's matrix-free
  stitch, chunk by chunk on the same raw draws; the stitched
  covariance (computed exactly)
  obeys the pinned per-(H, window) deviation bounds of DESIGN.md §5g
  and improves monotonically with the window; paired Hurst/ACF
  estimates on chunked vs single-pass paths are statistically
  indistinguishable; output is bit-identical at any pool size.
- **Hygiene**: chunk RNGs carry globally distinct spawn keys across
  legs and chunks (the collision canary), peak extra memory is
  O(chunk) and below one ``(chunk, window)`` matrix, and the
  ``chunked.*`` metrics are emitted.
"""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.estimators import (
    mavar_estimate,
    sample_acf,
    variance_time_estimate,
    whittle_estimate,
)
from repro.exceptions import ValidationError
from repro.observability import RunContext, recording
from repro.processes import chunked, registry
from repro.processes.chunked import (
    ChunkedGenerator,
    bridge_matrix,
    plan_chunks,
    stitched_covariance,
)
from repro.processes.correlation import FGNCorrelation
from repro.processes.davies_harte import davies_harte_generate
from repro.processes.forecast import conditional_forecast
from repro.processes.hosking import hosking_generate
from repro.processes.source import DaviesHarteSource, HoskingSource
from repro.stats.random import spawn_key, spawn_rngs
from repro.video.gop import GopStructure
from tests.conftest import coefficient_cache_cap

FAST = settings(max_examples=40, deadline=None)


# ---------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------


class TestPlanChunks:
    @FAST
    @given(
        horizon=st.integers(min_value=1, max_value=5000),
        chunk_frames=st.integers(min_value=1, max_value=1200),
        alignment=st.integers(min_value=1, max_value=16),
    )
    def test_exact_cover_and_alignment(
        self, horizon, chunk_frames, alignment
    ):
        if chunk_frames < alignment:
            chunk_frames = alignment
        plan = plan_chunks(
            horizon, chunk_frames, alignment=alignment
        )
        edges = plan.edges
        # Exact cover: edges strictly increase from 0 to horizon and
        # consecutive chunks abut.
        assert edges[0] == 0 and edges[-1] == horizon
        assert np.all(np.diff(edges) > 0)
        for prev, chunk in zip(plan.chunks, plan.chunks[1:]):
            assert prev.stop == chunk.start
        # Interior edges land on the alignment grid.
        for edge in edges[1:-1]:
            assert edge % alignment == 0
        # Floor: every chunk but possibly a short total horizon.
        if horizon >= plan.min_chunk:
            for chunk in plan.chunks:
                assert chunk.length >= plan.min_chunk

    @FAST
    @given(
        horizon=st.integers(min_value=100, max_value=4000),
        chunk_frames=st.integers(min_value=50, max_value=1000),
    )
    def test_scene_boundary_edges(self, horizon, chunk_frames):
        rng = np.random.default_rng(horizon * 7 + chunk_frames)
        cuts = np.unique(
            rng.integers(1, horizon, size=rng.integers(1, 20))
        )
        min_chunk = 25
        if chunk_frames < min_chunk:
            chunk_frames = min_chunk
        plan = plan_chunks(
            horizon,
            chunk_frames,
            boundaries=cuts,
            min_chunk=min_chunk,
        )
        edges = plan.edges
        assert edges[0] == 0 and edges[-1] == horizon
        # Interior edges are scene cuts, and the floor holds.
        for edge in edges[1:-1]:
            assert edge in cuts
        for chunk in plan.chunks:
            assert chunk.length >= min_chunk

    def test_gop_alignment_uses_i_period(self):
        gop = GopStructure.paper()
        plan = plan_chunks(1000, 256, alignment=gop.i_period)
        for edge in plan.edges[1:-1]:
            assert edge % gop.i_period == 0
        # Every chunk therefore starts on an I frame.
        for chunk in plan.chunks:
            assert gop.pattern[chunk.start % gop.i_period].value == "I"

    def test_single_chunk_when_horizon_fits(self):
        plan = plan_chunks(100, 256)
        assert plan.num_chunks == 1
        assert plan.chunks[0].length == 100

    def test_min_chunk_floor_merges_tail(self):
        # 1000 = 3 x 300 + 100; with min_chunk=150 the 100-frame tail
        # must not appear as its own chunk.
        plan = plan_chunks(1000, 300, min_chunk=150)
        assert all(c.length >= 150 for c in plan.chunks)
        assert plan.edges[-1] == 1000

    def test_rejects_chunk_below_floor(self):
        with pytest.raises(ValidationError):
            plan_chunks(1000, 10, min_chunk=50)


# ---------------------------------------------------------------------
# Exact stitch (Hosking path)
# ---------------------------------------------------------------------


def chunk_seeded_innovations(gen, n, seed):
    """The innovations the exact stitch draws: one standard-normal
    block per chunk from that chunk's spawned stream, in chunk order."""
    plan = gen.plan(n)
    return np.concatenate([
        rng.standard_normal(chunk.length)
        for chunk, rng in zip(plan, spawn_rngs(seed, plan.num_chunks))
    ])


class TestExactStitch:
    @pytest.mark.parametrize("chunk_frames", [32, 100, 512, 64])
    @pytest.mark.parametrize("hurst", [0.7, 0.9])
    def test_matches_direct_hosking_with_shared_innovations(
        self, chunk_frames, hurst
    ):
        model = FGNCorrelation(hurst)
        n = 512
        gen = ChunkedGenerator(
            HoskingSource(model), chunk_frames=chunk_frames
        )
        z = chunk_seeded_innovations(gen, n, 11)
        chunked = gen.generate(n, random_state=11)
        np.testing.assert_array_equal(
            chunked, hosking_generate(model, n, innovations=z)
        )

    def test_matches_direct_hosking_above_cache_cap(self):
        # Above the cap both run the recursion in step; same bits.
        model = FGNCorrelation(0.8)
        gen = ChunkedGenerator(HoskingSource(model), chunk_frames=100)
        z = chunk_seeded_innovations(gen, 300, 4)
        with coefficient_cache_cap(64):
            chunked = gen.generate(300, random_state=4)
            direct = hosking_generate(model, 300, innovations=z)
        np.testing.assert_array_equal(chunked, direct)

    @pytest.mark.parametrize("processes", [1, 2, 7, 16])
    def test_thread_count_invariant_bits(self, processes):
        src = HoskingSource(FGNCorrelation(0.8))
        baseline = ChunkedGenerator(
            src, chunk_frames=128, processes=1
        ).generate(600, random_state=42)
        out = ChunkedGenerator(
            src, chunk_frames=128, processes=processes
        ).generate(600, random_state=42)
        assert np.array_equal(out, baseline)

    def test_auto_picks_exact_for_conditional_source(self):
        gen = ChunkedGenerator(
            HoskingSource(FGNCorrelation(0.8)), chunk_frames=64
        )
        assert gen.stitch == "exact"

    def test_mean_shift_applied(self):
        src = HoskingSource(FGNCorrelation(0.8))
        x = ChunkedGenerator(src, chunk_frames=64).generate(
            200, mean=5.0, random_state=0
        )
        y = ChunkedGenerator(src, chunk_frames=64).generate(
            200, mean=0.0, random_state=0
        )
        np.testing.assert_allclose(x, y + 5.0)


# ---------------------------------------------------------------------
# Bridge stitch (spectral path)
# ---------------------------------------------------------------------


def forecast_stitched(gen, n, seed):
    """The bridge stitch rebuilt from its definition, chunk by chunk.

    Each chunk's raw ``w + L`` samples are redrawn from its spawned
    stream as the generator's chunk job draws them; the window is then
    replaced through ``conditional_forecast``, which shares no code
    with the stitch: ``x_c = y[w:] + E[next L | h - y[:w]]``.
    """
    plan = gen.plan(n)
    window = gen.stitch_window
    acvf = gen.source.acvf(
        max(min(window, c.start) + c.length for c in plan) + 1
    )
    x = np.empty(n)
    for chunk, rng in zip(plan, spawn_rngs(seed, plan.num_chunks)):
        w = min(window, chunk.start)
        total = w + chunk.length
        raw = davies_harte_generate(
            acvf[: total + 1],
            total,
            random_state=rng,
            on_negative_eigenvalues="clip",
        )
        if w == 0:
            x[chunk.start : chunk.stop] = raw
            continue
        history = x[chunk.start - w : chunk.start]
        forecast = conditional_forecast(acvf, history - raw[:w], chunk.length)
        x[chunk.start : chunk.stop] = raw[w:] + forecast.mean
    return x


class TestBridgeStitch:
    # (horizon, chunk_frames, window, block rows or None for the
    # default, uniform path expected)
    REFERENCE_CASES = {
        "uniform": (4096, 512, 128, None, True),
        "chunk_shorter_than_window": (1024, 64, 128, None, False),
        "window_1": (2048, 256, 1, None, True),
        "ragged_row_blocks": (1700, 500, 64, 48, True),
    }

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_matches_forecast_reference(self, case, monkeypatch):
        n, chunk_frames, window, rows, uniform = self.REFERENCE_CASES[case]
        if rows is not None:
            # Chunks of 500 and 200 frames over 48-row blocks: every
            # chunk ends inside a partial block.
            monkeypatch.setattr(
                chunked, "_STITCH_BLOCK_BYTES", rows * window * 8
            )
        gen = ChunkedGenerator(
            DaviesHarteSource(FGNCorrelation(0.85)),
            chunk_frames=chunk_frames,
            stitch_window=window,
            processes=1,
        )
        assert gen._uniform_stitch_ok(gen.plan(n)) is uniform
        np.testing.assert_allclose(
            gen.generate(n, random_state=31),
            forecast_stitched(gen, n, 31),
            rtol=1e-10,
            atol=1e-12,
        )

    def test_bridge_matrix_equals_conditional_forecast_mean(self):
        model = FGNCorrelation(0.8)
        w, length = 40, 64
        a = bridge_matrix(model.acvf(w + length + 1), w, length)
        history = np.random.default_rng(3).standard_normal(w)
        forecast = conditional_forecast(model, history, length)
        np.testing.assert_allclose(
            a @ history, forecast.mean, rtol=1e-10, atol=1e-12
        )

    @pytest.mark.parametrize("processes", [1, 2, 7, 16])
    def test_process_count_invariant_bits(self, processes):
        src = DaviesHarteSource(FGNCorrelation(0.8))
        baseline = ChunkedGenerator(
            src, chunk_frames=1024, stitch_window=128, processes=1
        ).generate(4096, random_state=99)
        out = ChunkedGenerator(
            src, chunk_frames=1024, stitch_window=128, processes=processes
        ).generate(4096, random_state=99)
        assert np.array_equal(out, baseline)

    def test_uniform_stitch_matches_sequential_reference(self):
        # The batched stitch (window-discrepancy recurrence + one GEMM)
        # is algebraically the per-chunk conditional-mean loop; same
        # seed, both paths, allclose.
        src = DaviesHarteSource(FGNCorrelation(0.85))
        fast_gen = ChunkedGenerator(
            src, chunk_frames=512, stitch_window=128, processes=1
        )
        assert fast_gen._uniform_stitch_ok(fast_gen.plan(4096))
        fast = fast_gen.generate(4096, random_state=21)
        slow_gen = ChunkedGenerator(
            src, chunk_frames=512, stitch_window=128, processes=1
        )
        slow_gen._uniform_stitch_ok = lambda plan: False
        slow = slow_gen.generate(4096, random_state=21)
        np.testing.assert_allclose(fast, slow, rtol=1e-10, atol=1e-12)

    def test_short_chunks_use_sequential_stitch(self):
        # A chunk shorter than the window cannot provide a full-window
        # history, so the plan falls back to the reference loop.
        src = DaviesHarteSource(FGNCorrelation(0.8))
        gen = ChunkedGenerator(
            src, chunk_frames=64, stitch_window=128, processes=1
        )
        assert not gen._uniform_stitch_ok(gen.plan(1024))
        out = gen.generate(1024, random_state=3)
        assert out.shape == (1024,)

    def test_seed_and_geometry_are_the_law(self):
        # Same seed, same geometry -> same bits; different chunking ->
        # a different (equally distributed) path.
        src = DaviesHarteSource(FGNCorrelation(0.8))
        a = ChunkedGenerator(src, chunk_frames=512).generate(
            2048, random_state=5
        )
        b = ChunkedGenerator(src, chunk_frames=512).generate(
            2048, random_state=5
        )
        c = ChunkedGenerator(src, chunk_frames=256).generate(
            2048, random_state=5
        )
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    # Pinned deviation bounds of the DESIGN.md section 5g contract
    # table: max |stitched - target| covariance entry (unit variance,
    # horizon 512, 128-frame chunks), measured via the exact
    # stitched-covariance propagation.  Values are measured + ~30%
    # headroom; the contract is that the windowed bridge's distortion
    # is bounded and known, not that it is zero.
    CONTRACT = [
        (0.7, 64, 0.012),
        (0.8, 64, 0.050),
        (0.8, 256, 0.018),
        (0.9, 256, 0.042),
    ]

    @pytest.mark.parametrize("hurst,window,bound", CONTRACT)
    def test_stitched_covariance_contract(self, hurst, window, bound):
        model = FGNCorrelation(hurst)
        n = 512
        plan = plan_chunks(n, 128)
        cov = stitched_covariance(model, plan, stitch_window=window)
        acvf = model.acvf(n + 1)
        lags = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        target = acvf[lags]
        assert np.max(np.abs(cov - target)) < bound
        # Marginals stay exact regardless of the window: each chunk's
        # own covariance block only carries deviation inherited through
        # the window, and the first chunk none at all.
        first = plan.chunks[0]
        np.testing.assert_allclose(
            cov[: first.stop, : first.stop],
            target[: first.stop, : first.stop],
            rtol=1e-9,
            atol=1e-12,
        )

    @pytest.mark.parametrize("hurst", [0.7, 0.8, 0.9])
    def test_wider_window_is_uniformly_better(self, hurst):
        model = FGNCorrelation(hurst)
        plan = plan_chunks(512, 128)
        acvf = model.acvf(513)
        lags = np.abs(np.subtract.outer(np.arange(512), np.arange(512)))
        target = acvf[lags]
        devs = [
            np.max(
                np.abs(
                    stitched_covariance(model, plan, stitch_window=w)
                    - target
                )
            )
            for w in (32, 128, 384)
        ]
        assert devs[0] > devs[1] > devs[2]

    def test_paired_hurst_statistically_indistinguishable(self):
        # Mirror of tests/test_hurst_invariance.py: the same seeds, the
        # same estimators, chunked vs single-pass paths.  The paired
        # design cancels estimator bias; the shift bound is far inside
        # the estimators' own seed-to-seed scatter.  MAVAR carries the
        # tightest gates (0.012/0.02 vs the old 0.03/0.05; DESIGN.md
        # §5h) — its calibrated profile is the most sensitive seam
        # detector the library has.
        src = DaviesHarteSource(FGNCorrelation(0.8))
        n = 16_384
        vt, wh, mv, acf_shift = [], [], [], []
        for seed in (11, 12, 13, 14):
            plain = src.sample(n, random_state=seed)
            chunked = ChunkedGenerator(
                src, chunk_frames=4096, stitch_window=256
            ).generate(n, random_state=seed)
            vt.append(
                (
                    variance_time_estimate(plain).hurst,
                    variance_time_estimate(chunked).hurst,
                )
            )
            wh.append(
                (
                    whittle_estimate(plain).hurst,
                    whittle_estimate(chunked).hurst,
                )
            )
            mv.append(
                (
                    mavar_estimate(plain).hurst,
                    mavar_estimate(chunked).hurst,
                )
            )
            acf_shift.append(
                np.mean(
                    sample_acf(plain, 100) - sample_acf(chunked, 100)
                )
            )
        vt = np.asarray(vt)
        wh = np.asarray(wh)
        mv = np.asarray(mv)
        assert abs(vt[:, 1].mean() - vt[:, 0].mean()) < 0.03
        assert abs(wh[:, 1].mean() - wh[:, 0].mean()) < 0.02
        assert abs(wh[:, 1].mean() - 0.8) < 0.05
        assert abs(mv[:, 1].mean() - mv[:, 0].mean()) < 0.012
        assert abs(mv[:, 1].mean() - 0.8) < 0.02
        # Mean ACF shift over the first 100 lags, averaged over seeds:
        # sampling noise dominates the window truncation.
        assert abs(np.mean(acf_shift)) < 0.02


# ---------------------------------------------------------------------
# Capability gating
# ---------------------------------------------------------------------


class TestChunkedCapability:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("hosking", True),
            ("davies_harte", True),
            ("fgn", True),
            ("farima", True),
            ("rmd", False),
            ("mg_infinity", False),
        ],
    )
    def test_capability_flags(self, name, expected):
        assert registry.get(name).chunked is expected

    def test_resolve_validates_chunked(self):
        with pytest.raises(ValidationError, match="chunk"):
            registry.resolve("rmd", 0.8, chunked=True)
        source = registry.resolve("auto", FGNCorrelation(0.8), chunked=True)
        assert source.capabilities.chunked

    def test_generator_rejects_unchunkable_source(self):
        rmd = registry.create("rmd", 0.8)
        with pytest.raises(ValidationError, match="chunked"):
            ChunkedGenerator(rmd, chunk_frames=64)

    def test_describe_reports_chunked(self):
        assert DaviesHarteSource(FGNCorrelation(0.8)).describe()[
            "chunked"
        ] is True
        assert registry.create("rmd", 0.8).describe()["chunked"] is False


# ---------------------------------------------------------------------
# Seeding hygiene
# ---------------------------------------------------------------------


class TestSpawnHygiene:
    def test_collision_canary_legs_times_chunks(self):
        # The layered pattern every runner uses: legs spawned off one
        # seed, each leg's chunks spawned off the leg's Generator.  All
        # spawn keys across the whole tree must be distinct.
        legs = spawn_rngs(1234, 8)
        keys = set()
        total = 0
        for leg in legs:
            keys.add(spawn_key(leg))
            total += 1
            for chunk_rng in spawn_rngs(leg, 16):
                keys.add(spawn_key(chunk_rng))
                total += 1
        assert len(keys) == total

    def test_same_int_seed_respawns_identically(self):
        # Documented semantics (and the hazard the canary guards): an
        # int seed rebuilds the same SeedSequence, so two independent
        # spawn points sharing an int seed would collide.
        first = [spawn_key(r) for r in spawn_rngs(7, 3)]
        second = [spawn_key(r) for r in spawn_rngs(7, 3)]
        assert first == second

    def test_generator_seed_respawns_fresh(self):
        parent = np.random.default_rng(7)
        first = [spawn_key(r) for r in spawn_rngs(parent, 3)]
        second = [spawn_key(r) for r in spawn_rngs(parent, 3)]
        assert not set(first) & set(second)

    def test_chunk_streams_differ_across_chunks(self):
        # No chunk reuses another chunk's stream: with a constant-zero
        # bridge the raw chunks would otherwise repeat.
        src = DaviesHarteSource(FGNCorrelation(0.8))
        out = ChunkedGenerator(
            src, chunk_frames=256, stitch_window=1
        ).generate(1024, random_state=3)
        chunks = out.reshape(4, 256)
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.allclose(chunks[i], chunks[j])


# ---------------------------------------------------------------------
# Memory and metrics
# ---------------------------------------------------------------------


class TestMemoryAndMetrics:
    def _peak_extra(self, n, chunk_frames):
        src = DaviesHarteSource(FGNCorrelation(0.8))
        gen = ChunkedGenerator(
            src, chunk_frames=chunk_frames, stitch_window=256
        )
        tracemalloc.start()
        out = gen.generate(n, random_state=0)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak - out.nbytes

    def test_peak_extra_memory_is_o_chunk(self):
        # Doubling the horizon at fixed chunk size must not grow the
        # allocation beyond the O(horizon) output buffer: the regression
        # that keeps the pipeline's working set O(chunk + window).
        chunk = 2048
        small = self._peak_extra(2**15, chunk)
        large = self._peak_extra(2**16, chunk)
        assert large < 1.5 * small + 256 * 1024

    def test_stitch_never_forms_the_bridge_matrix(self):
        # The stitch applies A = Sigma_21 Sigma_11^{-1} in row blocks;
        # forming the (chunk, window) matrix, as a dense stitch would,
        # puts the peak a whole matrix above the horizon-linear arrays
        # (output, raw chunks, and one more for slack).
        chunk, window = 2**14, 256
        n = 8 * chunk
        src = DaviesHarteSource(FGNCorrelation(0.8))
        # A throwaway run warms the spectral cache and lazy imports.
        ChunkedGenerator(
            src, chunk_frames=chunk, stitch_window=window, processes=1
        ).generate(n, random_state=0)
        gen = ChunkedGenerator(
            src, chunk_frames=chunk, stitch_window=window, processes=1
        )
        tracemalloc.start()
        out = gen.generate(n, random_state=1)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        matrix_bytes = chunk * window * 8
        assert peak - 3 * out.nbytes < matrix_bytes / 2

    def test_chunked_metrics_emitted(self):
        src = DaviesHarteSource(FGNCorrelation(0.8))
        gen = ChunkedGenerator(src, chunk_frames=256, processes=2)
        with recording(RunContext()) as ctx:
            gen.generate(1024, random_state=1)
        names = {entry["name"] for entry in ctx.snapshot()}
        for expected in (
            "chunked.chunks",
            "chunked.chunk_frames",
            "chunked.window",
            "chunked.processes",
            "chunked.stitch_seconds",
            "chunked.peak_chunk_bytes",
            "chunked.workers",
            "chunked.legs",
            "chunked.job_seconds",
            "chunked.occupancy",
        ):
            assert expected in names, expected
        report = gen.last_report
        assert report.num_chunks == 4
        assert report.mode == "bridge"
        assert report.peak_chunk_bytes > 0
        assert report.occupancy > 0.0

    def test_metrics_do_not_change_bits(self):
        src = DaviesHarteSource(FGNCorrelation(0.8))
        quiet = ChunkedGenerator(src, chunk_frames=256).generate(
            1024, random_state=6
        )
        with recording(RunContext()):
            loud = ChunkedGenerator(src, chunk_frames=256).generate(
                1024, random_state=6
            )
        assert np.array_equal(quiet, loud)

    def test_env_processes_consulted(self):
        src = DaviesHarteSource(FGNCorrelation(0.8))
        baseline = ChunkedGenerator(src, chunk_frames=256).generate(
            1024, random_state=9
        )
        old = os.environ.get("REPRO_WORKERS")
        os.environ["REPRO_WORKERS"] = "3"
        try:
            with recording(RunContext()) as ctx:
                out = ChunkedGenerator(src, chunk_frames=256).generate(
                    1024, random_state=9
                )
        finally:
            if old is None:
                del os.environ["REPRO_WORKERS"]
            else:
                os.environ["REPRO_WORKERS"] = old
        assert np.array_equal(out, baseline)
        workers = [
            entry
            for entry in ctx.snapshot()
            if entry["name"] == "chunked.workers"
        ]
        assert workers and workers[0]["value"] == 3
