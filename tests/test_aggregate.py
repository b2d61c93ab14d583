"""Tests for the sharded aggregate engine (core.aggregate)."""

import tracemalloc

import numpy as np
import pytest

from repro.core.aggregate import (
    AggregateFeed,
    ShardedAggregateModel,
    SourceClass,
    SourcePopulation,
    as_population,
)
from repro.core.unified import UnifiedVBRModel
from repro.exceptions import NotFittedError, ValidationError
from repro.marginals.parametric import (
    GammaDistribution,
    NormalDistribution,
)
from repro.marginals.transform import MarginalTransform
from repro.processes import registry
from repro.processes.correlation import (
    ExponentialCorrelation,
    FGNCorrelation,
)
from repro.stats.random import spawn_rngs
from tests.conftest import SHM_THRESHOLDS


@pytest.fixture()
def mixed_population():
    return SourcePopulation([
        SourceClass(
            "video_hi",
            correlation=0.85,
            marginal=NormalDistribution(10.0, 2.0),
            count=13,
        ),
        SourceClass(
            "video_lo",
            correlation=0.75,
            marginal=GammaDistribution(4.0, 0.5),
            count=7,
            gop_pattern=[2.0, 0.6, 0.6, 0.6],
        ),
    ])


class TestSourceClass:
    def test_float_correlation_becomes_fgn(self):
        klass = SourceClass(
            "a", correlation=0.8,
            marginal=NormalDistribution(1.0, 0.1), count=2,
        )
        assert isinstance(klass.correlation, FGNCorrelation)
        assert klass.hurst == pytest.approx(0.8)

    def test_srd_class_has_no_hurst(self):
        klass = SourceClass(
            "srd", correlation=ExponentialCorrelation(0.5),
            marginal=NormalDistribution(1.0, 0.1), count=2,
        )
        assert klass.hurst is None

    def test_rejects_bad_correlation_type(self):
        with pytest.raises(ValidationError):
            SourceClass(
                "a", correlation="nope",
                marginal=NormalDistribution(1.0, 0.1), count=1,
            )

    def test_rejects_bad_marginal_type(self):
        with pytest.raises(ValidationError):
            SourceClass("a", correlation=0.8, marginal="nope", count=1)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValidationError):
            SourceClass(
                "a", correlation=0.8,
                marginal=NormalDistribution(1.0, 0.1), count=0,
            )

    @pytest.mark.parametrize(
        "pattern", [[1.0], [[1.0, 2.0]], [1.0, -0.5], [1.0, 0.0]]
    )
    def test_rejects_bad_gop_pattern(self, pattern):
        with pytest.raises(ValidationError):
            SourceClass(
                "a", correlation=0.8,
                marginal=NormalDistribution(1.0, 0.1), count=1,
                gop_pattern=pattern,
            )

    def test_gop_pattern_normalized_to_mean_one(self):
        klass = SourceClass(
            "a", correlation=0.8,
            marginal=NormalDistribution(1.0, 0.1), count=1,
            gop_pattern=[4.0, 1.0, 1.0],
        )
        assert klass.gop_pattern.mean() == pytest.approx(1.0)
        assert klass.mean_rate == pytest.approx(1.0)

    def test_slot_variance_without_pattern(self):
        klass = SourceClass(
            "a", correlation=0.8,
            marginal=NormalDistribution(10.0, 2.0), count=1,
        )
        assert klass.slot_variance == pytest.approx(4.0)

    def test_slot_variance_with_pattern(self):
        pattern = np.array([2.0, 0.6, 0.6, 0.6])
        pattern = pattern / pattern.mean()
        klass = SourceClass(
            "a", correlation=0.8,
            marginal=NormalDistribution(10.0, 2.0), count=1,
            gop_pattern=pattern,
        )
        g2 = float(np.mean(pattern**2))
        expected = g2 * (4.0 + 100.0) - 100.0
        assert klass.slot_variance == pytest.approx(expected)

    def test_attenuation_is_one_for_normal(self):
        # Normal marginal -> affine transform -> no ACF attenuation.
        klass = SourceClass(
            "a", correlation=0.8,
            marginal=NormalDistribution(5.0, 1.0), count=1,
        )
        assert klass.attenuation == pytest.approx(1.0, abs=1e-6)

    def test_with_count(self):
        klass = SourceClass(
            "a", correlation=0.8,
            marginal=NormalDistribution(1.0, 0.1), count=3,
        )
        clone = klass.with_count(11)
        assert clone.count == 11
        assert klass.count == 3
        assert clone.marginal is klass.marginal


class TestSourcePopulation:
    def test_aggregate_moments_add(self, mixed_population):
        classes = mixed_population.classes
        assert mixed_population.num_sources == 20
        assert mixed_population.mean_rate == pytest.approx(
            13 * classes[0].mean_rate + 7 * classes[1].mean_rate
        )
        assert mixed_population.slot_variance == pytest.approx(
            13 * classes[0].slot_variance + 7 * classes[1].slot_variance
        )

    def test_dominant_hurst(self, mixed_population):
        assert mixed_population.hurst == pytest.approx(0.85)

    def test_hurst_requires_lrd_class(self):
        pop = SourcePopulation([
            SourceClass(
                "srd", correlation=ExponentialCorrelation(0.5),
                marginal=NormalDistribution(1.0, 0.1), count=2,
            )
        ])
        with pytest.raises(ValidationError):
            pop.hurst

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            SourcePopulation([])

    def test_scaled_to_largest_remainder(self, mixed_population):
        scaled = mixed_population.scaled_to(100)
        assert scaled.num_sources == 100
        assert [k.count for k in scaled.classes] == [65, 35]

    def test_scaled_to_drops_zero_share_classes(self):
        pop = SourcePopulation([
            SourceClass(
                "big", correlation=0.8,
                marginal=NormalDistribution(1.0, 0.1), count=99,
            ),
            SourceClass(
                "tiny", correlation=0.7,
                marginal=NormalDistribution(1.0, 0.1), count=1,
            ),
        ])
        scaled = pop.scaled_to(2)
        assert scaled.num_sources == 2
        assert [k.name for k in scaled.classes] == ["big"]

    def test_mixture_acf_weights_by_count_and_variance(self):
        # Normal marginals -> attenuation 1 -> the prediction is the
        # plain variance-weighted mixture of the correlation models.
        c1 = SourceClass(
            "a", correlation=0.9,
            marginal=NormalDistribution(10.0, 2.0), count=3,
        )
        c2 = SourceClass(
            "b", correlation=0.7,
            marginal=NormalDistribution(5.0, 1.0), count=12,
        )
        pop = SourcePopulation([c1, c2])
        lags = np.array([0.0, 1.0, 5.0, 20.0])
        w1, w2 = 3 * 4.0, 12 * 1.0
        expected = (
            w1 * np.where(lags == 0, 1.0, c1.correlation(lags))
            + w2 * np.where(lags == 0, 1.0, c2.correlation(lags))
        ) / (w1 + w2)
        np.testing.assert_allclose(pop.mixture_acf(lags), expected)

    def test_mixture_acf_rejects_gop_classes(self, mixed_population):
        with pytest.raises(ValidationError):
            mixed_population.mixture_acf([1, 2])

    def test_as_population_accepts_class_and_sequence(self):
        klass = SourceClass(
            "a", correlation=0.8,
            marginal=NormalDistribution(1.0, 0.1), count=2,
        )
        assert as_population(klass).num_sources == 2
        assert as_population([klass, klass.with_count(3)]).num_sources == 5
        pop = SourcePopulation([klass])
        assert as_population(pop) is pop


class TestShardInvariance:
    def test_bit_identical_across_shard_counts(self, mixed_population):
        engine = ShardedAggregateModel(mixed_population, batch_size=4)
        reference = engine.generate(
            128, shards=1, random_state=99
        ).arrivals
        for shards in (2, 7, 16, 64):
            feed = engine.generate(128, shards=shards, random_state=99)
            np.testing.assert_array_equal(feed.arrivals, reference)
            assert feed.shards == shards

    def test_batch_size_is_part_of_the_law(self, mixed_population):
        # Contract pin: changing batch_size moves block boundaries and
        # therefore which stream each source draws from — same law,
        # different bits.  A failure here means the seeding scheme
        # changed; update DESIGN.md if that is intentional.
        a = ShardedAggregateModel(
            mixed_population, batch_size=4
        ).generate(64, random_state=5).arrivals
        b = ShardedAggregateModel(
            mixed_population, batch_size=8
        ).generate(64, random_state=5).arrivals
        assert not np.array_equal(a, b)

    def test_seeds_differ(self, mixed_population):
        engine = ShardedAggregateModel(mixed_population, batch_size=4)
        a = engine.generate(64, random_state=1).arrivals
        b = engine.generate(64, random_state=2).arrivals
        assert not np.array_equal(a, b)

    def test_matches_manual_block_reconstruction(self):
        # Pin the seeding law end to end: blocks enumerated class by
        # class in population order, block b seeded with the b-th
        # spawned child, GOP gains staggered by in-class source index.
        pattern = np.array([2.0, 0.6, 0.6, 0.6])
        pattern = pattern / pattern.mean()
        pop = SourcePopulation([
            SourceClass(
                "x", correlation=0.8,
                marginal=NormalDistribution(3.0, 1.0), count=5,
            ),
            SourceClass(
                "y", correlation=0.7,
                marginal=GammaDistribution(2.0, 1.0), count=3,
                gop_pattern=pattern,
            ),
        ])
        horizon, batch, seed = 32, 2, 17
        feed = ShardedAggregateModel(pop, batch_size=batch).generate(
            horizon, random_state=seed
        )
        blocks = [(0, 0, 2), (0, 2, 2), (0, 4, 1), (1, 0, 2), (1, 2, 1)]
        rngs = spawn_rngs(seed, len(blocks))
        sources = [
            registry.resolve("auto", klass.correlation)
            for klass in pop.classes
        ]
        transforms = [MarginalTransform(k.marginal) for k in pop.classes]
        expected = np.zeros(horizon)
        for (class_index, offset, rows), rng in zip(blocks, rngs):
            x = sources[class_index].sample(
                horizon, size=rows, random_state=rng
            )
            y = np.asarray(transforms[class_index](x), dtype=float)
            if class_index == 1:
                phases = (offset + np.arange(rows)) % pattern.size
                idx = (
                    phases[:, None] + np.arange(horizon)[None, :]
                ) % pattern.size
                y = y * pattern[idx]
            expected += y.sum(axis=0)
        np.testing.assert_array_equal(feed.arrivals, expected)


class TestShardedAggregateModel:
    def test_feed_mean_tracks_population(self, mixed_population):
        engine = ShardedAggregateModel(mixed_population, batch_size=8)
        feed = engine.generate(1024, random_state=21)
        assert feed.arrivals.mean() == pytest.approx(
            mixed_population.mean_rate, rel=0.15
        )

    def test_feed_metadata_and_normalization(self, mixed_population):
        engine = ShardedAggregateModel(mixed_population, batch_size=8)
        feed = engine.generate(64, shards=3, random_state=1)
        assert isinstance(feed, AggregateFeed)
        assert feed.num_sources == 20
        assert feed.horizon == 64
        assert feed.mean_rate == pytest.approx(
            mixed_population.mean_rate
        )
        np.testing.assert_allclose(
            feed.normalized * feed.mean_rate, feed.arrivals
        )

    def test_generate_validation(self, mixed_population):
        engine = ShardedAggregateModel(mixed_population)
        with pytest.raises(ValidationError):
            engine.generate(0)
        with pytest.raises(ValidationError):
            engine.generate(16, shards=0)
        with pytest.raises(ValidationError):
            ShardedAggregateModel(mixed_population, batch_size=0)

    def test_from_unified(self, fitted_unified):
        engine = ShardedAggregateModel.from_unified(
            fitted_unified, 12, batch_size=4
        )
        assert engine.num_sources == 12
        feed = engine.generate(256, shards=2, random_state=3)
        expected = 12 * fitted_unified.marginal_.mean
        assert feed.mean_rate == pytest.approx(expected, rel=1e-6)
        assert feed.arrivals.mean() == pytest.approx(expected, rel=0.3)

    def test_from_unified_requires_fitted(self):
        with pytest.raises(NotFittedError):
            ShardedAggregateModel.from_unified(UnifiedVBRModel(), 4)
        with pytest.raises(ValidationError):
            ShardedAggregateModel.from_unified("nope", 4)

    def test_gop_smoothing_with_full_phase_coverage(self):
        # count == period with staggered phases: every slot sees every
        # phase exactly once, so the aggregate per-slot *mean* equals
        # the pattern-free mean — GOP periodicity cancels at scale.
        pattern = [3.0, 0.5, 0.5]
        pop = SourceClass(
            "g", correlation=0.75,
            marginal=NormalDistribution(10.0, 0.5), count=3,
            gop_pattern=pattern,
        )
        feed = ShardedAggregateModel(pop, batch_size=3).generate(
            512, random_state=4
        )
        # Per-slot aggregate gain is identically sum(g)/period = 1.
        assert feed.arrivals.mean() == pytest.approx(30.0, rel=0.05)

    def test_memory_stays_bounded_by_batch(self):
        # 5000 sources, batch 128: peak must track the block size, not
        # the (num_sources x horizon) matrix (~10 MB here, ~400 MB at
        # the bench's N=1e5).
        pop = SourceClass(
            "m", correlation=0.8,
            marginal=NormalDistribution(1.0, 0.2), count=5000,
        )
        engine = ShardedAggregateModel(pop, batch_size=128)
        engine.generate(64, random_state=0)  # warm spectral cache
        tracemalloc.start()
        engine.generate(256, shards=4, random_state=1)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_metrics_recorded(self, mixed_population):
        from repro.observability import RunContext

        ctx = RunContext()
        engine = ShardedAggregateModel(
            mixed_population, batch_size=4, metrics=ctx
        )
        engine.generate(32, shards=3, random_state=2)
        snapshot = {
            (e["name"], tuple(sorted(e["labels"].items()))): e.get("value")
            for e in ctx.snapshot()
            if e["name"].startswith("aggregate.")
        }
        assert snapshot[
            ("aggregate.sources", (("source_class", "video_hi"),))
        ] == 13
        assert snapshot[
            ("aggregate.blocks", (("source_class", "video_lo"),))
        ] == 2
        assert snapshot[("aggregate.shards", ())] == 3
        assert snapshot[("aggregate.batch_size", ())] == 4.0


class TestProcessInvariance:
    """processes= mirrors the chunked pipeline's worker-count matrix."""

    def test_bit_identical_across_process_counts(self, mixed_population):
        engine = ShardedAggregateModel(mixed_population, batch_size=4)
        reference = engine.generate(
            128, shards=1, random_state=99
        ).arrivals
        for processes in (1, 2, 7, 16):
            feed = engine.generate(
                128, processes=processes, random_state=99
            )
            np.testing.assert_array_equal(feed.arrivals, reference)
            assert feed.processes == processes

    def test_processes_cross_shards_matrix(self, mixed_population):
        engine = ShardedAggregateModel(mixed_population, batch_size=4)
        reference = engine.generate(96, random_state=7).arrivals
        for processes in (2, 7):
            for shards in (1, 3, 16):
                feed = engine.generate(
                    96, shards=shards, processes=processes, random_state=7
                )
                np.testing.assert_array_equal(feed.arrivals, reference)

    def test_transport_pool_matrix_bit_identical(
        self, mixed_population, shm_threshold
    ):
        # The acceptance matrix: the shm threshold only picks the
        # result path — the feed must be bit-identical to the serial
        # reference at every process count and every threshold.
        engine = ShardedAggregateModel(mixed_population, batch_size=4)
        reference = engine.generate(128, random_state=21).arrivals
        for processes in (1, 2, 7, 16):
            for threshold in SHM_THRESHOLDS.values():
                shm_threshold(threshold)
                feed = engine.generate(
                    128, processes=processes, random_state=21
                )
                np.testing.assert_array_equal(feed.arrivals, reference)

    def test_feed_reports_effective_transport(
        self, mixed_population, shm_threshold
    ):
        # The shm.* series report the path that actually ran.  Each task
        # returns one 512-byte partial sum, far under the default 64 KiB
        # threshold: by default every partial-sum byte is pickled, and
        # only a zero threshold moves them through segments.  The feed
        # bits never depend on it.
        from repro.observability import RunContext
        from repro.simulation.shm import shm_available

        if not shm_available():
            pytest.skip("POSIX shared memory unavailable")
        reference = ShardedAggregateModel(
            mixed_population, batch_size=4
        ).generate(64, processes=1, random_state=3).arrivals
        series = {}
        for threshold in (None, "0"):
            shm_threshold(threshold)
            ctx = RunContext()
            feed = ShardedAggregateModel(
                mixed_population, batch_size=4, metrics=ctx
            ).generate(64, processes=2, random_state=3)
            np.testing.assert_array_equal(feed.arrivals, reference)
            series[threshold] = {
                e["name"]: e.get("value")
                for e in ctx.snapshot() if not e["labels"]
            }
        partial_bytes = series[None]["aggregate.reduction_bytes"]
        assert partial_bytes == 6 * 64 * 8
        assert series[None]["shm.bytes_pickled"] == partial_bytes
        assert series[None]["shm.bytes_zero_copy"] == 0
        assert series[None]["shm.segments"] == 0
        assert series["0"]["shm.bytes_zero_copy"] == partial_bytes
        assert series["0"]["shm.bytes_pickled"] == 0
        assert series["0"]["shm.segments"] == 6

    def test_env_variable_resolves_processes(
        self, mixed_population, monkeypatch
    ):
        engine = ShardedAggregateModel(mixed_population, batch_size=4)
        reference = engine.generate(64, random_state=13).arrivals
        monkeypatch.setenv("REPRO_PROCESSES", "3")
        feed = engine.generate(64, random_state=13)
        assert feed.processes == 3
        np.testing.assert_array_equal(feed.arrivals, reference)

    def test_processes_validated(self, mixed_population):
        engine = ShardedAggregateModel(mixed_population)
        with pytest.raises(ValidationError):
            engine.generate(16, processes=0)

    def test_instance_backend_rejected_in_pooled_mode(self):
        source = registry.resolve("davies_harte", FGNCorrelation(0.8))
        klass = SourceClass(
            "inst", correlation=0.8,
            marginal=NormalDistribution(1.0, 0.1), count=8,
            backend=source,
        )
        engine = ShardedAggregateModel(klass, batch_size=2)
        with pytest.raises(ValidationError, match="registry-name"):
            engine.generate(32, processes=2, random_state=0)
        # Serial mode still accepts instance backends.
        feed = engine.generate(32, processes=1, random_state=0)
        assert feed.horizon == 32

    def test_pool_metrics_recorded(self, mixed_population):
        from repro.observability import RunContext

        ctx = RunContext()
        engine = ShardedAggregateModel(
            mixed_population, batch_size=4, metrics=ctx
        )
        engine.generate(32, processes=2, random_state=2)
        snapshot = {
            (e["name"], tuple(sorted(e["labels"].items()))): e.get("value")
            for e in ctx.snapshot()
        }
        assert snapshot[("aggregate.processes", ())] == 2.0
        assert snapshot[("aggregate.reduction_bytes", ())] > 0
        assert ("aggregate.throughput_source_slots_per_s", ()) in snapshot
        # Per-class block counters match the serial accounting.
        assert snapshot[
            ("aggregate.blocks", (("source_class", "video_lo"),))
        ] == 2


class TestFeedDtype:
    def test_float32_opt_in(self, mixed_population):
        engine = ShardedAggregateModel(mixed_population, batch_size=4)
        ref = engine.generate(64, random_state=9).arrivals
        feed = engine.generate(64, dtype="float32", random_state=9)
        assert feed.arrivals.dtype == np.float32
        np.testing.assert_allclose(feed.arrivals, ref, rtol=1e-5)

    def test_float32_pooled_matches_serial(self, mixed_population):
        engine = ShardedAggregateModel(mixed_population, batch_size=4)
        serial = engine.generate(
            64, dtype=np.float32, random_state=9
        ).arrivals
        pooled = engine.generate(
            64, dtype=np.float32, processes=2, random_state=9
        ).arrivals
        np.testing.assert_array_equal(pooled, serial)

    def test_default_is_float64(self, mixed_population):
        engine = ShardedAggregateModel(mixed_population, batch_size=8)
        assert engine.generate(16, random_state=0).arrivals.dtype == (
            np.float64
        )

    def test_rejects_other_dtypes(self, mixed_population):
        engine = ShardedAggregateModel(mixed_population)
        for bad in ("float16", np.int32, "complex128", object):
            with pytest.raises(ValidationError):
                engine.generate(16, dtype=bad)


class TestFeedMemoryFlatness:
    """Satellite regression: feed memory is O(horizon), not O(N) or
    O(shards x horizon), at fixed batch geometry."""

    @staticmethod
    def _peak(num_sources, shards, processes=None):
        import tracemalloc

        pop = SourceClass(
            "flat", correlation=0.8,
            marginal=NormalDistribution(1.0, 0.2), count=num_sources,
        )
        engine = ShardedAggregateModel(pop, batch_size=512)
        engine.generate(32, random_state=0)  # warm spectral cache
        tracemalloc.start()
        engine.generate(
            128, shards=shards, processes=processes, random_state=1
        )
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    def test_peak_flat_in_shards(self):
        base = self._peak(20_000, shards=1)
        wide = self._peak(20_000, shards=32)
        assert wide < 1.5 * base + 2**20, (base, wide)

    def test_peak_flat_in_num_sources(self):
        small = self._peak(25_000, shards=4)
        large = self._peak(100_000, shards=4)
        assert large < 1.5 * small + 2**20, (small, large)
