"""Tests for the shared circulant-embedding spectral cache."""

import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import CorrelationError, ValidationError
from repro.observability import RunContext, recording
from repro.processes import registry
from repro.processes.davies_harte import davies_harte_generate
from repro.processes.correlation import (
    CompositeCorrelation,
    ExponentialCorrelation,
    FGNCorrelation,
)
from repro.processes.spectral_cache import (
    EigenvalueEntry,
    SpectralTable,
    apply_eigenvalue_policy,
    build_eigenvalue_entry,
    circulant_eigenvalues,
    clear_spectral_cache,
    get_spectral_table,
    set_spectral_cache_limits,
    spectral_cache_info,
    spectral_cache_metrics,
)

# Keep examples small so the suite stays fast.
FAST = settings(max_examples=25, deadline=None)


@pytest.fixture(autouse=True)
def fresh_cache():
    """Isolate every test from the process-global spectral cache."""
    clear_spectral_cache()
    set_spectral_cache_limits(
        max_tables=8, max_cached_length=1 << 20, max_entries_per_table=32
    )
    yield
    clear_spectral_cache()
    set_spectral_cache_limits(
        max_tables=8, max_cached_length=1 << 20, max_entries_per_table=32
    )


def non_embeddable_acvf(lags=33):
    """An explicit acvf whose circulant embedding has negative modes."""
    acvf = np.zeros(lags)
    acvf[0] = 1.0
    acvf[1] = 0.9
    acvf[2] = 0.2
    assert circulant_eigenvalues(acvf).min() < 0
    return acvf


def embedding(acvf):
    """The length-2n circulant embedding of r(0) .. r(n)."""
    r = np.asarray(acvf, dtype=float)
    return np.concatenate([r, r[-2:0:-1]])


def mirror(half):
    """The full embedding spectrum [h_0 .. h_n, h_{n-1} .. h_1]."""
    return np.concatenate([half, half[-2:0:-1]])


class TestCirculantSpectrumContract:
    """One real FFT yields the distinct embedding eigenvalues."""

    def test_full_spectrum_is_symmetric(self):
        full = np.fft.fft(embedding(FGNCorrelation(0.85).acvf(65))).real
        # Real even embedding: eig[2n - j] == eig[j] (the computed FFT
        # realizes the symmetry to rounding), so the n + 1 distinct
        # values carry the whole spectrum.
        np.testing.assert_allclose(
            full[1:], full[1:][::-1], rtol=1e-12, atol=1e-12
        )

    def test_default_is_half(self):
        acvf = ExponentialCorrelation(0.3).acvf(33)
        half = circulant_eigenvalues(acvf)
        assert half.shape == (33,)
        np.testing.assert_array_equal(
            half, np.fft.rfft(embedding(acvf)).real
        )


class TestEigenvalueEntry:
    def test_embeddable_records_no_clipping(self):
        entry = build_eigenvalue_entry(FGNCorrelation(0.7).acvf(65))
        assert entry.clipped_count == 0
        assert entry.clipped_mass == 0.0
        assert entry.min_eigenvalue == 0.0
        assert not entry.material

    def test_clipping_bookkeeping(self):
        acvf = non_embeddable_acvf()
        half = circulant_eigenvalues(acvf)
        # Counts and mass are taken over the whole embedding spectrum.
        raw = mirror(half)
        entry = build_eigenvalue_entry(acvf)
        assert entry.clipped_count == int(np.count_nonzero(raw < 0))
        assert entry.clipped_mass == pytest.approx(
            float(-raw[raw < 0].sum())
        )
        assert entry.min_eigenvalue == raw.min()
        assert entry.max_eigenvalue == raw.max()
        assert entry.material
        assert entry.half_eigenvalues.min() == 0.0
        np.testing.assert_array_equal(
            entry.half_eigenvalues, np.where(half < 0, 0.0, half)
        )

    def test_eigenvalues_read_only(self):
        entry = build_eigenvalue_entry(FGNCorrelation(0.6).acvf(17))
        with pytest.raises(ValueError):
            entry.half_eigenvalues[0] = 5.0

    def test_material_threshold_ignores_numerical_noise(self):
        entry = EigenvalueEntry(
            np.ones(3),
            clipped_count=2,
            clipped_mass=1e-14,
            min_eigenvalue=-1e-14,
            max_eigenvalue=10.0,
        )
        assert not entry.material


class TestEigenvaluePolicy:
    def test_raise_mode_message(self):
        entry = build_eigenvalue_entry(non_embeddable_acvf())
        with pytest.raises(
            CorrelationError, match="not embeddable"
        ):
            apply_eigenvalue_policy(entry, "raise")

    def test_clip_warning_includes_count_and_mass(self):
        entry = build_eigenvalue_entry(non_embeddable_acvf())
        with pytest.warns(RuntimeWarning) as record:
            apply_eigenvalue_policy(entry, "clip")
        message = str(record[0].message)
        assert f"clipped {entry.clipped_count} negative" in message
        assert f"total mass {entry.clipped_mass:.3e}" in message
        assert "approximate" in message

    def test_clip_counts_module_stat_and_metrics(self):
        entry = build_eigenvalue_entry(non_embeddable_acvf())
        ctx = RunContext()
        with warnings.catch_warnings(), recording(ctx):
            warnings.simplefilter("ignore")
            apply_eigenvalue_policy(entry, "clip")
            apply_eigenvalue_policy(entry, "clip")
        assert spectral_cache_info().clipped_eigenvalues == (
            2 * entry.clipped_count
        )
        counter = next(
            e for e in ctx.snapshot()
            if e["name"] == "spectral.clipped_eigenvalues"
        )
        assert counter["value"] == 2 * entry.clipped_count

    def test_immaterial_clip_is_silent(self):
        entry = EigenvalueEntry(
            np.ones(3),
            clipped_count=1,
            clipped_mass=1e-15,
            min_eigenvalue=-1e-15,
            max_eigenvalue=1.0,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = apply_eigenvalue_policy(entry, "clip")
        np.testing.assert_array_equal(out, entry.half_eigenvalues)

    def test_clean_entry_is_passthrough(self):
        entry = build_eigenvalue_entry(FGNCorrelation(0.7).acvf(33))
        out = apply_eigenvalue_policy(entry, "raise")
        assert out is entry.half_eigenvalues


class TestSpectralTable:
    def test_rejects_correlation_model(self):
        with pytest.raises(ValidationError, match="get_spectral_table"):
            SpectralTable(FGNCorrelation(0.8))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValidationError):
            SpectralTable([1.0])
        with pytest.raises(ValidationError):
            SpectralTable(np.ones((2, 3)))

    def test_horizon_and_max_length(self):
        table = SpectralTable(FGNCorrelation(0.8).acvf(65))
        assert table.horizon == 65
        assert table.max_length == 64

    def test_acvf_prefix_is_bitwise_slice(self):
        model = CompositeCorrelation.paper_fit()
        table = SpectralTable(model.acvf(129))
        np.testing.assert_array_equal(
            table.acvf_prefix(33), model.acvf(33)
        )
        with pytest.raises(ValidationError, match="holds 129 lags"):
            table.acvf_prefix(130)

    def test_views_read_only(self):
        table = SpectralTable(FGNCorrelation(0.7).acvf(17))
        with pytest.raises(ValueError):
            table.acvf[0] = 9.0
        with pytest.raises(ValueError):
            table.acvf_prefix(4)[0] = 9.0

    def test_entry_built_once_and_cached(self):
        table = SpectralTable(FGNCorrelation(0.8).acvf(65))
        first = table.eigenvalues(32)
        again = table.eigenvalues(32)
        assert again is first
        assert table.entry_count == 1
        expected = build_eigenvalue_entry(
            FGNCorrelation(0.8).acvf(33)
        )
        np.testing.assert_array_equal(
            first.half_eigenvalues, expected.half_eigenvalues
        )

    def test_requests_beyond_horizon_rejected(self):
        table = SpectralTable(FGNCorrelation(0.8).acvf(33))
        with pytest.raises(
            ValidationError, match="up to 32, requested 40"
        ):
            table.eigenvalues(40)

    def test_entry_eviction_in_insertion_order(self):
        set_spectral_cache_limits(max_entries_per_table=2)
        table = SpectralTable(FGNCorrelation(0.8).acvf(65))
        table.eigenvalues(8)
        table.eigenvalues(16)
        table.eigenvalues(24)
        assert table.entry_count == 2
        # n=8 was evicted; a rebuild is bit-identical anyway.
        rebuilt = table.eigenvalues(8)
        np.testing.assert_array_equal(
            rebuilt.half_eigenvalues,
            build_eigenvalue_entry(
                FGNCorrelation(0.8).acvf(9)
            ).half_eigenvalues,
        )

    def test_extend_requires_exact_prefix(self):
        model = FGNCorrelation(0.8)
        table = SpectralTable(model.acvf(17))
        other = model.acvf(33)
        other[3] += 1e-9
        with pytest.raises(ValidationError, match="disagrees"):
            table.extend(other)

    def test_extend_keeps_entries_valid(self):
        model = CompositeCorrelation.paper_fit()
        table = SpectralTable(model.acvf(33))
        short = table.eigenvalues(32)
        table.extend(model.acvf(129))
        assert table.horizon == 129
        assert table.eigenvalues(32) is short
        longer = table.eigenvalues(128)
        np.testing.assert_array_equal(
            longer.half_eigenvalues,
            build_eigenvalue_entry(model.acvf(129)).half_eigenvalues,
        )

    def test_extend_with_shorter_is_noop(self):
        model = FGNCorrelation(0.8)
        table = SpectralTable(model.acvf(65))
        table.extend(model.acvf(17))
        assert table.horizon == 65

    def test_nbytes_counts_entries(self):
        table = SpectralTable(FGNCorrelation(0.8).acvf(65))
        empty = table.nbytes()
        table.eigenvalues(64)
        assert table.nbytes() > empty


class TestGetSpectralTable:
    def test_miss_then_hit(self):
        model = CompositeCorrelation.paper_fit()
        first = get_spectral_table(model, 64)
        second = get_spectral_table(model, 64)
        assert second is first
        info = spectral_cache_info()
        assert (info.misses, info.hits, info.tables) == (1, 1, 1)

    def test_extension_grows_shared_table(self):
        model = CompositeCorrelation.paper_fit()
        table = get_spectral_table(model, 64)
        longer = get_spectral_table(model, 256)
        assert longer is table
        assert table.horizon == 257
        assert spectral_cache_info().extensions == 1

    def test_fingerprint_shares_across_equal_models(self):
        a = FGNCorrelation(0.8)
        b = FGNCorrelation(0.8)
        table_a = get_spectral_table(a, 64)
        table_b = get_spectral_table(b, 64)
        assert table_b is table_a
        info = spectral_cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_model_memo_skips_acvf_evaluation(self):
        calls = []
        model = FGNCorrelation(0.8)
        original = model.acvf

        def counting_acvf(lags):
            calls.append(lags)
            return original(lags)

        model.acvf = counting_acvf
        get_spectral_table(model, 64)
        assert calls == [65]
        # Memo hit: covered request never re-evaluates the acvf.
        get_spectral_table(model, 32)
        get_spectral_table(model, 64)
        assert calls == [65]
        # A longer request must evaluate (to extend).
        get_spectral_table(model, 128)
        assert calls == [65, 129]

    def test_explicit_sequence_supported(self):
        acvf = ExponentialCorrelation(0.25).acvf(65)
        table = get_spectral_table(acvf, 64)
        assert get_spectral_table(acvf, 64) is table
        np.testing.assert_array_equal(table.acvf, acvf)

    def test_sequence_with_too_few_lags_rejected(self):
        with pytest.raises(ValidationError, match="too few lags"):
            get_spectral_table(np.ones(10), 32)

    def test_over_cap_requests_bypass_cache(self):
        set_spectral_cache_limits(max_cached_length=100)
        model = FGNCorrelation(0.8)
        table = get_spectral_table(model, 200)
        assert table.horizon == 201
        info = spectral_cache_info()
        assert info.tables == 0
        assert info.misses == 0
        # And a second request builds a fresh, unshared table.
        assert get_spectral_table(model, 200) is not table

    def test_lru_eviction_counts(self):
        set_spectral_cache_limits(max_tables=2)
        for hurst in (0.6, 0.7, 0.8, 0.9):
            get_spectral_table(FGNCorrelation(hurst), 32)
        info = spectral_cache_info()
        assert info.tables == 2
        assert info.evictions == 2

    def test_rejects_bad_n(self):
        with pytest.raises(ValidationError):
            get_spectral_table(FGNCorrelation(0.8), 0)


class TestCacheMetricsContext:
    def test_deltas_recorded(self):
        model = CompositeCorrelation.paper_fit()
        ctx = RunContext()
        with spectral_cache_metrics(ctx, step="warm"):
            table = get_spectral_table(model, 64)
            table.eigenvalues(64)
            get_spectral_table(model, 64)
            table.eigenvalues(64)
        entries = {
            (e["name"], e["labels"].get("step")): e
            for e in ctx.snapshot()
        }
        assert entries[("spectral.misses", "warm")]["value"] == 1
        assert entries[("spectral.hits", "warm")]["value"] == 1
        assert entries[("spectral.eigenvalue_builds", "warm")]["value"] == 1
        assert entries[("spectral.eigenvalue_hits", "warm")]["value"] == 1
        assert entries[("spectral.tables", "warm")]["value"] == 1
        build = entries[("spectral.eigenvalue_build_seconds", "warm")]
        assert build["kind"] == "summary"

    def test_null_metrics_is_free(self):
        with spectral_cache_metrics(None):
            get_spectral_table(FGNCorrelation(0.8), 32)
        assert spectral_cache_info().misses == 1


class TestConcurrency:
    def test_parallel_entry_builds_are_single_flight(self):
        model = CompositeCorrelation.paper_fit()
        table = get_spectral_table(model, 512)
        lengths = [64, 128, 256, 512]
        results = {}
        barrier = threading.Barrier(8)

        def worker(idx):
            barrier.wait()
            out = [table.eigenvalues(n) for n in lengths]
            results[idx] = out

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Every thread saw the same immutable entries...
        for idx in range(1, 8):
            for a, b in zip(results[0], results[idx]):
                assert a is b
        # ...and each length was built exactly once.
        assert spectral_cache_info().eigenvalue_builds == len(lengths)
        for n, entry in zip(lengths, results[0]):
            np.testing.assert_array_equal(
                entry.half_eigenvalues,
                build_eigenvalue_entry(model.acvf(n + 1)).half_eigenvalues,
            )

    def test_racing_lookups_and_extensions(self):
        model = CompositeCorrelation.paper_fit()
        lengths = [32, 64, 128, 256, 96, 192]
        tables = {}
        barrier = threading.Barrier(len(lengths))

        def worker(n):
            barrier.wait()
            table = get_spectral_table(model, n)
            entry = table.eigenvalues(n)
            tables[n] = (table, entry)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in lengths
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # All requests converged on one shared table whose prefix covers
        # the longest request, and every entry matches a serial build.
        shared = {id(table) for table, _ in tables.values()}
        assert len(shared) == 1
        table = tables[256][0]
        assert table.horizon >= 257
        for n, (_, entry) in tables.items():
            np.testing.assert_array_equal(
                entry.half_eigenvalues,
                build_eigenvalue_entry(model.acvf(n + 1)).half_eigenvalues,
            )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_concurrent_generation_matches_serial(self):
        model = CompositeCorrelation.paper_fit()
        lengths = [50, 100, 150, 200]
        serial = {
            n: davies_harte_generate(
                model, n, random_state=n, spectral_table=False
            )
            for n in lengths
        }
        clear_spectral_cache()
        out = {}
        barrier = threading.Barrier(len(lengths))

        def worker(n):
            barrier.wait()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                out[n] = davies_harte_generate(model, n, random_state=n)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in lengths
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for n in lengths:
            np.testing.assert_array_equal(out[n], serial[n])


class TestPrefixStabilityProperty:
    """Sliced cached ACVF == fresh short evaluation, for any model."""

    @FAST
    @given(
        weight=st.floats(min_value=0.05, max_value=1.0),
        rate=st.floats(min_value=1e-4, max_value=1.0),
        gamma=st.floats(min_value=0.05, max_value=1.0),
        knee=st.integers(min_value=4, max_value=120),
        nugget=st.floats(min_value=0.0, max_value=0.5),
        short=st.integers(min_value=2, max_value=257),
    )
    def test_cached_prefix_matches_fresh_acvf(
        self, weight, rate, gamma, knee, nugget, short
    ):
        model = CompositeCorrelation(
            srd_weights=[weight, 1.0 - weight * 0.5],
            srd_rates=[rate, rate * 3.0],
            lrd_amplitude=min(0.999, float(knee) ** gamma),
            lrd_exponent=gamma,
            knee=float(knee),
            nugget=nugget,
        )
        clear_spectral_cache()
        table = get_spectral_table(model, 256)
        np.testing.assert_array_equal(
            table.acvf_prefix(short), model.acvf(short)
        )
        # The eigenvalue entry for the short length is likewise
        # bit-identical to one built from a fresh short evaluation.
        n = short - 1
        if n >= 1:
            np.testing.assert_array_equal(
                table.eigenvalues(n).half_eigenvalues,
                build_eigenvalue_entry(model.acvf(short)).half_eigenvalues,
            )


class TestBitIdentityAcrossBackends:
    """Cached generation == cold-cache generation for every backend."""

    BACKENDS = ["davies_harte", "fgn", "farima", "hosking", "rmd",
                "mg_infinity"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cold_equals_warm(self, backend):
        if backend == "davies_harte":
            correlation = CompositeCorrelation.paper_fit()
        elif backend == "hosking":
            correlation = FGNCorrelation(0.8)
        else:
            correlation = 0.8
        clear_spectral_cache()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cold = registry.create(backend, correlation).sample(
                200, random_state=7
            )
            # Warm: same request, now served from the shared cache.
            warm = registry.create(backend, correlation).sample(
                200, random_state=7
            )
        np.testing.assert_array_equal(cold, warm)

    def test_davies_harte_cached_equals_uncached_batched(self):
        model = CompositeCorrelation.paper_fit()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            uncached = davies_harte_generate(
                model, 300, size=4, random_state=11, spectral_table=False
            )
            clear_spectral_cache()
            cached = davies_harte_generate(
                model, 300, size=4, random_state=11
            )
        np.testing.assert_array_equal(cached, uncached)
        assert spectral_cache_info().misses == 1


class TestRealFFTLegacyAgreement:
    """The rfft eigenvalue path pinned against the legacy full FFT."""

    @pytest.mark.parametrize("correlation", [
        FGNCorrelation(0.55),
        FGNCorrelation(0.85),
        ExponentialCorrelation(0.3),
        CompositeCorrelation.paper_fit(),
    ], ids=["fgn_low", "fgn_high", "exponential", "composite"])
    @pytest.mark.parametrize("lags", [17, 65, 257])
    def test_matches_legacy_full_fft(self, correlation, lags):
        from repro.processes.correlation import (
            FARIMACorrelation,
            WhiteNoiseCorrelation,
        )

        models = [
            correlation,
            FARIMACorrelation(0.3),
            WhiteNoiseCorrelation(),
        ]
        for model in models:
            acvf = model.acvf(lags)
            legacy = np.fft.fft(embedding(acvf)).real
            half = circulant_eigenvalues(acvf)
            np.testing.assert_allclose(
                mirror(half), legacy, rtol=1e-10, atol=1e-12
            )
            np.testing.assert_allclose(
                half, legacy[:lags], rtol=1e-10, atol=1e-12
            )

    def test_all_registered_backends_share_the_contract(self):
        # Every backend's davies_harte-eligible correlation (an FGN
        # law at H=0.8 here) produces eigenvalues agreeing with the
        # legacy transform — the bake-off harness relies on identical
        # spectra whichever backend's correlation feeds the cache.
        assert len(registry.names()) == 6
        acvf = FGNCorrelation(0.8).acvf(129)
        legacy = np.fft.fft(embedding(acvf)).real
        for name in registry.names():
            spec = registry.get(name)
            assert spec.name == name
            np.testing.assert_allclose(
                mirror(circulant_eigenvalues(acvf)), legacy, rtol=1e-10,
            )
