"""Tests for the Davies-Harte circulant-embedding generator."""

import warnings

import numpy as np
import pytest

from repro.exceptions import CorrelationError, ValidationError
from repro.processes.correlation import (
    CompositeCorrelation,
    ExponentialCorrelation,
    FGNCorrelation,
    WhiteNoiseCorrelation,
)
from repro.processes.davies_harte import (
    circulant_eigenvalues,
    davies_harte_generate,
)


class TestCirculantEigenvalues:
    def test_white_noise_eigenvalues_all_one(self):
        acvf = np.zeros(9)
        acvf[0] = 1.0
        eig = circulant_eigenvalues(acvf)
        np.testing.assert_allclose(eig, 1.0, atol=1e-12)

    def test_fgn_nonnegative(self):
        eig = circulant_eigenvalues(FGNCorrelation(0.9).acvf(257))
        assert eig.min() > -1e-10

    def test_rejects_short_input(self):
        with pytest.raises(ValidationError):
            circulant_eigenvalues([1.0])


class TestDaviesHarteGenerate:
    def test_shapes(self):
        assert davies_harte_generate(FGNCorrelation(0.7), 64).shape == (64,)
        assert davies_harte_generate(
            FGNCorrelation(0.7), 64, size=5
        ).shape == (5, 64)

    def test_reproducible(self):
        a = davies_harte_generate(FGNCorrelation(0.8), 128, random_state=1)
        b = davies_harte_generate(FGNCorrelation(0.8), 128, random_state=1)
        np.testing.assert_array_equal(a, b)

    def test_mean(self):
        x = davies_harte_generate(
            WhiteNoiseCorrelation(), 4096, mean=3.0, random_state=2
        )
        assert x.mean() == pytest.approx(3.0, abs=0.1)

    def test_unit_variance(self):
        x = davies_harte_generate(
            FGNCorrelation(0.6), 1024, size=50, random_state=3
        )
        assert x.var() == pytest.approx(1.0, abs=0.05)

    def test_exact_covariance_many_replications(self):
        corr = FGNCorrelation(0.85)
        x = davies_harte_generate(corr, 64, size=20_000, random_state=4)
        for k in (1, 5, 20):
            sample = np.mean(x[:, 0] * x[:, k])
            assert sample == pytest.approx(float(corr(k)), abs=0.03)

    def test_matches_hosking_distributionally(self):
        """DH and Hosking sample the same law: compare lag-1 products."""
        from repro.processes.hosking import hosking_generate

        corr = FGNCorrelation(0.8)
        dh = davies_harte_generate(corr, 64, size=4000, random_state=5)
        ho = hosking_generate(corr, 64, size=4000, random_state=6)
        dh_stat = np.mean(dh[:, :-1] * dh[:, 1:])
        ho_stat = np.mean(ho[:, :-1] * ho[:, 1:])
        assert dh_stat == pytest.approx(ho_stat, abs=0.03)

    def test_explicit_acvf_needs_n_plus_one(self):
        with pytest.raises(ValidationError, match="at least"):
            davies_harte_generate(np.array([1.0, 0.5]), 2)

    def test_raise_mode_on_negative_eigenvalues(self):
        # A deliberately non-embeddable sequence: a hard step.
        bad = np.concatenate([np.ones(4), np.full(5, -0.5)])
        with pytest.raises(CorrelationError):
            davies_harte_generate(
                bad, 8, on_negative_eigenvalues="raise", random_state=0
            )

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValidationError, match="clip"):
            davies_harte_generate(
                FGNCorrelation(0.7), 8, on_negative_eigenvalues="zap"
            )

    def test_composite_generates_without_material_warning(self):
        corr = CompositeCorrelation.paper_fit().with_continuity()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = davies_harte_generate(corr, 2048, random_state=7)
        assert x.shape == (2048,)

    def test_long_trace_fast_path(self):
        x = davies_harte_generate(
            FGNCorrelation(0.9), 1 << 16, random_state=8
        )
        assert x.shape == (1 << 16,)
        assert np.all(np.isfinite(x))


class TestEdgeCases:
    def test_single_sample(self):
        x = davies_harte_generate(FGNCorrelation(0.8), 1, random_state=9)
        assert x.shape == (1,)
        assert np.isfinite(x[0])

    def test_two_samples(self):
        x = davies_harte_generate(
            FGNCorrelation(0.8), 2, size=2000, random_state=10
        )
        assert x.shape == (2000, 2)
        lag1 = float(np.mean(x[:, 0] * x[:, 1]))
        assert lag1 == pytest.approx(
            float(FGNCorrelation(0.8)(1)), abs=0.05
        )

    def test_exponential_correlation_embeddable(self):
        x = davies_harte_generate(
            ExponentialCorrelation(0.05),
            512,
            random_state=11,
            on_negative_eigenvalues="raise",
        )
        assert x.shape == (512,)


class TestSpectralTableArgument:
    """The spectral_table= knob: shared cache, explicit table or bypass."""

    def setup_method(self):
        from repro.processes.spectral_cache import clear_spectral_cache

        clear_spectral_cache()

    def test_false_bypasses_cache_bitwise(self):
        from repro.processes.spectral_cache import spectral_cache_info

        corr = FGNCorrelation(0.85)
        cached = davies_harte_generate(corr, 256, random_state=21)
        bypass = davies_harte_generate(
            corr, 256, random_state=21, spectral_table=False
        )
        np.testing.assert_array_equal(cached, bypass)
        # The bypass call left no trace in the shared cache.
        assert spectral_cache_info().misses == 1

    def test_explicit_table_bitwise(self):
        from repro.processes.spectral_cache import SpectralTable

        corr = FGNCorrelation(0.85)
        table = SpectralTable(corr.acvf(257))
        via_table = davies_harte_generate(
            corr, 256, random_state=22, spectral_table=table
        )
        plain = davies_harte_generate(
            corr, 256, random_state=22, spectral_table=False
        )
        np.testing.assert_array_equal(via_table, plain)

    def test_explicit_table_too_short(self):
        from repro.processes.spectral_cache import SpectralTable

        table = SpectralTable(FGNCorrelation(0.85).acvf(65))
        with pytest.raises(ValidationError, match="cannot generate"):
            davies_harte_generate(
                FGNCorrelation(0.85), 256, spectral_table=table
            )

    def test_invalid_spectral_table_rejected(self):
        with pytest.raises(ValidationError, match="spectral_table"):
            davies_harte_generate(
                FGNCorrelation(0.85), 64, spectral_table="yes"
            )

    def test_true_means_shared_cache(self):
        corr = FGNCorrelation(0.85)
        a = davies_harte_generate(corr, 128, random_state=23)
        b = davies_harte_generate(
            corr, 128, random_state=23, spectral_table=True
        )
        np.testing.assert_array_equal(a, b)

    def test_explicit_acvf_with_extra_lags_unchanged(self):
        """Passing more lags than needed still slices to n + 1."""
        acvf = FGNCorrelation(0.8).acvf(100)
        a = davies_harte_generate(acvf, 40, random_state=24)
        b = davies_harte_generate(acvf[:41], 40, random_state=24)
        np.testing.assert_array_equal(a, b)


def legacy_full_fft(correlation, n, size, seed):
    """The retired complex full-spectrum synthesis, kept as a reference.

    Same noise as the generator (one ``standard_normal`` fill of
    ``size x 2n`` from ``seed``) and the same clipped eigenvalues,
    mirrored to the whole embedding spectrum and applied through the
    complex FFT: ``ifft(fft(g) * sqrt(eig / m)) * sqrt(m)``, truncated
    to ``n``.
    """
    from repro.processes.spectral_cache import build_eigenvalue_entry

    m = 2 * n
    half = build_eigenvalue_entry(correlation.acvf(n + 1)).half_eigenvalues
    eigenvalues = np.concatenate([half, half[-2:0:-1]])
    g = np.random.default_rng(seed).standard_normal((size, m))
    scale = np.sqrt(eigenvalues / m)
    return np.fft.ifft(
        np.fft.fft(g, axis=1) * scale * np.sqrt(m), axis=1
    ).real[:, :n]


class TestSpectrumModes:
    """The real-FFT synthesis contract: same stream, same filter."""

    def test_real_and_full_agree_to_pinned_tolerance(self):
        with warnings.catch_warnings():
            # The composite fit clips eigenvalues at this length — a
            # known property, warned by the generator.
            warnings.simplefilter("ignore", RuntimeWarning)
            for correlation in (
                FGNCorrelation(0.55),
                FGNCorrelation(0.85),
                ExponentialCorrelation(0.3),
                CompositeCorrelation.paper_fit(),
                WhiteNoiseCorrelation(),
            ):
                real = davies_harte_generate(
                    correlation, 257, size=3, random_state=11
                )
                full = legacy_full_fft(correlation, 257, 3, 11)
                np.testing.assert_allclose(
                    real, full, rtol=1e-10, atol=1e-10,
                )

    def test_default_mode_is_real(self):
        # The one synthesis path, bit for bit: irfft(rfft(g) * sqrt(h)).
        from repro.processes.spectral_cache import build_eigenvalue_entry

        correlation = FGNCorrelation(0.8)
        n, m = 64, 128
        entry = build_eigenvalue_entry(correlation.acvf(n + 1))
        g = np.random.default_rng(5).standard_normal((2, m))
        expected = np.fft.irfft(
            np.fft.rfft(g, axis=1) * np.sqrt(entry.half_eigenvalues),
            n=m,
            axis=1,
        )[:, :n]
        got = davies_harte_generate(correlation, n, size=2, random_state=5)
        np.testing.assert_array_equal(got, expected)

    def test_paired_hurst_and_acf_contract(self):
        # Statistical contract: the real-FFT paths and the legacy
        # full-FFT reference estimate the same Hurst exponent and
        # sample ACF (they share noise and filter, so the estimates
        # differ only at FFT rounding level).
        from repro.estimators.acf import sample_acf
        from repro.estimators.variance_time import variance_time_estimate

        hurst = 0.8
        real = davies_harte_generate(
            FGNCorrelation(hurst), 8192, random_state=31
        )
        full = legacy_full_fft(FGNCorrelation(hurst), 8192, 1, 31)[0]
        h_real = variance_time_estimate(real).hurst
        h_full = variance_time_estimate(full).hurst
        assert h_real == pytest.approx(h_full, abs=1e-6)
        assert h_real == pytest.approx(hurst, abs=0.12)
        np.testing.assert_allclose(
            sample_acf(real, 32), sample_acf(full, 32), atol=1e-9
        )
        np.testing.assert_allclose(
            sample_acf(real, 5),
            FGNCorrelation(hurst)(np.arange(6)),
            atol=0.1,
        )

    def test_workspace_reuse_counts_hits(self):
        from repro.processes.davies_harte import (
            reset_workspace_stats,
            workspace_stats,
        )

        reset_workspace_stats()
        davies_harte_generate(FGNCorrelation(0.7), 64, random_state=0)
        first = workspace_stats()
        assert first["builds"] >= 1
        davies_harte_generate(FGNCorrelation(0.7), 64, random_state=1)
        second = workspace_stats()
        assert second["hits"] > first["hits"]
        reset_workspace_stats()
        assert workspace_stats() == {"hits": 0, "builds": 0}

    def test_workspace_reuse_is_bit_transparent(self):
        # Reusing the noise buffer must not perturb the stream: two
        # same-seed calls straddling unrelated work are identical.
        a = davies_harte_generate(
            FGNCorrelation(0.82), 128, size=2, random_state=77
        )
        davies_harte_generate(FGNCorrelation(0.6), 128, size=2, random_state=3)
        b = davies_harte_generate(
            FGNCorrelation(0.82), 128, size=2, random_state=77
        )
        np.testing.assert_array_equal(a, b)
