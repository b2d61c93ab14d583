"""Bit-identity of registry-routed generation vs the direct call path.

The backend registry must be a pure indirection: selecting
``backend="hosking"`` (or ``"davies-harte"``) through the models has to
reproduce, bit for bit, what calling the generator function directly on
the fitted background correlation produced before the refactor.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.processes.davies_harte import davies_harte_generate
from repro.processes.hosking import hosking_generate
from tests.conftest import spectral_cache_cap
from repro.video.gop import FrameType

N = 600
SEED = 20260805


class TestUnifiedModelBitIdentity:
    @pytest.mark.parametrize(
        "backend,generator",
        [
            ("hosking", hosking_generate),
            ("davies-harte", davies_harte_generate),
        ],
    )
    def test_generate_matches_direct_generator_call(
        self, fitted_unified, backend, generator
    ):
        via_registry = fitted_unified.generate(
            N, backend=backend, random_state=SEED
        )
        direct = np.asarray(
            fitted_unified.transform_(
                generator(
                    fitted_unified.background_, N, random_state=SEED
                )
            ),
            dtype=float,
        )
        np.testing.assert_array_equal(via_registry, direct)

    def test_batched_background_matches_direct(self, fitted_unified):
        via_registry = fitted_unified.generate_background(
            128, size=4, backend="hosking", random_state=SEED
        )
        direct = hosking_generate(
            fitted_unified.background_, 128, size=4, random_state=SEED
        )
        np.testing.assert_array_equal(via_registry, direct)

    def test_auto_is_davies_harte(self, fitted_unified):
        auto = fitted_unified.generate(N, random_state=SEED)
        explicit = fitted_unified.generate(
            N, backend="davies_harte", random_state=SEED
        )
        np.testing.assert_array_equal(auto, explicit)


class TestCompositeModelBitIdentity:
    @pytest.mark.parametrize(
        "backend,generator",
        [
            ("hosking", hosking_generate),
            ("davies-harte", davies_harte_generate),
        ],
    )
    def test_generate_matches_direct_generator_call(
        self, fitted_composite, backend, generator
    ):
        via_registry = fitted_composite.generate(
            N, backend=backend, random_state=SEED
        )
        # The pre-refactor path: one shared background draw, then the
        # per-frame-type transform applied under each GOP mask.
        x = generator(
            fitted_composite.background_, N, random_state=SEED
        )
        sizes = np.empty(N, dtype=float)
        for frame_type in FrameType:
            key = frame_type.value
            if key not in fitted_composite.transforms_:
                continue
            mask = fitted_composite.gop_.mask(frame_type, N)
            if not mask.any():
                continue
            sizes[mask] = np.asarray(
                fitted_composite.transforms_[key](x[mask]), dtype=float
            )
        np.testing.assert_array_equal(via_registry.sizes, sizes)


class TestSpectralCacheBitIdentity:
    """The shared spectral cache is invisible in fitted-model output."""

    def test_unified_cached_equals_bypass(self, fitted_unified):
        from repro.processes.spectral_cache import clear_spectral_cache

        clear_spectral_cache()
        cached = fitted_unified.generate(
            N, backend="davies-harte", random_state=SEED
        )
        # Above the lowered cap the spectrum comes from an uncached table.
        with spectral_cache_cap(N - 1):
            background = davies_harte_generate(
                fitted_unified.background_, N, random_state=SEED
            )
        bypass = np.asarray(
            fitted_unified.transform_(background), dtype=float
        )
        np.testing.assert_array_equal(cached, bypass)

    def test_composite_cached_equals_bypass(self, fitted_composite):
        from repro.processes.spectral_cache import clear_spectral_cache

        clear_spectral_cache()
        cached = fitted_composite.generate_background(
            N, backend="davies-harte", random_state=SEED
        )
        with spectral_cache_cap(N - 1):
            bypass = davies_harte_generate(
                fitted_composite.background_, N, random_state=SEED
            )
        np.testing.assert_array_equal(cached, bypass)

    def test_repeated_generation_hits_cache(self, fitted_unified):
        from repro.processes.spectral_cache import (
            clear_spectral_cache,
            spectral_cache_info,
        )

        clear_spectral_cache()
        a = fitted_unified.generate(N, random_state=SEED)
        b = fitted_unified.generate(N, random_state=SEED)
        np.testing.assert_array_equal(a, b)
        info = spectral_cache_info()
        assert info.misses == 1
        assert info.hits >= 1
