"""Tests for the blocked BLAS-3 Hosking kernel.

Covers the exactness contract spelled out in
``repro.processes.hosking_blocked``:

* ``block_size=1`` (and ``None``) is **bitwise identical** to the
  historical per-step loop, on the cached table and on the recursion
  run in step above the cache cap alike; its reversed-view matmul hits
  numpy's pairwise summation fallback and therefore must not be
  re-laid-out.
* ``block_size > 1`` is ``allclose`` at ``rtol <= 1e-10`` (same
  conditional law, different floating-point accumulation order).
* Blocked output is distributionally indistinguishable from per-step
  output (paired Hurst + empirical-ACF test).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.processes import registry
from repro.processes.coeff_table import CoefficientTable
from repro.processes.correlation import (
    ExponentialCorrelation,
    FGNCorrelation,
)
from repro.processes.hosking import hosking_generate
from repro.processes.hosking_blocked import (
    iter_blocks,
    resolve_block_size,
    stack_old_rows,
)
from repro.processes.source import HoskingSource
from tests.conftest import coefficient_cache_cap

FAST = settings(max_examples=25, deadline=None)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


# ---------------------------------------------------------------------------
# Block geometry helpers
# ---------------------------------------------------------------------------


class TestBlockGeometry:
    def test_resolve_defaults(self):
        assert resolve_block_size(None) == 1
        assert resolve_block_size(1) == 1
        assert resolve_block_size(64) == 64

    @pytest.mark.parametrize("bad", [0, -3, True, False, 2.5, "8"])
    def test_resolve_rejects(self, bad):
        with pytest.raises(ValidationError):
            resolve_block_size(bad)

    @pytest.mark.parametrize("n", [2, 3, 17, 64, 65, 100])
    @pytest.mark.parametrize("B", [1, 2, 3, 7, 16, 97])
    def test_iter_blocks_partitions_steps(self, n, B):
        blocks = list(iter_blocks(n, B))
        # Blocks tile [1, n) exactly, in order, without gaps.
        assert blocks[0][0] == 1
        k = 1
        for k0, width in blocks:
            assert k0 == k
            assert width >= 1
            # Every block ends on a multiple of B (or at the horizon).
            assert (k0 + width) % B == 0 or k0 + width == n
            k += width
        assert k == n

    def test_stack_old_rows(self):
        rows = [np.arange(10, dtype=float) + i for i in range(3)]
        out = stack_old_rows(rows, 4)
        assert out.shape == (3, 4)
        for i in range(3):
            np.testing.assert_array_equal(out[i], rows[i][i : i + 4])


# ---------------------------------------------------------------------------
# Numerical equivalence of the blocked kernel
# ---------------------------------------------------------------------------


def _shared_innovations(seed, size, n):
    return np.random.default_rng(seed).standard_normal((size, n))


class TestBlockedEquivalence:
    @given(seed=seeds, block=st.integers(2, 40), n=st.integers(2, 120))
    @FAST
    def test_blocked_allclose_to_per_step(self, seed, block, n):
        corr = FGNCorrelation(0.8)
        z = _shared_innovations(seed, 4, n)
        base = hosking_generate(corr, n, size=4, innovations=z,
                                block_size=1)
        blocked = hosking_generate(corr, n, size=4, innovations=z,
                                   block_size=block)
        np.testing.assert_allclose(blocked, base, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("B", [2, 3, 16, 200])
    @pytest.mark.parametrize(
        "corr", [FGNCorrelation(0.6), ExponentialCorrelation(0.9)]
    )
    def test_blocked_allclose_incremental_path(self, B, corr):
        # A horizon above the cache cap exercises the in-step
        # DurbinLevinson block advance.
        n = 70
        z = _shared_innovations(11, 3, n)
        with coefficient_cache_cap(n - 1):
            base = hosking_generate(corr, n, size=3, innovations=z,
                                    block_size=1)
            blocked = hosking_generate(corr, n, size=3, innovations=z,
                                       block_size=B)
        np.testing.assert_allclose(blocked, base, rtol=1e-10, atol=1e-12)

    def test_flat_path_blocked(self):
        corr = FGNCorrelation(0.75)
        z = np.random.default_rng(3).standard_normal(60)
        base = hosking_generate(corr, 60, innovations=z)
        blocked = hosking_generate(corr, 60, innovations=z, block_size=8)
        assert blocked.shape == (60,)
        np.testing.assert_allclose(blocked, base, rtol=1e-10, atol=1e-12)


class TestBypassBitIdentity:
    """``block_size in (None, 1)`` must reproduce historical bits.

    The legacy conditional-mean products run on a *negative-strided*
    reversed view, which numpy reduces with pairwise summation rather
    than BLAS; any re-layout (contiguous copy, positive strides)
    changes the accumulation order and hence the low-order bits.  The
    bypass therefore keeps the original formulation verbatim — these
    tests pin that contract against inline references.
    """

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_table_path_bitwise_vs_legacy_reference(self, seed):
        corr = FGNCorrelation(0.8)
        n, size = 60, 5
        z = _shared_innovations(seed, size, n)
        table = CoefficientTable(np.asarray([corr(k) for k in range(n)]))
        table.ensure(n - 1)

        # Inline re-statement of the historical per-step loop.
        x = np.empty((size, n))
        x[:, 0] = np.sqrt(table.variance(0)) * z[:, 0]
        for k in range(1, n):
            phi = table.phi_row(k)
            mean_k = x[:, k - 1 :: -1][:, :k] @ phi
            x[:, k] = mean_k + table.sqrt_variance(k) * z[:, k]

        for bs in (None, 1):
            got = hosking_generate(corr, n, size=size, innovations=z,
                                   block_size=bs)
            np.testing.assert_array_equal(got, x)

    @pytest.mark.parametrize("seed", [1, 42])
    def test_incremental_bypass_bitwise_vs_legacy_reference(self, seed):
        # Above the cache cap the recursion runs in step under the SAME
        # reversed-view formulation as the table path; pin its bits.
        from repro.processes.coeff_table import resolve_acvf
        from repro.processes.partial_corr import DurbinLevinson

        corr = ExponentialCorrelation(0.85)
        n, size = 45, 4
        z = _shared_innovations(seed, size, n)
        acvf = resolve_acvf(corr, n)

        state = DurbinLevinson(acvf)
        x = np.empty((size, n))
        x[:, 0] = np.sqrt(acvf[0]) * z[:, 0]
        for k in range(1, n):
            phi, variance = state.advance()
            mean_k = x[:, k - 1 :: -1][:, :k] @ phi
            x[:, k] = mean_k + np.sqrt(variance) * z[:, k]

        with coefficient_cache_cap(n - 1):
            for bs in (None, 1):
                got = hosking_generate(corr, n, size=size, innovations=z,
                                       block_size=bs)
                np.testing.assert_array_equal(got, x)

    @given(seed=seeds)
    @FAST
    def test_bypass_matches_default_across_seeds(self, seed):
        corr = FGNCorrelation(0.7)
        a = hosking_generate(corr, 40, size=3, random_state=seed)
        b = hosking_generate(corr, 40, size=3, random_state=seed,
                             block_size=1)
        np.testing.assert_array_equal(a, b)


class TestSourceAndRegistry:
    def test_source_block_size_threading(self):
        src = HoskingSource(FGNCorrelation(0.8), block_size=4)
        assert src.describe()["block_size"] == 4
        z_free = HoskingSource(FGNCorrelation(0.8))
        a = z_free.sample(30, size=2, random_state=9)
        b = src.sample(30, size=2, random_state=9)
        np.testing.assert_allclose(b, a, rtol=1e-10, atol=1e-12)

    def test_source_rejects_bad_block_size(self):
        with pytest.raises(ValidationError):
            HoskingSource(FGNCorrelation(0.8), block_size=0)

    def test_registry_block_size_option(self):
        src = registry.resolve("hosking", FGNCorrelation(0.75),
                               block_size=8)
        base = registry.resolve("hosking", FGNCorrelation(0.75))
        a = base.sample(40, size=3, random_state=2)
        b = src.sample(40, size=3, random_state=2)
        np.testing.assert_allclose(b, a, rtol=1e-10, atol=1e-12)

    def test_registry_block_size_one_bitwise(self):
        src = registry.resolve("hosking", FGNCorrelation(0.75),
                               block_size=1)
        base = registry.resolve("hosking", FGNCorrelation(0.75))
        np.testing.assert_array_equal(
            src.sample(40, size=3, random_state=2),
            base.sample(40, size=3, random_state=2),
        )


# ---------------------------------------------------------------------------
# Paired statistical indistinguishability
# ---------------------------------------------------------------------------


class TestBlockedStatistics:
    SEEDS = (11, 12, 13, 14)
    N = 8_192
    HURST = 0.8

    def _paths(self, seed):
        z = np.random.default_rng(seed).standard_normal(self.N)
        corr = FGNCorrelation(self.HURST)
        per_step = hosking_generate(corr, self.N, innovations=z,
                                    block_size=1)
        blocked = hosking_generate(corr, self.N, innovations=z,
                                   block_size=64)
        return per_step, blocked

    def test_paired_hurst_estimates(self):
        from repro.estimators import variance_time_estimate, whittle_estimate

        shifts = []
        for seed in self.SEEDS:
            per_step, blocked = self._paths(seed)
            # Variance-time is a closed-form regression: paired
            # estimates on allclose paths agree to near machine
            # precision.
            vt_shift = (
                variance_time_estimate(blocked).hurst
                - variance_time_estimate(per_step).hurst
            )
            assert abs(vt_shift) < 1e-8
            # Whittle runs a bounded scalar minimization whose
            # stopping tolerance dominates the path difference.
            shifts.append(
                whittle_estimate(blocked).hurst
                - whittle_estimate(per_step).hurst
            )
            assert abs(shifts[-1]) < 1e-3
        assert abs(float(np.mean(shifts))) < 1e-3

    def test_paired_empirical_acf(self):
        from repro.estimators import sample_acf

        for seed in self.SEEDS[:2]:
            per_step, blocked = self._paths(seed)
            np.testing.assert_allclose(
                sample_acf(blocked, 50),
                sample_acf(per_step, 50),
                atol=1e-8,
            )
