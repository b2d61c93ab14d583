"""Tests for the shared Durbin-Levinson coefficient tables."""

import threading

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.processes.coeff_table import (
    CoefficientTable,
    _set_coefficient_cache_limits,
    acvf_fingerprint,
    clear_coefficient_cache,
    coefficient_cache_info,
    get_coefficient_table,
)
from repro.processes.correlation import (
    CompositeCorrelation,
    ExponentialCorrelation,
    FGNCorrelation,
)
from repro.processes.partial_corr import DurbinLevinson


@pytest.fixture(autouse=True)
def fresh_cache():
    """Isolate every test from the process-global table cache."""
    clear_coefficient_cache()
    _set_coefficient_cache_limits(max_tables=8, max_cached_horizon=4096)
    yield
    clear_coefficient_cache()
    _set_coefficient_cache_limits(max_tables=8, max_cached_horizon=4096)


#: The storage a lock-free reader of built rows goes through.
PUBLISHED_BUFFERS = ("_packed", "_variances")


def reference_rows(acvf):
    """All Durbin-Levinson outputs via the incremental recursion."""
    state = DurbinLevinson(acvf)
    rows, variances, sums = [], [state.variance], [0.0]
    for _ in range(state.max_step):
        phi, variance = state.advance()
        rows.append(phi.copy())
        variances.append(variance)
        sums.append(state.phi_sum)
    return rows, variances, sums


class TestCoefficientTable:
    def test_rows_match_incremental_recursion_bitwise(self):
        acvf = FGNCorrelation(0.8).acvf(40)
        table = CoefficientTable(acvf)
        rows, variances, sums = reference_rows(acvf)
        for k in range(1, 40):
            np.testing.assert_array_equal(table.phi_row(k), rows[k - 1])
            assert table.variance(k) == variances[k]
            assert table.phi_sum(k) == sums[k]
        assert table.variance(0) == variances[0]
        assert table.phi_sum(0) == 0.0

    def test_lazy_build(self):
        table = CoefficientTable(FGNCorrelation(0.7).acvf(50))
        assert table.built_step == 0
        table.phi_row(10)
        assert table.built_step == 10
        assert table.horizon == 50

    def test_precompute(self):
        table = CoefficientTable(FGNCorrelation(0.7).acvf(20))
        table.ensure(table.max_step)
        assert table.built_step == 19

    def test_sqrt_variances_view(self):
        acvf = ExponentialCorrelation(0.4).acvf(15)
        table = CoefficientTable(acvf)
        sqrtv = table.sqrt_variances(15)
        _, variances, _ = reference_rows(acvf)
        np.testing.assert_array_equal(sqrtv, np.sqrt(variances))
        with pytest.raises(ValueError):
            sqrtv[0] = 2.0

    def test_packed_rows_layout(self):
        acvf = FGNCorrelation(0.6).acvf(12)
        table = CoefficientTable(acvf)
        packed = table.packed_rows(12)
        rows, _, _ = reference_rows(acvf)
        offset = 0
        for k in range(1, 12):
            np.testing.assert_array_equal(
                packed[offset : offset + k], rows[k - 1]
            )
            offset += k

    def test_phi_row_is_read_only_view(self):
        table = CoefficientTable(FGNCorrelation(0.7).acvf(10))
        row = table.phi_row(5)
        with pytest.raises(ValueError):
            row[0] = 99.0

    def test_rejects_out_of_range_step(self):
        table = CoefficientTable(FGNCorrelation(0.7).acvf(10))
        with pytest.raises(ValidationError):
            table.phi_row(10)
        with pytest.raises(ValidationError):
            table.phi_row(0)
        with pytest.raises(ValidationError):
            table.ensure(10)

    def test_rejects_model_argument(self):
        with pytest.raises(ValidationError, match="explicit acvf"):
            CoefficientTable(FGNCorrelation(0.7))

    def test_extend_continues_bitwise(self):
        model = CompositeCorrelation.paper_fit().with_continuity()
        short, long = model.acvf(30), model.acvf(90)
        table = CoefficientTable(short)
        table.ensure(29)  # fully build the short table first
        table.extend(long)
        fresh = CoefficientTable(long)
        for k in range(1, 90):
            np.testing.assert_array_equal(
                table.phi_row(k), fresh.phi_row(k)
            )
            assert table.variance(k) == fresh.variance(k)
            assert table.phi_sum(k) == fresh.phi_sum(k)

    def test_extend_rejects_mismatched_prefix(self):
        table = CoefficientTable(FGNCorrelation(0.7).acvf(20))
        with pytest.raises(ValidationError, match="prefix"):
            table.extend(FGNCorrelation(0.8).acvf(40))

    def test_extend_with_shorter_prefix_is_noop(self):
        acvf = FGNCorrelation(0.7).acvf(30)
        table = CoefficientTable(acvf)
        table.extend(acvf[:10])
        assert table.horizon == 30

    def test_scalar_accessors_reject_negative_step(self):
        # Regression: a negative k on a lazily built table used to skip
        # the build check and index from the end of an uninitialized
        # buffer, silently returning garbage.
        table = CoefficientTable(FGNCorrelation(0.7).acvf(20))
        for accessor in (table.variance, table.sqrt_variance, table.phi_sum):
            with pytest.raises(ValidationError):
                accessor(-1)

    def test_read_during_concurrent_extend_stays_bitwise(self):
        # Regression: extend() used to rebind the storage arrays to
        # uninitialized buffers *before* copying the built prefix in,
        # so lock-free readers racing an extension could read garbage.
        # Read every built row at the exact moment each enlarged buffer
        # is published (a deterministic stand-in for a racing lock-free
        # reader); the reads must match the reference recursion.
        model = FGNCorrelation(0.8)
        final = 1280
        rows, variances, _ = reference_rows(model.acvf(final))
        errors = []
        published = []

        class ObservedTable(CoefficientTable):
            checking = False

            def __setattr__(self, name, value):
                super().__setattr__(name, value)
                if self.checking and name in PUBLISHED_BUFFERS:
                    published.append(name)
                    for k in range(1, self.built_step + 1):
                        if not np.array_equal(self.phi_row(k), rows[k - 1]):
                            errors.append(f"{name}: phi_row({k})")
                        if self.variance(k) != variances[k]:
                            errors.append(f"{name}: variance({k})")

        table = ObservedTable(model.acvf(40))
        table.ensure(table.max_step)
        table.checking = True
        for horizon in (80, 160, 320, 640, final):
            table.extend(model.acvf(horizon))
            table.ensure(horizon // 2)
        assert not errors, errors[:5]
        assert len(published) == 5 * len(PUBLISHED_BUFFERS)
        table.ensure(final - 1)
        fresh = CoefficientTable(model.acvf(final))
        fresh.ensure(fresh.max_step)
        for k in (1, 39, 639, final - 1):
            np.testing.assert_array_equal(table.phi_row(k), fresh.phi_row(k))


class TestFingerprintCache:
    def test_hit_on_repeat(self):
        model = FGNCorrelation(0.8)
        t1 = get_coefficient_table(model, 50)
        t2 = get_coefficient_table(model, 50)
        assert t1 is t2
        info = coefficient_cache_info()
        assert info.misses == 1 and info.hits == 1

    def test_prefix_share_shorter_request(self):
        model = FGNCorrelation(0.8)
        t_long = get_coefficient_table(model, 100)
        t_short = get_coefficient_table(model, 40)
        assert t_short is t_long

    def test_extension_on_longer_request(self):
        model = FGNCorrelation(0.8)
        t_short = get_coefficient_table(model, 40)
        t_long = get_coefficient_table(model, 100)
        assert t_long is t_short
        assert t_long.horizon == 100
        assert coefficient_cache_info().extensions == 1

    def test_distinct_models_distinct_tables(self):
        t1 = get_coefficient_table(FGNCorrelation(0.8), 30)
        t2 = get_coefficient_table(FGNCorrelation(0.7), 30)
        assert t1 is not t2
        assert coefficient_cache_info().tables == 2

    def test_explicit_acvf_sequences_share(self):
        acvf = ExponentialCorrelation(0.25).acvf(60)
        t1 = get_coefficient_table(acvf, 60)
        t2 = get_coefficient_table(acvf[:45], 45)
        assert t1 is t2

    def test_fingerprint_collision_verified_by_prefix(self):
        # Two sequences agreeing on the hashed head but diverging later
        # must get distinct tables.
        a = ExponentialCorrelation(0.5).acvf(30)
        b = a.copy()
        b[20:] *= 0.5
        assert acvf_fingerprint(a) == acvf_fingerprint(b)
        t1 = get_coefficient_table(a, 30)
        t2 = get_coefficient_table(b, 30)
        assert t1 is not t2
        np.testing.assert_array_equal(t2.acvf, b)

    def test_lru_eviction(self):
        _set_coefficient_cache_limits(max_tables=2)
        models = [FGNCorrelation(h) for h in (0.6, 0.7, 0.8)]
        tables = [get_coefficient_table(m, 20) for m in models]
        assert coefficient_cache_info().tables == 2
        # The first model was evicted; a fresh request misses.
        again = get_coefficient_table(models[0], 20)
        assert again is not tables[0]

    def test_horizon_cap_bypasses_cache(self):
        _set_coefficient_cache_limits(max_cached_horizon=32)
        model = FGNCorrelation(0.8)
        t1 = get_coefficient_table(model, 64)
        t2 = get_coefficient_table(model, 64)
        assert t1 is not t2
        assert coefficient_cache_info().tables == 0

    def test_thread_safe_concurrent_lookup(self):
        model = CompositeCorrelation.paper_fit().with_continuity()
        results = []

        def worker(n):
            table = get_coefficient_table(model, n)
            table.ensure(n - 1)
            results.append((n, table))

        threads = [
            threading.Thread(target=worker, args=(n,))
            for n in (50, 120, 80, 120, 60)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # All requests resolved to one shared table, fully consistent
        # with a fresh recursion at the maximum horizon.
        tables = {id(tbl) for _, tbl in results}
        assert len(tables) == 1
        table = results[0][1]
        fresh = CoefficientTable(model.acvf(120))
        fresh.ensure(fresh.max_step)
        for k in (1, 40, 79, 119):
            np.testing.assert_array_equal(
                table.phi_row(k), fresh.phi_row(k)
            )
