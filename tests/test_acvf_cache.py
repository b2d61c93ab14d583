"""Tests for the acvf-table cache both table kinds share."""

from typing import Callable, NamedTuple

import pytest

from repro.exceptions import CorrelationError, ValidationError
from repro.processes.acvf_cache import resolve_acvf
from repro.processes.coeff_table import (
    _set_coefficient_cache_limits,
    clear_coefficient_cache,
    coefficient_cache_info,
    get_coefficient_table,
)
from repro.processes.correlation import FGNCorrelation
from repro.processes.davies_harte import davies_harte_generate
from repro.processes.hosking import hosking_generate
from repro.processes.spectral_cache import (
    _set_spectral_cache_limits,
    clear_spectral_cache,
    get_spectral_table,
    spectral_cache_info,
)
from tests.conftest import spectral_cache_cap


class TableKind(NamedTuple):
    get: Callable
    info: Callable
    clear: Callable
    set_limits: Callable
    #: Lags an n-sample request resolves beyond n.
    lag_offset: int
    #: Keyword of the request-size cap.
    request_limit: str


KINDS = {
    "coefficient": TableKind(
        get_coefficient_table,
        coefficient_cache_info,
        clear_coefficient_cache,
        _set_coefficient_cache_limits,
        0,
        "max_cached_horizon",
    ),
    "spectral": TableKind(
        get_spectral_table,
        spectral_cache_info,
        clear_spectral_cache,
        _set_spectral_cache_limits,
        1,
        "max_cached_length",
    ),
}


@pytest.fixture(params=sorted(KINDS))
def kind(request):
    """One table kind, isolated from the process-global cache."""
    kind = KINDS[request.param]
    kind.clear()
    kind.set_limits(max_tables=2)
    yield kind
    kind.clear()
    kind.set_limits(max_tables=8)


class TestMemoObeysLruBudget:
    """The per-model memo is part of the LRU, not a second cache."""

    def test_memo_hit_refreshes_lru_position(self, kind):
        hot = FGNCorrelation(0.8)
        table = kind.get(hot, 64)
        for hurst in (0.6, 0.7):
            kind.get(FGNCorrelation(hurst), 64)
            # Served from the memo; must count as a use of the table.
            assert kind.get(hot, 64) is table
        info = kind.info()
        assert (info.tables, info.evictions) == (2, 1)
        # The hot table is still cached: the same acvf, passed as a
        # plain sequence (no memo), finds it instead of building anew.
        assert kind.get(hot.acvf(64 + kind.lag_offset), 64) is table
        assert kind.info().misses == 3

    def test_eviction_drops_memo_entry(self, kind):
        hot = FGNCorrelation(0.8)
        table = kind.get(hot, 64)
        for hurst in (0.6, 0.7):
            kind.get(FGNCorrelation(hurst), 64)
        assert kind.info().evictions == 1
        # The evicted table is no longer served through the memo: the
        # request misses and the new table is one of the live ones.
        again = kind.get(hot, 64)
        assert again is not table
        info = kind.info()
        assert (info.misses, info.tables) == (4, 2)
        assert kind.get(hot.acvf(64 + kind.lag_offset), 64) is again


def test_bad_limit_applies_no_limit(kind):
    with pytest.raises(ValidationError, match=kind.request_limit):
        kind.set_limits(max_tables=3, **{kind.request_limit: 0})
    assert kind.info().max_tables == 2


NON_POSITIVE_VARIANCE = {
    "negative": [-1.0, 0.5, 0.2, 0.1, 0.05],
    "zero": [0.0, 0.0, 0.0, 0.0, 0.0],
}


def _davies_harte_uncached(acvf):
    """A draw above the length cap, from an uncached table."""
    with spectral_cache_cap(3):
        return davies_harte_generate(acvf, 4, random_state=1)


@pytest.mark.parametrize("acvf", NON_POSITIVE_VARIANCE.values(),
                         ids=list(NON_POSITIVE_VARIANCE))
class TestNonPositiveVarianceRejected:
    """r(0) <= 0 is no Gaussian law; every path rejects it alike."""

    @pytest.mark.parametrize("generate", [
        lambda acvf: davies_harte_generate(acvf, 4, random_state=1),
        _davies_harte_uncached,
        lambda acvf: hosking_generate(acvf, 4, random_state=1),
    ], ids=["davies_harte", "davies_harte_uncached", "hosking"])
    def test_generators(self, acvf, generate):
        with pytest.raises(CorrelationError, match=r"r\(0\) must be positive"):
            generate(acvf)

    def test_both_table_kinds(self, acvf):
        for get in (get_spectral_table, get_coefficient_table):
            with pytest.raises(CorrelationError, match="must be positive"):
                get(acvf, 4)
        with pytest.raises(CorrelationError, match="must be positive"):
            resolve_acvf(acvf, 5)
