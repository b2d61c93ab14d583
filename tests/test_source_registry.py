"""Conformance suite for the GaussianSource protocol and backend registry.

Every registered backend must honor the same contract: correct sample
shapes, seed reproducibility, capability flags that match reality
(an incapable backend raises at once), and a sample ACF consistent with
the law its ``acvf()`` reports — tight for exact backends, looser for
the approximate ones.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.processes import registry
from repro.processes.chunked import ChunkedGenerator
from repro.processes.correlation import FGNCorrelation
from repro.processes.davies_harte import davies_harte_generate
from repro.processes.hosking import hosking_generate
from repro.processes.source import (
    DaviesHarteSource,
    GaussianSource,
    RMDSource,
    SourceCapabilities,
)

HURST = 0.8
ALL_BACKENDS = registry.names()


def make_source(name: str) -> GaussianSource:
    return registry.create(name, FGNCorrelation(HURST))


def lag1_autocorr(paths: np.ndarray) -> float:
    """Mean per-replication lag-1 sample autocorrelation."""
    x = np.atleast_2d(np.asarray(paths, dtype=float))
    x = x - x.mean(axis=1, keepdims=True)
    num = (x[:, :-1] * x[:, 1:]).sum(axis=1)
    den = (x**2).sum(axis=1)
    return float((num / den).mean())


class TestRegistry:
    def test_all_six_backends_registered(self):
        assert ALL_BACKENDS == (
            "davies_harte",
            "farima",
            "fgn",
            "hosking",
            "mg_infinity",
            "rmd",
        )

    def test_get_returns_spec_with_capabilities(self):
        spec = registry.get("davies_harte")
        assert spec.name == "davies_harte"
        assert isinstance(spec.capabilities, SourceCapabilities)
        assert spec.exact and spec.batch and not spec.conditional

    def test_hyphen_and_case_aliases(self):
        assert registry.get("Davies-Harte") is registry.get("davies_harte")

    def test_unknown_backend_names_offender(self):
        with pytest.raises(ValidationError, match="'nope'"):
            registry.get("nope")

    def test_non_string_backend_rejected(self):
        with pytest.raises(ValidationError, match="string or GaussianSource"):
            registry.get(7)


class TestAutoPolicy:
    def test_unconditional_auto_is_davies_harte(self):
        source = registry.resolve("auto", FGNCorrelation(HURST))
        assert isinstance(source, DaviesHarteSource)

    def test_source_instance_passes_through(self):
        source = DaviesHarteSource(FGNCorrelation(HURST))
        assert registry.resolve(source, None) is source

    def test_source_instance_capability_still_validated(self):
        source = RMDSource(FGNCorrelation(HURST))
        with pytest.raises(ValidationError, match="chunk"):
            registry.resolve(source, None, chunked=True)

    def test_options_forwarded_to_factory(self):
        source = registry.resolve(
            "davies_harte", FGNCorrelation(HURST),
            on_negative_eigenvalues="raise",
        )
        assert source.describe()["on_negative_eigenvalues"] == "raise"
        x = source.sample(16, random_state=0)
        assert x.shape == (16,)


class TestOptionsValidatedAtConstruction:
    """Bad options fail before any simulation work starts."""

    @pytest.mark.parametrize("backend,option,value", [
        ("davies_harte", "on_negative_eigenvalues", "bogus"),
    ])
    def test_bad_option_raises_naming_it(self, backend, option, value):
        with pytest.raises(ValidationError, match=option):
            registry.create(backend, FGNCorrelation(HURST), **{option: value})

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_unknown_option_names_backend_and_its_options(self, name):
        accepted = {
            "davies_harte": "on_negative_eigenvalues",
            "mg_infinity": "session_rate",
        }.get(name, "no options")
        for build in (registry.create, registry.resolve):
            with pytest.raises(ValidationError) as excinfo:
                build(name, FGNCorrelation(HURST), bogus=1)
            message = str(excinfo.value)
            assert f"backend {name!r}" in message
            assert "'bogus'" in message
            assert message.endswith(f"it accepts {accepted}")

    def test_unknown_option_of_an_aggregate_class(self):
        from repro.core.aggregate import ShardedAggregateModel, SourceClass
        from repro.marginals.parametric import GammaDistribution

        klass = SourceClass(
            "news", correlation=HURST,
            marginal=GammaDistribution(6.0, 1.0), count=2,
            backend_options={"bogus": 1},
        )
        with pytest.raises(ValidationError, match="backend 'davies_harte'"):
            ShardedAggregateModel([klass])


@pytest.mark.parametrize("name", ALL_BACKENDS)
class TestSourceConformance:
    def test_capability_flags_match_spec(self, name):
        source = make_source(name)
        assert source.capabilities == registry.get(name).capabilities
        assert source.exact is source.capabilities.exact
        assert source.name == name

    def test_sample_shapes(self, name):
        source = make_source(name)
        assert source.sample(32, random_state=0).shape == (32,)
        assert source.sample(32, size=3, random_state=0).shape == (3, 32)

    def test_seed_reproducibility(self, name):
        source = make_source(name)
        a = source.sample(64, size=2, random_state=11)
        b = source.sample(64, size=2, random_state=11)
        c = source.sample(64, size=2, random_state=12)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_mean_shift(self, name):
        source = make_source(name)
        base = source.sample(256, size=4, random_state=5)
        shifted = source.sample(256, size=4, mean=3.0, random_state=5)
        np.testing.assert_allclose(shifted, base + 3.0, atol=1e-12)

    def test_acvf_is_normalized_covariance(self, name):
        source = make_source(name)
        r = source.acvf(16)
        assert r.shape == (16,)
        assert r[0] == pytest.approx(1.0)
        assert np.all(np.abs(r) <= 1.0 + 1e-12)

    def test_sample_acf_matches_advertised_law(self, name):
        source = make_source(name)
        size = 60 if name == "mg_infinity" else 150
        paths = source.sample(512, size=size, random_state=99)
        target = source.acvf(2)
        observed = lag1_autocorr(paths)
        # Exact backends sample the advertised law up to the usual
        # finite-sample ACF bias.  mg_infinity's integer durations and
        # Poisson marginal get a looser band; rmd's non-stationary
        # increments are known to undershoot short-lag correlation by
        # ~0.15 at H=0.8, so its band only guards against gross breakage.
        tolerance = {"rmd": 0.25, "mg_infinity": 0.15}.get(name, 0.06)
        assert observed == pytest.approx(
            target[1] / target[0], abs=tolerance
        )

    def test_describe_reports_provenance(self, name):
        info = make_source(name).describe()
        assert info["backend"] == name
        caps = registry.get(name).capabilities
        assert info["exact"] == caps.exact
        assert info["conditional"] == caps.conditional
        assert info["batch"] == caps.batch


class TestHurstExtraction:
    def test_parameter_backends_accept_plain_hurst(self):
        source = registry.create("fgn", 0.75)
        assert source.describe()["hurst"] == pytest.approx(0.75)

    def test_explicit_acvf_rejected_by_parameter_backends(self):
        with pytest.raises(ValidationError, match="hosking"):
            registry.create("fgn", [1.0, 0.5, 0.25])


BAD_MEANS = {
    "string": "a",
    "none": None,
    "nan": float("nan"),
    "inf": float("inf"),
}


def _sample_with(name):
    return lambda mean: make_source(name).sample(
        8, mean=mean, random_state=0
    )


#: Every entry point that takes a process mean: each backend's
#: ``sample``, the two exact generators and the chunked pipeline.
MEAN_TAKERS = {
    **{name: _sample_with(name) for name in ALL_BACKENDS},
    "hosking_generate": lambda mean: hosking_generate(
        FGNCorrelation(HURST), 8, mean=mean, random_state=0
    ),
    "davies_harte_generate": lambda mean: davies_harte_generate(
        FGNCorrelation(HURST), 8, mean=mean, random_state=0
    ),
    "ChunkedGenerator.generate": lambda mean: ChunkedGenerator(
        make_source("davies_harte"), chunk_frames=16
    ).generate(64, mean=mean, random_state=0),
}


@pytest.mark.parametrize("mean", BAD_MEANS.values(), ids=list(BAD_MEANS))
@pytest.mark.parametrize("take", MEAN_TAKERS.values(), ids=list(MEAN_TAKERS))
def test_bad_mean_rejected_naming_it(take, mean):
    with pytest.raises(ValidationError, match="mean"):
        take(mean)
