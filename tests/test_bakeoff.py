"""Unit tests for the cross-estimator bake-off harness."""

import json

import numpy as np
import pytest

from repro.estimators.bakeoff import (
    HURST_ESTIMATORS,
    BakeoffCell,
    run_bakeoff,
)
from repro.exceptions import EstimationError, ValidationError
from repro.observability import RunContext, recording

QUICK = dict(
    hursts=(0.8,),
    horizons=(1024,),
    backends=("davies_harte",),
    estimators=("mavar", "rs", "variance_time"),
    replications=3,
    random_state=42,
)


class TestRegistry:
    def test_all_six_estimators_registered(self):
        assert set(HURST_ESTIMATORS) == {
            "variance_time",
            "rs",
            "periodogram",
            "dfa",
            "whittle",
            "mavar",
        }

    def test_specs_run_on_fgn(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(256)
        for spec in HURST_ESTIMATORS.values():
            hurst, stderr = spec.run(x)
            assert 0.0 < hurst < 1.2
            assert spec.estimate(x) == hurst
            assert np.isnan(stderr) or stderr >= 0


class TestRunBakeoff:
    def test_deterministic_for_fixed_seed(self):
        a = run_bakeoff(**QUICK)
        b = run_bakeoff(**QUICK)
        for ca, cb in zip(a.cells, b.cells):
            np.testing.assert_array_equal(ca.estimates, cb.estimates)

    def test_paired_design_shares_paths(self):
        # All estimators of a cell see the same paths, so dropping an
        # estimator must not change another estimator's estimates.
        full = run_bakeoff(**QUICK)
        solo = run_bakeoff(**{**QUICK, "estimators": ("rs",)})
        np.testing.assert_array_equal(
            full.cell("rs", "davies_harte", 0.8, 1024).estimates,
            solo.cell("rs", "davies_harte", 0.8, 1024).estimates,
        )

    def test_grid_shape(self):
        res = run_bakeoff(
            hursts=(0.7, 0.8),
            horizons=(512, 1024),
            backends=("davies_harte", "fgn"),
            estimators=("mavar", "rs"),
            replications=2,
            random_state=1,
        )
        assert len(res.cells) == 2 * 2 * 2 * 2
        cell = res.cell("mavar", "fgn", 0.7, 512)
        assert cell.estimates.shape == (2,)

    def test_metrics_recorded(self):
        with recording(RunContext()) as ctx:
            run_bakeoff(**QUICK)
        names = {m["name"] for m in ctx.registry.snapshot()}
        assert {
            "bakeoff.cells",
            "bakeoff.paths",
            "bakeoff.estimates",
            "bakeoff.generate_seconds",
            "bakeoff.estimator_seconds",
            "bakeoff.bias",
            "bakeoff.rmse",
            "bakeoff.coverage",
        } <= names

    def test_metrics_do_not_perturb_estimates(self):
        plain = run_bakeoff(**QUICK)
        with recording(RunContext()):
            instrumented = run_bakeoff(**QUICK)
        for ca, cb in zip(plain.cells, instrumented.cells):
            np.testing.assert_array_equal(ca.estimates, cb.estimates)

    def test_summary_winner_and_table(self):
        res = run_bakeoff(**QUICK)
        summary = res.summary()
        assert set(summary) == set(QUICK["estimators"])
        for row in summary.values():
            assert set(row) == {
                "abs_bias", "std", "rmse", "coverage",
                "failures", "seconds",
            }
        assert res.winner("rmse") in QUICK["estimators"]
        table = res.table()
        for name in QUICK["estimators"]:
            assert name in table
        with pytest.raises(ValidationError, match="metric"):
            res.winner("bias")

    def test_to_dict_json_ready(self):
        res = run_bakeoff(**QUICK)
        payload = json.loads(json.dumps(res.to_dict()))
        assert payload["replications"] == 3
        assert len(payload["cells"]) == 3
        assert payload["winner_rmse"] in QUICK["estimators"]

    def test_coverage_between_zero_and_one(self):
        res = run_bakeoff(**QUICK)
        for cell in res.cells:
            if np.isfinite(cell.coverage):
                assert 0.0 <= cell.coverage <= 1.0

    def test_whittle_has_no_coverage(self):
        res = run_bakeoff(
            **{**QUICK, "estimators": ("whittle",), "horizons": (256,)}
        )
        cell = res.cell("whittle", "davies_harte", 0.8, 256)
        assert np.isnan(cell.coverage)
        assert np.all(np.isnan(cell.stderrs))

    def test_all_backends_token(self):
        res = run_bakeoff(
            hursts=(0.8,),
            horizons=(256,),
            backends=("all",),
            estimators=("rs",),
            replications=1,
            random_state=3,
        )
        assert len(res.backends) >= 6

    def test_cell_lookup_missing(self):
        res = run_bakeoff(**QUICK)
        with pytest.raises(ValidationError, match="no bake-off cell"):
            res.cell("rs", "hosking", 0.8, 1024)


class TestValidation:
    def test_unknown_estimator(self):
        with pytest.raises(ValidationError, match="estimator"):
            run_bakeoff(**{**QUICK, "estimators": ("hurstmax",)})

    def test_unknown_backend(self):
        with pytest.raises(ValidationError, match="backend"):
            run_bakeoff(**{**QUICK, "backends": ("oracle",)})

    def test_hurst_out_of_range(self):
        with pytest.raises(ValidationError, match="hurst"):
            run_bakeoff(**{**QUICK, "hursts": (1.0,)})

    def test_horizon_below_estimator_minimum(self):
        with pytest.raises(ValidationError, match="horizon"):
            run_bakeoff(
                **{
                    **QUICK,
                    "estimators": ("dfa",),
                    "horizons": (32,),
                }
            )

    def test_bad_replications(self):
        with pytest.raises(ValidationError, match="replications"):
            run_bakeoff(**{**QUICK, "replications": 0})


class TestFailureIsolation:
    def test_estimation_error_becomes_nan_and_counter(self):
        # A degenerate estimator entry: patch in a spec whose run
        # always raises, via the estimators list + monkeypatched
        # registry entry.
        from repro.estimators import bakeoff as mod

        failing = mod.EstimatorSpec(
            "failing",
            lambda x: (_ for _ in ()).throw(EstimationError("boom")),
            min_length=2,
        )
        original = dict(mod.HURST_ESTIMATORS)
        mod.HURST_ESTIMATORS["failing"] = failing
        try:
            with recording(RunContext()) as ctx:
                res = run_bakeoff(
                    hursts=(0.8,),
                    horizons=(256,),
                    backends=("davies_harte",),
                    estimators=("failing", "rs"),
                    replications=2,
                    random_state=5,
                )
        finally:
            mod.HURST_ESTIMATORS.clear()
            mod.HURST_ESTIMATORS.update(original)
        cell = res.cell("failing", "davies_harte", 0.8, 256)
        assert cell.failures == 2
        assert np.all(np.isnan(cell.estimates))
        assert np.isnan(cell.bias) and np.isnan(cell.rmse)
        failures = [
            m for m in ctx.registry.snapshot()
            if m["name"] == "bakeoff.failures"
        ]
        assert failures and sum(m["value"] for m in failures) == 2.0
        # The healthy estimator is untouched.
        assert res.cell("rs", "davies_harte", 0.8, 256).failures == 0

    def test_all_failed_summary_is_nan_winner_skips(self):
        cell = BakeoffCell(
            estimator="x",
            backend="b",
            hurst=0.8,
            horizon=64,
            estimates=np.array([np.nan, np.nan]),
            stderrs=np.array([np.nan, np.nan]),
            seconds=0.0,
        )
        assert np.isnan(cell.bias)
        assert np.isnan(cell.std)
        assert np.isnan(cell.rmse)
        assert np.isnan(cell.coverage)
        assert cell.failures == 2
