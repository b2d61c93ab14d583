"""Tests for the pure summary of the alternating-pair benchmark runner."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "perfpairs.py"
_SPEC = importlib.util.spec_from_file_location("perfpairs", _PATH)
perfpairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perfpairs)

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "source_slots_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.25},
]


def _result(wall, slots, *, failed=0, attempted=5):
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "source_slots_per_s": {"value": slots, "unit": "1/s"},
        },
    }


def _runs(walls):
    return [_result(w, 100.0 / w) for w in walls]


class TestSummarize:
    def test_quartiles_and_wins_follow_better_direction(self):
        base = _runs([4.0, 5.0, 6.0, 7.0, 8.0])
        change = _runs([2.0, 3.0, 4.0, 5.0, 9.0])
        out = perfpairs.summarize(base, change, END_TO_END)
        wall = out["metrics"]["wall_s"]
        assert wall["base"] == {"q1": 5.0, "median": 6.0, "q3": 7.0}
        assert wall["change"] == {"q1": 3.0, "median": 4.0, "q3": 5.0}
        assert wall["change_better"] == 4
        assert wall["rel_change"] == pytest.approx(-1 / 3)
        slots = out["metrics"]["source_slots_per_s"]
        assert slots["change_better"] == 4
        assert out["pairs"] == 5

    def test_ties_count_for_neither_side(self):
        out = perfpairs.summarize(
            _runs([3.0] * 4), _runs([3.0] * 4), END_TO_END
        )
        wall = out["metrics"]["wall_s"]
        assert wall["change_better"] == 0
        assert not wall["claim_rule_met"]
        assert wall["within_bound"]

    def test_claim_rule_needs_ten_pairs_nine_tenths_and_a_gap(self):
        base = [5.0, 5.1, 5.2, 5.3, 5.4, 5.5, 5.6, 5.7, 5.8, 5.9]
        nine = [w - 2.0 for w in base[:9]] + [6.5]
        out = perfpairs.summarize(_runs(base), _runs(nine), END_TO_END)
        assert out["metrics"]["wall_s"]["change_better"] == 9
        assert out["metrics"]["wall_s"]["claim_rule_met"]
        eight = [w - 2.0 for w in base[:8]] + [6.5, 6.5]
        out = perfpairs.summarize(_runs(base), _runs(eight), END_TO_END)
        assert not out["metrics"]["wall_s"]["claim_rule_met"]
        # Nine pairs won by a wide margin are still too few pairs.
        out = perfpairs.summarize(
            _runs(base[:9]), _runs([w - 2.0 for w in base[:9]]), END_TO_END
        )
        assert out["metrics"]["wall_s"]["change_better"] == 9
        assert not out["metrics"]["wall_s"]["claim_rule_met"]
        # Every pair won, but by less than the base's own spread.
        close = [w - 0.01 for w in base]
        out = perfpairs.summarize(_runs(base), _runs(close), END_TO_END)
        assert out["metrics"]["wall_s"]["change_better"] == 10
        assert not out["metrics"]["wall_s"]["claim_rule_met"]

    def test_more_failures_void_the_claim(self):
        base = _runs([5.0, 5.1, 5.2, 5.3])
        change = [_result(2.0, 50.0, failed=1)] + _runs([2.1, 2.2, 2.3])
        out = perfpairs.summarize(base, change, END_TO_END)
        assert out["change"]["failed"] == 1
        assert out["base"] == {
            "attempted": 20, "failed": 0, "runs_without_result": 0
        }
        assert out["metrics"]["wall_s"]["change_better"] == 4
        assert not out["metrics"]["wall_s"]["claim_rule_met"]

    def test_runs_without_result_win_nothing(self):
        base = _runs([5.0, 5.0, 5.0])
        change = [None, _result(4.0, 25.0), None]
        out = perfpairs.summarize(base, change, END_TO_END)
        assert out["change"]["runs_without_result"] == 2
        assert out["change"]["attempted"] == 5
        wall = out["metrics"]["wall_s"]
        assert wall["change_better"] == 1
        assert wall["change"]["median"] == 4.0
        assert not wall["claim_rule_met"]

    def test_no_paired_values_leaves_only_counts(self):
        out = perfpairs.summarize([None], [None], END_TO_END)
        assert out["metrics"]["wall_s"] == {
            "unit": "s", "better": "lower", "pairs": 1, "change_better": 0
        }
        assert any("no paired values" in line
                   for line in perfpairs.format_summary(out))

    def test_bound_is_relative_to_the_base_median_in_the_worse_direction(self):
        base = _runs([4.0, 4.0, 4.0])
        slower = _runs([5.2, 5.2, 5.2])  # +30% wall, -23% throughput
        out = perfpairs.summarize(base, slower, END_TO_END)
        assert not out["metrics"]["wall_s"]["within_bound"]
        assert out["metrics"]["source_slots_per_s"]["within_bound"]
        lines = perfpairs.format_summary(out)
        assert any("WORSE" in line for line in lines)

    def test_rejects_unpaired_runs(self):
        with pytest.raises(ValueError, match="pair"):
            perfpairs.summarize(_runs([1.0]), _runs([1.0, 2.0]), END_TO_END)
