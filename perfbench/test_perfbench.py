"""Self-test of the benchmark harness at a tiny scale.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

It checks that every metric ``BENCHMARK.json`` names is printed by name
with its unit, that a bad program output injected here (not in
``src/``) raises ``error_rate``, and that layer self times plus
``unaccounted_s`` sum to the traced wall.
"""

import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import TINY  # noqa: E402

from repro.marginals.transform import MarginalTransform  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_harness():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(harness.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(harness.PER_LAYER)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert harness.UNITS[metric["name"]] == metric["unit"]
    assert [w["name"] for w in SPEC["workloads"]] == list(TINY)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TINY))
def test_every_metric_printed_with_unit(workload, trace, tmp_path):
    done = _run_cli(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
        "--trace-out", str(tmp_path / "trace.json"),
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    printed = {line.split()[0]: line.split() for line in lines[:-1]
               if not line.startswith("#")}
    for metric in expected:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert printed[name][2] == unit
        assert float(printed[name][1]) == result["metrics"][name]["value"]
    assert "error_rate" in printed
    if trace:
        events = json.loads((tmp_path / "trace.json").read_text())
        assert events["traceEvents"]


def test_injected_nan_transform_raises_error_rate(monkeypatch):
    workload = TINY["is_sweep"]
    tally = harness.Tally()
    _, state = harness.run_setup(workload, 1, 1, tally)
    harness.run_op(workload, state, 0, 1, tally)
    assert tally.failed == 0, tally.failures

    monkeypatch.setattr(MarginalTransform, "__call__",
                        lambda self, x: np.full(np.shape(x), np.nan))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        harness.run_op(workload, state, 1, 1, tally)
    assert tally.failed == 1
    assert harness._ratio(tally.failed, tally.attempted) > 0


def test_layer_self_times_sum_to_traced_wall(tmp_path):
    tally = harness.Tally()
    try:
        result = harness.traced_pass(TINY["trace_model"], 2,
                                     harness.nproc(), tally)
    finally:
        harness.shutdown_shared_pool()
    assert tally.failed == 0, tally.failures
    table = result.table
    total = sum(table.seconds.values()) + table.unaccounted
    assert total == pytest.approx(table.wall, rel=1e-9, abs=1e-9)
    assert result.metrics["traced_wall_s"] == table.wall
    assert result.metrics["unaccounted_s"] == table.unaccounted
    assert table.unaccounted >= 0
    layered = sum(result.metrics[f"{layer}_s"] for layer in tracing.LAYERS)
    assert layered == pytest.approx(sum(table.seconds.values()))
    path = tmp_path / "spans.json"
    tracing.write_chrome_trace(result.spans, str(path))
    events = json.loads(path.read_text())["traceEvents"]
    assert {e["args"]["trace_id"] for e in events} == {"pooled",
                                                       "attribution"}


def test_self_time_subtracts_union_of_children():
    def span(span_id, parent, name, start, end):
        return tracing.Span(span_id, parent, "t", name, start, end, 0, 0)

    spans = [
        span(1, 0, tracing.ROOT, 0.0, 10.0),
        span(2, 1, "a", 1.0, 4.0),
        span(3, 1, "b", 3.0, 6.0),
        span(4, 2, "c", 2.0, 3.0),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0})


def test_exits_nonzero_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = _run_cli(tmp_path, "--workload", "is_sweep", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert "correct" not in done.stdout
