"""Timed runs, the traced pass, hygiene checks and result records.

Timed runs (``--trace 0``) measure with tracing off: no wrappers and
``metrics=None`` everywhere.  They set up several times (caches cleared
and the shared pool shut down in between) and report the median, then
run the workload's operation in a closed loop for the requested seconds
and report the median operation.

Operations run at the workload's timed parallelism (``nproc`` unless the
workload says otherwise).  The traced pass (``--trace 1``) runs one
untraced and one traced operation at that parallelism (tracing
overhead), one traced operation at ``nproc`` (the *pooled* run: pool
wait, transport and occupancy; the same run when the parallelisms
agree), then repeats set-up and one operation traced at parallelism 1
from cold caches (the *attribution* run).  Pool workers are out of reach of parent-side
wrappers, so per-layer self times and cache counters come from the
attribution run, where every layer runs in this process.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
import scipy

from repro import RunContext
from repro.processes.coeff_table import (
    clear_coefficient_cache,
    coefficient_cache_info,
)
from repro.processes.davies_harte import workspace_stats
from repro.processes.spectral_cache import (
    clear_spectral_cache,
    spectral_cache_info,
    spectral_cache_metrics,
)
from repro.simulation.parallel import pool_stats, shutdown_shared_pool
from repro.simulation.shm import live_segments, shm_stats

import tracing
from workloads import TINY, WORKLOADS

ROOT_DIR = Path(__file__).resolve().parent.parent

#: Set-ups per timed run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Unit of every metric the harness can report.
UNITS: Dict[str, str] = {
    "wall_s": "s",
    "setup_s": "s",
    "source_slots_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "error_rate": "ratio",
    "traced_wall_s": "s",
    "unaccounted_s": "s",
    "trace_overhead": "ratio",
    "marginals.transform_calls": "count",
    "marginals.samples_per_call": "count",
    "processes.synth_calls": "count",
    "processes.spectral_hit_ratio": "ratio",
    "processes.spectral_build_s": "s",
    "processes.workspace_hit_ratio": "ratio",
    "processes.hosking_steps": "count",
    "processes.coeff_hit_ratio": "ratio",
    "processes.coeff_extensions": "count",
    "processes.chunks": "count",
    "queueing.slots_per_s": "1/s",
    "simulation.is_steps": "count",
    "simulation.is_hit_ratio": "ratio",
    "simulation.leg_occupancy": "ratio",
    "simulation.pool_wait_s": "s",
    "simulation.pool_spinups": "count",
    "simulation.pool_reuse_hits": "count",
    "simulation.shm_zero_copy_share": "ratio",
    "simulation.shm_fallbacks": "count",
    "simulation.shm_segments_live": "count",
    "simulation.scaling_efficiency": "ratio",
}
UNITS.update({f"{layer}_s": "s" for layer in tracing.LAYERS})

END_TO_END = ("wall_s", "setup_s", "source_slots_per_s", "peak_rss_mib")

PER_LAYER = (
    "marginals.transform_s", "marginals.transform_calls",
    "marginals.samples_per_call", "marginals.fit_s",
    "processes.synth_s", "processes.synth_calls",
    "processes.spectral_hit_ratio", "processes.spectral_build_s",
    "processes.workspace_hit_ratio",
    "processes.hosking_step_s", "processes.hosking_steps",
    "processes.coeff_hit_ratio", "processes.coeff_extensions",
    "processes.chunked_s", "processes.chunks",
    "core.fit_s", "core.attenuation_s", "core.aggregate_s",
    "estimators.hurst_s", "estimators.acf_s",
    "queueing.lindley_s", "queueing.slots_per_s", "queueing.mux_s",
    "simulation.is_leg_s", "simulation.is_steps", "simulation.is_hit_ratio",
    "simulation.leg_occupancy", "simulation.pool_wait_s",
    "simulation.pool_spinups", "simulation.pool_reuse_hits",
    "simulation.shm_zero_copy_share", "simulation.shm_fallbacks",
    "simulation.shm_segments_live", "simulation.scaling_efficiency",
    "video.codec_s",
    "unaccounted_s", "traced_wall_s", "trace_overhead", "error_rate",
)


def nproc() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not Linux
        return os.cpu_count() or 1


@dataclass
class Tally:
    """Attempted and failed operations; failures keep their reasons."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def record(self, what: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems))

    @property
    def failed(self) -> int:
        return len(self.failures)


def leak_problems() -> List[str]:
    """Shared-memory segments still live after an operation."""
    live = shm_stats()["segments_live"]
    names = live_segments()
    if live or names:
        return [f"{live} shm segments live: {names}"]
    return []


def cold_start() -> None:
    """Forget everything a set-up fills: caches and the shared pool."""
    shutdown_shared_pool()
    clear_spectral_cache()
    clear_coefficient_cache()


def attempt_op(workload, state, rep: int, parallel: int, tally: Tally,
               metrics=None):
    """One unchecked operation; returns ``(wall, outcome or None)``.

    An operation that raises is recorded in ``tally`` as failed; pass a
    returned outcome to :func:`check_op`.
    """
    start = time.perf_counter()
    try:
        outcome = workload.op(state, rep, parallel, metrics=metrics)
    except Exception:
        tally.record(f"op {rep}", [traceback.format_exc(limit=3)])
        return time.perf_counter() - start, None
    return time.perf_counter() - start, outcome


def check_op(workload, state, rep: int, outcome, tally: Tally) -> None:
    """Record operation ``rep`` with what its checks and the leak check find."""
    if outcome is None:
        return
    try:
        problems = workload.check(state, outcome.value)
    except Exception:
        problems = [traceback.format_exc(limit=3)]
    tally.record(f"op {rep}", problems + leak_problems())


def run_op(workload, state, rep: int, parallel: int, tally: Tally,
           metrics=None):
    """One checked operation; returns ``(wall, outcome or None)``."""
    wall, outcome = attempt_op(workload, state, rep, parallel, tally,
                               metrics=metrics)
    check_op(workload, state, rep, outcome, tally)
    return wall, outcome


def run_setup(workload, seed: int, parallel: int, tally: Tally,
              metrics=None):
    """One checked set-up; returns ``(seconds, state)``."""
    start = time.perf_counter()
    state, problems = workload.setup(seed, parallel, metrics=metrics)
    seconds = time.perf_counter() - start
    tally.record("setup", problems + leak_problems())
    return seconds, state


def peak_rss_mib() -> float:
    """Peak RSS of this process plus each live pool worker's, in MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        kib += int(line.split()[1])
        except OSError:
            continue
    return kib / 1024.0


def timed_run(workload, seed: int, seconds: float, parallel: int,
              import_seconds: float, tally: Tally):
    """Set up ``SETUP_REPEATS`` times, then loop the operation.

    Returns ``(metrics, samples)``; ``samples`` holds every set-up and
    operation time the medians were taken over.
    """
    setups = []
    for _ in range(SETUP_REPEATS):
        cold_start()
        elapsed, state = run_setup(workload, seed, parallel, tally)
        setups.append(elapsed)
    timed = workload.timed_parallel or parallel
    walls: List[float] = []
    rates: List[float] = []
    begin = time.perf_counter()
    rep = 0
    while True:
        wall, outcome = run_op(workload, state, rep, timed, tally)
        rep += 1
        if outcome is not None:
            walls.append(wall)
            gen = outcome.gen_seconds if outcome.gen_seconds else wall
            rates.append(outcome.slots / gen)
        elapsed = time.perf_counter() - begin
        typical = statistics.median(walls) if walls else wall
        if elapsed + typical > seconds:
            break
    if not walls:
        raise RuntimeError("no operation completed:\n"
                           + "\n".join(tally.failures))
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": import_seconds + statistics.median(setups),
        "source_slots_per_s": statistics.median(rates),
        "peak_rss_mib": peak_rss_mib(),
    }
    samples = {"import_s": import_seconds, "setups": setups,
               "op_walls": walls}
    return metrics, samples


def _snapshot_values(ctx: RunContext) -> Dict[str, float]:
    """Sum each counter/gauge/summary total of ``ctx`` over its labels."""
    out: Dict[str, float] = {}
    for entry in ctx.snapshot():
        value = entry.get("value", entry.get("total", 0.0))
        out[entry["name"]] = out.get(entry["name"], 0.0) + float(value)
    return out


def _ratio(hits: float, total: float) -> float:
    """``hits / total``; 0 when the layer made no lookups."""
    return float(hits) / float(total) if total else 0.0


@dataclass(frozen=True)
class TracedPass:
    """Everything the traced pass measured."""

    metrics: Dict[str, float]
    table: tracing.LayerTable
    spans: List[tracing.Span]


def traced_pass(workload, seed: int, parallel: int,
                tally: Tally) -> TracedPass:
    """Untraced and traced ops, the pooled run, then the attribution run."""
    recorder = tracing.SpanRecorder()
    timed = workload.timed_parallel or parallel
    cold_start()
    _, state = run_setup(workload, seed, parallel, tally)
    untraced_wall, _ = run_op(workload, state, 0, timed, tally)

    # Traced operations are checked once the wrappers are gone, so that
    # no check adds spans or time to a run.
    pooled_ctx = RunContext()
    outcomes = {}
    with tracing.instrument(recorder, tracing.LAYER_PATCHES
                            + tracing.POOL_PATCHES):
        if timed != parallel:
            with recorder.run("timed"):
                traced_wall, outcomes[1] = attempt_op(workload, state, 1,
                                                      timed, tally)
        pool_before, shm_before = pool_stats(), shm_stats()
        with recorder.run("pooled"):
            pooled_wall, outcomes[2] = attempt_op(workload, state, 2,
                                                  parallel, tally,
                                                  metrics=pooled_ctx)
        pool_after, shm_after = pool_stats(), shm_stats()
    for rep, outcome in outcomes.items():
        check_op(workload, state, rep, outcome, tally)
    if timed == parallel:
        traced_wall = pooled_wall
    pooled = tracing.layer_table(recorder.of_trace("pooled"))
    occupancy = [entry["value"] for entry in pooled_ctx.snapshot()
                 if entry["name"].endswith(".occupancy")]

    cold_start()
    ctx = RunContext()
    cache_ctx = RunContext()
    spectral_before = spectral_cache_info()
    coeff_before = coefficient_cache_info()
    workspace_before = workspace_stats()
    with tracing.instrument(recorder, tracing.LAYER_PATCHES):
        with spectral_cache_metrics(cache_ctx), recorder.run("attribution"):
            _, serial_state = run_setup(workload, seed, 1, tally,
                                        metrics=ctx)
            serial_wall, outcome = attempt_op(workload, serial_state, 3, 1,
                                              tally, metrics=ctx)
    spectral = _delta(spectral_cache_info()._asdict(),
                      spectral_before._asdict())
    coeff = _delta(coefficient_cache_info()._asdict(),
                   coeff_before._asdict())
    workspace = _delta(workspace_stats(), workspace_before)
    table = tracing.layer_table(recorder.of_trace("attribution"))
    values = _snapshot_values(ctx)
    check_op(workload, serial_state, 3, outcome, tally)

    def zero_copy_share() -> float:
        zero = shm_after["bytes_zero_copy"] - shm_before["bytes_zero_copy"]
        pickled = shm_after["bytes_pickled"] - shm_before["bytes_pickled"]
        return _ratio(zero, zero + pickled)

    lindley_s = table.seconds.get("queueing.lindley", 0.0)
    transform_calls = table.calls.get("marginals.transform", 0)
    metrics: Dict[str, float] = {
        f"{layer}_s": table.seconds.get(layer, 0.0)
        for layer in tracing.LAYERS
    }
    metrics.update({
        "marginals.transform_calls": transform_calls,
        "marginals.samples_per_call": _ratio(
            table.samples.get("marginals.transform", 0), transform_calls),
        "processes.synth_calls": table.calls.get("processes.synth", 0),
        "processes.spectral_hit_ratio": _ratio(
            spectral["eigenvalue_hits"],
            spectral["eigenvalue_hits"] + spectral["eigenvalue_builds"]),
        "processes.spectral_build_s": _snapshot_values(cache_ctx).get(
            "spectral.eigenvalue_build_seconds", 0.0),
        "processes.workspace_hit_ratio": _ratio(
            workspace["hits"], workspace["hits"] + workspace["builds"]),
        "processes.hosking_steps": table.calls.get(
            "processes.hosking_step", 0),
        "processes.coeff_hit_ratio": _ratio(
            coeff["hits"],
            coeff["hits"] + coeff["misses"] + coeff["extensions"]),
        "processes.coeff_extensions": coeff["extensions"],
        "processes.chunks": values.get("chunked.chunks", 0.0),
        "queueing.slots_per_s": _ratio(
            table.samples.get("queueing.lindley", 0), lindley_s),
        "simulation.is_steps": values.get("is.steps", 0.0),
        "simulation.is_hit_ratio": _ratio(values.get("is.hits", 0.0),
                                          values.get("is.replications", 0)),
        "simulation.leg_occupancy": (statistics.fmean(occupancy)
                                     if occupancy else 0.0),
        "simulation.pool_wait_s": pooled.seconds.get(tracing.POOL_WAIT, 0.0),
        "simulation.pool_spinups": pool_after["spinups"]
        - pool_before["spinups"],
        "simulation.pool_reuse_hits": pool_after["reuse_hits"]
        - pool_before["reuse_hits"],
        "simulation.shm_zero_copy_share": zero_copy_share(),
        "simulation.shm_fallbacks": shm_after["fallbacks"]
        - shm_before["fallbacks"],
        "simulation.shm_segments_live": shm_after["segments_live"],
        "simulation.scaling_efficiency": _ratio(
            serial_wall, parallel * pooled_wall),
        "unaccounted_s": table.unaccounted,
        "traced_wall_s": table.wall,
        "trace_overhead": traced_wall / untraced_wall - 1.0,
    })
    return TracedPass(metrics, table, list(recorder.spans))


def _delta(after: Dict[str, float], before: Dict[str, float]):
    return {key: after[key] - before[key] for key in after}


def src_line_count() -> int:
    """Lines in ``src/`` (the net line count ROADMAP aim 2 tracks)."""
    total = 0
    for path in sorted((ROOT_DIR / "src").rglob("*.py")):
        with open(path, "rb") as handle:
            total += sum(1 for _ in handle)
    return total


def commit() -> Optional[str]:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT_DIR / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT_DIR, capture_output=True,
            text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        scale: str, import_seconds: float, trace_out: Optional[str]):
    """Run one benchmark invocation; returns ``(metrics, tally, meta)``."""
    workload = (TINY if scale == "tiny" else WORKLOADS)[workload_name]
    parallel = nproc()
    tally = Tally()
    samples = None
    if trace:
        result = traced_pass(workload, seed, parallel, tally)
        metrics = result.metrics
        metrics["error_rate"] = _ratio(tally.failed, tally.attempted)
        if trace_out:
            tracing.write_chrome_trace(result.spans, trace_out)
    else:
        metrics, samples = timed_run(workload, seed, seconds, parallel,
                                     import_seconds, tally)
    meta = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale,
        "commit": commit(),
        "nproc": parallel,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "src_lines": src_line_count(),
        "error_rate": _ratio(tally.failed, tally.attempted),
        "samples": samples,
    }
    return metrics, tally, meta
