"""Alternating-pair benchmark runner: a base commit against this checkout.

Usage, from the root of a checkout::

    python3 tools/perfpairs.py --workload is_sweep --seed 3 --pairs 10 --base HEAD

Checks ``--base`` out into a temporary detached git worktree, then runs
the benchmark command of ``BENCHMARK.json`` with ``--trace 0`` and its
``run_seconds`` once per side per pair, in the base worktree and in this
checkout (working-tree files as they stand), alternating which side runs
first.  It prints, per end-to-end metric, each side's median and
quartiles, the number of pairs the change won by the metric's ``better``
direction (ties count for neither), whether the change meets the pair
rule for claiming a gain (at least ten pairs, wins in at least nine
tenths of them and a median gap larger than the base's interquartile
range, with no more failed operations) and whether its median stays
within the metric's regression bound; then failed/attempted operations
per side.  The last line is the summary as JSON.  The worktree is
removed on exit.

Standard library only.  It reads ``BENCHMARK.json`` and ``perfbench/``
and writes neither.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")
#: Fewest pairs on which the claim rule can be met.
MIN_PAIRS = 10


def _quartiles(values: Sequence[float]) -> Dict[str, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return {"q1": median, "median": median, "q3": median}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(
    base_runs: Sequence[Optional[dict]],
    change_runs: Sequence[Optional[dict]],
    end_to_end: Sequence[dict],
) -> dict:
    """Summarize paired benchmark results.

    ``base_runs[i]`` and ``change_runs[i]`` are the parsed result lines
    (``{"correct", "attempted", "failed", "metrics"}``) of pair ``i``,
    or ``None`` for a run that printed no result.  ``end_to_end`` is the
    ``end_to_end`` list of ``BENCHMARK.json`` (``name``, ``unit``,
    ``better``, ``bound``).  A pair counts toward a metric's win count
    only when both sides reported it; the change wins a pair when its
    value is strictly better.
    """
    if len(base_runs) != len(change_runs):
        raise ValueError("base_runs and change_runs must pair up")
    pairs = len(base_runs)
    totals = {}
    for side, runs in zip(SIDES, (base_runs, change_runs)):
        done = [run for run in runs if run is not None]
        totals[side] = {
            "attempted": sum(run["attempted"] for run in done),
            "failed": sum(run["failed"] for run in done),
            "runs_without_result": pairs - len(done),
        }
    fewer_failures = totals["change"]["failed"] <= totals["base"]["failed"]
    metrics = {}
    for spec in end_to_end:
        name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
        values = {
            side: [
                run["metrics"][name]["value"]
                if run is not None and name in run["metrics"]
                else None
                for run in runs
            ]
            for side, runs in zip(SIDES, (base_runs, change_runs))
        }
        wins = sum(
            1
            for b, c in zip(values["base"], values["change"])
            if b is not None and c is not None and sign * (c - b) > 0
        )
        entry = {"unit": spec["unit"], "better": spec["better"],
                 "pairs": pairs, "change_better": wins}
        reported = {side: [v for v in values[side] if v is not None]
                    for side in SIDES}
        if reported["base"] and reported["change"]:
            base, change = (_quartiles(reported[s]) for s in SIDES)
            gain = sign * (change["median"] - base["median"])
            entry.update(
                base=base,
                change=change,
                rel_change=(change["median"] - base["median"])
                / base["median"],
                claim_rule_met=pairs >= MIN_PAIRS
                and 10 * wins >= 9 * pairs
                and gain > base["q3"] - base["q1"]
                and fewer_failures,
                within_bound=-gain / base["median"] <= spec["bound"],
            )
        metrics[name] = entry
    return {"pairs": pairs, "metrics": metrics, **totals}


def format_summary(summary: dict) -> List[str]:
    """Human-readable table of :func:`summarize`'s output."""
    lines = [
        f"{'metric':<20}{'base median [q1, q3]':>34}"
        f"  {'change median [q1, q3]':>32}{'rel':>9}{'wins':>8}"
        f"{'claim':>7}{'bound':>7}"
    ]
    for name, entry in summary["metrics"].items():
        if "base" not in entry:
            lines.append(f"{name:<20}  (no paired values)")
            continue
        cells = [
            "{median:.4g} [{q1:.4g}, {q3:.4g}]".format(**entry[side])
            for side in SIDES
        ]
        lines.append(
            f"{name:<20}{cells[0]:>34}  {cells[1]:>32}"
            f"{entry['rel_change']:>+9.1%}"
            f"{entry['change_better']:>5d}/{entry['pairs']:<2d}"
            f"{'yes' if entry['claim_rule_met'] else 'no':>7}"
            f"{'ok' if entry['within_bound'] else 'WORSE':>7}"
        )
    for side in SIDES:
        t = summary[side]
        lines.append(
            f"{side}: {t['failed']} failed of {t['attempted']} attempted"
            f" operations, {t['runs_without_result']} runs without a result"
        )
    return lines


def _run(tree: Path, command: List[str]) -> Optional[dict]:
    """One benchmark run in ``tree``: its result line, or ``None``."""
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD",
                        help="git revision to compare against")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    command = list(bench["command"]) + [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    tmp_root = Path(tempfile.mkdtemp(prefix="perfpairs-"))
    base_tree = tmp_root / "base"
    try:
        subprocess.run(
            ["git", "worktree", "add", "--detach", str(base_tree),
             args.base],
            cwd=ROOT, check=True, stdout=sys.stderr,
        )
        trees = {"base": base_tree, "change": ROOT}
        runs = {side: [] for side in SIDES}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                result = _run(trees[side], command)
                runs[side].append(result)
                wall = (result or {}).get("metrics", {}).get("wall_s", {})
                print(f"# pair {i + 1}/{args.pairs} {side}: wall_s "
                      f"{wall.get('value')}", file=sys.stderr, flush=True)
        summary = summarize(runs["base"], runs["change"],
                            bench["end_to_end"])
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(base_tree)],
            cwd=ROOT, capture_output=True,
        )
        shutil.rmtree(tmp_root, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT,
                       capture_output=True)
    print(f"# {args.workload} seed {args.seed}: {args.pairs} alternating "
          f"pairs, base {args.base} vs working tree")
    print("\n".join(format_summary(summary)))
    summary.update(workload=args.workload, seed=args.seed,
                   base_revision=args.base, runs=runs)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
