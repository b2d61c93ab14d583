"""Benchmark entry point for the ``repro`` package.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload is_sweep --seed 1 --seconds 20 --trace 0

Workloads: ``is_sweep``, ``aggregate_mux``, ``trace_model`` (see
``workloads.py``).  ``--trace 0`` times the workload with tracing off and
reports the end-to-end metrics; ``--trace 1`` runs the traced pass and
reports the per-layer metrics, writing the spans as Chrome trace-event
JSON under ``perfbench/out/``; ``--seconds`` bounds only the timed
loop.  Every metric is printed as
``name value unit``; the last line of standard output is the JSON
result ``{"correct", "attempted", "failed", "metrics"}``.

The package is imported from this checkout's ``src/``; without it the
benchmark exits with status 2 and prints no result.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("is_sweep", "aggregate_mux", "trace_model")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: reduced sizes for the harness self-test")
    parser.add_argument("--trace-out", default=None,
                        help="Chrome trace path (default perfbench/out/)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    # The benchmark passes workers=/processes= explicitly; no REPRO_*
    # variable of the caller's environment may change the run.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [str(SRC), str(HERE)]

    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    import harness

    import_seconds = time.perf_counter() - _START
    trace_out = args.trace_out
    if args.trace and trace_out is None:
        trace_out = str(HERE / "out"
                        / f"trace-{args.workload}-seed{args.seed}.json")
    try:
        metrics, tally, meta = harness.run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            args.scale, import_seconds, trace_out,
        )
    finally:
        harness.shutdown_shared_pool()

    names = harness.PER_LAYER if args.trace else harness.END_TO_END
    print("# perfbench " + json.dumps(meta, sort_keys=True))
    for name in names:
        print(f"{name} {metrics[name]!r} {harness.UNITS[name]}")
    if "error_rate" not in names:
        print(f"error_rate {meta['error_rate']!r} ratio")
    print(f"# {tally.failed} failed of {tally.attempted} attempted")
    if trace_out:
        print(f"# spans written to {trace_out}")
    for failure in tally.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(metrics[name]),
                   "unit": harness.UNITS[name]}
            for name in names
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
