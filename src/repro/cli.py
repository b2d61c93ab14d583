"""Command-line interface.

Six subcommands cover the day-to-day uses of the library
(``python -m repro <command> ...``):

- ``synthesize`` — generate a synthetic MPEG-1 trace file;
- ``analyze``    — trace summary, Table-1 parameters, Hurst estimates;
- ``fit``        — run the unified pipeline, print the fit report, and
  optionally regenerate a synthetic trace file from the fitted model;
- ``overflow``   — trace-driven multiplexer overflow probabilities;
- ``simulate``   — fit, scan the twist grid for the variance valley
  (Fig. 14), and run the importance-sampling buffer sweep (Fig. 16);
- ``bakeoff``    — paired cross-estimator accuracy study on known-H
  synthetic paths (bias/std/RMSE/coverage per estimator).

``fit``, ``simulate`` and ``bakeoff`` accept ``--metrics-out PATH`` to
export the run's metric snapshot (coefficient-cache hit/miss counts,
per-leg wall times, ESS per twist point, per-estimator bake-off
timings, ...) as JSON lines.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from .core.aggregate import ShardedAggregateModel
from .core.multiplex import AggregateVBRModel
from .core.pipeline import fit_report
from .core.unified import UnifiedVBRModel
from .observability import NULL_CONTEXT, RunContext, to_json_lines
from .processes import registry
from .processes.chunked import ChunkedGenerator
from .processes.coeff_table import coefficient_cache_info
from .processes.spectral_cache import spectral_cache_info
from .estimators.bakeoff import HURST_ESTIMATORS, run_bakeoff
from .estimators.mavar import mavar_estimate
from .estimators.rs_analysis import rs_estimate
from .estimators.variance_time import variance_time_estimate
from .estimators.whittle import whittle_estimate
from .exceptions import ReproError
from .queueing.capacity import (
    admissible_sources,
    bufferless_loss_gaussian,
    effective_bandwidth_vs_n,
)
from .queueing.multiplexer import service_rate_for_utilization
from .queueing.overflow import steady_state_overflow_from_trace
from .simulation import overflow_vs_buffer_curve, search_twisted_mean
from .stats.random import spawn_rngs
from .video.io import load_trace, save_trace
from .video.synthetic import SyntheticCodecConfig, SyntheticMPEGCodec
from .video.table1 import trace_parameters
from .video.trace import VideoTrace

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Self-similar VBR video modeling & simulation "
            "(Huang et al., SIGCOMM '95 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser(
        "synthesize", help="generate a synthetic MPEG-1 trace file"
    )
    synth.add_argument("output", help="destination trace file")
    synth.add_argument(
        "--frames", type=int, default=238_626,
        help="number of frames (default: the paper's 238,626)",
    )
    synth.add_argument(
        "--mode", choices=("intraframe", "ibp"), default="intraframe",
        help="intraframe-only (Figs. 1-8) or interframe I/B/P (§3.3)",
    )
    synth.add_argument("--seed", type=int, default=None)

    analyze = sub.add_parser(
        "analyze", help="summarize a trace and estimate its Hurst parameter"
    )
    analyze.add_argument("trace", help="trace file (see repro.video.io)")
    analyze.add_argument(
        "--frame-rate", type=float, default=30.0,
        help="frames per second of the recording",
    )

    fit = sub.add_parser(
        "fit", help="fit the unified VBR model to a trace"
    )
    fit.add_argument("trace", help="trace file")
    fit.add_argument("--frame-rate", type=float, default=30.0)
    fit.add_argument(
        "--max-lag", type=int, default=500,
        help="ACF lags used in the fit",
    )
    fit.add_argument(
        "--background",
        choices=("compensated", "hermite-inverse"),
        default="compensated",
        help="background calibration method",
    )
    fit.add_argument(
        "--generate", type=int, default=0, metavar="N",
        help="also generate an N-frame synthetic trace",
    )
    fit.add_argument(
        "--backend",
        choices=("auto",) + registry.names(),
        default="auto",
        help=(
            "generation backend for --generate (default: auto = "
            "Davies-Harte for unconditional paths)"
        ),
    )
    fit.add_argument(
        "--chunk-frames", type=int, default=None, metavar="L",
        help=(
            "generate via the scene-chunked pipeline with L-frame "
            "chunks (chunking is part of the law: a chunked trace uses "
            "different random streams than a single-pass one)"
        ),
    )
    fit.add_argument(
        "--processes", type=int, default=None, metavar="P",
        help=(
            "chunk jobs in flight for --chunk-frames (default: "
            "REPRO_PROCESSES or 1; never changes output bits)"
        ),
    )
    fit.add_argument(
        "--output", default=None,
        help="destination for the generated trace (with --generate)",
    )
    fit.add_argument("--seed", type=int, default=None)
    fit.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the run's metric snapshot as JSON lines",
    )

    simulate = sub.add_parser(
        "simulate",
        help=(
            "importance-sampling overflow study: fit, find the "
            "favorable twist, sweep buffer sizes"
        ),
    )
    simulate.add_argument("trace", help="trace file")
    simulate.add_argument("--frame-rate", type=float, default=30.0)
    simulate.add_argument(
        "--max-lag", type=int, default=500, help="ACF lags used in the fit"
    )
    simulate.add_argument(
        "--utilization", type=float, default=0.8,
        help="multiplexer utilization rho (service rate = 1/rho)",
    )
    simulate.add_argument(
        "--buffers", type=float, nargs="+", default=[5.0, 10.0, 20.0],
        help="normalized buffer sizes for the overflow sweep",
    )
    simulate.add_argument(
        "--twists", type=float, nargs="+",
        default=[0.0, 1.0, 2.0, 3.0, 4.0],
        help="twisted-mean candidates m* for the variance-valley scan",
    )
    simulate.add_argument(
        "--search-buffer", type=float, default=None,
        help=(
            "buffer size the twist scan runs at "
            "(default: the first of --buffers)"
        ),
    )
    simulate.add_argument(
        "--replications", type=int, default=200,
        help="IS replications per twist point and per buffer size",
    )
    simulate.add_argument(
        "--horizon-factor", type=int, default=10,
        help="simulation horizon = factor * buffer size (paper: 10)",
    )
    simulate.add_argument(
        "--workers", type=int, default=None,
        help="thread-pool size for independent legs (default: serial)",
    )
    simulate.add_argument(
        "--backend",
        choices=("auto",) + registry.names(),
        default="auto",
        help=(
            "conditional generation backend (default: auto = Hosking; "
            "non-conditional backends are rejected at construction)"
        ),
    )
    simulate.add_argument(
        "--block-size", type=int, default=None, metavar="B",
        help=(
            "blocked BLAS-3 Hosking kernel block size (default/1: exact "
            "per-step loop, bit-identical to previous releases; B>1: "
            "same law, allclose within 1e-10, typically >=5x faster)"
        ),
    )
    simulate.add_argument(
        "--shared-paths", action="store_true",
        help=(
            "evaluate the whole twist grid from ONE shared background "
            "generation (common random numbers) instead of one "
            "independent IS batch per twist"
        ),
    )
    simulate.add_argument(
        "--num-sources", type=int, default=1, metavar="N",
        help=(
            "multiplex N homogeneous copies of the fitted source: the "
            "twist scan and overflow sweep run on the aggregate model "
            "and a capacity-planning panel (effective bandwidth, "
            "admission, bufferless loss) is printed"
        ),
    )
    simulate.add_argument(
        "--shards", type=int, default=1,
        help=(
            "shard count for the aggregate engine feed (grouping only: "
            "bit-identical output at any value)"
        ),
    )
    simulate.add_argument(
        "--chunk-frames", type=int, default=None, metavar="L",
        help=(
            "also run a chunked-generation panel: synthesize the sweep "
            "horizon through the scene-chunked pipeline in L-frame "
            "chunks and print its engine report"
        ),
    )
    simulate.add_argument(
        "--processes", type=int, default=None, metavar="P",
        help=(
            "process-pool size for the --num-sources aggregate feed "
            "and for --chunk-frames chunk jobs (default: "
            "REPRO_PROCESSES or 1; never changes output bits)"
        ),
    )
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the run's metric snapshot as JSON lines",
    )

    overflow = sub.add_parser(
        "overflow",
        help="trace-driven multiplexer overflow probabilities",
    )
    overflow.add_argument("trace", help="trace file")
    overflow.add_argument(
        "--utilization", type=float, nargs="+", default=[0.8, 0.6, 0.4],
    )
    overflow.add_argument(
        "--buffers", type=float, nargs="+",
        default=[25.0, 50.0, 100.0, 200.0],
        help="normalized buffer sizes",
    )
    overflow.add_argument("--frame-rate", type=float, default=30.0)

    bakeoff = sub.add_parser(
        "bakeoff",
        help=(
            "paired cross-estimator accuracy study on known-H "
            "synthetic paths"
        ),
    )
    bakeoff.add_argument(
        "--hurst", type=float, nargs="+", metavar="H",
        default=[0.6, 0.7, 0.8, 0.9],
        help="true Hurst parameters of the generated paths",
    )
    bakeoff.add_argument(
        "--horizons", type=int, nargs="+", metavar="N",
        default=[1 << 12, 1 << 14],
        help="path lengths in samples",
    )
    bakeoff.add_argument(
        "--backends", nargs="+",
        choices=("all",) + registry.names(),
        default=["davies_harte"],
        help="generation backends ('all' = every registered backend)",
    )
    bakeoff.add_argument(
        "--estimators", nargs="+",
        choices=tuple(HURST_ESTIMATORS),
        default=None,
        help="estimators to enter (default: all)",
    )
    bakeoff.add_argument(
        "--replications", type=int, default=8,
        help="paths per (backend, hurst, horizon) cell",
    )
    bakeoff.add_argument("--seed", type=int, default=None)
    bakeoff.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format (pooled table or full JSON matrix)",
    )
    bakeoff.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the run's metric snapshot as JSON lines",
    )
    return parser


def _cmd_synthesize(args: argparse.Namespace) -> int:
    if args.mode == "intraframe":
        config = SyntheticCodecConfig.intraframe_paper_like(
            num_frames=args.frames
        )
    else:
        config = SyntheticCodecConfig.paper_like(num_frames=args.frames)
    trace = SyntheticMPEGCodec(config).generate(random_state=args.seed)
    save_trace(trace, args.output)
    print(f"wrote {trace.num_frames} frames to {args.output}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace, frame_rate=args.frame_rate)
    params = trace_parameters(trace, coder="(from file)")
    print("trace parameters:")
    for label, value in params.rows().items():
        print(f"  {label}: {value}")
    summary = trace.summary()
    print("\nframe-size statistics (bytes):")
    for key, value in summary.as_dict().items():
        print(f"  {key}: {value:.1f}" if isinstance(value, float)
              else f"  {key}: {value}")
    print(f"  mean rate: {trace.mean_rate_bps / 1e3:.0f} kbit/s")

    print("\nHurst estimates:")
    print(f"  variance-time: "
          f"{variance_time_estimate(trace.sizes).hurst:.3f}")
    print(f"  R/S:           {rs_estimate(trace.sizes).hurst:.3f}")
    print(f"  Whittle:       {whittle_estimate(trace.sizes).hurst:.3f}")
    print(f"  MAVAR:         {mavar_estimate(trace.sizes).hurst:.3f}")
    if trace.gop is not None:
        print(f"\nGOP pattern: {trace.gop.pattern_string}")
        for frame_type, s in trace.type_summaries().items():
            print(f"  {frame_type}: n={s.count}, mean={s.mean:.0f}")
    return 0


def _metrics_context(args: argparse.Namespace) -> RunContext:
    """A live context when ``--metrics-out`` was given, else the null one."""
    if getattr(args, "metrics_out", None):
        return RunContext()
    return NULL_CONTEXT


def _write_metrics(
    ctx: RunContext, args: argparse.Namespace, **extra
) -> None:
    """Export ``ctx``'s snapshot to ``--metrics-out`` as JSON lines."""
    if not getattr(args, "metrics_out", None):
        return
    header = {
        "command": args.command,
        "trace": getattr(args, "trace", None),
        "seed": args.seed,
        "coefficient_cache": dict(
            coefficient_cache_info()._asdict()
        ),
        "spectral_cache": dict(
            spectral_cache_info()._asdict()
        ),
        **extra,
    }
    with open(args.metrics_out, "w") as fh:
        fh.write(to_json_lines(ctx.snapshot(), header=header))
    print(f"wrote metrics to {args.metrics_out}")


def _cmd_fit(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace, frame_rate=args.frame_rate)
    ctx = _metrics_context(args)
    model = UnifiedVBRModel(
        max_lag=args.max_lag,
        background_method=args.background,
        metrics=ctx.scoped(phase="fit"),
    ).fit(trace, random_state=args.seed)
    print(fit_report(model))
    if args.generate:
        if not args.output:
            print("error: --generate requires --output", file=sys.stderr)
            return 2
        synthetic = model.generate(
            args.generate,
            backend=args.backend,
            chunk_frames=args.chunk_frames,
            processes=args.processes,
            random_state=args.seed,
        )
        save_trace(
            VideoTrace(
                sizes=synthetic,
                frame_rate=trace.frame_rate,
                name=f"{trace.name}-synthetic",
            ),
            args.output,
        )
        print(f"\nwrote {args.generate} synthetic frames to "
              f"{args.output}")
    _write_metrics(ctx, args, max_lag=args.max_lag)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace, frame_rate=args.frame_rate)
    ctx = _metrics_context(args)

    model = UnifiedVBRModel(
        max_lag=args.max_lag, metrics=ctx.scoped(phase="fit")
    ).fit(trace, random_state=args.seed)
    print(f"fitted: {model!r}")

    # Extra child streams are spawned ONLY for the modes that consume
    # them (aggregate mode, chunked panel): spawn_rngs(seed, k) yields
    # the same first children for any k, so the historical streams stay
    # bit for bit whatever new panels ride along.
    extra = 1 if args.chunk_frames else 0
    if args.num_sources > 1:
        spawned = spawn_rngs(args.seed, 4 + extra)
        rng_search, rng_curve, rng_agg, rng_feed = spawned[:4]
        aggregate = AggregateVBRModel(
            model, args.num_sources, random_state=rng_agg
        )
        transform = aggregate.arrival_transform()
        correlation = aggregate.background_correlation
        print(f"aggregate: {aggregate!r}")
    else:
        spawned = spawn_rngs(args.seed, 2 + extra)
        rng_search, rng_curve = spawned[:2]
        transform = model.arrival_transform()
        correlation = model.background_correlation
    rng_chunk = spawned[-1] if extra else None

    mu = service_rate_for_utilization(1.0, args.utilization)
    search_buffer = (
        float(args.search_buffer) if args.search_buffer is not None
        else float(args.buffers[0])
    )

    search = search_twisted_mean(
        correlation,
        transform,
        service_rate=mu,
        buffer_size=search_buffer,
        horizon=max(int(args.horizon_factor * search_buffer), 1),
        twist_values=args.twists,
        replications=args.replications,
        random_state=rng_search,
        workers=args.workers,
        backend=args.backend,
        block_size=args.block_size,
        shared_paths=args.shared_paths,
        metrics=ctx.scoped(phase="search"),
    )
    mode = "shared-path sweep" if args.shared_paths else "twist scan"
    print(
        f"\n{mode} at b={search_buffer:g}, "
        f"rho={args.utilization:g}, N={args.replications}:"
    )
    print(
        "m*".rjust(8) + "log10 P".rjust(12) + "norm var".rjust(12)
        + "hits".rjust(8) + "ESS".rjust(10)
    )
    for m_star, estimate in zip(search.twist_values, search.estimates):
        log_p = estimate.log10_probability
        nv = estimate.normalized_variance
        print(
            f"{m_star:>8g}"
            + (f"{log_p:>12.2f}" if np.isfinite(log_p) else f"{'-inf':>12}")
            + (f"{nv:>12.3g}" if np.isfinite(nv) else f"{'inf':>12}")
            + f"{estimate.hits:>8d}"
            + f"{estimate.ess:>10.1f}"
        )
    best = search.best_twist
    print(f"favorable twist: m* = {best:g} "
          f"(variance reduction vs m*=0: "
          f"{search.variance_reduction_vs(0):.3g}x)")

    curve = overflow_vs_buffer_curve(
        correlation,
        transform,
        utilization=args.utilization,
        buffer_sizes=args.buffers,
        replications=args.replications,
        twisted_mean=best,
        horizon_factor=args.horizon_factor,
        random_state=rng_curve,
        workers=args.workers,
        backend=args.backend,
        block_size=args.block_size,
        metrics=ctx.scoped(phase="curve"),
    )
    print(f"\noverflow sweep at m*={best:g}:")
    print(
        "buffer b".rjust(10) + "log10 P".rjust(12) + "rel err".rjust(10)
        + "hits".rjust(8) + "ESS".rjust(10)
    )
    for b, estimate in zip(curve.buffer_sizes, curve.estimates):
        log_p = estimate.log10_probability
        re = estimate.relative_error
        print(
            f"{b:>10g}"
            + (f"{log_p:>12.2f}" if np.isfinite(log_p) else f"{'-inf':>12}")
            + (f"{re:>10.2f}" if np.isfinite(re) else f"{'inf':>10}")
            + f"{estimate.hits:>8d}"
            + f"{estimate.ess:>10.1f}"
        )
    if args.num_sources > 1:
        _print_capacity_panel(model, args, ctx, rng_feed)
    if args.chunk_frames:
        _print_chunked_panel(model, args, ctx, rng_chunk)
    _write_metrics(
        ctx,
        args,
        utilization=args.utilization,
        best_twist=best,
        search_buffer=search_buffer,
        replications=args.replications,
    )
    return 0


def _print_capacity_panel(
    model: UnifiedVBRModel, args: argparse.Namespace, ctx, rng_feed
) -> None:
    """Sharded-engine feed plus the Norros capacity-planning numbers."""
    n = args.num_sources
    engine = ShardedAggregateModel.from_unified(
        model, n, metrics=ctx.scoped(phase="aggregate")
    )
    horizon = max(int(args.horizon_factor * max(args.buffers)), 64)
    feed = engine.generate(
        horizon,
        shards=args.shards,
        processes=args.processes,
        random_state=rng_feed,
    )
    print(
        f"\naggregate engine feed: N={feed.num_sources}, "
        f"horizon={feed.horizon}, shards={feed.shards}, "
        f"processes={feed.processes}, "
        f"mean/slot={feed.arrivals.mean():.4g} "
        f"(population mean {feed.mean_rate:.4g})"
    )
    pop = engine.population
    buffer_norm = float(args.buffers[0])
    epsilon = 1e-6
    counts = sorted({1, max(n // 10, 1), n})
    curve = effective_bandwidth_vs_n(
        pop, counts, buffer_size=buffer_norm, epsilon=epsilon, metrics=ctx
    )
    print(
        f"effective bandwidth vs N (b={buffer_norm:g} x mean, "
        f"eps={epsilon:g}):"
    )
    print("N".rjust(10) + "capacity".rjust(14) + "per source".rjust(14)
          + "util".rjust(8))
    for count, cap, per, util in zip(
        curve.n_values, curve.bandwidths, curve.per_source,
        curve.utilizations,
    ):
        print(f"{count:>10d}{cap:>14.4g}{per:>14.4g}{util:>8.3f}")
    capacity = float(curve.bandwidths[-1])
    admitted = admissible_sources(
        pop,
        capacity=capacity,
        buffer_size=buffer_norm,
        epsilon=epsilon,
        n_max=max(4 * n, 16),
        metrics=ctx,
    )
    loss = bufferless_loss_gaussian(
        mean_rate=pop.mean_rate,
        std=float(np.sqrt(pop.slot_variance)),
        capacity=capacity,
    )
    print(f"admissible sources at c={capacity:.4g}: {admitted}")
    print(f"bufferless Gaussian loss at that capacity: {loss:.3g}")


def _print_chunked_panel(
    model: UnifiedVBRModel, args: argparse.Namespace, ctx, rng_chunk
) -> None:
    """Chunked-pipeline engine report over the sweep horizon."""
    chunked_ctx = ctx.scoped(phase="chunked")
    source = registry.resolve(
        args.backend,
        model.background_correlation,
        chunked=True,
        metrics=chunked_ctx,
    )
    horizon = max(
        int(args.horizon_factor * max(args.buffers)), args.chunk_frames
    )
    generator = ChunkedGenerator(
        source,
        chunk_frames=args.chunk_frames,
        processes=args.processes,
        metrics=chunked_ctx,
    )
    generator.generate(horizon, random_state=rng_chunk)
    report = generator.last_report
    print(
        f"\nchunked generation ({source.name}): "
        f"horizon={report.horizon}, "
        f"{report.num_chunks} x {report.chunk_frames}-frame chunks, "
        f"mode={report.mode}, window={report.window}, "
        f"processes={report.processes}"
    )
    print(
        f"  generate {report.generate_seconds:.3f}s, "
        f"stitch {report.stitch_seconds:.3f}s, "
        f"occupancy {report.occupancy:.2f}, "
        f"peak chunk {report.peak_chunk_bytes} bytes"
    )


def _cmd_overflow(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace, frame_rate=args.frame_rate)
    arrivals = trace.normalized_sizes()
    header = "buffer b".ljust(10) + "".join(
        f"util {u:g}".rjust(12) for u in args.utilization
    )
    print(header)
    columns = []
    for utilization in args.utilization:
        mu = service_rate_for_utilization(1.0, utilization)
        estimates = steady_state_overflow_from_trace(
            arrivals, mu, args.buffers
        )
        columns.append(estimates)
    for i, b in enumerate(args.buffers):
        row = f"{b:<10g}"
        for column in columns:
            log_p = column[i].log10_probability
            row += (
                f"{log_p:>12.2f}" if np.isfinite(log_p) else
                f"{'-inf':>12}"
            )
        print(row)
    print("(values are log10 P(Q > b); -inf = no overflow in the trace)")
    return 0


def _cmd_bakeoff(args: argparse.Namespace) -> int:
    import json

    ctx = _metrics_context(args)
    result = run_bakeoff(
        hursts=args.hurst,
        horizons=args.horizons,
        backends=args.backends,
        estimators=args.estimators,
        replications=args.replications,
        random_state=args.seed,
        metrics=ctx,
    )
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2))
    else:
        grid = (
            f"H in {{{', '.join(f'{h:g}' for h in result.hursts)}}}, "
            f"horizons {{{', '.join(str(n) for n in result.horizons)}}}, "
            f"backends {{{', '.join(result.backends)}}}, "
            f"{result.replications} paired paths/cell"
        )
        print(f"bake-off: {grid}")
        print(result.table())
        print(f"winner (pooled RMSE): {result.winner('rmse')}")
    _write_metrics(
        ctx,
        args,
        replications=args.replications,
        winner=result.winner("rmse"),
    )
    return 0


_COMMANDS = {
    "synthesize": _cmd_synthesize,
    "analyze": _cmd_analyze,
    "fit": _cmd_fit,
    "simulate": _cmd_simulate,
    "overflow": _cmd_overflow,
    "bakeoff": _cmd_bakeoff,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
