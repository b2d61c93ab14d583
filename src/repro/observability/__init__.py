"""Run-metrics observability for the simulation pipeline.

A lightweight, standard-library-only metrics subsystem: labelled
counters, gauges, timers, summaries and histograms in a thread-safe
:class:`MetricsRegistry`; a :class:`RunContext` that nests scopes
(run → leg → step block) and deterministically merges the registries of
parallel workers; and sinks for in-memory snapshots, JSON-lines export,
and Prometheus-style text rendering.

A run is recorded by binding a context with :func:`recording`; every
instrumented call site reads the current one with
:func:`current_context`.  Outside a ``recording`` block that is the
no-op :data:`NULL_CONTEXT` — disabled instrumentation costs a no-op
method call per site, holds no state, and never touches a random
stream, which keeps un-instrumented runs bit-identical to
pre-observability output.  Pool tasks record into per-task children
that the pool engine merges in submission order.

Quickstart::

    from repro.observability import RunContext, recording
    from repro.simulation import search_twisted_mean

    with recording(RunContext()) as ctx:
        result = search_twisted_mean(...)
    for entry in ctx.snapshot():
        print(entry["name"], entry.get("value"))

See ``docs/observability.md`` for the metric-name catalogue and label
conventions.
"""

from .context import (
    NULL_CONTEXT,
    NullRunContext,
    RunContext,
    current_context,
    ensure_context,
    recording,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    Summary,
    Timer,
    canonical_labels,
)
from .sinks import (
    InMemorySink,
    JsonLinesSink,
    NullSink,
    PrometheusTextSink,
    render_prometheus,
    to_json_lines,
)

__all__ = [
    "Counter",
    "Gauge",
    "Summary",
    "Timer",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "canonical_labels",
    "RunContext",
    "NullRunContext",
    "NULL_CONTEXT",
    "current_context",
    "ensure_context",
    "recording",
    "InMemorySink",
    "JsonLinesSink",
    "PrometheusTextSink",
    "NullSink",
    "to_json_lines",
    "render_prometheus",
]
