"""Span recording for the benchmark's traced pass.

The program has no tracing of its own yet, so the traced pass records
spans from outside: :func:`instrument` wraps the public entry points of
each ``repro`` layer with a recorder while it is active and restores
the originals afterwards.  Class methods are patched on the class;
module functions are patched at their *use sites*, because callers bind
them by name at import time (``queueing/overflow.py`` holds its own
reference to ``lindley_recursion``, for example).

A span holds a name, start, end, its parent span and the trace id of
the run it belongs to.  Spans stay in memory; :func:`write_chrome_trace`
writes them as Chrome trace-event JSON (stdlib ``json`` only) when the
benchmark ends.  A span's *self time* is its duration minus the part of
it that its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Name of the span that covers one whole traced run; its self time is
#: the time no layer accounts for.
ROOT = "harness.run"

#: Name of the span around the parent's blocking pool calls.
POOL_WAIT = "simulation.pool_wait"

#: (owner, attribute, span name, index of the argument whose size is
#: recorded as the span's sample count, or None).  An owner is a module
#: path, or ``module:Class`` for a method patched on its class.
LAYER_PATCHES: Tuple[Tuple[str, str, str, Optional[int]], ...] = (
    ("repro.marginals.transform:MarginalTransform", "__call__",
     "marginals.transform", 1),
    ("repro.marginals.empirical:EmpiricalDistribution", "__init__",
     "marginals.fit", None),
    ("repro.processes.source:DaviesHarteSource", "sample",
     "processes.synth", None),
    ("repro.processes.chunked", "davies_harte_generate",
     "processes.synth", None),
    ("repro.core.calibration", "davies_harte_generate",
     "processes.synth", None),
    ("repro.video.synthetic", "davies_harte_generate",
     "processes.synth", None),
    ("repro.processes.hosking:HoskingProcess", "step",
     "processes.hosking_step", None),
    ("repro.processes.chunked:ChunkedGenerator", "generate",
     "processes.chunked", None),
    ("repro.core.unified:UnifiedVBRModel", "fit", "core.fit", None),
    ("repro.core.composite:CompositeMPEGModel", "fit", "core.fit", None),
    ("repro.core.unified", "measure_attenuation_pilot",
     "core.attenuation", None),
    ("repro.core.unified", "measure_attenuation_analytic",
     "core.attenuation", None),
    ("repro.core.aggregate:ShardedAggregateModel", "generate",
     "core.aggregate", None),
    ("repro.core.unified", "variance_time_estimate",
     "estimators.hurst", None),
    ("repro.core.unified", "rs_estimate", "estimators.hurst", None),
    ("repro.estimators", "variance_time_estimate",
     "estimators.hurst", None),
    ("repro.estimators", "rs_estimate", "estimators.hurst", None),
    ("repro.core.unified", "sample_acf", "estimators.acf", None),
    ("repro.core.unified", "fit_composite_acf", "estimators.acf", None),
    ("repro.core.calibration", "sample_acf", "estimators.acf", None),
    ("repro.queueing.overflow", "lindley_recursion",
     "queueing.lindley", 0),
    ("repro.queueing.multiplexer", "lindley_recursion",
     "queueing.lindley", 0),
    ("repro.queueing.multiplexer", "finite_lindley_recursion",
     "queueing.lindley", 0),
    ("repro.queueing.multiplexer:AtmMultiplexer", "simulate",
     "queueing.mux", None),
    ("repro.simulation.runner", "is_overflow_probability",
     "simulation.is_leg", None),
    ("repro.video.synthetic:SyntheticMPEGCodec", "generate",
     "video.codec", None),
)

#: The parent's blocking calls into the pool engine.  Patched only in
#: the pooled pass: in the serial attribution pass they run in-line and
#: their children carry the work.
POOL_PATCHES: Tuple[Tuple[str, str, str, Optional[int]], ...] = (
    ("repro.simulation.parallel", "run_tasks", POOL_WAIT, None),
    ("repro.simulation.parallel", "reduce_tasks", POOL_WAIT, None),
)

#: Every span name a layer patch can produce, in report order.
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(name for _, _, name, _ in LAYER_PATCHES)
)


@dataclass(frozen=True)
class Span:
    """One recorded call: ``[start, end)`` in ``perf_counter`` seconds."""

    span_id: int
    parent_id: int
    trace_id: str
    name: str
    start: float
    end: float
    tid: int
    samples: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Thread-safe in-memory span store with per-thread parent stacks.

    Spans opened on a thread with no open span (pool threads) take the
    current run's root span as their parent.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._root_id = 0
        self._trace_id = ""

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, samples: int, fn, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else self._root_id
        span_id = self._new_id()
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(span_id, parent, self._trace_id, name, start, end,
                        threading.get_ident(), samples)
            with self._lock:
                self.spans.append(span)

    @contextmanager
    def run(self, trace_id: str) -> Iterator[None]:
        """Open the root span of one traced run under ``trace_id``."""
        self._trace_id = trace_id
        root_id = self._new_id()
        self._root_id = root_id
        stack = self._stack()
        stack.append(root_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._root_id = 0
            with self._lock:
                self.spans.append(Span(root_id, 0, trace_id, ROOT, start,
                                       end, threading.get_ident(), 0))

    def of_trace(self, trace_id: str) -> List[Span]:
        with self._lock:
            return [s for s in self.spans if s.trace_id == trace_id]


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _wrapper(recorder: SpanRecorder, name: str, fn, sized: Optional[int]):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        samples = int(np.size(args[sized])) if sized is not None else 0
        return recorder.call(name, samples, fn, args, kwargs)

    return traced


@contextmanager
def instrument(
    recorder: SpanRecorder,
    patches: Sequence[Tuple[str, str, str, Optional[int]]],
) -> Iterator[None]:
    """Install span wrappers for ``patches``; restore the originals on exit."""
    saved = []
    try:
        for path, attribute, name, sized in patches:
            owner = _owner(path)
            original = owner.__dict__[attribute] if isinstance(owner, type) \
                else getattr(owner, attribute)
            saved.append((owner, attribute, original))
            setattr(owner, attribute,
                    _wrapper(recorder, name, original, sized))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``[start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time per span id: duration minus the union its children cover."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        children[span.parent_id].append(span)
    return {
        span.span_id: span.duration - _covered(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children[span.span_id]
        )
        for span in spans
    }


@dataclass(frozen=True)
class LayerTable:
    """Per-layer self time, call counts and sample counts of one run."""

    wall: float
    unaccounted: float
    seconds: Dict[str, float]
    calls: Dict[str, int]
    samples: Dict[str, int]


def layer_table(spans: Sequence[Span]) -> LayerTable:
    """Fold one run's spans (exactly one root) into per-layer totals."""
    own = self_times(spans)
    seconds: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    samples: Dict[str, int] = defaultdict(int)
    root = None
    for span in spans:
        if span.name == ROOT:
            root = span
            continue
        seconds[span.name] += own[span.span_id]
        calls[span.name] += 1
        samples[span.name] += span.samples
    if root is None:
        raise ValueError("run has no root span")
    return LayerTable(root.duration, own[root.span_id], dict(seconds),
                      dict(calls), dict(samples))


def write_chrome_trace(spans: Sequence[Span], path: str) -> None:
    """Write ``spans`` as Chrome trace-event JSON (complete events)."""
    origin = min((s.start for s in spans), default=0.0)
    pid = os.getpid()
    events = [
        {
            "name": span.name,
            "cat": span.name.split(".")[0],
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "pid": pid,
            "tid": span.tid,
            "args": {
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "trace_id": span.trace_id,
                "samples": span.samples,
            },
        }
        for span in sorted(spans, key=lambda s: s.start)
    ]
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
