"""Run-scoped metric recording contexts.

A :class:`RunContext` is the handle instrumented code records through.
It pairs a :class:`~repro.observability.metrics.MetricsRegistry` with a
set of *scope labels* that are stamped onto every metric recorded
through it, and it nests:

- :meth:`scoped` adds labels while sharing the parent's registry —
  used for step blocks inside one leg (run → leg → step block);
- :meth:`child` adds labels *and* gives the child its own registry —
  used for pool tasks, whose registries the pool engine folds back in
  with :meth:`merge_children` in submission order, so the merged result
  is bit-for-bit independent of worker scheduling.

The current context is ambient: :func:`recording` binds one for a
block (in a :class:`contextvars.ContextVar`, so each thread and each
copied context sees its own binding), and library code reads it once
per call with :func:`current_context`.  Outside every ``recording``
block the current context is the shared :data:`NULL_CONTEXT` — a
:class:`NullRunContext` whose recording methods are empty one-liners
and whose ``scoped``/``child`` return itself.  Disabled instrumentation
therefore costs one context-variable read and a no-op call per site,
keeps no state, and never touches a random stream.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from ..exceptions import ValidationError
from .metrics import (
    Histogram,
    MetricsRegistry,
    Summary,
    Timer,
    _label_value,
)

__all__ = [
    "RunContext",
    "NullRunContext",
    "NULL_CONTEXT",
    "current_context",
    "ensure_context",
    "recording",
]


class RunContext:
    """A metrics recording handle with nested label scopes.

    Parameters
    ----------
    registry:
        The backing registry; a fresh one is created when omitted.
    scope:
        Label mapping stamped onto every metric recorded through this
        context (call-site labels override scope labels on key
        collisions).
    """

    #: False only on :class:`NullRunContext`; hot loops may branch on it
    #: to skip *preparing* bulk data (the record calls themselves are
    #: already no-op-cheap when disabled).
    enabled = True

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        *,
        scope: Optional[Dict[str, object]] = None,
    ) -> None:
        self._registry = registry if registry is not None else MetricsRegistry()
        self._scope: Dict[str, str] = {
            str(k): _label_value(v) for k, v in (scope or {}).items()
        }

    # -- structure -------------------------------------------------------

    @property
    def registry(self) -> MetricsRegistry:
        """The backing registry."""
        return self._registry

    @property
    def scope(self) -> Dict[str, str]:
        """This context's scope labels (a copy)."""
        return dict(self._scope)

    def _merged(self, labels: Dict[str, object]) -> Dict[str, object]:
        if not labels:
            return self._scope
        merged: Dict[str, object] = dict(self._scope)
        merged.update(labels)
        return merged

    def scoped(self, **labels) -> "RunContext":
        """A nested scope sharing this registry (run → leg → step block)."""
        return RunContext(self._registry, scope=self._merged(labels))

    def child(self, **labels) -> "RunContext":
        """An isolated child context with its own registry.

        The pool engine binds one per task and folds it back with
        :meth:`merge_children` in submission order.
        """
        return RunContext(MetricsRegistry(), scope=self._merged(labels))

    def merge_children(self, children: Iterable["RunContext"]) -> None:
        """Merge child registries into this one, in the given order.

        Iterate children in submission order (not completion order) and
        the merged registry is deterministic at any worker count.
        """
        for child in children:
            if child is None or not child.enabled:
                continue
            if not isinstance(child, RunContext):
                raise ValidationError(
                    f"children must be RunContext instances, got "
                    f"{type(child).__name__}"
                )
            if child.registry is not self._registry:
                self._registry.merge_from(child.registry)

    # -- recording -------------------------------------------------------

    def inc(self, name: str, amount: float = 1.0, **labels) -> None:
        """Increment counter ``name`` by ``amount``."""
        self._registry.counter(name, self._merged(labels)).inc(amount)

    def set(self, name: str, value: float, **labels) -> None:
        """Set gauge ``name`` to ``value``."""
        self._registry.gauge(name, self._merged(labels)).set(value)

    def observe(self, name: str, value: float, **labels) -> None:
        """Record ``value`` into summary ``name``."""
        self._registry.summary(name, self._merged(labels)).observe(value)

    def observe_many(
        self, name: str, values: Iterable[float], **labels
    ) -> None:
        """Bulk-record ``values`` into summary ``name``."""
        self._registry.summary(
            name, self._merged(labels)
        ).observe_many(values)

    def time(self, name: str, **labels):
        """Context manager timing its block into timer ``name``."""
        return self._registry.timer(name, self._merged(labels)).time()

    def timer(self, name: str, **labels) -> Timer:
        """The underlying :class:`Timer` (for direct ``observe`` calls)."""
        return self._registry.timer(name, self._merged(labels))

    def histogram(
        self, name: str, buckets: Sequence[float], **labels
    ) -> Histogram:
        """The :class:`Histogram` handle for bulk ``add_counts`` calls."""
        return self._registry.histogram(
            name, buckets, self._merged(labels)
        )

    def summary(self, name: str, **labels) -> Summary:
        """The underlying :class:`Summary` handle."""
        return self._registry.summary(name, self._merged(labels))

    # -- export ----------------------------------------------------------

    def snapshot(self) -> List[Dict[str, object]]:
        """Snapshot of the backing registry (see ``MetricsRegistry``)."""
        return self._registry.snapshot()

    def __repr__(self) -> str:
        return f"RunContext(scope={self._scope!r}, registry={self._registry!r})"


class _NullTimerHandle:
    """``with``-compatible no-op returned by the null context's timers."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimerHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class _NullRecorder:
    """No-op stand-in for Summary/Timer/Histogram handles."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass

    def add_counts(self, counts, *, total: float = 0.0, count=None) -> None:
        pass

    def time(self) -> _NullTimerHandle:
        return _NULL_TIMER

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass


_NULL_TIMER = _NullTimerHandle()
_NULL_RECORDER = _NullRecorder()


class NullRunContext(RunContext):
    """The disabled context: every operation is an empty method.

    Shared as the :data:`NULL_CONTEXT` singleton; ``scoped``/``child``
    return ``self`` so nesting allocates nothing.
    """

    enabled = False

    def __init__(self) -> None:
        self._registry = None  # type: ignore[assignment]
        self._scope = {}

    @property
    def registry(self):  # type: ignore[override]
        return None

    def scoped(self, **labels) -> "NullRunContext":
        return self

    def child(self, **labels) -> "NullRunContext":
        return self

    def merge_children(self, children) -> None:
        pass

    def inc(self, name, amount=1.0, **labels) -> None:
        pass

    def set(self, name, value, **labels) -> None:
        pass

    def observe(self, name, value, **labels) -> None:
        pass

    def observe_many(self, name, values, **labels) -> None:
        pass

    def time(self, name, **labels) -> _NullTimerHandle:
        return _NULL_TIMER

    def timer(self, name, **labels) -> _NullRecorder:
        return _NULL_RECORDER

    def histogram(self, name, buckets, **labels) -> _NullRecorder:
        return _NULL_RECORDER

    def summary(self, name, **labels) -> _NullRecorder:
        return _NULL_RECORDER

    def snapshot(self) -> List[Dict[str, object]]:
        return []

    def __repr__(self) -> str:
        return "NullRunContext()"


#: The process-wide disabled context: the current context outside every
#: :func:`recording` block.
NULL_CONTEXT = NullRunContext()

_CURRENT: ContextVar[RunContext] = ContextVar(
    "repro_run_context", default=NULL_CONTEXT
)


def ensure_context(ctx) -> RunContext:
    """Normalize a context argument to a :class:`RunContext`.

    ``None`` maps to the shared :data:`NULL_CONTEXT`; a
    :class:`RunContext` passes through; a bare
    :class:`~repro.observability.metrics.MetricsRegistry` is wrapped.
    """
    if ctx is None:
        return NULL_CONTEXT
    if isinstance(ctx, RunContext):
        return ctx
    if isinstance(ctx, MetricsRegistry):
        return RunContext(ctx)
    raise ValidationError(
        "metrics must be None, a RunContext, or a MetricsRegistry, got "
        f"{type(ctx).__name__}"
    )


def current_context() -> RunContext:
    """The context bound by the innermost :func:`recording` block.

    :data:`NULL_CONTEXT` when none is bound.  Instrumented code reads
    it once per call and records through the returned handle.
    """
    return _CURRENT.get()


@contextmanager
def recording(ctx) -> Iterator[RunContext]:
    """Bind ``ctx`` as the current context for the ``with`` block.

    ``ctx`` is a :class:`RunContext` or a bare
    :class:`~repro.observability.metrics.MetricsRegistry` (wrapped in a
    scope-less context); ``None`` binds nothing, so the enclosing
    binding stays current.  The previous binding is restored on exit,
    also when the block raises.  Yields the current context.
    """
    if ctx is None:
        yield _CURRENT.get()
        return
    ctx = ensure_context(ctx)
    token = _CURRENT.set(ctx)
    try:
        yield ctx
    finally:
        _CURRENT.reset(token)
