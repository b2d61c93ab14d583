"""String-keyed backend registry for :class:`~repro.processes.source.GaussianSource`.

Every generation backend in the library is registered here under a
stable name with its capability flags, so consumers (the §3.2/§3.3
models, the Appendix B importance-sampling estimators, the Figs. 14-17
runners, and the CLI) select backends by string instead of hard-coding
a generator function:

>>> from repro.processes import registry
>>> spec = registry.get("davies_harte")
>>> source = spec.create(FGNCorrelation(0.8))          # doctest: +SKIP
>>> registry.names()
('davies_harte', 'farima', 'fgn', 'hosking', 'mg_infinity', 'rmd')

The ``auto`` policy
-------------------
``resolve("auto", ...)`` picks ``davies_harte`` — exact and
O(n log n), so neither Fig. 8-13 style synthesis nor the whole-path
importance-sampling legs of Appendix B pay Hosking's O(n^2).

Capability validation happens at *construction*: requesting
chunk-stitched generation from a backend that cannot provide it raises
:class:`~repro.exceptions.ValidationError` immediately, never mid-run.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Dict, Tuple, Union

from ..exceptions import ValidationError
from ..observability import current_context
from .source import (
    DaviesHarteSource,
    FARIMASource,
    FGNSource,
    GaussianSource,
    HoskingSource,
    MGInfinitySource,
    RMDSource,
    SourceCapabilities,
)

__all__ = [
    "BackendSpec",
    "register",
    "get",
    "names",
    "create",
    "resolve",
]

#: What consumers may pass wherever a backend is accepted: a registry
#: name (or ``"auto"``) or an already-constructed source instance.
BackendArg = Union[str, GaussianSource]


@dataclass(frozen=True)
class BackendSpec:
    """One registered backend: its factory plus capability flags.

    Attributes
    ----------
    name:
        Registry key.
    factory:
        ``factory(correlation, **options) -> GaussianSource``.
    capabilities:
        The backend's :class:`~repro.processes.source.SourceCapabilities`.
    summary:
        One-line description (shown in docs/CLI help).
    """

    name: str
    factory: Callable[..., GaussianSource]
    capabilities: SourceCapabilities
    summary: str

    @property
    def exact(self) -> bool:
        return self.capabilities.exact

    @property
    def conditional(self) -> bool:
        return self.capabilities.conditional

    @property
    def batch(self) -> bool:
        return self.capabilities.batch

    @property
    def chunked(self) -> bool:
        return self.capabilities.chunked

    def create(self, correlation, **options) -> GaussianSource:
        """Construct a source for ``correlation`` (model, acvf, or Hurst).

        ``options`` are checked against the factory's signature first,
        so an option the backend does not take raises a
        :class:`~repro.exceptions.ValidationError` naming the backend
        and the options it does take.
        """
        signature = inspect.signature(self.factory)
        try:
            signature.bind(correlation, **options)
        except TypeError as exc:
            accepted = ", ".join(list(signature.parameters)[1:])
            raise ValidationError(
                f"backend {self.name!r}: {exc}; it accepts "
                f"{accepted or 'no options'}"
            ) from None
        return self.factory(correlation, **options)


_REGISTRY: Dict[str, BackendSpec] = {}


def _normalize(name: str) -> str:
    """Canonicalize a backend name (``"davies-harte"`` == ``"davies_harte"``)."""
    if not isinstance(name, str):
        raise ValidationError(
            f"backend must be a string or GaussianSource, got "
            f"{type(name).__name__}"
        )
    return name.strip().lower().replace("-", "_")


def register(spec: BackendSpec) -> BackendSpec:
    """Register a backend spec (last registration wins for a name)."""
    if not isinstance(spec, BackendSpec):
        raise ValidationError(
            f"spec must be a BackendSpec, got {type(spec).__name__}"
        )
    _REGISTRY[_normalize(spec.name)] = spec
    return spec


def names() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def get(name: str) -> BackendSpec:
    """Look up a backend spec by name."""
    key = _normalize(name)
    try:
        return _REGISTRY[key]
    except KeyError:
        available = ", ".join(repr(n) for n in names())
        raise ValidationError(
            f"backend must be one of 'auto', {available}, got {name!r}"
        ) from None


def create(name: str, correlation, **options) -> GaussianSource:
    """Shorthand for ``get(name).create(correlation, **options)``."""
    return get(name).create(correlation, **options)


def resolve(
    backend: BackendArg,
    correlation,
    *,
    chunked: bool = False,
    **options,
) -> GaussianSource:
    """Resolve a backend argument to a constructed :class:`GaussianSource`.

    Parameters
    ----------
    backend:
        ``"auto"``, a registered backend name, or an already-built
        :class:`~repro.processes.source.GaussianSource` (returned as-is
        after capability validation).
    correlation:
        Correlation model, explicit autocovariance, or Hurst exponent
        handed to the backend factory (ignored when ``backend`` is
        already a source instance).
    chunked:
        Require chunk-stitched generation (the ``chunk_frames=``
        pipeline of :mod:`repro.processes.chunked`).  Validated here,
        at construction: a backend without the capability raises
        :class:`~repro.exceptions.ValidationError` before any
        simulation work starts.
    options:
        Extra keyword arguments for the backend factory (e.g.
        ``on_negative_eigenvalues=`` for ``davies_harte``).

    The current run context (see :func:`repro.observability.recording`)
    records ``registry.resolutions`` counters labelled by resolved
    backend name and, for ``"auto"``, the ``registry.auto_policy``
    decision.
    """
    ctx = current_context()
    if isinstance(backend, GaussianSource):
        if chunked and not backend.capabilities.chunked:
            raise ValidationError(_chunked_error(backend.name))
        ctx.inc(
            "registry.resolutions", backend=backend.name, kind="instance"
        )
        return backend
    key = _normalize(backend)
    if key == "auto":
        key = "davies_harte"
        ctx.inc("registry.auto_policy", chosen=key)
    spec = get(key)
    # Capability check BEFORE the factory runs: an incapable backend
    # must fail with this error, not with whatever the factory makes of
    # options it does not understand.
    if chunked and not spec.chunked:
        raise ValidationError(_chunked_error(spec.name))
    ctx.inc("registry.resolutions", backend=spec.name, kind="name")
    return spec.create(correlation, **options)


def _chunked_error(name: str) -> str:
    supported = ", ".join(repr(n) for n in names() if get(n).chunked)
    return (
        f"backend {name!r} does not support chunk-stitched generation "
        f"(chunk_frames= requires it); choose one of {supported}"
    )


# ---------------------------------------------------------------------
# Built-in backends
# ---------------------------------------------------------------------

register(BackendSpec(
    name="hosking",
    factory=HoskingSource,
    capabilities=HoskingSource.capabilities,
    summary=(
        "exact O(n^2) conditional-Gaussian recursion (paper eq. 1-6); "
        "the exact fallback for a non-embeddable correlation"
    ),
))
register(BackendSpec(
    name="davies_harte",
    factory=DaviesHarteSource,
    capabilities=DaviesHarteSource.capabilities,
    summary=(
        "exact O(n log n) circulant embedding with shared spectral "
        "cache and real-FFT synthesis; the auto default for every "
        "fixed-length path"
    ),
))
register(BackendSpec(
    name="fgn",
    factory=FGNSource,
    capabilities=FGNSource.capabilities,
    summary="exact fractional Gaussian noise keyed by Hurst exponent",
))
register(BackendSpec(
    name="farima",
    factory=FARIMASource,
    capabilities=FARIMASource.capabilities,
    summary="exact FARIMA(0, d, 0) with d = H - 1/2",
))
register(BackendSpec(
    name="rmd",
    factory=RMDSource,
    capabilities=RMDSource.capabilities,
    summary="O(n) random midpoint displacement (approximate fGn)",
))
register(BackendSpec(
    name="mg_infinity",
    factory=MGInfinitySource,
    capabilities=MGInfinitySource.capabilities,
    summary=(
        "standardized M/G/infinity session counts "
        "(asymptotically LRD, approximate)"
    ),
))
