"""The unified ``GaussianSource`` protocol over the generator zoo.

The paper needs Gaussian background paths in three distinct regimes —
unconditional synthesis for Figs. 8-13, whole twisted paths for the
importance-sampling estimators of Appendix B (eq. 42-48), and the
GOP-phase composite arrivals of §3.3 — yet the repository grew six
generators (``hosking``, ``davies_harte``, ``fgn``, ``farima``,
``rmd``, ``mg_infinity``) as unrelated functions.  This module wraps
them behind one small interface so every consumer can swap backends:

- :class:`GaussianSource` — the protocol: ``sample(n, size=...)`` for
  fixed-length paths, ``acvf(n)`` for the autocovariance the source
  actually targets, an :attr:`~GaussianSource.exact` flag, and
  :meth:`~GaussianSource.describe` provenance metadata.
- :class:`SourceCapabilities` — the per-backend capability flags
  (exact vs approximate, exact conditional recursion, supports-batch,
  chunk stitching), validated *at construction* by consumers that need
  them.
- Six adapters, one per existing generator.  The correlation-driven
  backends (:class:`HoskingSource`, :class:`DaviesHarteSource`) accept
  any correlation model or explicit autocovariance; the
  parameter-driven backends (:class:`FGNSource`, :class:`FARIMASource`,
  :class:`RMDSource`, :class:`MGInfinitySource`) accept a Hurst
  exponent directly or extract it from a correlation model — they
  match the *Hurst exponent* of an arbitrary model, not its full ACF,
  and their :meth:`~GaussianSource.acvf` reports the law they actually
  sample so conformance checks stay self-consistent.

String-keyed construction and the ``auto`` selection policy live in
:mod:`repro.processes.registry`.
"""

from __future__ import annotations

import abc
from typing import ClassVar, Dict, NamedTuple, Optional, Sequence, Union

import numpy as np

from .._validation import check_choice, check_finite_float, check_hurst
from ..exceptions import ValidationError
from ..stats.random import RandomState, make_rng, spawn_rngs
from .acvf_cache import resolve_acvf
from .correlation import CorrelationModel, FGNCorrelation, FARIMACorrelation
from .davies_harte import davies_harte_generate
from .farima import farima_generate
from .hosking import hosking_generate
from .mg_infinity import MGInfinityConfig, mg_infinity_generate
from .rmd import rmd_generate

__all__ = [
    "SourceCapabilities",
    "GaussianSource",
    "HoskingSource",
    "DaviesHarteSource",
    "FGNSource",
    "FARIMASource",
    "RMDSource",
    "MGInfinitySource",
]

CorrelationLike = Union[CorrelationModel, Sequence[float]]


class SourceCapabilities(NamedTuple):
    """Capability flags of one generation backend.

    Attributes
    ----------
    exact:
        The sampled law matches :meth:`GaussianSource.acvf` exactly
        (up to floating point), not just asymptotically.
    conditional:
        The backend exposes the exact conditional recursion: its paths
        are built step by step from the exact conditional
        distributions (Hosking), so the chunked pipeline can
        stitch chunks with the exact bridge.
    batch:
        ``sample(n, size=k)`` is natively vectorised across
        replications (a single shared pass); backends without the flag
        still honor ``size`` by looping per replication.
    chunked:
        The source can drive the chunked pipeline of
        :mod:`repro.processes.chunked`: its sampled law is an exact
        Gaussian law fully described by :meth:`GaussianSource.acvf`,
        so per-chunk draws stitched through conditional-Gaussian
        bridges reproduce (exactly or within the documented window
        contract) the law of a single long pass.  Backends whose
        output is only asymptotically Gaussian (``rmd``,
        ``mg_infinity``) cannot be chunk-stitched this way.
    """

    exact: bool
    conditional: bool
    batch: bool
    chunked: bool = False


class GaussianSource(abc.ABC):
    """A swappable source of correlated Gaussian background paths.

    Implementations wrap one generation algorithm and advertise what it
    can do through :attr:`capabilities`.  Consumers pick a source by
    name through :mod:`repro.processes.registry` (or construct adapters
    directly) and then only ever talk to this interface.
    """

    #: Registry key of the backend (provenance; set per subclass).
    name: ClassVar[str] = "abstract"
    #: Capability flags (set per subclass).
    capabilities: ClassVar[SourceCapabilities] = SourceCapabilities(
        exact=False, conditional=False, batch=False
    )

    @property
    def exact(self) -> bool:
        """Whether the sampled law matches :meth:`acvf` exactly."""
        return self.capabilities.exact

    @abc.abstractmethod
    def sample(
        self,
        n: int,
        *,
        size: Optional[int] = None,
        mean: float = 0.0,
        random_state: RandomState = None,
    ) -> np.ndarray:
        """Generate fixed-length sample paths.

        Returns shape ``(n,)`` when ``size is None``, else ``(size, n)``.
        """

    @abc.abstractmethod
    def acvf(self, n: int) -> np.ndarray:
        """Autocovariance ``r(0) .. r(n-1)`` of the law this source targets."""

    def describe(self) -> Dict[str, object]:
        """Provenance metadata: backend name, capability flags, parameters."""
        info: Dict[str, object] = {
            "backend": self.name,
            "exact": self.capabilities.exact,
            "conditional": self.capabilities.conditional,
            "batch": self.capabilities.batch,
            "chunked": self.capabilities.chunked,
        }
        info.update(self._params())
        return info

    def _params(self) -> Dict[str, object]:
        """Backend-specific parameters for :meth:`describe`."""
        return {}

    def __repr__(self) -> str:
        params = ", ".join(
            f"{k}={v!r}" for k, v in self._params().items()
        )
        return f"{type(self).__name__}({params})"


def _hurst_from(
    correlation: Union[float, CorrelationLike], backend: str
) -> float:
    """Extract a Hurst exponent for the parameter-driven backends.

    Accepts a plain Hurst value or a correlation model exposing a
    ``hurst`` property; explicit autocovariance sequences carry no
    Hurst exponent and are rejected with a pointer to the
    correlation-driven backends.
    """
    if isinstance(correlation, CorrelationModel):
        hurst = correlation.hurst
        if hurst is None:
            raise ValidationError(
                f"backend {backend!r} needs a Hurst exponent but "
                f"{correlation!r} does not define one; use the "
                "'hosking' or 'davies_harte' backend for arbitrary "
                "correlation models"
            )
        return check_hurst(hurst)
    if isinstance(correlation, (int, float, np.integer, np.floating)):
        return check_hurst(float(correlation))
    raise ValidationError(
        f"backend {backend!r} requires a Hurst exponent or a "
        "correlation model with a defined Hurst exponent, got "
        f"{type(correlation).__name__}; explicit autocovariance "
        "sequences are only supported by the 'hosking' and "
        "'davies_harte' backends"
    )


class HoskingSource(GaussianSource):
    """Hosking's exact conditional-Gaussian generator (paper eq. 1-6).

    Exact for any positive-definite autocovariance and O(n^2) per path:
    the exact fallback when a correlation's circulant embedding has a
    negative eigenvalue and Davies-Harte cannot draw it exactly.
    """

    name = "hosking"
    capabilities = SourceCapabilities(
        exact=True, conditional=True, batch=True, chunked=True
    )

    def __init__(self, correlation: CorrelationLike) -> None:
        self._correlation = correlation

    def sample(self, n, *, size=None, mean=0.0, random_state=None):
        return hosking_generate(
            self._correlation,
            n,
            size=size,
            mean=mean,
            random_state=random_state,
        )

    def acvf(self, n: int) -> np.ndarray:
        return resolve_acvf(self._correlation, n)

    def _params(self) -> Dict[str, object]:
        return {"correlation": self._correlation}


class DaviesHarteSource(GaussianSource):
    """Circulant-embedding generation, exact and O(n log n).

    The fast path for fixed-length synthesis (the Figs. 8-13 regime and
    the importance-sampling legs); the ``auto`` registry policy routes
    every request here.
    """

    name = "davies_harte"
    capabilities = SourceCapabilities(
        exact=True, conditional=False, batch=True, chunked=True
    )

    def __init__(
        self,
        correlation: CorrelationLike,
        *,
        on_negative_eigenvalues: str = "clip",
    ) -> None:
        # Validate at construction (registry contract: bad options fail
        # before any simulation work starts).
        check_choice(
            on_negative_eigenvalues,
            "on_negative_eigenvalues",
            ("clip", "raise"),
        )
        self._correlation = correlation
        self._on_negative = on_negative_eigenvalues

    def sample(self, n, *, size=None, mean=0.0, random_state=None):
        return davies_harte_generate(
            self._correlation,
            n,
            size=size,
            mean=mean,
            random_state=random_state,
            on_negative_eigenvalues=self._on_negative,
        )

    def acvf(self, n: int) -> np.ndarray:
        return resolve_acvf(self._correlation, n)

    def _params(self) -> Dict[str, object]:
        return {
            "correlation": self._correlation,
            "on_negative_eigenvalues": self._on_negative,
        }


class FGNSource(GaussianSource):
    """Exact fractional Gaussian noise keyed by Hurst exponent alone.

    Matches an arbitrary correlation model only through its Hurst
    exponent (the sampled law is exact fGn); use the correlation-driven
    backends when the full SRD+LRD structure matters.
    """

    name = "fgn"
    capabilities = SourceCapabilities(
        exact=True, conditional=False, batch=True, chunked=True
    )

    def __init__(self, correlation: Union[float, CorrelationLike]) -> None:
        self._hurst = _hurst_from(correlation, self.name)
        self._model = FGNCorrelation(self._hurst)

    def sample(self, n, *, size=None, mean=0.0, random_state=None):
        return davies_harte_generate(
            self._model,
            n,
            size=size,
            mean=mean,
            random_state=random_state,
            on_negative_eigenvalues="raise",
        )

    def acvf(self, n: int) -> np.ndarray:
        return self._model.acvf(n)

    def _params(self) -> Dict[str, object]:
        return {"hurst": self._hurst}


class FARIMASource(GaussianSource):
    """Exact FARIMA(0, d, 0) with ``d = H - 1/2`` (requires ``H > 1/2``)."""

    name = "farima"
    capabilities = SourceCapabilities(
        exact=True, conditional=False, batch=True, chunked=True
    )

    def __init__(self, correlation: Union[float, CorrelationLike]) -> None:
        self._hurst = _hurst_from(correlation, self.name)
        self._model = FARIMACorrelation.from_hurst(self._hurst)

    @property
    def d(self) -> float:
        """The fractional differencing parameter."""
        return self._model.d

    def sample(self, n, *, size=None, mean=0.0, random_state=None):
        mean = check_finite_float(mean, "mean")
        out = farima_generate(
            n,
            self._model.d,
            size=size,
            random_state=random_state,
        )
        return out + mean if mean else out

    def acvf(self, n: int) -> np.ndarray:
        return self._model.acvf(n)

    def _params(self) -> Dict[str, object]:
        return {"hurst": self._hurst, "d": self._model.d}


class RMDSource(GaussianSource):
    """Random midpoint displacement — O(n) but approximate.

    The increments are not exactly stationary and deviate from true
    fGn at short lags; :meth:`acvf` reports the fGn target the method
    approximates.  Kept for speed comparisons and as the historical
    baseline.
    """

    name = "rmd"
    capabilities = SourceCapabilities(
        exact=False, conditional=False, batch=True
    )

    def __init__(self, correlation: Union[float, CorrelationLike]) -> None:
        self._hurst = _hurst_from(correlation, self.name)
        self._model = FGNCorrelation(self._hurst)

    def sample(self, n, *, size=None, mean=0.0, random_state=None):
        mean = check_finite_float(mean, "mean")
        out = rmd_generate(
            self._hurst, n, size=size, random_state=random_state
        )
        return out + mean if mean else out

    def acvf(self, n: int) -> np.ndarray:
        return self._model.acvf(n)

    def _params(self) -> Dict[str, object]:
        return {"hurst": self._hurst}


class MGInfinitySource(GaussianSource):
    """Standardized M/G/infinity session counts (asymptotically LRD).

    Cox's construction: Poisson session arrivals with Pareto durations
    of tail index ``alpha = 3 - 2H``.  The stationary count marginal is
    Poisson(``lambda E[D]``), which this adapter standardizes to zero
    mean and unit variance so it can stand in for a Gaussian background
    (it is only asymptotically Gaussian as the mean session count
    grows).  :meth:`acvf` evaluates the continuous-Pareto covariance
    ``r(k) = E[(D - k)^+] / E[D]`` — approximate for the integer-ceil
    durations actually simulated, hence ``exact=False``.
    """

    name = "mg_infinity"
    capabilities = SourceCapabilities(
        exact=False, conditional=False, batch=False
    )

    def __init__(
        self,
        correlation: Union[float, CorrelationLike, MGInfinityConfig],
        *,
        session_rate: float = 20.0,
    ) -> None:
        if isinstance(correlation, MGInfinityConfig):
            self._config = correlation
        else:
            hurst = _hurst_from(correlation, self.name)
            if not 0.5 < hurst < 1.0:
                raise ValidationError(
                    f"backend 'mg_infinity' requires 1/2 < hurst < 1 "
                    f"(alpha = 3 - 2H in (1, 2)), got {hurst}"
                )
            self._config = MGInfinityConfig(
                session_rate=session_rate,
                duration_alpha=3.0 - 2.0 * hurst,
            )

    @property
    def config(self) -> MGInfinityConfig:
        """The underlying M/G/infinity configuration."""
        return self._config

    def sample(self, n, *, size=None, mean=0.0, random_state=None):
        mean = check_finite_float(mean, "mean")
        scale = np.sqrt(self._config.mean_active)
        if size is None:
            counts = mg_infinity_generate(
                self._config, n, random_state=make_rng(random_state)
            )
            return (counts - self._config.mean_active) / scale + mean
        out = np.empty((size, n), dtype=float)
        # One spawned child per replication so replication i is
        # reproducible regardless of the batch size.
        for row, rng in enumerate(spawn_rngs(random_state, size)):
            counts = mg_infinity_generate(
                self._config, n, random_state=rng
            )
            out[row] = (counts - self._config.mean_active) / scale
        return out + mean if mean else out

    def acvf(self, n: int) -> np.ndarray:
        cfg = self._config
        k = np.arange(n, dtype=float)
        alpha, dm = cfg.duration_alpha, cfg.duration_min
        mean_d = cfg.mean_duration
        # E[(D - k)^+] for continuous Pareto(alpha, dm):
        #   k <  dm: (dm - k) + dm / (alpha - 1)
        #   k >= dm: dm^alpha * k^(1 - alpha) / (alpha - 1)
        below = k < dm
        excess = np.where(
            below,
            (dm - k) + dm / (alpha - 1.0),
            dm**alpha * np.maximum(k, dm) ** (1.0 - alpha) / (alpha - 1.0),
        )
        return excess / mean_d

    def _params(self) -> Dict[str, object]:
        return {
            "session_rate": self._config.session_rate,
            "duration_alpha": self._config.duration_alpha,
            "hurst": self._config.hurst,
        }
