"""Scene-chunked generation with conditional Gaussian-bridge stitching.

The §3 recipes (Hosking, Davies-Harte) are single-pass: one call
materializes the whole horizon, so trace length is capped by the
working set of one FFT (Davies-Harte) or one coefficient table
(Hosking).  The multi-hour MPEG sequences the §4 queueing experiments
imply at scale need horizons of 10^8-10^9 frames, which only fit if
generation is *chunked*: split the horizon into scene-aligned chunks,
generate chunks as independently schedulable jobs (the architecture of
scene-chunked encoders), and stitch them so the dependence structure
survives the chunk boundaries.

Three pieces live here:

- :func:`plan_chunks` — a planner that splits a horizon into chunks
  whose edges land on an alignment grid (the GOP period ``K_I`` of
  :class:`~repro.video.gop.GopStructure`) or on explicit scene
  boundaries (:func:`~repro.video.scenes.detect_scene_changes`),
  covering the horizon exactly once while respecting a minimum-chunk
  floor.
- :class:`ChunkedGenerator` — the pipeline: per-chunk raw generation
  jobs (dispatched through :func:`~repro.simulation.parallel.run_tasks`
  in-line or on a thread pool) followed by a sequential stitch pass in
  chunk order.
- :func:`stitched_covariance` — the *exactly computed* covariance the
  bridge-stitched process actually has, used to state and test the
  approximation contract.

Two stitch modes
----------------
The source's capabilities pick the mode: a conditional source
(Hosking) gets the exact stitch, every other chunkable source the
bridge stitch.

**Exact mode** (conditional sources): every chunk is conditioned on its
*entire* boundary history.  Chunk ``c`` draws its innovations from its
own spawned stream, and one run of Hosking's recursion (eq. 1-6,
:func:`~repro.processes.hosking.hosking_generate` with
``innovations=``) maps the concatenated draws to the path, so the
output is bit-identical to a direct Hosking run on those draws and the
joint law over the whole horizon is exact.  Like ``hosking_generate``
it reads the cached coefficient table up to the cache cap and runs the
recursion in step above it (O(n) memory); the recursion is sequential,
so ``processes=`` does not apply to this mode.

**Bridge mode** (spectral sources, the scale path): chunk ``c``'s raw
job draws ``w + L`` samples of the target law via circulant embedding
(O(L log L), O(L) memory, reusing the shared spectral cache), where
``w`` is the *stitch window*.  The stitch then replaces the raw window with the
actual boundary history through the exact conditional-Gaussian bridge

.. math::

    x_c = y[w:] + A (h - y[:w]), \\qquad A = \\Sigma_{21}\\Sigma_{11}^{-1},

so conditional on the window values ``h`` the chunk has *exactly* the
conditional law ``N(A h, \\Sigma_{22} - A \\Sigma_{12})`` — the same
partitioned-Gaussian formulas as
:func:`~repro.processes.forecast.conditional_forecast` (``A h`` equals
its conditional mean for the same history).  The approximation is the
conditional-independence statement ``chunk ⟂ older history | window``:
the joint law of a chunk with its ``w`` predecessor samples is exact,
while dependence on samples older than the window is mediated through
the window.  :func:`stitched_covariance` computes the induced
covariance exactly so the deviation can be bounded per
(Hurst, chunk, window) geometry; the tested contract lives in
``tests/test_chunked.py`` and DESIGN.md §5g.

Seeding contract (pool-size invariance)
---------------------------------------
Chunk ``c`` draws from the ``c``-th child of
``spawn_rngs(random_state, num_chunks)``, spawned *before* any job
runs, and chunks are always stitched in chunk order.  ``processes=``
(or ``REPRO_WORKERS``) only selects how many jobs run concurrently —
it never moves a chunk boundary, reseeds a stream, or reorders the
stitch — so for a fixed seed the output is **bit-identical at any
pool size** (and whether jobs run in-line or on threads).
``chunk_frames``, the alignment, and the stitch window,
by contrast, are part of the law: changing any of them changes which
stream a sample draws from (same distribution — exactly, for exact
mode — different bits).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import cho_factor, cho_solve

from .._validation import check_finite_float, check_positive_int
from ..exceptions import CorrelationError, ValidationError
from ..observability import current_context
from ..stats.random import RandomState, spawn_rngs
from .coeff_table import resolve_acvf
from .davies_harte import davies_harte_generate
from .hosking import hosking_generate
from .source import GaussianSource

__all__ = [
    "Chunk",
    "ChunkPlan",
    "ChunkReport",
    "plan_chunks",
    "bridge_matrix",
    "ChunkedGenerator",
    "stitched_covariance",
    "DEFAULT_STITCH_WINDOW",
]

def _parallel():
    """The pool engine, imported lazily.

    ``repro.simulation`` pulls in the runner stack (which itself
    consumes ``repro.processes``), so a module-level import here would
    be circular; by the time a generator runs, both packages are fully
    initialized.
    """
    from ..simulation import parallel

    return parallel


#: Default boundary-history window of the bridge stitch, in frames.
#: Large enough that the window carries essentially all of the
#: dependence an LRD background has on its recent past (see the §5g
#: contract table); small enough that the stitch's row-block GEMMs and
#: the one-off ``(w, w)`` Cholesky stay negligible next to the chunk FFTs.
DEFAULT_STITCH_WINDOW = 256

#: Bytes of the chunk-window cross covariance the bridge stitch copies
#: out of the ACVF at a time (2,048 rows at the default window).  The
#: stitch never forms the ``(chunk, window)`` matrix; 2,048-row blocks
#: multiply as fast as 8,192-row ones.
_STITCH_BLOCK_BYTES = 4 * 2**20


# ---------------------------------------------------------------------
# Chunk planning
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class Chunk:
    """One planned chunk: the half-open frame range ``[start, stop)``."""

    index: int
    start: int
    stop: int

    @property
    def length(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class ChunkPlan:
    """A partition of ``[0, horizon)`` into aligned chunks.

    Attributes
    ----------
    horizon:
        Total number of frames planned.
    chunks:
        The chunks, in order; they cover the horizon exactly once.
    chunk_frames:
        The requested nominal chunk size.
    alignment:
        Grid every interior edge lands on (1 = unconstrained) when no
        explicit boundaries were given.
    min_chunk:
        The enforced minimum chunk length (the final chunk may only be
        shorter when the horizon itself is).
    """

    horizon: int
    chunks: Tuple[Chunk, ...]
    chunk_frames: int
    alignment: int
    min_chunk: int

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)

    @property
    def edges(self) -> np.ndarray:
        """All edges ``0 = e_0 < e_1 < ... < e_k = horizon``."""
        return np.asarray(
            [0] + [chunk.stop for chunk in self.chunks], dtype=int
        )

    def __iter__(self):
        return iter(self.chunks)


def plan_chunks(
    horizon: int,
    chunk_frames: int,
    *,
    alignment: int = 1,
    boundaries: Optional[Sequence[int]] = None,
    min_chunk: Optional[int] = None,
) -> ChunkPlan:
    """Split ``horizon`` frames into scene/GOP-aligned chunks.

    Parameters
    ----------
    horizon:
        Total number of frames to plan.
    chunk_frames:
        Nominal chunk length; every interior edge is placed as close to
        a multiple of it as the alignment allows.
    alignment:
        Interior edges land on multiples of this grid — pass the GOP
        period ``K_I`` so every chunk starts on an I frame.  Ignored
        when ``boundaries`` is given.
    boundaries:
        Explicit candidate edge positions (e.g. scene cuts from
        :func:`~repro.video.scenes.detect_scene_changes`).  Interior
        edges are then chosen from this set only: each edge is the
        boundary closest to the nominal target that keeps both
        neighbouring chunks at or above ``min_chunk``.  When no such
        boundary exists the current chunk simply extends (scene lengths
        bound chunk lengths from below, never from above).
    min_chunk:
        Minimum chunk length (default ``max(alignment, 1)``).  Every
        chunk respects it, except that a horizon shorter than
        ``min_chunk`` yields a single short chunk.

    Returns
    -------
    ChunkPlan
        Chunks covering ``[0, horizon)`` exactly once, in order.
    """
    horizon = check_positive_int(horizon, "horizon")
    chunk_frames = check_positive_int(chunk_frames, "chunk_frames")
    alignment = check_positive_int(alignment, "alignment")
    if min_chunk is None:
        min_chunk = max(alignment, 1)
    min_chunk = check_positive_int(min_chunk, "min_chunk")
    if chunk_frames < min_chunk:
        raise ValidationError(
            f"chunk_frames ({chunk_frames}) must be >= min_chunk "
            f"({min_chunk})"
        )

    allowed: Optional[np.ndarray] = None
    if boundaries is not None:
        allowed = np.unique(np.asarray(boundaries, dtype=int))
        allowed = allowed[(allowed > 0) & (allowed < horizon)]

    edges = [0]
    cursor = 0
    while horizon - cursor > chunk_frames:
        target = cursor + chunk_frames
        if allowed is not None:
            # Scene mode: the admissible boundaries leave both sides of
            # the cut at least min_chunk long.
            lo, hi = cursor + min_chunk, horizon - min_chunk
            candidates = allowed[(allowed >= lo) & (allowed <= hi)]
            candidates = candidates[candidates > cursor]
            if candidates.size == 0:
                break
            edge = int(candidates[np.argmin(np.abs(candidates - target))])
            if edge <= cursor:
                break
            # A scene longer than chunk_frames extends the chunk; never
            # loop in place.
        else:
            edge = int(round(target / alignment)) * alignment
            lo = cursor + min_chunk
            if edge < lo:
                # Round up to the first aligned edge that respects the
                # floor.
                edge = int(-(-lo // alignment)) * alignment
            if horizon - edge < min_chunk or edge >= horizon:
                break
        edges.append(edge)
        cursor = edge
    edges.append(horizon)

    chunks = tuple(
        Chunk(index=i, start=edges[i], stop=edges[i + 1])
        for i in range(len(edges) - 1)
    )
    return ChunkPlan(
        horizon=horizon,
        chunks=chunks,
        chunk_frames=chunk_frames,
        alignment=alignment,
        min_chunk=min_chunk,
    )


# ---------------------------------------------------------------------
# Bridge stitch machinery
# ---------------------------------------------------------------------


def _toeplitz(acvf: np.ndarray, n: int) -> np.ndarray:
    """Dense covariance ``Sigma[i, j] = r(|i - j|)`` over ``n`` samples."""
    lags = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return acvf[lags]


def _window_factor(acvf: np.ndarray, window: int):
    """Cholesky factor of the ``(window, window)`` history covariance."""
    try:
        return cho_factor(_toeplitz(acvf, window))
    except np.linalg.LinAlgError as exc:
        raise CorrelationError(
            "stitch-window covariance is not positive definite"
        ) from exc


def bridge_matrix(
    acvf: Union[np.ndarray, Sequence[float]],
    window: int,
    length: int,
) -> np.ndarray:
    """Conditional-mean map ``A = Sigma_21 Sigma_11^{-1}`` of a chunk.

    ``A`` maps the ``window`` boundary-history samples to the
    conditional mean of the next ``length`` samples — the same
    partitioned-Gaussian formula as
    :func:`~repro.processes.forecast.conditional_forecast` (for any
    history ``h``, ``A @ h`` equals that function's forecast mean).
    This is the dense reference for :func:`stitched_covariance` and
    the tests; :class:`ChunkedGenerator` applies the same map without
    forming it.

    Parameters
    ----------
    acvf:
        Autocovariance ``r(0) .. r(window + length - 1)`` (longer is
        fine).
    window, length:
        The boundary-history and chunk lengths.

    Raises
    ------
    CorrelationError
        If the window covariance is not positive definite.
    """
    window = check_positive_int(window, "window")
    length = check_positive_int(length, "length")
    acvf = np.asarray(acvf, dtype=float)
    total = window + length
    if acvf.size < total:
        raise ValidationError(
            f"need {total} autocovariances for a ({window}, {length}) "
            f"bridge, got {acvf.size}"
        )
    # Only the (window, window) block and the cross block of the joint
    # Toeplitz matrix are needed; the full (total, total) matrix would
    # be O((w + L)^2) memory — tens of GB at production chunk sizes.
    # Row i of Sigma_12 is acvf[window - i : window - i + length], a
    # sliding window over the ACVF, so a strided view stands in for the
    # (window, length) block without materializing it.
    windows = sliding_window_view(acvf[:total], length)
    sigma_12 = windows[1 : window + 1][::-1]
    return cho_solve(_window_factor(acvf, window), sigma_12).T


def _add_corrections(
    x: np.ndarray,
    acvf: np.ndarray,
    window: int,
    chunks: Sequence[Chunk],
    raws: Sequence[np.ndarray],
    solved: np.ndarray,
) -> None:
    """Write ``x_c = y_c[w:] + Sigma_21 e_c`` for each chunk ``c``.

    ``solved`` holds ``e_c = Sigma_11^{-1} d_c`` as columns, one per
    chunk, so ``Sigma_21 e_c = A d_c`` is the bridge correction.  Row
    ``i`` of ``Sigma_21`` is ``r(i + w), ..., r(i + 1)``: the ACVF's
    ``(i + 1)``-th sliding window reversed.  Blocks of those windows
    are copied ``_STITCH_BLOCK_BYTES`` at a time and multiplied by the
    row-reversed solves, one GEMM per block for all chunks.
    """
    windows = sliding_window_view(acvf, window)
    reversed_solved = np.ascontiguousarray(solved[::-1])
    rows = max(_STITCH_BLOCK_BYTES // (window * acvf.itemsize), 1)
    longest = max(chunk.length for chunk in chunks)
    for first in range(0, longest, rows):
        last = min(first + rows, longest)
        block = np.array(windows[first + 1 : last + 1]) @ reversed_solved
        for j, (chunk, raw) in enumerate(zip(chunks, raws)):
            stop = min(last, chunk.length)
            if stop > first:
                x[chunk.start + first : chunk.start + stop] = (
                    raw[window + first : window + stop]
                    + block[: stop - first, j]
                )


def _bridge_chunk_job(payload) -> np.ndarray:
    """One raw bridge-mode chunk: ``window + length`` samples of the law.

    The circulant embedding reuses the shared spectral cache; cached
    and uncached draws are bit-identical, so a warm or cold cache
    produces the same chunk.
    """
    acvf, total, rng = payload
    return davies_harte_generate(
        acvf, int(total), random_state=rng, on_negative_eigenvalues="clip"
    )


@dataclass(frozen=True)
class ChunkReport:
    """Summary of one chunked generation run.

    Attributes
    ----------
    horizon, chunk_frames, window:
        The run geometry (``window`` is 0 in exact mode: conditioning
        is on the full history, not a window).
    num_chunks:
        Chunks generated.
    mode:
        ``"exact"`` or ``"bridge"``.
    processes:
        Pool size the chunk jobs ran on.
    generate_seconds:
        Total wall seconds spent inside chunk jobs.
    stitch_seconds:
        Total wall seconds spent in the sequential stitch pass.
    occupancy:
        Average busy workers (job seconds over pipeline wall seconds).
    peak_chunk_bytes:
        Largest per-chunk raw buffer, in bytes — the pipeline's
        working-set unit.
    """

    horizon: int
    chunk_frames: int
    window: int
    num_chunks: int
    mode: str
    processes: int
    generate_seconds: float
    stitch_seconds: float
    occupancy: float
    peak_chunk_bytes: int


class ChunkedGenerator:
    """Chunk-parallel generation of one long correlated Gaussian path.

    Parameters
    ----------
    source:
        A :class:`~repro.processes.source.GaussianSource` whose
        capabilities advertise ``chunked`` (an exact Gaussian law fully
        described by its ACVF).  Conditional sources (Hosking) get the
        exact stitch; the rest the bridge stitch.
    chunk_frames:
        Nominal chunk length (part of the law; see the module
        docstring's seeding contract).
    alignment, boundaries, min_chunk:
        Forwarded to :func:`plan_chunks` — pass the GOP period or scene
        cuts so chunk edges land on scene structure.
    stitch_window:
        Boundary-history window of the bridge stitch (ignored in exact
        mode).
    processes:
        Bridge-job thread-pool size; ``None`` defers to
        ``REPRO_WORKERS`` (default 1 = in-line).  Bridge jobs share the
        spectral cache, and their FFTs release the GIL.  The exact
        stitch is one sequential recursion and runs in-line.  Never
        changes output bits.

    :meth:`generate` records the ``chunked.*`` series into the current
    run context (see docs/observability.md).
    """

    def __init__(
        self,
        source: GaussianSource,
        *,
        chunk_frames: int,
        alignment: int = 1,
        boundaries: Optional[Sequence[int]] = None,
        min_chunk: Optional[int] = None,
        stitch_window: int = DEFAULT_STITCH_WINDOW,
        processes: Optional[int] = None,
    ) -> None:
        if not isinstance(source, GaussianSource):
            raise ValidationError(
                "source must be a GaussianSource, got "
                f"{type(source).__name__}"
            )
        if not source.capabilities.chunked:
            raise ValidationError(
                f"backend {source.name!r} does not support chunked "
                "generation (its sampled law is not an exact Gaussian "
                "law described by its ACVF); choose a backend whose "
                "capabilities include 'chunked'"
            )
        self.source = source
        self.chunk_frames = check_positive_int(chunk_frames, "chunk_frames")
        self.alignment = check_positive_int(alignment, "alignment")
        self.boundaries = boundaries
        self.min_chunk = min_chunk
        self.stitch_window = check_positive_int(
            stitch_window, "stitch_window"
        )
        self.stitch = (
            "exact" if source.capabilities.conditional else "bridge"
        )
        # Validate eagerly (registry contract: bad options fail before
        # any simulation work), but remember whether the caller gave an
        # explicit count so generate() can re-read the environment.
        _parallel().resolve_workers(processes, "processes")
        self._processes = processes
        self.last_report: Optional[ChunkReport] = None

    def plan(self, n: int) -> ChunkPlan:
        """The chunk plan :meth:`generate` would use for ``n`` frames."""
        return plan_chunks(
            n,
            self.chunk_frames,
            alignment=self.alignment,
            boundaries=self.boundaries,
            min_chunk=self.min_chunk,
        )

    # -- bridge mode ---------------------------------------------------

    def _generate_bridge(
        self, plan: ChunkPlan, rngs, count: int
    ) -> Tuple[np.ndarray, float, int]:
        window = self.stitch_window
        max_total = max(
            min(window, chunk.start) + chunk.length for chunk in plan
        )
        # One O(window + chunk) ACVF prefix serves every job payload
        # and every stitch matrix; nothing here scales with the horizon.
        acvf = self.source.acvf(max_total + 1)
        payloads = []
        for chunk, rng in zip(plan, rngs):
            w = min(window, chunk.start)
            total = w + chunk.length
            payloads.append((acvf[: total + 1], total, rng))
        raws = _parallel().run_tasks(
            _bridge_chunk_job, payloads, workers=count, prefix="chunked"
        )
        peak_bytes = max(raw.nbytes for raw in raws)
        x = np.empty(plan.horizon, dtype=float)
        stitch_start = time.perf_counter()
        if self._uniform_stitch_ok(plan):
            self._stitch_uniform(plan, raws, acvf, x)
        else:
            self._stitch_sequential(plan, raws, acvf, x)
        stitch_seconds = time.perf_counter() - stitch_start
        return x, stitch_seconds, peak_bytes

    def _uniform_stitch_ok(self, plan: ChunkPlan) -> bool:
        """Whether the batched stitch applies: every history-providing
        chunk covers a full window, so all stitches share one ``A``.

        Depends only on the plan geometry — never on the pool size —
        so the path choice keeps the bit-identical-at-any-pool-size
        contract.
        """
        if plan.num_chunks < 2:
            return False
        return all(
            chunk.length >= self.stitch_window
            for chunk in plan.chunks[:-1]
        )

    def _stitch_sequential(
        self, plan: ChunkPlan, raws, acvf: np.ndarray, x: np.ndarray
    ) -> None:
        """Reference stitch: one conditional-mean correction per chunk."""
        window = self.stitch_window
        factors: Dict[int, Tuple] = {}
        for chunk, raw in zip(plan, raws):
            w = min(window, chunk.start)
            if w == 0:
                x[chunk.start : chunk.stop] = raw
                continue
            if w not in factors:
                factors[w] = _window_factor(acvf, w)
            history = x[chunk.start - w : chunk.start]
            solved = cho_solve(factors[w], history - raw[:w])
            _add_corrections(x, acvf, w, [chunk], [raw], solved[:, None])

    def _stitch_uniform(
        self, plan: ChunkPlan, raws, acvf: np.ndarray, x: np.ndarray
    ) -> None:
        """Batched stitch for uniform-window plans.

        The correction of chunk ``c`` is ``A d_c`` with
        ``d_c = h_c - y_c[:w]``, and since ``h_c`` is the previous
        chunk's raw tail plus *its* correction tail, the discrepancies
        obey the w-dimensional linear recurrence

            ``d_{c+1} = (y_c[-w:] - y_{c+1}[:w]) + A[L_c-w:L_c] d_c``.

        Row ``i`` of ``A`` depends only on ``(w, i)`` (it maps the
        window to the conditional mean at offset ``i``), so the
        recurrence needs one ``(w, w)`` tail of ``A`` per distinct
        chunk length, each from one small solve.  All corrections are
        then ``Sigma_21 Sigma_11^{-1} [d_1 .. d_k]``: one solve for every
        discrepancy at once and blocked GEMMs against the ACVF's
        sliding windows (:func:`_add_corrections`), so neither ``A``
        nor the full correction matrix is ever formed and the serial
        stitch stays a small fraction of the pooled chunk jobs.
        """
        w = self.stitch_window
        chunks = plan.chunks[1:]
        factor = _window_factor(acvf, w)
        windows = sliding_window_view(acvf, w)
        tails: Dict[int, np.ndarray] = {}
        d = np.empty((w, len(chunks)), dtype=float)
        d[:, 0] = raws[0][-w:] - raws[1][:w]
        for j in range(1, len(chunks)):
            length = chunks[j - 1].length
            if length not in tails:
                # Rows L - w .. L - 1 of Sigma_21, then of A.
                cross = windows[length - w + 1 : length + 1, ::-1]
                tails[length] = cho_solve(factor, cross.T).T
            d[:, j] = (
                (raws[j][-w:] - raws[j + 1][:w]) + tails[length] @ d[:, j - 1]
            )
        x[: plan.chunks[0].stop] = raws[0]
        _add_corrections(x, acvf, w, chunks, raws[1:], cho_solve(factor, d))

    # -- exact mode ----------------------------------------------------

    def _generate_exact(
        self, plan: ChunkPlan, rngs
    ) -> Tuple[np.ndarray, float, int]:
        z = np.concatenate([
            rng.standard_normal(chunk.length)
            for chunk, rng in zip(plan, rngs)
        ])
        peak_bytes = max(chunk.length for chunk in plan) * z.itemsize
        stitch_start = time.perf_counter()
        x = hosking_generate(
            self.source.acvf(plan.horizon), plan.horizon, innovations=z
        )
        return x, time.perf_counter() - stitch_start, peak_bytes

    # -- entry point ---------------------------------------------------

    def generate(
        self,
        n: int,
        *,
        mean: float = 0.0,
        random_state: RandomState = None,
    ) -> np.ndarray:
        """Generate ``n`` frames through the chunked pipeline."""
        n = check_positive_int(n, "n")
        mean = check_finite_float(mean, "mean")
        plan = self.plan(n)
        ctx = current_context()
        rngs = spawn_rngs(random_state, plan.num_chunks)
        pipeline_start = time.perf_counter()
        if self.stitch == "bridge":
            count = _parallel().resolve_workers(self._processes, "processes")
            x, stitch_seconds, peak_bytes = self._generate_bridge(
                plan, rngs, count
            )
        else:
            count = 1
            x, stitch_seconds, peak_bytes = self._generate_exact(plan, rngs)
        wall = time.perf_counter() - pipeline_start

        pool_size = min(count, plan.num_chunks)
        occupancy = 0.0
        if ctx.enabled:
            # run_tasks already computed busy-workers occupancy for the
            # chunk jobs; surface it on the report for metrics-free
            # consumers (the CLI panel).
            for entry in ctx.snapshot():
                if entry.get("name") == "chunked.occupancy":
                    occupancy = float(entry.get("value", 0.0))
        report = ChunkReport(
            horizon=n,
            chunk_frames=self.chunk_frames,
            window=self.stitch_window if self.stitch == "bridge" else 0,
            num_chunks=plan.num_chunks,
            mode=self.stitch,
            processes=pool_size,
            generate_seconds=max(wall - stitch_seconds, 0.0),
            stitch_seconds=stitch_seconds,
            occupancy=occupancy,
            peak_chunk_bytes=peak_bytes,
        )
        self.last_report = report
        ctx.inc("chunked.chunks", plan.num_chunks, mode=self.stitch)
        ctx.set("chunked.chunk_frames", self.chunk_frames)
        ctx.set("chunked.window", report.window)
        ctx.set("chunked.processes", pool_size)
        ctx.observe("chunked.stitch_seconds", stitch_seconds)
        ctx.set("chunked.peak_chunk_bytes", peak_bytes)
        if mean:
            x += mean
        return x


# ---------------------------------------------------------------------
# Approximation-contract analysis
# ---------------------------------------------------------------------


def stitched_covariance(
    correlation,
    plan: ChunkPlan,
    *,
    stitch_window: int = DEFAULT_STITCH_WINDOW,
) -> np.ndarray:
    """Exact covariance of the bridge-stitched process.

    The stitched process is a fixed linear map of independent Gaussian
    draws, so its covariance can be computed exactly by propagating the
    per-chunk affine update: chunk ``c`` contributes

    .. math::

        x_c = A h + u, \\qquad u \\sim N(0, \\Sigma_{22} - A \\Sigma_{12})

    with ``u`` independent of everything generated before, giving the
    block recursion ``Cov(x_c, x_{prev}) = A Cov(h, x_{prev})`` and
    ``Cov(x_c) = A Cov(h) A^T + \\Sigma_{2|1}``.

    Intended for the approximation-contract tests (O(horizon^2) dense
    algebra — use small horizons).  The deviation from the target
    Toeplitz covariance is exactly the price of the overlap-window
    truncation; within a chunk, and between a chunk and its in-window
    history, the law is exact up to the (second-order) deviation already
    accumulated in the window itself.
    """
    n = plan.horizon
    acvf = resolve_acvf(correlation, n + 1)
    cov = np.zeros((n, n), dtype=float)
    for chunk in plan:
        start, stop, length = chunk.start, chunk.stop, chunk.length
        w = min(stitch_window, start)
        total = w + length
        sigma = _toeplitz(acvf[:total], total)
        if w == 0:
            cov[:stop, :stop] = sigma
            continue
        a = bridge_matrix(acvf, w, length)
        sigma_12 = sigma[:w, w:]
        cond = sigma[w:, w:] - a @ sigma_12
        win = slice(start - w, start)
        cross = a @ cov[win, :start]
        cov[start:stop, :start] = cross
        cov[:start, start:stop] = cross.T
        cov[start:stop, start:stop] = (
            a @ cov[win, win] @ a.T + cond
        )
    return cov
