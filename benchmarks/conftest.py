"""Shared fixtures and reporting helpers for the benchmark harness.

Every bench regenerates one of the paper's tables or figures and prints
the corresponding rows/series.  Benches run the experiments at the
paper's own scale by default (238,626-frame traces, 1000 replications);
set ``REPRO_BENCH_SCALE`` (e.g. ``0.2``) to scale the replication
counts down for a quick pass, or above 1 for extra precision.

Output is printed through ``emit`` (bypassing pytest's capture) so the
series land in the bench log verbatim.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core import CompositeMPEGModel, UnifiedVBRModel
from repro.video import SyntheticCodecConfig, SyntheticMPEGCodec

#: Global replication scale factor.
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Seed used for the "empirical" traces, fixed so every bench sees the
#: same two traces (the paper has exactly one empirical trace too).
TRACE_SEED = 1995

#: When set, machine-readable bench results are written to this path at
#: the end of the session (used by the ``bench-smoke`` make target).
BENCH_JSON_ENV = "REPRO_BENCH_JSON"

_bench_records: dict = {}


def pytest_collection_modifyitems(items):
    """Keep ``SimulationWarning`` a warning in benches.

    pyproject.toml makes it an error for the tier-1 tests.  A bench
    scaled down by ``REPRO_BENCH_SCALE`` can leave a plain-MC leg
    without hits; it prints the warning instead of failing the quick
    pass.
    """
    here = Path(__file__).parent
    for item in items:
        if item.path.is_relative_to(here):
            item.add_marker(pytest.mark.filterwarnings(
                "default::repro.exceptions.SimulationWarning"
            ))


def scaled(replications: int, *, minimum: int = 50) -> int:
    """Scale a replication count by ``REPRO_BENCH_SCALE``."""
    return max(minimum, int(round(replications * SCALE)))


@pytest.fixture(scope="session")
def emit(request):
    """Print a line to the real terminal, bypassing pytest capture."""
    capmanager = request.config.pluginmanager.getplugin("capturemanager")

    def _emit(*lines: str) -> None:
        with capmanager.global_and_fixture_disabled():
            for line in lines:
                print(line)

    _emit("")
    return _emit


@pytest.fixture(scope="session")
def record_bench():
    """Record a named bench result for the end-of-session JSON dump."""

    def _record(name: str, **fields) -> None:
        _bench_records[name] = fields

    return _record


def pytest_sessionfinish(session, exitstatus):
    """Write collected bench records to ``$REPRO_BENCH_JSON`` if set."""
    path = os.environ.get(BENCH_JSON_ENV, "").strip()
    if not path or not _bench_records:
        return
    payload = {"scale": SCALE, "benches": _bench_records}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@pytest.fixture(scope="session")
def intra_trace_full():
    """Full-length intraframe trace (the Figs. 1-8 and §4 substrate)."""
    config = SyntheticCodecConfig.intraframe_paper_like()
    return SyntheticMPEGCodec(config).generate(random_state=TRACE_SEED)


@pytest.fixture(scope="session")
def ibp_trace_full():
    """Full-length interframe (I/B/P) trace (the §3.3 substrate)."""
    config = SyntheticCodecConfig.paper_like()
    return SyntheticMPEGCodec(config).generate(random_state=TRACE_SEED)


@pytest.fixture(scope="session")
def unified_model(intra_trace_full):
    """The paper's §3.2 pipeline fitted to the intraframe trace.

    Uses the paper's own methodology: pilot attenuation measurement and
    the eq. 14 compensated background (the hermite-inverse variant is
    exercised by the ablation bench).
    """
    return UnifiedVBRModel(max_lag=500).fit(
        intra_trace_full, random_state=7
    )


@pytest.fixture(scope="session")
def composite_model(ibp_trace_full):
    """The §3.3 composite model fitted to the interframe trace.

    Uses 500-bin per-type histograms: the 238k-frame trace gives each
    frame type tens of thousands of samples, and coarse bins visibly
    flatten the small-B-frame quantiles in the Fig. 13 Q-Q comparison.
    """
    return CompositeMPEGModel(max_lag_i=41, histogram_bins=500).fit(
        ibp_trace_full, random_state=8
    )


@pytest.fixture(scope="session")
def arrival_transform(unified_model):
    """Unit-mean arrivals for the §4 queueing experiments."""
    return unified_model.arrival_transform()


def format_series(header, rows):
    """Format a small table: header tuple + row tuples."""
    widths = [
        max(len(str(h)), max((len(str(r[i])) for r in rows), default=0))
        for i, h in enumerate(header)
    ]
    lines = [
        "  ".join(str(h).ljust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(
            "  ".join(str(c).ljust(w) for c, w in zip(row, widths))
        )
    return lines
