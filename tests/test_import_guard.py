"""No default code path loads ``scipy.stats``, ``scipy.signal`` or
``multiprocessing``.

``scipy.stats`` costs more to import than an ``is_sweep`` operation
takes, and ``scipy.signal`` imports it.  The parametric marginals and
the Norros formulas are closed forms on ``scipy.special`` instead, and
FARIMA's ARMA filter imports ``lfilter`` where it uses it (the ARMA
tests in tests/test_farima.py cover that path).  Every pool is a
thread pool, so ``multiprocessing`` has no reason to load either.  A
fresh interpreter runs small versions of every benchmark workload's
path, with the pooled calls in-line and on two workers, and the CLI's
start-up, then reports which of the three modules got loaded.
"""

import json
import os
import subprocess
import sys
import textwrap

import repro

_SCRIPT = textwrap.dedent(
    """
    import contextlib, io, json, sys

    import numpy as np

    from repro import estimators
    from repro.cli import main
    from repro.core import CompositeMPEGModel, UnifiedVBRModel
    from repro.core.aggregate import (
        ShardedAggregateModel, SourceClass, SourcePopulation,
    )
    from repro.marginals.parametric import (
        GammaDistribution, NormalDistribution,
    )
    from repro.queueing.overflow import steady_state_overflow_from_trace
    from repro.queueing.theory import (
        norros_effective_bandwidth, norros_overflow_approximation,
    )
    from repro.simulation.runner import overflow_vs_buffer_curve
    from repro.video import SyntheticCodecConfig, SyntheticMPEGCodec

    intra = SyntheticMPEGCodec(
        SyntheticCodecConfig.intraframe_paper_like(num_frames=4000)
    ).generate(random_state=1)
    ibp = SyntheticMPEGCodec(
        SyntheticCodecConfig.paper_like(num_frames=4000)
    ).generate(random_state=2)

    # is_sweep: the §3.2 fit and an IS buffer sweep.
    model = UnifiedVBRModel(max_lag=50).fit(intra, random_state=3)
    overflow_vs_buffer_curve(
        model.background_, model.arrival_transform(), utilization=0.5,
        buffer_sizes=(4, 8), replications=8, twisted_mean=1.0,
        horizon_factor=4, random_state=4,
    )

    # trace_model: the §3.3 fit, chunked generation, read-back, Lindley.
    CompositeMPEGModel(max_lag_i=10, histogram_bins=50).fit(
        ibp, random_state=5
    ).generate(1000, random_state=6)
    for processes in (1, 2):
        foreground = model.generate(
            2**12, chunk_frames=2**10, processes=processes, random_state=7
        )
    estimators.variance_time_estimate(foreground)
    estimators.rs_estimate(foreground)
    steady_state_overflow_from_trace(
        foreground / model.marginal_.mean, 1.25, (2, 4)
    )

    # aggregate_mux: Normal and Gamma source classes.
    population = SourcePopulation([
        SourceClass("normal", correlation=0.8,
                    marginal=NormalDistribution(8.0, 2.0), count=3),
        SourceClass("gamma", correlation=0.7,
                    marginal=GammaDistribution(6.0, 1.0), count=2),
    ])
    for processes in (1, 2):
        ShardedAggregateModel(population, batch_size=4).generate(
            128, processes=processes, random_state=8
        )

    norros_overflow_approximation(
        [1.0, 10.0], hurst=0.8, mean_rate=1.0, service_rate=1.5,
        variance_coefficient=1.0,
    )
    norros_effective_bandwidth(
        hurst=0.8, mean_rate=1.0, variance_coefficient=1.0,
        buffer_size=10.0, epsilon=1e-3,
    )

    with contextlib.redirect_stdout(io.StringIO()):
        try:
            main(["--help"])
        except SystemExit:
            pass

    print(json.dumps(sorted(
        name for name in sys.modules
        if name.split(".")[:2] in (["scipy", "stats"], ["scipy", "signal"])
        or name.split(".")[0] == "multiprocessing"
    )))
    """
)


def test_workload_paths_load_neither_scipy_stats_nor_signal():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout.strip().splitlines()[-1])
    assert loaded == []
