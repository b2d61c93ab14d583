"""Statistical contract: the Appendix B IS estimator is unbiased.

Importance sampling twists the background mean to ``m*`` and weights
every overflow by the likelihood ratio of the two path laws.  If the
weights are right, the estimate of ``P(Q_k > b)`` has the same mean as
plain Monte Carlo (MC), whatever the twist.  This module checks that on
the paper's own setting rather than on toy inputs: a §3.2 model fitted
to a full-length (238,626-frame) synthetic intraframe trace, at the
Fig. 16 point ``rho = 0.2``, ``b = 25``, ``k = 10 b = 250``, with the
twist ``m* = 2.5`` the Fig. 16 sweep uses there.  Both estimators run
through the public :func:`~repro.simulation.is_overflow_probability`
(MC is the same call at ``m* = 0``), on independent seeds.

Statistical design
------------------
- **Seeds:** every batch draws one child of ``spawn_rngs(SEED +
  offset, ...)``; ``--seed-offset`` (see ``make test-stats-matrix``)
  shifts the family.  The fitted model is fixed: the contract is about
  the estimator, not the fit.
- **Standard errors:** taken across independent batches
  (``MC_BATCHES`` x ``MC_PATHS`` and ``IS_BATCHES`` x ``IS_PATHS``),
  not from the within-batch weight variance, which heavy-tailed
  likelihood-ratio weights make understate the spread.
- **Workload:** MC ``10 x 20,000`` paths (P ~ 6.4e-3, ~130 hits per
  batch), IS ``40 x 1,000`` replications; about 9 s in all.
- **Gate (alpha):** ``|z| < 3`` for ``z`` the IS-minus-MC difference
  over its combined standard error.  With the standard errors
  estimated from 10 and 40 batches (Welch, ~10 degrees of freedom)
  this is a false-alarm rate of about 1.3%.
- **Power:** the combined standard error is ~3% of P (MC dominates),
  so a 15% relative bias in the weights sits ~4.8 standard errors out
  and fails the gate with probability >= 0.95.
"""

import numpy as np
import pytest

from repro.core import UnifiedVBRModel
from repro.simulation import is_overflow_probability
from repro.stats.random import spawn_rngs
from repro.video import SyntheticCodecConfig, SyntheticMPEGCodec

SEED = 20_261_016
RHO = 0.2
BUFFER = 25.0
HORIZON = 250
TWIST = 2.5
MC_BATCHES, MC_PATHS = 10, 20_000
IS_BATCHES, IS_PATHS = 40, 1_000
Z_GATE = 3.0


@pytest.fixture(scope="module")
def fitted_model():
    """The §3.2 model of a full-length synthetic intraframe trace."""
    trace = SyntheticMPEGCodec(
        SyntheticCodecConfig.intraframe_paper_like(num_frames=238_626)
    ).generate(random_state=1)
    return UnifiedVBRModel(max_lag=500).fit(trace, random_state=2)


def batch_estimates(model, twist, rngs, replications):
    """One public IS estimate per independent batch."""
    transform = model.arrival_transform()
    return np.array([
        is_overflow_probability(
            model.background_,
            transform,
            service_rate=1.0 / RHO,
            buffer_size=BUFFER,
            horizon=HORIZON,
            twisted_mean=twist,
            replications=replications,
            random_state=rng,
        ).probability
        for rng in rngs
    ])


def test_is_estimate_matches_plain_monte_carlo(fitted_model, seed_offset):
    rngs = spawn_rngs(SEED + seed_offset, MC_BATCHES + IS_BATCHES)
    mc = batch_estimates(fitted_model, 0.0, rngs[:MC_BATCHES], MC_PATHS)
    tw = batch_estimates(fitted_model, TWIST, rngs[MC_BATCHES:], IS_PATHS)
    se = np.hypot(
        mc.std(ddof=1) / np.sqrt(mc.size), tw.std(ddof=1) / np.sqrt(tw.size)
    )
    z = (tw.mean() - mc.mean()) / se
    assert mc.mean() > 0 and se > 0
    assert abs(z) < Z_GATE, (
        f"IS {tw.mean():.4e} vs MC {mc.mean():.4e}, combined standard "
        f"error {se:.2e}, z = {z:.2f}"
    )
