"""Fixation threshold for the selection rate, and the probability that
the weak type is lost.

The weak type reaches fixation with positive probability from every
interior start exactly when the dual chain is positive recurrent, which
happens for selection rates below

    kappa_star = m / (2 beta) * E[ 1 / sum(Z*_i^2) * 1 / (W (1 - W)) ],

where m is the total mass of the jump measure, beta is the mean
extra-parent count of the offspring law, Z is drawn from the normalized
jump measure, Z* = Z / |Z|, W = |Z| sqrt(U) with U uniform.  For a
single-atom measure m * delta_[y] this integral closes to
-m log(1 - y) / (beta y^2); ``kappa_star_dirac`` gives it at m = 1.

The integrand blows up like 1/(1 - W) near W = 1, so for measures with
mass near total size 1 the estimator's variance can be infinite even
though its mean is not; a tail-concentration diagnostic warns when a
tiny fraction of draws dominates the sum.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .dual_chain import RecurrenceReport, RegimeUnclear
from .limit_sde import normalized_draws
from .mc import McEstimate, interval
from .simplex import XiMeasure, total_mass

_TAIL_FRACTION = 0.001
_TAIL_SHARE_LIMIT = 0.20


def kappa_star_dirac(y: float, mean_extra: float) -> float:
    """Closed form of the threshold for a single-atom measure at [y] of
    total mass 1; the threshold scales linearly with the mass."""
    if not (0.0 < y < 1.0):
        raise ValueError("y must lie in (0, 1)")
    if mean_extra <= 0.0:
        raise ValueError("mean_extra must be positive")
    return -math.log1p(-y) / (mean_extra * y * y)


def kappa_star_mc(xi: XiMeasure, mean_extra: float, replicates: int,
                  rng: np.random.Generator,
                  diagnostics: dict | None = None) -> McEstimate:
    """Monte-Carlo estimate of the fixation threshold.

    Draws Z from the normalized measure and U uniform, and averages
    m / (2 beta sum(Z*^2) W (1 - W)) with W = |Z| sqrt(U), m the total
    mass of ``xi``.  Warns when the top 0.1% of draws carry more than
    20% of the sum (a symptom of an infinite-variance integrand, in
    which case the standard error is an underestimate).
    """
    if mean_extra <= 0.0 or not math.isfinite(mean_extra):
        raise ValueError("mean_extra must be positive and finite")
    if replicates < 2:
        raise ValueError("need at least two replicates")
    frac, ssq, totals = normalized_draws(xi, replicates, rng)
    del frac
    w = np.sqrt(rng.random(replicates))
    w *= totals
    if np.any(w <= 0.0) or np.any(w >= 1.0):
        raise ValueError("degenerate draw with W in {0, 1}")
    # m / (2 beta sum(Z*^2) W (1 - W)), in place, in that order
    vals = ssq
    vals *= 2.0 * mean_extra / total_mass(xi)
    vals *= w
    vals *= np.subtract(1.0, w, out=w)
    np.divide(1.0, vals, out=vals)
    top = max(1, int(_TAIL_FRACTION * replicates))
    # the top values in sorted order, as a full sort would leave them
    tail_sum = float(np.sort(np.partition(vals, -top)[-top:]).sum())
    share = tail_sum / float(vals.sum())
    if diagnostics is not None:
        diagnostics["tail_share"] = share
        diagnostics["tail_draws"] = top
        diagnostics["max_value"] = float(vals.max())
    if share > _TAIL_SHARE_LIMIT:
        warnings.warn(
            "possible infinite variance: the top "
            f"{100 * _TAIL_FRACTION:g}% of draws carry {100 * share:.1f}% "
            "of the sum; the standard error is unreliable",
            RuntimeWarning, stacklevel=2)
    return McEstimate.from_samples(vals)


def fixation_probability(x: float, probe: RecurrenceReport) -> McEstimate:
    """Probability the weak type is eventually lost, started from frequency x.

    Despite the name, this is the paper's extinction probability of the
    selectively weak allele, 1 - phi(x); phi(x) is the probability that
    the weak type fixes.  Decided through the dual chain: when the
    recurrence ``probe`` says the chain escapes to infinity the weak type
    is lost surely (probability 1 for x < 1, 0 at the fixed x = 1); when
    the chain looks positive recurrent phi is the moment generating
    function of the occupation measure the probe kept past its burn_in
    (``RecurrenceReport.phi``): the same chains, none of which escaped.
    An inconclusive probe raises ``RegimeUnclear`` rather than guessing.
    """
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    if probe.verdict == "escaping":
        return McEstimate.exact(0.0 if x == 1.0 else 1.0)
    if probe.verdict != "recurrent-looking":
        raise RegimeUnclear(
            "recurrence probe is inconclusive "
            f"(escape fraction {probe.escape_fraction:.3f}, mean returns "
            f"{probe.mean_returns_to_one:.1f}); cannot decide the regime")
    phi = probe.phi(x)
    mean = 1.0 - phi.mean
    return McEstimate(mean, phi.std_error, phi.replicates,
                      interval(mean, phi.std_error))
