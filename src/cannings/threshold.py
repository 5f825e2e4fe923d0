"""Fixation threshold for the selection rate, and the probability that
the weak type is lost.

The weak type reaches fixation with positive probability from every
interior start exactly when the dual chain is positive recurrent, which
happens for selection rates below

    kappa_star = 1 / (2 beta) * E[ 1 / sum(Z*_i^2) * 1 / (W (1 - W)) ],

where beta is the mean extra-parent count of the offspring law, Z is
drawn from the normalized jump measure, Z* = Z / |Z|, W = |Z| sqrt(U)
with U uniform.  For a single-atom measure concentrated at [y] this
integral closes to -log(1 - y) / (beta y^2).

The integrand blows up like 1/(1 - W) near W = 1, so for measures with
mass near total size 1 the estimator's variance can be infinite even
though its mean is not; a tail-concentration diagnostic warns when a
tiny fraction of draws dominates the sum.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .dual_chain import RecurrenceReport, RegimeUnclear, StationaryEstimate
from .limit_sde import normalized_draws
from .mc import McEstimate, interval
from .simplex import XiMeasure

_TAIL_FRACTION = 0.001
_TAIL_SHARE_LIMIT = 0.20


def kappa_star_dirac(y: float, mean_extra: float) -> float:
    """Closed form of the threshold for a single-atom measure at [y]."""
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
    1 / (2 beta sum(Z*^2) W (1 - W)) with W = |Z| sqrt(U).  Warns when
    the top 0.1% of draws carry more than 20% of the sum (a symptom of
    an infinite-variance integrand, in which case the standard error
    is an underestimate).
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
    # 1 / (2 beta sum(Z*^2) W (1 - W)), in place, in that order
    vals = ssq
    vals *= 2.0 * mean_extra
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


def fixation_probability(x: float, probe: RecurrenceReport,
                         stationary: StationaryEstimate | None = None) -> McEstimate:
    """Probability the weak type is eventually lost, started from frequency x.

    Despite the name, this is the paper's extinction probability of the
    selectively weak allele, 1 - phi(x); phi(x) is the probability that
    the weak type fixes.  Decided through the dual chain: when the
    recurrence ``probe`` says the chain escapes to infinity the weak type
    is lost surely (probability 1 for x < 1, 0 at the fixed x = 1); when
    the chain looks positive recurrent phi is the moment generating
    function of the ``stationary`` occupation measure, which that regime
    needs.  An inconclusive probe, or escapes in the stationary run,
    raise ``RegimeUnclear`` rather than guessing.
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
    if stationary is None:
        raise ValueError("a recurrent-looking probe needs a stationary estimate")
    if stationary.escape_fraction > 0.0:
        raise RegimeUnclear("stationary estimate saw escapes; regime unclear")
    phi_mean, phi_se = stationary.phi(x)
    mean = 1.0 - phi_mean
    kept = stationary.replicates - stationary.escaped
    return McEstimate(mean, phi_se, kept, interval(mean, phi_se))
