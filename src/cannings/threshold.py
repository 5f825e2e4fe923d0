"""Fixation threshold for the selection rate, and the probability that
the weak type is lost.

The weak type reaches fixation with positive probability from every
interior start exactly when the dual chain is positive recurrent, which
happens for selection rates below

    kappa_star = m / (2 beta) * E[ 1 / sum(Z*_i^2) * 1 / (W (1 - W)) ],

where m is the total mass of the jump measure, beta is the mean
extra-parent count of the offspring law, Z is drawn from the normalized
jump measure, Z* = Z / |Z|, W = |Z| sqrt(U) with U uniform.  An atom z
closes the U-average, E_U[1 / (W (1 - W))] = -2 log(1 - |z|) / |z|^2, so
``kappa_star(params)`` gives (1 / beta) sum_atoms w (-log(1 - |z|)) /
sum(z_i^2) for an atomic measure, and infinity where the chain is
recurrent at every selection rate or the integral diverges.

The estimator's variance is infinite for every measure, also where its
mean is finite: as U -> 0 the squared integrand behaves like
1 / (|Z|^2 U), whose mean diverges (logarithmically), and near W = 1 it
grows further for measures with mass near total size 1.  A
tail-concentration diagnostic warns when a tiny fraction of draws
dominates the sum.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .dual_chain import RecurrenceReport
from .limit_sde import LimitParams
from .mc import McEstimate
from .simplex import (LambdaBeta, StickBreaking, XiMeasure, as_atoms,
                      normalized_draws, total_mass)

_TAIL_FRACTION = 0.001
_TAIL_SHARE_LIMIT = 0.20
# draws per pass of the estimator: its arrays of U and W stay in cache
_CHUNK = 1 << 14


class RegimeUnclear(ValueError):
    """A model outcome, not an input error: the dual chain's runs leave
    its regime undecided."""


class DegenerateDraws(ValueError):
    """Draws the threshold estimator cannot average: some W = |Z| sqrt(U)
    lies in {0, 1}, where the integrand is infinite."""


def kappa_star(params: LimitParams) -> tuple[float | None, str | None]:
    """(threshold, reason) where the threshold is known without sampling.

    Infinite, with the reason, at kingman_rate > 0, for stick-breaking,
    Beta with a <= 1 and atoms with |z| = 1; else the closed form for an
    atomic measure, 0 without one (the chain only branches), or (None, None).
    """
    if params.kingman_rate > 0.0:
        return math.inf, (
            "kappa* = inf at model.kingman_rate > 0: pairwise mergers bring "
            "the dual chain down from any n, so it is recurrent at every "
            "selection rate; the estimate ignores them")
    beta = params.offspring.mean_extra
    if beta <= 0.0 or not math.isfinite(beta):
        raise ValueError("mean_extra must be positive and finite")
    xi = params.xi
    if isinstance(xi, StickBreaking):
        return math.inf, ("kappa* = inf for stick-breaking: its points lie "
                          "on |z| = 1, where -log(1 - |z|) diverges")
    if isinstance(xi, LambdaBeta) and xi.a <= 1.0:
        return math.inf, ("kappa* = inf for lambda_beta at a <= 1: -log(1 - y)"
                          " / y^2 against y^(a - 1) diverges at y = 0")
    atoms = as_atoms(xi)
    if atoms is None:
        return None, None
    value = 0.0
    for w, z in atoms:
        if z.total >= 1.0:
            return math.inf, ("kappa* = inf for an atom with |z| = 1: each of "
                              "its events leaves one lineage per group")
        value += w * (-math.log1p(-z.total) / (beta * z.sum_sq))
    return value, None


def kappa_star_mc(xi: XiMeasure, mean_extra: float, replicates: int,
                  rng: np.random.Generator,
                  diagnostics: dict | None = None) -> McEstimate:
    """Monte-Carlo estimate of the fixation threshold.

    Draws Z from the normalized measure and U uniform, and averages
    m / (2 beta sum(Z*^2) W (1 - W)) with W = |Z| sqrt(U), m the total
    mass of ``xi``.  The variance is infinite for every measure: as
    U -> 0 the squared integrand behaves like 1 / (|Z|^2 U), whose mean
    diverges, so the standard error is an underestimate.  Warns when the
    top 0.1% of draws (at least one, and under 20% of them) carry more
    than 20% of the sum.  Raises
    ``DegenerateDraws`` when some W lies in {0, 1}.

    One pass: the points come from ``normalized_draws`` (read-only views
    of its one row, with no draw, for a one-atom measure), then U is
    drawn a chunk at a time and each chunk's values are written into one
    array, which is partitioned in place for the tail once the mean and
    standard error are taken.  The stream and every value's operations
    are those of drawing U in one array, so the estimate, diagnostics and
    warning do not depend on the chunk size.  ``DegenerateDraws`` is
    raised at the first chunk holding a degenerate W, with the uniforms
    after it undrawn.
    """
    if mean_extra <= 0.0 or not math.isfinite(mean_extra):
        raise ValueError("mean_extra must be positive and finite")
    if replicates < 2:
        raise ValueError("need at least two replicates")
    frac, ssq, totals = normalized_draws(xi, replicates, rng)
    del frac
    scale = 2.0 * mean_extra / total_mass(xi)
    vals = np.empty(replicates)
    for lo in range(0, replicates, _CHUNK):
        hi = min(lo + _CHUNK, replicates)
        w = np.sqrt(rng.random(hi - lo))
        w *= totals[lo:hi]
        if np.any(w <= 0.0) or np.any(w >= 1.0):
            raise DegenerateDraws("degenerate draw with W in {0, 1}")
        # m / (2 beta sum(Z*^2) W (1 - W)), multiplied in that order
        out = np.multiply(ssq[lo:hi], scale, out=vals[lo:hi])
        out *= w
        out *= np.subtract(1.0, w, out=w)
        np.divide(1.0, out, out=out)
    est = McEstimate.from_samples(vals)
    total = float(vals.sum())
    top = max(1, int(_TAIL_FRACTION * replicates))
    # the top values in sorted order, as a full sort would leave them
    vals.partition(-top)
    tail = np.sort(vals[-top:])
    share = float(tail.sum()) / total
    if diagnostics is not None:
        diagnostics["tail_share"] = share
        diagnostics["tail_draws"] = top
        diagnostics["max_value"] = float(tail[-1])
    if share > _TAIL_SHARE_LIMIT and top / replicates < _TAIL_SHARE_LIMIT:
        warnings.warn(
            "possible infinite variance: the top "
            f"{100 * _TAIL_FRACTION:g}% of draws carry {100 * share:.1f}% "
            "of the sum; the standard error is unreliable",
            RuntimeWarning, stacklevel=2)
    return est


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
    return McEstimate(1.0 - phi.mean, phi.std_error, phi.replicates)
