"""The Monte Carlo estimator of the fixation threshold, for the tests.

``cannings`` computes kappa* exactly and draws nothing; acceptance check
c06 still checks the paper's expectation formula

    kappa_star = m / (2 beta) * E[ 1 / sum(Z*_i^2) * 1 / (W (1 - W)) ],

W = |Z| sqrt(U), by averaging it over draws, and ``test_threshold``
checks this estimator.  Its variance is infinite for every measure, also
where its mean is finite: as U -> 0 the squared integrand behaves like
1 / (|Z|^2 U), whose mean diverges (logarithmically), and near W = 1 it
grows further for measures with mass near total size 1.  A
tail-concentration diagnostic warns when a tiny fraction of draws
dominates the sum.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from cannings import McEstimate, XiMeasure, total_mass
from cannings.simplex import normalized_draws

_TAIL_FRACTION = 0.001
_TAIL_SHARE_LIMIT = 0.20
# draws per pass of the estimator: its arrays of U and W stay in cache
_CHUNK = 1 << 14


class DegenerateDraws(ValueError):
    """Draws the estimator cannot average: some W = |Z| sqrt(U) lies in
    {0, 1}, where the integrand is infinite."""


def kappa_star_mc(xi: XiMeasure, mean_extra: float, replicates: int,
                  rng: np.random.Generator,
                  diagnostics: dict | None = None) -> McEstimate:
    """Monte-Carlo estimate of the fixation threshold.

    Draws Z from the normalized measure and U uniform, and averages
    m / (2 beta sum(Z*^2) W (1 - W)) with W = |Z| sqrt(U), m the total
    mass of ``xi``.  The standard error is an underestimate (the
    variance is infinite).  Warns when the top 0.1% of draws (at least
    one, and under 20% of them) carry more than 20% of the sum.  Raises
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
