"""Fixation threshold for the selection rate, and the probability that
the weak type is lost.

The weak type reaches fixation with positive probability from every
interior start exactly when the dual chain is positive recurrent, which
happens for selection rates below

    kappa_star = m / (2 beta) * E[ 1 / sum(Z*_i^2) * 1 / (W (1 - W)) ],

where m is the total mass of the jump measure, beta is the mean
extra-parent count of the offspring law, Z is drawn from the normalized
jump measure, Z* = Z / |Z|, W = |Z| sqrt(U) with U uniform.  A point z
closes the U-average, E_U[1 / (W (1 - W))] = -2 log(1 - |z|) / |z|^2, so
``kappa_star(params)`` gives (1 / beta) sum_atoms w (-log(1 - |z|)) /
sum(z_i^2) for an atomic measure, and for Beta(a, b) with a > 1

    m B(a - 2, b) (psi(a + b - 2) - psi(b)) / (beta B(a, b)),

written without its removable points at a = 2 and a + b = 2 (psi is the
digamma function, computed in plain math by ``_digamma_slope``).  It
gives infinity where the chain is recurrent at every selection rate or
the integral diverges.  Nothing here draws: ``kappa_star_quadrature``
checks the closed forms against a Gauss rule for the integral itself.
"""

from __future__ import annotations

import math

import numpy as np

from .dual_chain import RecurrenceReport
from .limit_sde import LimitParams
from .mc import McEstimate
from .simplex import (LambdaBeta, StickBreaking, as_atoms, beta_nodes,
                      gauss_rule)

# B_2k / 2k in psi(x) ~ log x - 1 / (2 x) - sum_k B_2k / (2k x^2k)
_PSI_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760,
               1 / 12)
_ASYMPTOTIC = 10.0
# nodes of the quadrature check, and its error bound's floor in ulps: the
# Beta rule's Golub-Welsch weights carry up to about 80 ulps of rounding
_NODES = 64
_ULPS = 16
_BETA_ULPS = 64


class RegimeUnclear(ValueError):
    """A model outcome, not an input error: the dual chain's runs leave
    its regime undecided."""


def kappa_star(params: LimitParams) -> tuple[float, str | None]:
    """(threshold, reason): the exact threshold, drawing nothing.

    Infinite, with the reason, at kingman_rate > 0, for stick-breaking,
    Beta with a <= 1 and atoms with |z| = 1; else the closed form for an
    atomic measure (0 without one: the chain only branches) or for Beta
    with a > 1, and reason None.
    """
    if params.kingman_rate > 0.0:
        return math.inf, (
            "kappa* = inf at model.kingman_rate > 0: pairwise mergers bring "
            "the dual chain down from any n, so it is recurrent at every "
            "selection rate")
    beta = params.offspring.mean_extra
    if beta <= 0.0 or not math.isfinite(beta):
        raise ValueError("mean_extra must be positive and finite")
    xi = params.xi
    if isinstance(xi, StickBreaking):
        return math.inf, ("kappa* = inf for stick-breaking: its points lie "
                          "on |z| = 1, where -log(1 - |z|) diverges")
    if isinstance(xi, LambdaBeta):
        a, b = xi.a, xi.b
        if a <= 1.0:
            return math.inf, ("kappa* = inf for lambda_beta at a <= 1: "
                              "-log(1 - y) / y^2 against y^(a - 1) diverges "
                              "at y = 0")
        # B(a - 2, b) / B(a, b) = (a + b - 1)(a + b - 2) / ((a - 1)(a - 2))
        # and psi(a + b - 2) - psi(b) = (a - 2) slope(b, a - 2); with
        # c = a - 1, a unit step in each slope gives (a + b - 2) slope(b,
        # a - 2) = c slope(b, c) + b slope(b + c, 1 - c): positive terms
        # through a = 2 and a + b = 2, and no rounded b + 1 as a -> 1
        c = a - 1.0
        value = (c + b) * (_digamma_slope(b, c)
                           + b / c * _digamma_slope(b + c, 1.0 - c))
        return xi.total_mass * value / beta, None
    value = 0.0
    for w, z in as_atoms(xi):
        if z.total >= 1.0:
            return math.inf, ("kappa* = inf for an atom with |z| = 1: each of "
                              "its events leaves one lineage per group")
        value += w * (-math.log1p(-z.total) / (beta * z.sum_sq))
    return value, None


def _digamma_slope(x: float, d: float) -> float:
    """(psi(x + d) - psi(x)) / d for x, x + d > 0, psi'(x) at d = 0, with no
    cancellation as d -> 0: unit steps psi(x + 1) = psi(x) + 1 / x up to
    _ASYMPTOTIC, then the series differenced term by term, log(q / p) / d
    and (q^n - p^n) / d = p q sum_j p^j q^(n-1-j), p = 1 / (x + d), q = 1 / x.
    """
    total = 0.0
    while min(x, x + d) < _ASYMPTOTIC:
        total += 1.0 / (x * (x + d))
        x += 1.0
    p, q = 1.0 / (x + d), 1.0 / x
    u = d * q
    total += (math.log1p(u) / u if u else 1.0) * q + 0.5 * p * q
    for k, c in enumerate(_PSI_SERIES, 1):
        total += c * p * q * sum(p ** j * q ** (2 * k - 1 - j)
                                 for j in range(2 * k))
    return total


def kappa_star_quadrature(params: LimitParams) -> McEstimate:
    """The integral that defines kappa*, by a Gauss rule, for a model whose
    ``kappa_star`` is finite: mean Q_n at n = _NODES nodes, std_error the
    rule's error bound |Q_n - Q_n/2|, at least _ULPS units in the last
    place of Q_n (_BETA_ULPS for Beta)."""
    integral, ulps = ((_beta_integral, _BETA_ULPS)
                      if isinstance(params.xi, LambdaBeta)
                      else (_atoms_integral, _ULPS))
    value, half = (float(integral(params.xi, count)
                         / params.offspring.mean_extra)
                   for count in (_NODES, _NODES // 2))
    return McEstimate(value, max(abs(value - half), ulps * math.ulp(value)),
                      _NODES)


def _atoms_integral(xi, count: int) -> float:
    """sum_atoms w / (2 sum(Z*^2)) E_U[1 / (W (1 - W))], W = |z| sqrt(U):
    Gauss-Legendre in s = sqrt(U), whose density is 2 s on [0, 1]."""
    k = np.arange(1.0, count)
    nodes, weights = gauss_rule(np.zeros(count), k / np.sqrt(4 * k * k - 1))
    s = (1.0 + nodes) / 2.0
    total = 0.0
    for w, z in as_atoms(xi):
        frac_sq = sum((m / z.total) ** 2 for m in z.masses)
        ws = z.total * s
        total += w / frac_sq * (weights @ (s / (ws * (1.0 - ws))))
    return total


def _beta_integral(xi: LambdaBeta, count: int) -> float:
    """m E[-log(1 - Y) / Y^2], Y ~ Beta(a, b), a > 1 (the U-average at [y]
    is -2 log(1 - y) / y^2): in t = -log(1 - y), the ratio of the
    integrals of t and y^2 against y^(a-3) e^(-b t), y = 1 - e^-t.  Each
    is split at T = t* + min(36, 16 / b), past the weight's peak t* =
    log(1 + |a - 3| / b) at large a: Gauss-Jacobi with weight t^q on
    [0, T], q the integrand's power at t = 0 less an integer, and
    Gauss-Laguerre at rate b past T, where y^(a-3) is 1 to rounding or
    e^(-b t) has fallen 16 e-folds."""
    a, b = xi.a, xi.b
    end = math.log1p(abs(a - 3.0) / b) + min(36.0, 16.0 / b)
    p = a - 2.0 - max(0.0, math.floor(a - 2.0))
    s, laguerre = gauss_rule(2.0 * np.arange(count) + 1.0,
                             np.arange(1.0, count))
    ratio = []
    for q, g in ((p, lambda t, y: t), (p + 1.0, lambda t, y: y * y)):
        w, x = np.array([(weight, point.masses[0]) for weight, point
                         in beta_nodes(q + 1.0, 1.0, count)]).T
        head = end * x
        t = np.append(head, end + s / b)
        y = -np.expm1(-t)
        # y^(a-3) e^(-b (t - T)) over its value at T, so that nothing
        # underflows at large a and b (the Laguerre rule holds the e^-bt)
        log_f = ((a - 3.0) * (np.log(y) - math.log(-math.expm1(-end)))
                 - np.append(b * (head - end), np.zeros(count)))
        weights = np.append(end ** (q + 1.0) / (q + 1.0) * w * head ** -q,
                            laguerre / b)
        ratio.append(weights @ (g(t, y) * np.exp(log_f)))
    return xi.total_mass * ratio[0] / ratio[1]


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
