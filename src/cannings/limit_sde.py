"""The jump-diffusion scaling limit of the weak type's frequency.

Between jumps the frequency follows

    dX = selection_rate * drift(X) dt + sqrt(kingman_rate * X (1 - X)) dB,

with drift(x) = sum_i pi_i (x^(i+1) - x) = -x (1 - x) s(x) from the
offspring law of the selection mechanism.  Jumps arrive from a Poisson
clock with intensity measure xi(dz) / sum(z^2) truncated at jump_floor;
at a jump with ranked group sizes z each group flips a coin with the
current frequency and

    x  <-  x (1 - sum z_i) + sum_i z_i B_i .

The group coin flips have mean x, so the jump compensator vanishes and
uncompensated thinning is exact in law.

``simulate_batch`` runs a step-thinned Euler scheme for many paths at
once: each step moves every path by its drift and diffusion increments,
clamps the paths that left [0, 1] back into it (counted, one per path
and step, in the ``clamp_count`` diagnostic), and applies the path's
jumps of that step at the step's end.  The step runs in place, in
buffers allocated once per call, with the offspring law's constants
computed once (``drift_kernel``).  The jump clock is drawn per block of
up to 1024 steps (a Poisson total, then a uniform time and path for each
jump, with all points and coin flips in one draw each), so a step does
work only for the paths that jump.

With kingman_rate = 0, selection_rate > 0 and all extra-parent mass on
one i (an ``extra_pmf`` with one non-zero entry pi_i, no geometric
parameter, no mass at infinity) the path between jumps solves
x' = selection_rate pi_i (x^(i+1) - x) in closed form: u = x^i is
logistic, logit(u_t) = logit(u_0) - i selection_rate pi_i t.  There
``simulate_batch`` is exact in law and takes no Euler steps: each round
draws one Exp(rate) holding time per live path, follows the flow (in
log-odds, so nothing overflows) to the jump or to total_time, and
applies the jump.

Generator on monomials f(x) = x^n:

    A x^n = selection_rate * n x^(n-1) drift(x)
          + kingman_rate / 2 * x (1 - x) n (n-1) x^(n-2)
          + sum_atoms w / sum(z^2) * ( E[(x (1-|z|) + sum z_i B_i)^n] - x^n ).

``generator_apply_bernoulli`` evaluates the same object through the
one-jump size-biased representation (valid for kingman_rate = 0):

    A f(x) = -selection_rate s(x) x (1-x) f'(x)
           + mass/2 * E[ (sum Z*_i B_i - x)(sum Z*_i B_i) / sum Z*_i^2
                         * f''( x (1 - W) + V W sum Z*_i B_i ) ],

with Z drawn from the normalized measure, Z* = Z / |Z|, V uniform,
S = sqrt(U) (density 2s on [0, 1]) and W = |Z| S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mc import McEstimate
from .selection import (SelectionLaw, branching_drift, drift_kernel,
                        selection_shape)
from .simplex import (TruncatedSampler, XiMeasure, as_atoms,
                      bernoulli_patterns, jump_map, sample_masses,
                      skip_uniforms, total_mass)

_DEFAULT_DT = 1e-3
_DEFAULT_FLOOR = 1e-3
_BLOCK_STEPS = 1024
_BLOCK_JUMPS = 1 << 16
# (paths, masses, coins, residuals, step of each round, round bounds) of
# no jump
_NO_JUMPS = (None, None, None, None, [], [0])


@dataclass(frozen=True)
class LimitParams:
    """Parameters of the limit frequency process and of its dual chain.

    selection_rate >= 0 scales the branching drift; kingman_rate >= 0 is
    the diffusion coefficient (pairwise-merger rate in the dual);
    offspring must have a finite mean number of extra parents.  xi may be
    None for a pure diffusion.  jump_floor = None picks the floor
    automatically: for atomic measures the smallest atom's largest group
    z_1 (kept, since the test is z_1 >= floor), otherwise 1e-3.
    """

    selection_rate: float
    kingman_rate: float
    offspring: SelectionLaw
    xi: XiMeasure | None = None
    jump_floor: float | None = None

    def __post_init__(self) -> None:
        if self.selection_rate < 0.0:
            raise ValueError("selection_rate must be non-negative")
        if self.kingman_rate < 0.0:
            raise ValueError("kingman_rate must be non-negative")
        if self.selection_rate > 0.0 and not math.isfinite(self.offspring.mean_extra):
            raise ValueError("offspring law must have a finite mean extra-parent count")
        if self.jump_floor is not None and not (0.0 < self.jump_floor <= 1.0):
            raise ValueError("jump_floor must lie in (0, 1]")


def jump_sampler(params: LimitParams) -> TruncatedSampler:
    """The jump law of ``params.xi`` (the empty atom list without one: rate
    0) at the floor ``LimitParams`` describes: a function of ``params``."""
    floor = params.jump_floor
    if floor is None:
        atoms = as_atoms(params.xi)
        floor = (min(z.masses[0] for _, z in atoms) if atoms
                 else _DEFAULT_FLOOR)
    return TruncatedSampler(params.xi, floor)


def simulate_batch(params: LimitParams, x0: float, total_time: float,
                   dt: float = _DEFAULT_DT, n_paths: int = 1,
                   rng: np.random.Generator | None = None):
    """(terminal values, diagnostics) of many paths at once; the
    diagnostics are ``clamp_count``, ``jumps_applied``, ``steps`` and
    ``jump_rate``.

    Where the flow between jumps is closed form (kingman_rate = 0,
    selection_rate > 0, all extra-parent mass on one i; see
    ``_exact_flow_rate``) the paths are exact in law and dt is unused:
    ``_simulate_flow`` goes from jump to jump, and the ``steps``
    diagnostic counts its rounds, one per jump of the longest-lived path
    plus the last.  Otherwise this is a vectorized Euler scheme and
    ``steps`` counts its steps.

    Each Euler step of length h (dt, or less for the last step) moves
    every path by its Euler drift and diffusion increments, clamps it to
    [0, 1], and applies the step's jumps at the step's end: the standard
    step-thinning for jump diffusions, whose within-step displacement is
    of the same order as the Euler bias.  A path jumps Poisson(rate * h)
    times per step, independently over steps and paths; the clock is
    drawn per block of steps (``_jump_block``), so a step touches only
    the paths that jump.  States 0 and 1 are absorbing.  ``clamp_count``
    counts the (step, path) pairs clamped, after the increments and
    before the jumps; the exact flow never clamps and reports 0.
    """
    if not (0.0 <= x0 <= 1.0):
        raise ValueError("x0 must lie in [0, 1]")
    if total_time < 0.0 or dt <= 0.0:
        raise ValueError("need total_time >= 0 and dt > 0")
    if rng is None:
        raise ValueError("simulate_batch needs an rng")
    sampler = jump_sampler(params)
    rate = sampler.rate
    x = np.full(n_paths, float(x0))
    flow = _exact_flow_rate(params)
    if flow is not None:
        jumps_applied, rounds = _simulate_flow(x, total_time, *flow, sampler,
                                               rng)
        return x, {"clamp_count": 0, "jumps_applied": jumps_applied,
                   "steps": rounds, "jump_rate": rate}
    kappa, sigma = params.selection_rate, params.kingman_rate
    n_steps = int(math.ceil(total_time / dt - 1e-12))
    last_h = min(dt, total_time - (n_steps - 1) * dt)
    # steps per block: at most _BLOCK_STEPS, and few enough that a block
    # expects at most _BLOCK_JUMPS jumps, which bounds its memory
    per_step = rate * dt * n_paths
    block = max(1, min(_BLOCK_STEPS, int(_BLOCK_JUMPS / max(per_step, 1.0))))
    drift = drift_kernel(params.offspring) if kappa > 0.0 else None
    # a step's drift or diffusion increment, and scratch for it
    inc = np.empty(n_paths)
    work = np.empty(n_paths)
    clamps = 0
    jumps_applied = 0
    for first in range(0, n_steps, block):
        k = min(block, n_steps - first)
        span = (k - 1) * dt + (last_h if first + k == n_steps else dt)
        paths, masses, coins, residual, round_steps, bounds = _NO_JUMPS
        if rate > 0.0:
            paths, masses, coins, residual, round_steps, bounds = _jump_block(
                sampler, rate * span * n_paths, span / dt, k, n_paths, rng)
        jumps_applied += bounds[-1]
        n_rounds = len(round_steps)
        r = 0
        for s in range(k):
            h = last_h if first + s == n_steps - 1 else dt
            if drift is not None:
                drift(x, inc, work)
                inc *= kappa * h
                x += inc
            if sigma > 0.0:
                # sqrt((sigma h) x (1 - x)) times a standard normal
                np.multiply(x, sigma * h, out=inc)
                np.subtract(1.0, x, out=work)
                inc *= work
                np.maximum(inc, 0.0, out=inc)
                np.sqrt(inc, out=inc)
                inc *= rng.standard_normal(n_paths)
                x += inc
            if n_paths and (x.min() < 0.0 or x.max() > 1.0):
                clamps += np.count_nonzero(x < 0.0) + np.count_nonzero(x > 1.0)
                np.clip(x, 0.0, 1.0, out=x)
            while r < n_rounds and round_steps[r] == s:
                lo, hi = bounds[r], bounds[r + 1]
                idx = paths[lo:hi]
                x[idx] = jump_map(x[idx], masses[lo:hi], coins[lo:hi],
                                  residual[lo:hi])
                r += 1
    return x, {"clamp_count": int(clamps), "jumps_applied": jumps_applied,
               "steps": n_steps, "jump_rate": rate}


def _exact_flow_rate(params: LimitParams) -> tuple[int, float] | None:
    """(i, i selection_rate pi_i) when the flow between jumps is closed
    form: kingman_rate = 0, selection_rate > 0 and an offspring law with
    a ``point_extra`` i.  Otherwise None."""
    law = params.offspring
    i = law.point_extra
    if params.kingman_rate != 0.0 or params.selection_rate <= 0.0 or i is None:
        return None
    return i, i * params.selection_rate * law.extra_pmf[i - 1]


def _flow(x: np.ndarray, i: int, shift: np.ndarray) -> np.ndarray:
    """x after time t of the flow x' = c (x^(i+1) - x), which moves
    logit(x^i) down by shift = i c t.  x must lie in (0, 1).  Taking
    logit(x^i) = i log x - log(1 - x^i) with 1 - x^i from expm1, and
    log x^i back as -log(1 + e^-logit) from logaddexp, keeps full
    precision near 0 and 1 and never overflows."""
    log_u = i * np.log(x)
    logit = log_u - np.log(-np.expm1(log_u)) - shift
    return np.exp(-np.logaddexp(0.0, -logit) / i)


def _simulate_flow(x: np.ndarray, total_time: float, i: int, speed: float,
                   sampler: TruncatedSampler,
                   rng: np.random.Generator) -> tuple[int, int]:
    """Exact paths, in place, for a closed-form flow (``_exact_flow_rate``
    gives i and speed = i selection_rate pi_i).

    Each round draws one holding time per live path, Exp at the sampler's
    rate (none when it is 0); paths whose next jump falls past total_time
    follow the flow to total_time and stop, the others follow it over the
    hold and take one ``jump_map``.  Paths at exactly 0 or 1 absorb and
    leave the live set.  Returns (jumps applied, rounds).
    """
    live = np.flatnonzero((x > 0.0) & (x < 1.0) & (total_time > 0.0))
    t = np.zeros(live.size)
    jumps = rounds = 0
    while live.size:
        rounds += 1
        hold = math.inf
        if sampler.rate > 0.0:
            hold = rng.standard_exponential(live.size) / sampler.rate
        end = t + hold
        stop = end >= total_time
        done = live[stop]
        x[done] = _flow(x[done], i, speed * (total_time - t[stop]))
        go = ~stop
        live, t, end = live[go], t[go], end[go]
        if not live.size:
            break
        moved = _flow(x[live], i, speed * (end - t))
        masses = sampler.draw_masses(live.size, rng)
        moved = jump_map(moved, masses, rng.random(masses.shape))
        x[live] = moved
        jumps += live.size
        inside = (moved > 0.0) & (moved < 1.0)
        live, t = live[inside], end[inside]
    return jumps, rounds


def _jump_block(sampler: TruncatedSampler, mean: float, span_steps: float,
                k: int, n_paths: int, rng: np.random.Generator):
    """The jumps of k steps of all paths, grouped into rounds.

    The total is Poisson(mean), mean = rate * (time of the k steps) *
    n_paths, and each jump takes a uniform time (``span_steps`` is that
    time in units of dt, which gives the step) and a uniform path:
    the counts per (step, path) are then independent Poisson(rate * h).
    Points and coin uniforms are i.i.d. and independent of the clock, so
    the j-th sorted jump may take the j-th point as drawn.  Round r of a
    step holds the paths jumping for the (r+1)-th time in it, all
    distinct; rounds come in (step, r) order.  Returns (paths, masses,
    coins, residuals 1 - sum z, step of each round, round bounds), with
    one-group points (Beta, Dirac) as 1-D columns for ``jump_map``.
    """
    n = int(rng.poisson(mean))
    if n == 0:
        return _NO_JUMPS
    steps = np.minimum((rng.random(n) * span_steps).astype(np.int64), k - 1)
    key = np.sort(steps * n_paths + rng.integers(n_paths, size=n))
    masses = sampler.draw_masses(n, rng)
    coins = rng.random(masses.shape)
    residual = 1.0 - masses.sum(axis=1)
    if masses.shape[1] == 1:
        masses, coins = masses[:, 0], coins[:, 0]
    # a jump's rank among the equal keys before it is its round
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    rank = np.arange(n) - np.repeat(starts, np.diff(np.r_[starts, n]))
    n_rounds = int(rank.max()) + 1
    key = np.sort((key // n_paths * n_rounds + rank) * n_paths + key % n_paths)
    rounds = key // n_paths
    bounds = np.flatnonzero(np.r_[True, rounds[1:] != rounds[:-1]])
    return (key % n_paths, masses, coins, residual,
            (rounds[bounds] // n_rounds).tolist(), bounds.tolist() + [n])


# ---------------------------------------------------------------------------
# generator evaluations


def generator_apply_exact(params: LimitParams, n: int, x: float) -> float:
    """A x^n in closed form; needs an atomic measure.

    The jump term sums over the group adoption patterns of each atom
    (``bernoulli_patterns``, supports of size up to 12).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    drift_term = (params.selection_rate * n * x ** (n - 1)
                  * branching_drift(params.offspring, x))
    diff_term = 0.0
    if n >= 2 and params.kingman_rate > 0.0:
        diff_term = (0.5 * params.kingman_rate * x * (1.0 - x)
                     * n * (n - 1) * x ** (n - 2))
    atoms = as_atoms(params.xi)
    if atoms is None:
        raise ValueError("exact generator needs an atomic measure")
    jump_term = 0.0
    for w, z in atoms:
        probs, ys = bernoulli_patterns(z, x)
        jump_term += (w / z.sum_sq) * (probs @ ys ** n - x ** n)
    return drift_term + diff_term + jump_term


def generator_apply_bernoulli(params: LimitParams, n: int, x: float,
                              replicates: int,
                              rng: np.random.Generator) -> McEstimate:
    """A x^n through the size-biased one-jump representation (Monte Carlo).

    Only valid without a diffusion part.  The selection term is
    deterministic and added exactly; the standard error comes from the
    jump expectation alone, so for n = 1 the result is exact with SE 0.
    """
    if params.kingman_rate != 0.0:
        raise ValueError("the one-jump representation needs kingman_rate = 0")
    if n < 1:
        raise ValueError("n must be at least 1")
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    drift_term = (-params.selection_rate * selection_shape(params.offspring, x)
                  * x * (1.0 - x) * n * x ** (n - 1))
    if params.xi is None:
        return McEstimate.exact(drift_term)
    mass = total_mass(params.xi)
    frac, sum_sq_norm, totals = normalized_draws(params.xi, replicates, rng)
    if n >= 2:
        flips = rng.random(frac.shape) < x
        zb = np.einsum("ij,ij->i", flips, frac)
        ws = totals * np.sqrt(rng.random(replicates))
        vs = rng.random(replicates)
        inner = x * (1.0 - ws) + vs * ws * zb
        second = n * (n - 1) * inner ** (n - 2)
        vals = 0.5 * mass * (zb - x) * zb / sum_sq_norm * second
    else:
        vals = np.zeros(replicates)
    est = McEstimate.from_samples(vals)
    return McEstimate(drift_term + est.mean, est.std_error, est.replicates)


def normalized_draws(measure: XiMeasure, size: int, rng: np.random.Generator):
    """(group fractions, sum of squared fractions, total mass |Z|) per draw.

    Z comes from ``sample_masses``; the fractions Z / |Z| form a
    zero-padded (size, width) matrix.  Where every row is the same, a
    result is a read-only broadcast view: a one-group point has fractions
    [1] and sum 1.0, and a one-atom measure draws the same point every
    time, so its ``size`` uniforms are skipped (``skip_uniforms``), not
    drawn, and its fractions, sum and |Z| are those of its one row.
    """
    atoms = as_atoms(measure)
    if atoms is not None and len(atoms) == 1:
        skip_uniforms(rng, size)
        masses = np.array([atoms[0][1].masses])
        totals = masses.sum(axis=1)
        frac = masses / totals[:, None]
        ssq = (frac * frac).sum(axis=1)
        return (np.broadcast_to(frac, (size, frac.shape[1])),
                np.broadcast_to(ssq, (size,)),
                np.broadcast_to(totals, (size,)))
    masses = sample_masses(measure, size, rng)
    # a one-group point normalizes to [1], also when its mass underflows
    # to 0 (Beta draws with a small first parameter do)
    if masses.shape[1] == 1:
        return (np.broadcast_to(1.0, masses.shape),
                np.broadcast_to(1.0, (size,)), masses[:, 0])
    totals = masses.sum(axis=1)
    frac = masses / totals[:, None]
    return frac, (frac * frac).sum(axis=1), totals
