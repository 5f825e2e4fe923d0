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

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .mc import McEstimate
from .selection import SelectionLaw, branching_drift, selection_shape
from .simplex import (TruncatedSampler, XiMeasure, as_atoms, sample_point,
                      total_mass)

_MAX_ENUM_SUPPORT = 12
_DEFAULT_DT = 1e-3
_DEFAULT_FLOOR = 1e-3


@dataclass(frozen=True)
class LimitParams:
    """Parameters of the limit frequency process and of its dual chain.

    selection_rate >= 0 scales the branching drift; kingman_rate >= 0 is
    the diffusion coefficient (pairwise-merger rate in the dual);
    offspring must have a finite mean number of extra parents.  xi may be
    None for a pure diffusion.  jump_floor = None picks the floor
    automatically: just below the smallest atom for atomic measures,
    otherwise 1e-3.
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


def resolved_jump_floor(params: LimitParams) -> float | None:
    if params.xi is None:
        return None
    if params.jump_floor is not None:
        return params.jump_floor
    atoms = as_atoms(params.xi)
    if atoms is not None:
        return min(z.masses[0] for _, z in atoms)
    return _DEFAULT_FLOOR


def jump_sampler(params: LimitParams,
                 rng: np.random.Generator | None = None) -> TruncatedSampler | None:
    floor = resolved_jump_floor(params)
    if floor is None:
        return None
    return TruncatedSampler(params.xi, floor, rng=rng)


@dataclass
class SdePath:
    """One simulated path: grid plus jump times, with a jump log."""

    times: np.ndarray
    values: np.ndarray
    jump_log: list[tuple[float, tuple[float, ...], float]] = field(default_factory=list)
    clamp_count: int = 0
    n_substeps: int = 0

    @property
    def final(self) -> float:
        return float(self.values[-1])


def _euler_substep(x: float, h: float, params: LimitParams,
                   rng: np.random.Generator) -> tuple[float, bool]:
    drift = params.selection_rate * branching_drift(params.offspring, x)
    x_new = x + drift * h
    if params.kingman_rate > 0.0:
        var = params.kingman_rate * x * (1.0 - x)
        if var > 0.0:
            x_new += math.sqrt(var * h) * rng.standard_normal()
    clamped = x_new < 0.0 or x_new > 1.0
    return min(max(x_new, 0.0), 1.0), clamped


def simulate_path(params: LimitParams, x0: float, total_time: float,
                  dt: float = _DEFAULT_DT,
                  rng: np.random.Generator | None = None) -> SdePath:
    """Euler scheme on a dt-grid with exact exponential jump times.

    Values are clamped to [0, 1] after every substep and the number of
    clamps is reported as a diagnostic.  States 0 and 1 are absorbing for
    drift, noise and jumps alike.
    """
    if not (0.0 <= x0 <= 1.0):
        raise ValueError("x0 must lie in [0, 1]")
    if total_time < 0.0 or dt <= 0.0:
        raise ValueError("need total_time >= 0 and dt > 0")
    if rng is None:
        raise ValueError("simulate_path needs an rng")
    sampler = jump_sampler(params, rng=rng)
    rate = sampler.rate if sampler is not None else 0.0

    jump_times: list[float] = []
    if rate > 0.0:
        t = rng.exponential(1.0 / rate)
        while t < total_time:
            jump_times.append(t)
            t += rng.exponential(1.0 / rate)
    grid = np.arange(0.0, total_time, dt)
    knots = np.unique(np.concatenate([grid, np.asarray(jump_times),
                                      [total_time]]))
    jump_set = set(jump_times)

    x = float(x0)
    times = [0.0]
    values = [x]
    path = SdePath(np.empty(0), np.empty(0))
    prev = 0.0
    for t in knots:
        if t <= prev:
            continue
        x, clamped = _euler_substep(x, t - prev, params, rng)
        path.n_substeps += 1
        path.clamp_count += int(clamped)
        if t in jump_set:
            xs = np.array([x])
            masses = _apply_jump_batch(xs, np.zeros(1, dtype=np.intp), sampler, rng)[0]
            x = float(xs[0])
            path.jump_log.append((float(t), tuple(masses[masses > 0.0].tolist()), x))
        times.append(float(t))
        values.append(x)
        prev = t
    path.times = np.asarray(times)
    path.values = np.asarray(values)
    return path


def simulate_batch(params: LimitParams, x0: float, total_time: float,
                   dt: float = _DEFAULT_DT, n_paths: int = 1,
                   rng: np.random.Generator | None = None,
                   return_diagnostics: bool = False):
    """Terminal values of many paths at once (vectorized Euler scheme).

    Jumps are counted per step from the Poisson clock and applied at the
    step boundary, the standard step-thinning for jump diffusions; the
    within-step displacement is of the same order as the Euler bias.
    Round r of a step jumps every path with at least r jumps, at a fixed
    number of numpy calls (one ``draw_masses``) whatever the jump family.
    """
    if not (0.0 <= x0 <= 1.0):
        raise ValueError("x0 must lie in [0, 1]")
    if total_time < 0.0 or dt <= 0.0:
        raise ValueError("need total_time >= 0 and dt > 0")
    if rng is None:
        raise ValueError("simulate_batch needs an rng")
    sampler = jump_sampler(params, rng=rng)
    rate = sampler.rate if sampler is not None else 0.0
    x = np.full(n_paths, float(x0))
    n_steps = int(math.ceil(total_time / dt - 1e-12))
    clamps = 0
    jumps_applied = 0
    t = 0.0
    for step in range(n_steps):
        h = min(dt, total_time - t)
        drift = params.selection_rate * branching_drift(params.offspring, x)
        x = x + drift * h
        if params.kingman_rate > 0.0:
            var = np.clip(params.kingman_rate * x * (1.0 - x), 0.0, None)
            x = x + np.sqrt(var * h) * rng.standard_normal(n_paths)
        clamps += int((x < 0.0).sum() + (x > 1.0).sum())
        np.clip(x, 0.0, 1.0, out=x)
        if rate > 0.0:
            counts = rng.poisson(rate * h, n_paths)
            top = int(counts.max()) if n_paths else 0
            for r in range(1, top + 1):
                idx = np.flatnonzero(counts >= r)
                _apply_jump_batch(x, idx, sampler, rng)
                jumps_applied += idx.size
        t += h
    if return_diagnostics:
        return x, {"clamp_count": clamps, "jumps_applied": jumps_applied,
                   "steps": n_steps, "jump_rate": rate}
    return x


def _apply_jump_batch(x: np.ndarray, idx: np.ndarray, sampler: TruncatedSampler,
                      rng: np.random.Generator) -> np.ndarray:
    """x <- x (1 - sum z) + sum z_i B_i at each path in ``idx``, B_i ~ Bernoulli(x);
    returns the drawn (len(idx), width) masses."""
    masses = sampler.draw_masses(idx.size, rng)
    xs = x[idx]
    flips = rng.random(masses.shape) < xs[:, None]
    x[idx] = (flips * masses).sum(axis=1) + xs * (1.0 - masses.sum(axis=1))
    return masses


# ---------------------------------------------------------------------------
# generator evaluations


def generator_apply_exact(params: LimitParams, n: int, x: float) -> float:
    """A x^n in closed form; needs an atomic measure (supports <= 12)."""
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
    jump_term = 0.0
    if params.xi is not None:
        atoms = as_atoms(params.xi)
        if atoms is None:
            raise ValueError("exact generator needs an atomic measure")
        for w, z in atoms:
            if len(z) > _MAX_ENUM_SUPPORT:
                raise ValueError("atom support too large for exact enumeration")
            masses = np.asarray(z.masses)
            resid = 1.0 - z.total
            expect = 0.0
            for bits in itertools.product((0, 1), repeat=len(z)):
                b = np.asarray(bits)
                p = float(np.prod(np.where(b, x, 1.0 - x)))
                expect += p * (x * resid + float(b @ masses)) ** n
            jump_term += (w / z.sum_sq) * (expect - x ** n)
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
        zb = np.einsum("ij,ij->i", flips, frac) if frac.ndim == 2 else frac * flips
        ws = totals * np.sqrt(rng.random(replicates))
        vs = rng.random(replicates)
        inner = x * (1.0 - ws) + vs * ws * zb
        second = n * (n - 1) * inner ** (n - 2)
        vals = 0.5 * mass * (zb - x) * zb / sum_sq_norm * second
    else:
        vals = np.zeros(replicates)
    est = McEstimate.from_samples(vals)
    mean = drift_term + est.mean
    lo, hi = est.interval
    return McEstimate(mean, est.std_error, est.replicates, est.confidence_level,
                      (drift_term + lo, drift_term + hi))


def normalized_draws(measure: XiMeasure, size: int, rng: np.random.Generator):
    """(group fractions, sum of squared fractions, total mass |Z|) per draw.

    Fractions come back as a dense (size, support) matrix for atomic
    families and as a vector for the one-atom Lambda families.
    """
    atoms = as_atoms(measure)
    if atoms is not None:
        weights = np.array([w for w, _ in atoms])
        which = rng.choice(len(atoms), size=size, p=weights / weights.sum())
        width = max(len(z) for _, z in atoms)
        frac = np.zeros((size, width))
        ssq = np.empty(size)
        tot = np.empty(size)
        for a, (_, z) in enumerate(atoms):
            sel = which == a
            if not sel.any():
                continue
            zn = np.asarray(z.normalized())
            frac[sel, :len(z)] = zn
            ssq[sel] = float(np.dot(zn, zn))
            tot[sel] = z.total
        return frac, ssq, tot
    from .simplex import LambdaBeta  # local import to keep module load light
    if isinstance(measure, LambdaBeta):
        ys = rng.beta(measure.a, measure.b, size=size)
        return np.ones(size), np.ones(size), ys
    frac_rows = []
    ssq = np.empty(size)
    tot = np.empty(size)
    width = 1
    for i in range(size):
        z = sample_point(measure, rng)
        zn = np.asarray(z.normalized())
        frac_rows.append(zn)
        ssq[i] = float(np.dot(zn, zn))
        tot[i] = z.total
        width = max(width, len(zn))
    frac = np.zeros((size, width))
    for i, row in enumerate(frac_rows):
        frac[i, :row.size] = row
    return frac, ssq, tot
