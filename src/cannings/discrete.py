"""The finite-population two-type model, forwards and backwards in time.

A population of fixed size holds two types; the state is the frequency x
of the weaker type.  Each generation is either ordinary (probability
1 - extreme_prob) or extreme.  Every child samples potential parents and
ends up of the weak type with probability

    ordinary generation:  pgf(parent_law, x)
    extreme generation:   pgf(parent_law, Y(x)),

where Y(x) is the weak-type share of the parental pool after an extreme
event with ranked group sizes Z drawn from xi_hat:

    Y(x) = sum_i B_i Z_i + x (1 - sum_i Z_i),   B_i i.i.d. Bernoulli(x).

Given the parental pool, children are sampled independently, so the next
frequency is Binomial(pop_size, p) / pop_size.

Backwards in time, a sample of n lineages draws, per lineage, a
parent-count K from parent_law and K uniform labels (ordinary) or
group-directed labels (extreme); the new state is the number of distinct
labels.  The sampling probability

    S(x, n) = (1 - g) pgf(x)^n + g E[ pgf(Y(x))^n ]

is in duality between the two chains: E_x[S(X_g, n)] = E_n[S(x, D_g)]
holds exactly, generation by generation.

``exact_transition_matrices`` builds both transition kernels in closed
form.  The ancestral kernel uses an occupancy identity: for a label set
of size j, the chance that one lineage's picks all land inside it is a
pgf evaluation, so P(D = d) follows by inclusion-exclusion over subset
sizes.  This stays exact for unbounded parent-count laws.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import betaln
from scipy.stats import binom

from .mc import McEstimate
from .selection import SelectionLaw, pgf, sample_parent_counts
from .simplex import (LambdaBeta, SimplexPoint, XiMeasure, as_atoms,
                      sample_point, total_mass)

#: exact kernels refuse larger populations and atom supports
MAX_EXACT_POP = 6
MAX_EXACT_SUPPORT = 3
_MAX_ENUM_SUPPORT = 12
_EXACT_TOL = 1e-10


@dataclass(frozen=True)
class DiscreteParams:
    """Fixed-size model parameters.

    xi_hat must be normalized (total mass 1); it may be omitted only when
    extreme generations never happen (extreme_prob = 0).
    """

    pop_size: int
    extreme_prob: float
    parent_law: SelectionLaw
    xi_hat: XiMeasure | None = None

    def __post_init__(self) -> None:
        if self.pop_size < 2:
            raise ValueError("pop_size must be at least 2")
        if not (0.0 <= self.extreme_prob <= 1.0):
            raise ValueError("extreme_prob must lie in [0, 1]")
        if self.xi_hat is None:
            if self.extreme_prob > 0.0:
                raise ValueError("extreme_prob > 0 needs a xi_hat measure")
        elif abs(total_mass(self.xi_hat) - 1.0) > 1e-9:
            raise ValueError("xi_hat must be normalized to total mass 1")


def post_event_frequency(x: float, z: SimplexPoint,
                         rng: np.random.Generator) -> float:
    """Weak-type share of the parental pool after one extreme event.

    Each group adopts the weak type independently with probability x;
    the residual pool keeps the pre-event frequency.  Degenerate at
    x = 0 and x = 1, and equal to x exactly when z carries no mass.
    """
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    if len(z) == 0:
        return x
    flips = rng.random(len(z)) < x
    return float(np.dot(flips, z.masses) + x * z.residual)


def forward_step(params: DiscreteParams, x: float,
                 rng: np.random.Generator) -> float:
    """One forward generation; returns the new weak-type frequency."""
    n = params.pop_size
    if params.extreme_prob > 0.0 and rng.random() < params.extreme_prob:
        z = sample_point(params.xi_hat, rng)
        p = pgf(params.parent_law, post_event_frequency(x, z, rng))
    else:
        p = pgf(params.parent_law, x)
    return rng.binomial(n, p) / n


def forward_trajectories(params: DiscreteParams, x0: float, generations: int,
                         replicates: int, rng: np.random.Generator) -> np.ndarray:
    """Replicate forward paths, vectorized; shape (replicates, generations + 1)."""
    n = params.pop_size
    _require_grid_state(params, x0)
    out = np.empty((replicates, generations + 1))
    x = np.full(replicates, float(x0))
    out[:, 0] = x
    for g in range(1, generations + 1):
        p = np.asarray(pgf(params.parent_law, x), dtype=float)
        if params.extreme_prob > 0.0:
            extreme = rng.random(replicates) < params.extreme_prob
            idx = np.flatnonzero(extreme)
            if idx.size:
                p[idx] = pgf(params.parent_law,
                             _post_event_batch(params.xi_hat, x[idx], rng))
        x = rng.binomial(n, p) / n
        out[:, g] = x
    return out


def _post_event_batch(measure: XiMeasure, xs: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
    atoms = as_atoms(measure)
    ys = np.empty_like(xs)
    if atoms is not None:
        weights = np.array([w for w, _ in atoms])
        which = rng.choice(len(atoms), size=xs.size, p=weights / weights.sum())
        for a, (_, z) in enumerate(atoms):
            sel = np.flatnonzero(which == a)
            if sel.size == 0:
                continue
            flips = rng.random((sel.size, len(z))) < xs[sel, None]
            ys[sel] = flips @ np.asarray(z.masses) + xs[sel] * z.residual
        return ys
    for i, x in enumerate(xs):
        ys[i] = post_event_frequency(float(x), sample_point(measure, rng), rng)
    return ys


def _enum_bernoulli(z: SimplexPoint, x: float):
    """Yield (probability, weak share) over all group adoption patterns."""
    m = len(z)
    masses = np.asarray(z.masses)
    resid = z.residual
    for bits in itertools.product((0, 1), repeat=m):
        b = np.asarray(bits)
        prob = float(np.prod(np.where(b, x, 1.0 - x)))
        yield prob, float(b @ masses + x * resid)


def sampling_probability(params: DiscreteParams, x: float, n: int,
                         mode: str = "exact", replicates: int = 10_000,
                         rng: np.random.Generator | None = None):
    """S(x, n): probability that n sampled children are all of the weak type.

    Exact mode enumerates group-adoption patterns over the atoms of
    xi_hat (supports of size up to 12), or integrates over the group
    size for a Beta xi_hat; stick-breaking xi_hat has no exact mode.  MC
    mode averages over sampled extreme events and returns an McEstimate.
    """
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    if n < 1:
        raise ValueError("n must be at least 1")
    g = params.extreme_prob
    base = pgf(params.parent_law, x) ** n
    if g == 0.0:
        return base if mode == "exact" else McEstimate.exact(base)
    if mode == "exact":
        return (1.0 - g) * base + g * _extreme_sampling_term(params, x, n)
    if mode != "mc":
        raise ValueError("mode must be 'exact' or 'mc'")
    if rng is None:
        raise ValueError("MC mode needs an rng")
    vals = np.empty(replicates)
    for i in range(replicates):
        z = sample_point(params.xi_hat, rng)
        vals[i] = pgf(params.parent_law, post_event_frequency(x, z, rng)) ** n
    est = McEstimate.from_samples((1.0 - g) * base + g * vals)
    return est


def _extreme_sampling_term(params: DiscreteParams, x: float, n: int) -> float:
    measure = params.xi_hat
    law = params.parent_law
    if isinstance(measure, LambdaBeta):
        # one group of size y ~ Beta(a, b); it adopts the weak type w.p. x
        def integrand(y: float) -> float:
            return (x * pgf(law, y + x * (1.0 - y)) ** n
                    + (1.0 - x) * pgf(law, x * (1.0 - y)) ** n)

        # weight="alg" integrates against y^(a-1) (1-y)^(b-1) exactly
        val, _ = integrate.quad(integrand, 0.0, 1.0, weight="alg",
                                wvar=(measure.a - 1.0, measure.b - 1.0))
        return val * math.exp(-betaln(measure.a, measure.b))
    atoms = as_atoms(measure)
    if atoms is None:
        raise ValueError("no exact sampling probability for a "
                         f"{type(measure).__name__} xi_hat")
    tot = sum(w for w, _ in atoms)
    acc = 0.0
    for w, z in atoms:
        if len(z) > _MAX_ENUM_SUPPORT:
            raise ValueError("atom support too large for exact mode; use mode='mc'")
        acc += (w / tot) * sum(p * pgf(params.parent_law, y) ** n
                               for p, y in _enum_bernoulli(z, x))
    return acc


def ancestral_step(params: DiscreteParams, n: int,
                   rng: np.random.Generator) -> int:
    """One generation backwards: n lineages pick parents, labels collapse.

    In an ordinary generation every pick is a uniform label.  In an
    extreme generation each pick joins ranked group i with probability
    Z_i (all picks of a group share one uniform label, drawn once per
    generation) or stays solo with probability 1 - sum(Z), drawing a
    fresh uniform label.  An infinite parent count touches every label.
    """
    if not (1 <= n <= params.pop_size):
        raise ValueError("n must lie in 1..pop_size")
    pop = params.pop_size
    ks = sample_parent_counts(params.parent_law, n, rng)
    if (ks < 0).any():
        return pop
    t = int(ks.sum())
    if params.extreme_prob > 0.0 and rng.random() < params.extreme_prob:
        z = sample_point(params.xi_hat, rng)
        m = len(z)
        # cell m is the solo pool, cells 0..m-1 the ranked groups
        probs = np.append(np.asarray(z.masses), z.residual)
        cells = rng.choice(m + 1, size=t, p=probs / probs.sum())
        n_solo = int((cells == m).sum())
        hit_groups = np.unique(cells[cells < m])
        labels = rng.integers(0, pop, size=n_solo + hit_groups.size)
    else:
        labels = rng.integers(0, pop, size=t)
    return int(np.unique(labels).size)


def ancestral_trajectories(params: DiscreteParams, n0: int, generations: int,
                           replicates: int, rng: np.random.Generator) -> np.ndarray:
    out = np.empty((replicates, generations + 1), dtype=np.int64)
    for r in range(replicates):
        n = n0
        out[r, 0] = n
        for g in range(1, generations + 1):
            n = ancestral_step(params, n, rng)
            out[r, g] = n
    return out


# ---------------------------------------------------------------------------
# exact transition kernels


def _require_grid_state(params: DiscreteParams, x: float) -> int:
    i = round(x * params.pop_size)
    if abs(x * params.pop_size - i) > 1e-9:
        raise ValueError("x must sit on the frequency grid i / pop_size")
    return int(i)


def _lineage_inside_prob(law: SelectionLaw, q: float) -> float:
    # chance that all picks of one lineage land in a label set of
    # pool-probability q; the infinity mass contributes only at q = 1,
    # which is handled by the caller through the j = pop_size column
    return pgf(law, q)


def _occupancy_pmf(pop: int, inside: np.ndarray) -> np.ndarray:
    """P(D = d), d = 1..pop, from P(all picks inside a j-subset), j = 0..pop.

    Inclusion-exclusion over label subsets:
    P(D = d) = C(pop, d) * sum_j (-1)^(d-j) C(d, j) inside[j].
    """
    out = np.zeros(pop)
    for d in range(1, pop + 1):
        s = 0.0
        for j in range(d + 1):
            s += (-1.0) ** (d - j) * math.comb(d, j) * inside[j]
        out[d - 1] = math.comb(pop, d) * s
    np.clip(out, 0.0, 1.0, out=out)
    return out


def _ordinary_row(params: DiscreteParams, n: int) -> np.ndarray:
    pop = params.pop_size
    law = params.parent_law
    inside = np.empty(pop + 1)
    for j in range(pop + 1):
        psi = _lineage_inside_prob(law, j / pop)
        if j == pop:
            psi += law.inf_mass
        inside[j] = psi ** n
    return _occupancy_pmf(pop, inside)


def _extreme_row(params: DiscreteParams, n: int, z: SimplexPoint) -> np.ndarray:
    pop = params.pop_size
    law = params.parent_law
    masses = np.asarray(z.masses)
    resid = z.residual
    m = len(z)
    inside = np.empty(pop + 1)
    for j in range(pop + 1):
        pj = j / pop
        acc = 0.0
        # condition on which ranked groups drew their shared label inside
        for bits in itertools.product((0, 1), repeat=m):
            b = np.asarray(bits)
            w = float(np.prod(np.where(b, pj, 1.0 - pj)))
            if w == 0.0:
                continue
            q = float(b @ masses) + resid * pj
            psi = pgf(law, min(q, 1.0))
            if j == pop:
                psi += law.inf_mass
            acc += w * psi ** n
        inside[j] = acc
    return _occupancy_pmf(pop, inside)


def exact_transition_matrices(params: DiscreteParams) -> tuple[np.ndarray, np.ndarray]:
    """Forward kernel on {0, 1/N, ..., 1} and ancestral kernel on {1..N}.

    Exact enumeration; refuses pop_size > 6 or atom supports > 3.  The
    parent-count law may have unbounded support (only its pgf enters).
    """
    pop = params.pop_size
    if pop > MAX_EXACT_POP:
        raise ValueError(f"exact kernels support pop_size <= {MAX_EXACT_POP}")
    atoms = ()
    if params.extreme_prob > 0.0:
        atoms = as_atoms(params.xi_hat)
        if atoms is None:
            raise ValueError("exact kernels need an atomic xi_hat")
        if any(len(z) > MAX_EXACT_SUPPORT for _, z in atoms):
            raise ValueError(f"exact kernels support atoms of size <= {MAX_EXACT_SUPPORT}")
    g = params.extreme_prob
    counts = np.arange(pop + 1)

    forward = np.zeros((pop + 1, pop + 1))
    for i in range(pop + 1):
        x = i / pop
        row = (1.0 - g) * binom.pmf(counts, pop, pgf(params.parent_law, x))
        for w, z in atoms:
            for p, y in _enum_bernoulli(z, x):
                row = row + g * w * p * binom.pmf(counts, pop,
                                                  pgf(params.parent_law, y))
        forward[i] = row

    ancestral = np.zeros((pop, pop))
    for n in range(1, pop + 1):
        row = (1.0 - g) * _ordinary_row(params, n)
        for w, z in atoms:
            row = row + g * w * _extreme_row(params, n, z)
        ancestral[n - 1] = row

    return forward, ancestral


# ---------------------------------------------------------------------------
# duality checks


@dataclass(frozen=True)
class DualityReport:
    mode: str
    lhs: float
    rhs: float
    gap: float
    tolerance: float
    passed: bool
    lhs_se: float = 0.0
    rhs_se: float = 0.0

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


def sampling_duality_check(params: DiscreteParams, x: float, n: int, g: int,
                           mode: str = "exact", replicates: int = 100_000,
                           rng: np.random.Generator | None = None,
                           tolerance: float = _EXACT_TOL) -> DualityReport:
    """Check E_x[S(X_g, n)] = E_n[S(x, D_g)] after g generations.

    Exact mode pushes both kernels g steps and compares to ``tolerance``
    (default 1e-10); MC mode simulates both chains and compares the gap
    against 3 combined standard errors.
    """
    pop = params.pop_size
    if not (1 <= n <= pop):
        raise ValueError("n must lie in 1..pop_size")
    ix = _require_grid_state(params, x)
    if mode == "exact":
        forward, ancestral = exact_transition_matrices(params)
        s_states = np.array([sampling_probability(params, i / pop, n)
                             for i in range(pop + 1)])
        s_counts = np.array([sampling_probability(params, x, j)
                             for j in range(1, pop + 1)])
        fwd_dist = np.linalg.matrix_power(forward, g)[ix]
        anc_dist = np.linalg.matrix_power(ancestral, g)[n - 1]
        lhs = float(fwd_dist @ s_states)
        rhs = float(anc_dist @ s_counts)
        gap = abs(lhs - rhs)
        return DualityReport("exact", lhs, rhs, gap, tolerance, gap < tolerance)
    if mode != "mc":
        raise ValueError("mode must be 'exact' or 'mc'")
    if rng is None:
        raise ValueError("MC mode needs an rng")
    fwd = forward_trajectories(params, x, g, replicates, rng)[:, -1]
    lhs_vals = np.array([sampling_probability(params, float(v), n) for v in
                         np.unique(fwd)])
    uniq = {float(v): s for v, s in zip(np.unique(fwd), lhs_vals)}
    lhs_est = McEstimate.from_samples([uniq[float(v)] for v in fwd])
    anc = ancestral_trajectories(params, n, g, replicates, rng)[:, -1]
    s_counts = {j: sampling_probability(params, x, int(j)) for j in np.unique(anc)}
    rhs_est = McEstimate.from_samples([s_counts[int(j)] for j in anc])
    gap = abs(lhs_est.mean - rhs_est.mean)
    combined = math.hypot(lhs_est.std_error, rhs_est.std_error)
    return DualityReport("mc", lhs_est.mean, rhs_est.mean, gap, 3.0 * combined,
                         gap <= 3.0 * combined, lhs_est.std_error,
                         rhs_est.std_error)


def forward_moment_mc(params: DiscreteParams, x0: float, generations: int,
                      order: int, replicates: int,
                      rng: np.random.Generator) -> McEstimate:
    """Monte-Carlo estimate of E[(X_g)^order] from replicate forward runs."""
    finals = forward_trajectories(params, x0, generations, replicates, rng)[:, -1]
    return McEstimate.from_samples(finals ** order)


def ancestral_moment_mc(params: DiscreteParams, n0: int, generations: int,
                        x: float, replicates: int,
                        rng: np.random.Generator) -> McEstimate:
    """Monte-Carlo E[x^(D_g)] from replicate ancestral runs."""
    finals = ancestral_trajectories(params, n0, generations, replicates, rng)[:, -1]
    return McEstimate.from_samples(np.asarray(x, dtype=float) ** finals)
