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
labels.  ``ancestral_trajectories`` runs one replicate after another
through one step function, built once per call with all that does not
depend on n computed up front; each step draws the total parent count,
the extreme-generation coin, the atom of a multi-atom xi_hat, the cells
(by a search of the cell CDF, with ``rng.choice``'s arithmetic) and the
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

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaln, comb

from .mc import Check, McEstimate, compare
from .selection import SelectionLaw, pgf, sample_parent_total
from .simplex import (LambdaBeta, SimplexPoint, XiMeasure, as_atoms,
                      bernoulli_patterns, binomial_pmf, jump_map,
                      sample_masses, total_mass)

#: exact kernels refuse larger populations and atom supports
MAX_EXACT_POP = 6
MAX_EXACT_SUPPORT = 3
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
                masses = sample_masses(params.xi_hat, idx.size, rng)
                ys = jump_map(x[idx], masses, rng.random(masses.shape))
                p[idx] = pgf(params.parent_law, ys)
        x = rng.binomial(n, p) / n
        out[:, g] = x
    return out


def sampling_probability(params: DiscreteParams, x: float, n: int) -> float:
    """S(x, n): probability that n sampled children are all of the weak type.

    Sums over the group-adoption patterns of each atom of xi_hat
    (``bernoulli_patterns``, supports of size up to 12), or integrates
    over the group size for a Beta xi_hat; stick-breaking xi_hat has no
    exact S.
    """
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    if n < 1:
        raise ValueError("n must be at least 1")
    g = params.extreme_prob
    base = pgf(params.parent_law, x) ** n
    if g == 0.0:
        return base
    return (1.0 - g) * base + g * _extreme_sampling_term(params, x, n)


def _extreme_sampling_term(params: DiscreteParams, x: float, n: int) -> float:
    measure = params.xi_hat
    law = params.parent_law
    if isinstance(measure, LambdaBeta):
        from scipy import integrate  # the only quadrature; a slow import

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
        probs, ys = bernoulli_patterns(z, x)
        acc += (w / tot) * (probs @ pgf(law, ys) ** n)
    return acc


def ancestral_trajectories(params: DiscreteParams, n0: int, generations: int,
                           replicates: int, rng: np.random.Generator) -> np.ndarray:
    """Replicate backward paths, one replicate after another; shape
    (replicates, generations + 1).

    In an extreme generation each pick joins ranked group i with
    probability Z_i (all picks of a group share one uniform label) or
    stays solo with probability 1 - sum(Z), drawing a fresh uniform
    label.  An infinite parent count touches every label.
    """
    if not (1 <= n0 <= params.pop_size):
        raise ValueError("n0 must lie in 1..pop_size")
    step = _ancestral_stepper(params, rng)
    out = np.empty((replicates, generations + 1), dtype=np.int64)
    for r in range(replicates):
        n = n0
        out[r, 0] = n
        for g in range(1, generations + 1):
            n = step(n)
            out[r, g] = n
    return out


def _cell_cdf(z) -> np.ndarray:
    """CDF over the cells of an extreme generation at the point z: the
    ranked groups, then the solo pool.  The arithmetic is ``rng.choice``'s
    with these cell probabilities, so searching it with ``rng.random(t)``
    draws the cells ``rng.choice(len(z) + 1, size=t, p=...)`` would."""
    probs = np.append(z, max(0.0, 1.0 - sum(z)))
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def _ancestral_stepper(params: DiscreteParams, rng: np.random.Generator):
    """The ancestral step as a function of n, with all that does not
    depend on n computed once: the model constants, the bound rng
    methods and, for an atomic xi_hat, one cell CDF per atom and the CDF
    over the atoms.  A single atom draws no point; several draw their
    atom with ``rng.choice``'s arithmetic, as ``sample_masses(xi_hat, 1,
    rng)`` would, and continuous xi_hat draw their point through it.
    Distinct labels are counted with a set."""
    pop = params.pop_size
    law = params.parent_law
    g = params.extreme_prob
    xi = params.xi_hat
    random, integers = rng.random, rng.integers
    atoms = as_atoms(xi) if g > 0.0 else None
    cell_cdfs = atom_cdf = None
    if atoms is not None:
        # rows padded to the widest atom, as ``sample_masses`` pads them
        width = max(len(z) for _, z in atoms)
        cell_cdfs = [_cell_cdf(z.masses + (0.0,) * (width - len(z)))
                     for _, z in atoms]
        weights = np.array([w for w, _ in atoms])
        atom_cdf = (weights / weights.sum()).cumsum()
        atom_cdf /= atom_cdf[-1]

    def step(n: int) -> int:
        t = sample_parent_total(law, n, rng)
        if t < 0:
            return pop
        if g > 0.0 and random() < g:
            if cell_cdfs is None:
                cdf = _cell_cdf(sample_masses(xi, 1, rng)[0])
            elif len(cell_cdfs) == 1:
                cdf = cell_cdfs[0]
            else:
                cdf = cell_cdfs[atom_cdf.searchsorted(random(1),
                                                      side="right")[0]]
            # cell len(cdf) - 1 is the solo pool, the others the ranked
            # groups (zero padding adds empty cells, which are never picked)
            solo = len(cdf) - 1
            cells = cdf.searchsorted(random(t), side="right").tolist()
            n_solo = cells.count(solo)
            n_groups = len(set(cells)) - (n_solo > 0)
            labels = integers(0, pop, size=n_solo + n_groups)
        else:
            labels = integers(0, pop, size=t)
        return len(set(labels.tolist()))

    return step


# ---------------------------------------------------------------------------
# exact transition kernels


def _require_grid_state(params: DiscreteParams, x: float) -> int:
    i = round(x * params.pop_size)
    if abs(x * params.pop_size - i) > 1e-9:
        raise ValueError("x must sit on the frequency grid i / pop_size")
    return int(i)


def _occupancy_pmf(pop: int, inside: np.ndarray) -> np.ndarray:
    """P(D = d), d = 1..pop, from P(all picks inside a j-subset), j = 0..pop,
    for each row of ``inside``.

    Inclusion-exclusion over label subsets:
    P(D = d) = C(pop, d) * sum_j (-1)^(d-j) C(d, j) inside[j].
    """
    d = np.arange(1, pop + 1)[:, None]
    j = np.arange(pop + 1)
    weights = comb(pop, d) * (-1.0) ** (d - j) * comb(d, j)  # 0 for j > d
    return np.clip(inside @ weights.T, 0.0, 1.0)


def _point_kernels(params: DiscreteParams,
                   z: SimplexPoint) -> tuple[np.ndarray, np.ndarray]:
    """Forward and ancestral kernels of a generation whose event is the
    point z; the empty point is an ordinary generation.

    Forward from x = i / pop, each group adopts the weak type with
    probability x.  Backward, the chance that one lineage's picks all
    land in a j-subset of labels conditions on which groups drew their
    shared label inside it, each with probability j / pop: the same
    patterns at x = j / pop.
    """
    pop = params.pop_size
    law = params.parent_law
    counts = np.arange(pop + 1)
    probs, ys = bernoulli_patterns(z, counts / pop)  # (pop + 1, 2^m)
    psi = pgf(law, np.minimum(ys, 1.0))
    forward = np.einsum("ip,ipc->ic", probs,
                        binomial_pmf(pop, psi)[..., pop, :])
    # the infinity mass puts a lineage's picks inside the full label set only
    psi[-1] += law.inf_mass
    lineages = np.arange(1, pop + 1)[:, None, None]
    inside = (probs * psi ** lineages).sum(axis=-1)  # (pop, pop + 1)
    return forward, _occupancy_pmf(pop, inside)


def has_exact_kernels(params: DiscreteParams) -> bool:
    """Whether ``exact_transition_matrices`` builds the model's kernels:
    pop_size <= MAX_EXACT_POP and, with extreme generations, an atomic
    xi_hat whose atoms have supports <= MAX_EXACT_SUPPORT."""
    atoms = as_atoms(params.xi_hat) if params.extreme_prob > 0.0 else ()
    return (params.pop_size <= MAX_EXACT_POP and atoms is not None
            and all(len(z) <= MAX_EXACT_SUPPORT for _, z in atoms))


def exact_transition_matrices(params: DiscreteParams) -> tuple[np.ndarray, np.ndarray]:
    """Forward kernel on {0, 1/N, ..., 1} and ancestral kernel on {1..N}.

    Exact enumeration, for the models of ``has_exact_kernels``.  The
    parent-count law may have unbounded support (only its pgf enters).
    """
    if not has_exact_kernels(params):
        raise ValueError(f"exact kernels need pop_size <= {MAX_EXACT_POP} "
                         "and an atomic xi_hat with atom supports <= "
                         f"{MAX_EXACT_SUPPORT}")
    pop = params.pop_size
    g = params.extreme_prob
    atoms = as_atoms(params.xi_hat) if g > 0.0 else ()
    forward = np.zeros((pop + 1, pop + 1))
    ancestral = np.zeros((pop, pop))
    # an ordinary generation is an event at the empty point
    events = [(1.0 - g, SimplexPoint(()))] + [(g * w, z) for w, z in atoms]
    for weight, z in events:
        fwd, anc = _point_kernels(params, z)
        forward += weight * fwd
        ancestral += weight * anc
    return forward, ancestral


# ---------------------------------------------------------------------------
# duality checks


def sampling_duality_check(params: DiscreteParams, x: float, n: int, g: int,
                           mode: str = "exact", replicates: int = 100_000,
                           rng: np.random.Generator | None = None) -> Check:
    """Check E_x[S(X_g, n)] = E_n[S(x, D_g)] after g generations.

    Exact mode pushes both kernels g steps and passes a gap below 1e-10;
    MC mode simulates both chains and ``compare``s the two estimates.
    Both sides use the exact S.
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
        return Check(McEstimate.exact(lhs), McEstimate.exact(rhs), gap, 0.0,
                     _EXACT_TOL, "pass" if gap < _EXACT_TOL else "fail")
    if mode != "mc":
        raise ValueError("mode must be 'exact' or 'mc'")
    if rng is None:
        raise ValueError("MC mode needs an rng")
    fwd = forward_trajectories(params, x, g, replicates, rng)[:, -1]
    states, at = np.unique(fwd, return_inverse=True)
    s_states = np.array([sampling_probability(params, float(v), n)
                         for v in states])
    lhs = McEstimate.from_samples(s_states[at])
    anc = ancestral_trajectories(params, n, g, replicates, rng)[:, -1]
    counts, at = np.unique(anc, return_inverse=True)
    s_counts = np.array([sampling_probability(params, x, int(j))
                         for j in counts])
    return compare(lhs, McEstimate.from_samples(s_counts[at]))
