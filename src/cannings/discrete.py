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
labels.  ``ancestral_trajectories`` takes one step per generation for all
replicates at once: each kind of draw (parent counts, extreme coins,
points, cells, labels) is one call for the whole generation, and the
distinct labels are counted by sorting (replicate, label) keys.  The
sampling probability

    S(x, n) = (1 - g) pgf(x)^n + g E[ pgf(Y(x))^n ]

is in duality between the two chains: E_x[S(X_g, n)] = E_n[S(x, D_g)]
holds exactly, generation by generation.  On the grid S[i, n] =
S(i / pop_size, n), with F the forward and A the ancestral kernel, that
is one matrix identity, F S = S A^T, so F^g S = S (A^T)^g for every g:
exact mode checks it whole.

S, both kernels and the exact check sum over one event list, ``_events``:
the ordinary generation as the empty point (Y(x) = x), weight 1 - g, then
xi_hat's atoms, or a Beta xi_hat's Gauss-Jacobi nodes sized to each sum
(``simplex.beta_nodes``), with weights g w / sum(w), normalised once.

``exact_transition_matrices`` builds both transition kernels in closed
form.  Given the event, every pick lands independently, so D after n
lineages depends on their parent counts only through the total pick
count T_n: the ancestral kernel weighs the law of T_n
(``selection.parent_total_pmf``) against the law of the labels drawn
after t picks, one sweep for every t (``simplex.pick_laws``).  Its terms
are all non-negative, so its rows sum to 1 to rounding at any size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mc import Check, McEstimate, compare
from .selection import (SelectionLaw, parent_total_pmf, pgf,
                        sample_parent_total)
from .simplex import (MAX_EXACT_SUPPORT, LambdaBeta, SimplexPoint, XiMeasure,
                      as_atoms, bernoulli_patterns, beta_nodes, binomial_pmf,
                      jump_map, pick_laws, sample_masses, total_mass)

#: the CLI runs the duality check in exact mode only up to MAX_EXACT_POP
MAX_EXACT_POP = 6
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


def sampling_probability(params: DiscreteParams, x, n):
    """S(x, n): probability that n sampled children are all of the weak type.

    The sum of w pgf(Y(x))^n over the events (``_events``) and each
    event's group-adoption patterns (``bernoulli_patterns``, supports of
    size up to 12); stick-breaking xi_hat has no exact S.  x and n
    broadcast against each other; scalars give a float.
    """
    xs = np.asarray(x, dtype=float)
    ns = np.asarray(n)
    if not np.all((xs >= 0.0) & (xs <= 1.0)):
        raise ValueError("x must lie in [0, 1]")
    if np.any(ns < 1):
        raise ValueError("n must be at least 1")
    events = _events(params, int(ns.max(initial=1)))
    if events is None:
        raise ValueError("no exact sampling probability for a "
                         f"{type(params.xi_hat).__name__} xi_hat")
    out = 0.0
    for w, z in events:
        probs, ys = bernoulli_patterns(z, xs)
        terms = probs * pgf(params.parent_law, ys) ** ns[..., None]
        out = out + w * terms.sum(axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def _events(params: DiscreteParams, size: int):
    """A generation's events as (weight, point): the ordinary generation
    as the empty point, weight 1 - g, then xi_hat's atoms, weights
    g w / sum(w).  A Beta xi_hat gives 32 + 4 ceil(sqrt(size)) nodes
    (``beta_nodes``), a rule that integrates pgf(Y)^size to rounding.
    None for stick-breaking when g > 0."""
    g = params.extreme_prob
    events = [(1.0 - g, SimplexPoint(()))]
    if g == 0.0:
        return events
    xi = params.xi_hat
    if isinstance(xi, LambdaBeta):
        atoms = beta_nodes(xi.a, xi.b, 32 + 4 * math.ceil(math.sqrt(size)))
    else:
        atoms = as_atoms(xi)
        if atoms is None:
            return None
    tot = sum(w for w, _ in atoms)
    return events + [(g * w / tot, z) for w, z in atoms]


def ancestral_trajectories(params: DiscreteParams, n0: int, generations: int,
                           replicates: int, rng: np.random.Generator) -> np.ndarray:
    """Replicate backward paths, one batched step per generation for all
    replicates; shape (replicates, generations + 1).

    In an extreme generation each pick joins ranked group i with
    probability Z_i (all picks of a group share one uniform label) or
    stays solo with probability 1 - sum(Z), drawing a fresh uniform
    label.  An infinite parent count touches every label.
    """
    if not (1 <= n0 <= params.pop_size):
        raise ValueError("n0 must lie in 1..pop_size")
    out = np.empty((replicates, generations + 1), dtype=np.int64)
    n = np.full(replicates, n0, dtype=np.int64)
    out[:, 0] = n
    for g in range(1, generations + 1):
        n = _ancestral_step(params, n, rng)
        out[:, g] = n
    return out


def _ancestral_step(params: DiscreteParams, n: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """The lineage counts one generation back, for every replicate at once.

    Draws, in this order: every lineage's parent count (one
    ``sample_parent_total`` call), the extreme-generation coins, each
    extreme replicate's point (one ``sample_masses`` call), the cell of
    every pick in an extreme replicate, and one uniform label per slot.
    A slot is a pick of an ordinary replicate, a solo pick, or a
    non-empty group of one replicate.  The distinct labels of each
    replicate are counted by sorting the keys replicate * pop_size + label.
    """
    pop = params.pop_size
    picks = sample_parent_total(params.parent_law, n, rng)
    full = picks < 0
    picks[full] = 0
    plain = np.arange(n.size)
    owners = []
    if params.extreme_prob > 0.0:
        extreme = rng.random(n.size) < params.extreme_prob
        ext, plain = np.flatnonzero(extreme), np.flatnonzero(~extreme)
        masses = sample_masses(params.xi_hat, ext.size, rng)
        width = masses.shape[1]
        # cells 0..width-1 are the ranked groups (zero padding makes empty
        # cells, which no pick lands in), cell width the solo pool
        solo_mass = np.maximum(0.0, 1.0 - masses.sum(axis=1))
        cdf = np.column_stack((masses, solo_mass)).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        row = np.repeat(np.arange(ext.size), picks[ext])
        cell = (rng.random(row.size)[:, None] >= cdf[row]).sum(axis=1)
        solo = cell == width
        hit = np.zeros((ext.size, width), dtype=bool)
        hit[row[~solo], cell[~solo]] = True
        owners += [ext[row[solo]], ext[hit.nonzero()[0]]]
    owners.append(np.repeat(plain, picks[plain]))
    owner = np.concatenate(owners)
    keys = owner * pop + rng.integers(0, pop, size=owner.size)
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    d = np.bincount(keys[first] // pop, minlength=n.size)
    d[full] = pop
    return d


# ---------------------------------------------------------------------------
# exact transition kernels


def _require_grid_state(params: DiscreteParams, x: float) -> int:
    i = round(x * params.pop_size)
    if abs(x * params.pop_size - i) > 1e-9 or not 0 <= i <= params.pop_size:
        raise ValueError("x must be a grid point i / pop_size of [0, 1]")
    return int(i)


def _enumerable(params: DiscreteParams) -> bool:
    """Whether the kernels take the model: every xi_hat but stick-breaking
    and atoms wider than MAX_EXACT_SUPPORT (a Beta node has one group)."""
    if params.extreme_prob == 0.0 or isinstance(params.xi_hat, LambdaBeta):
        return True
    atoms = as_atoms(params.xi_hat)
    return (atoms is not None
            and max(len(z) for _, z in atoms) <= MAX_EXACT_SUPPORT)


def has_exact_kernels(params: DiscreteParams) -> bool:
    """Whether the CLI checks the model's duality in exact mode: the
    kernels take it (``_enumerable``) and pop_size <= MAX_EXACT_POP."""
    return params.pop_size <= MAX_EXACT_POP and _enumerable(params)


def exact_transition_matrices(params: DiscreteParams) -> tuple[np.ndarray, np.ndarray]:
    """Forward kernel on {0, 1/N, ..., 1} and ancestral kernel on {1..N}.

    Exact sums over S's events (``_events``, Beta nodes sized for the
    largest pick total), for every pop_size, unless ``_enumerable``
    refuses the model.  The parent-count law may have unbounded support.
    """
    if not _enumerable(params):
        raise ValueError("exact kernels need an atomic or Beta xi_hat with "
                         f"atom supports <= {MAX_EXACT_SUPPORT}")
    pop = params.pop_size
    totals = parent_total_pmf(params.parent_law, pop)
    events = _events(params, totals.shape[1] - 1)
    grid = np.arange(pop + 1) / pop
    forward = 0.0
    for w, z in events:
        # from x = i / pop each group of z adopts the weak type with
        # probability x; the children are Binomial(pop, pgf(Y(x)))
        probs, ys = bernoulli_patterns(z, grid)
        psi = pgf(params.parent_law, np.minimum(ys, 1.0))
        forward = forward + w * np.einsum("ip,ipc->ic", probs,
                                          binomial_pmf(pop, psi))
    # a drawn label is uniform: new with probability (pop - d) / pop
    fresh = np.arange(pop, -1, -1) / pop
    ancestral = totals @ pick_laws(events, totals.shape[1] - 1, fresh)[:, 1:]
    # the totals leave out an infinite count, which draws every label
    # (and the tail cut from a geometric count, below 1e-14 a lineage)
    ancestral[:, -1] += np.maximum(0.0, 1.0 - ancestral.sum(axis=1))
    return forward, ancestral


# ---------------------------------------------------------------------------
# duality checks


def sampling_duality_check(params: DiscreteParams, x: float, n: int, g: int,
                           mode: str = "exact", replicates: int = 100_000,
                           rng: np.random.Generator | None = None) -> Check:
    """Check E_x[S(X_g, n)] = E_n[S(x, D_g)] after g generations.

    Exact mode pushes the whole grid S g generations each way, to F^g S
    and S (A^T)^g (module docstring): its gap, the largest entry of the
    difference, passes below 1e-10; lhs and rhs are the (x, n) entries.
    MC mode simulates both chains and ``compare``s the two estimates.
    Both sides use the exact S.
    """
    pop = params.pop_size
    if not (1 <= n <= pop):
        raise ValueError("n must lie in 1..pop_size")
    ix = _require_grid_state(params, x)
    if mode == "exact":
        forward, ancestral = exact_transition_matrices(params)
        left = right = sampling_probability(
            params, (np.arange(pop + 1) / pop)[:, None], np.arange(1, pop + 1))
        for _ in range(g):
            left = forward @ left
            right = right @ ancestral.T
        gap = float(np.abs(left - right).max())
        return Check(McEstimate.exact(left[ix, n - 1]),
                     McEstimate.exact(right[ix, n - 1]), gap, 0.0,
                     _EXACT_TOL, "pass" if gap < _EXACT_TOL else "fail")
    if mode != "mc":
        raise ValueError("mode must be 'exact' or 'mc'")
    if rng is None:
        raise ValueError("MC mode needs an rng")
    fwd = forward_trajectories(params, x, g, replicates, rng)[:, -1]
    states, at = np.unique(fwd, return_inverse=True)
    lhs = McEstimate.from_samples(sampling_probability(params, states, n)[at])
    anc = ancestral_trajectories(params, n, g, replicates, rng)[:, -1]
    counts, at = np.unique(anc, return_inverse=True)
    rhs = McEstimate.from_samples(sampling_probability(params, x, counts)[at])
    return compare(lhs, rhs)
