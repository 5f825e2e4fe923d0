"""The branching-coalescing block-counting chain dual to the limit process.

State: the number n >= 1 of ancestral lineages.  Three event types:

* branching  -- each lineage independently at rate selection_rate splits
  into 1 + i lineages, i drawn from the offspring law (moment dual of
  the selection drift),
* pairwise   -- each pair merges at rate kingman_rate (n -> n - 1),
* xi events  -- candidate events at rate intensity_mass(xi, floor); at a
  candidate with ranked group sizes z each lineage joins group i with
  probability z_i or stays solo; every non-empty group collapses to one
  lineage, so n -> n - k + d with k participants in d groups.  Events
  that merge nothing are no-ops (self-thinning of the candidate clock).

Generator on f(n) = x^n, for fixed x in [0, 1]:

    L x^n = selection_rate * n * sum_i pi_i (x^(n+i) - x^n)
          + kingman_rate * n (n-1) / 2 * (x^(n-1) - x^n)
          + sum_atoms w / sum(z^2) * sum_{k, counts}
                Binom(k; n, |z|) Multinom(counts; k, z/|z|)
                * (x^(n-k+d(counts)) - x^n),

which matches the forward generator on monomials: A x^n = L x^n.

``run_chain`` is the Gillespie core; it takes the jump sampler as an
argument and never builds one.  Every replicate loop here (and the CLI's
``dual-ctmc``) builds the sampler once per run with
``jump_sampler(params, rng=rng)`` and shares it across replicates.  For
atomic and Beta measures the build draws nothing from the rng.  The
stick-breaking sampler draws its 100k-point pool from the rng, so all
replicates of a run share one pool; stick-breaking chain reports made by
versions that redrew the pool for every replicate do not reproduce.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import binom

from .mc import McEstimate
from .limit_sde import LimitParams, jump_sampler, simulate_batch
from .selection import SelectionLaw, branching_drift, sample_extra
from .simplex import SimplexPoint, TruncatedSampler, as_atoms

#: the dual chain runs on the same parameter bundle as the forward limit
DualParams = LimitParams

_MAX_GEN_N = 10
_MAX_GEN_SUPPORT = 6
_DEFAULT_CAP = 10_000


@dataclass(frozen=True)
class EventRates:
    branch_total: float
    kingman: float
    xi_candidate: float

    @property
    def total(self) -> float:
        return self.branch_total + self.kingman + self.xi_candidate


def event_rates(params: DualParams, n: int,
                xi_rate: float | None = None) -> EventRates:
    """Jump rates out of state n (xi rate may be passed in when cached)."""
    if n < 1:
        raise ValueError("the chain lives on n >= 1")
    if xi_rate is None:
        sampler = jump_sampler(params)
        xi_rate = sampler.rate if sampler is not None else 0.0
    return EventRates(params.selection_rate * n,
                      params.kingman_rate * n * (n - 1) / 2.0,
                      xi_rate)


@dataclass
class DualEvent:
    time: float
    kind: str  # "branch" | "kingman" | "xi"
    state: int
    offspring: int | None = None
    point: tuple[float, ...] | None = None
    merged_groups: tuple[int, ...] | None = None


@dataclass
class DualPath:
    initial: int
    events: list[DualEvent] = field(default_factory=list)
    final: int = 0
    escaped: bool = False
    escape_time: float | None = None
    returns_to_one: int = 0


def xi_event_outcome(z: SimplexPoint, n: int,
                     rng: np.random.Generator) -> tuple[int, int, tuple[int, ...]]:
    """(participants k, occupied groups d, group sizes) for one candidate."""
    k = int(rng.binomial(n, min(z.total, 1.0)))
    if k == 0:
        return 0, 0, ()
    if len(z) == 1:
        return k, 1, (k,)
    counts = rng.multinomial(k, np.asarray(z.normalized()))
    sizes = tuple(int(c) for c in counts if c > 0)
    return k, len(sizes), sizes


def xi_jump_pmf(z: SimplexPoint, n: int) -> dict[int, float]:
    """Exact law of the post-event state for one candidate event at state n."""
    zn = z.normalized()
    m = len(z)
    out: dict[int, float] = {}
    for k in range(n + 1):
        bp = float(binom.pmf(k, n, min(z.total, 1.0)))
        if bp == 0.0:
            continue
        if k == 0:
            out[n] = out.get(n, 0.0) + bp
            continue
        for counts in _compositions(k, m):
            d = sum(1 for c in counts if c > 0)
            p = bp * _multinomial_pmf(counts, zn)
            new = n - k + d
            out[new] = out.get(new, 0.0) + p
    return out


def simulate(params: DualParams, n0: int, total_time: float,
             rng: np.random.Generator, cap: int | None = _DEFAULT_CAP,
             record_noops: bool = False) -> DualPath:
    """Gillespie simulation with an event log."""
    path = DualPath(initial=n0)
    log: list[DualEvent] = path.events
    final, escaped, esc_t, returns, _ = run_chain(
        params, n0, total_time, rng, jump_sampler(params, rng=rng), cap=cap,
        log=log, record_noops=record_noops)
    path.final = final
    path.escaped = escaped
    path.escape_time = esc_t
    path.returns_to_one = returns
    return path


def _offspring_draw(law: SelectionLaw, rng: np.random.Generator) -> int:
    if law.extra_pmf == (1.0,) and law.extra_inf_mass == 0.0:
        return 1
    extra = int(sample_extra(law, 1, rng)[0])
    if extra < 0:
        raise ValueError("offspring law with mass at infinity cannot branch")
    return extra


def run_chain(params: DualParams, n0: int, total_time: float,
              rng: np.random.Generator, sampler: TruncatedSampler | None, *,
              cap: int | None = None, burn_in: float = 0.0,
              occupation: dict | None = None, log: list | None = None,
              record_noops: bool = False):
    """Shared Gillespie core.

    ``sampler`` is ``jump_sampler(params, rng=rng)``, built once by the
    caller and shared by all its replicates (None when params.xi is None).
    Returns (final state, escaped, escape time, returns to 1, observed
    time past burn_in).  ``occupation`` accumulates holding time per
    state past burn_in when given.
    """
    if n0 < 1:
        raise ValueError("n0 must be at least 1")
    sel = params.selection_rate
    king = params.kingman_rate
    law = params.offspring
    lam = sampler.rate if sampler is not None else 0.0
    single_atom = None
    if sampler is not None and sampler.atom_points is not None \
            and len(sampler.atom_points) == 1:
        single_atom = sampler.atom_points[0]
    delta_one = law.extra_pmf == (1.0,) and law.extra_inf_mass == 0.0

    n = int(n0)
    t = 0.0
    returns = 0
    observed = max(0.0, total_time - burn_in)

    def credit(state: int, start: float, end: float) -> None:
        if occupation is None:
            return
        lo = max(start, burn_in)
        if end > lo:
            occupation[state] = occupation.get(state, 0.0) + (end - lo)

    while True:
        rate = sel * n + king * n * (n - 1) / 2.0 + lam
        if rate <= 0.0:
            credit(n, t, total_time)
            return n, False, None, returns, observed
        hold = rng.exponential(1.0 / rate)
        if t + hold >= total_time:
            credit(n, t, total_time)
            return n, False, None, returns, observed
        credit(n, t, t + hold)
        t += hold
        u = rng.random() * rate
        if u < sel * n:
            extra = 1 if delta_one else _offspring_draw(law, rng)
            n_new = n + extra
            if log is not None:
                log.append(DualEvent(t, "branch", n_new, offspring=extra))
        elif u < sel * n + king * n * (n - 1) / 2.0:
            n_new = n - 1
            if log is not None:
                log.append(DualEvent(t, "kingman", n_new))
        else:
            z = single_atom if single_atom is not None else sampler.draw(rng)
            k, d, sizes = xi_event_outcome(z, n, rng)
            n_new = n - k + d
            if log is not None and (n_new != n or record_noops):
                log.append(DualEvent(t, "xi", n_new, point=z.masses,
                                     merged_groups=tuple(s for s in sizes
                                                         if s > 1)))
        if n_new == 1 and n > 1:
            returns += 1
        n = n_new
        if cap is not None and n > cap:
            return n, True, t, returns, observed


# ---------------------------------------------------------------------------
# exact generator


def _compositions(k: int, m: int):
    if m == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in _compositions(k - first, m - 1):
            yield (first,) + rest


def _multinomial_pmf(counts, probs) -> float:
    k = sum(counts)
    coef = math.factorial(k)
    p = 1.0
    for c, q in zip(counts, probs):
        coef //= math.factorial(c)
        p *= q ** c
    return coef * p


def generator_apply_exact(params: DualParams, x: float, n: int) -> float:
    """L x^n in closed form (n <= 10, atom supports <= 6)."""
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    if not (1 <= n <= _MAX_GEN_N):
        raise ValueError(f"n must lie in 1..{_MAX_GEN_N}")
    xn = x ** n
    branch = 0.0
    if params.selection_rate > 0.0:
        # sum_i pi_i (x^(n+i) - x^n) = x^(n-1) sum_i pi_i (x^(i+1) - x)
        branch = (params.selection_rate * n * x ** (n - 1)
                  * branching_drift(params.offspring, x))
    king = 0.0
    if n >= 2 and params.kingman_rate > 0.0:
        king = params.kingman_rate * n * (n - 1) / 2.0 * (x ** (n - 1) - xn)
    xi_term = 0.0
    if params.xi is not None:
        atoms = as_atoms(params.xi)
        if atoms is None:
            raise ValueError("exact generator needs an atomic measure")
        for w, z in atoms:
            if len(z) > _MAX_GEN_SUPPORT:
                raise ValueError("atom support too large for exact enumeration")
            scale = w / z.sum_sq
            for new, p in xi_jump_pmf(z, n).items():
                if new != n:
                    xi_term += scale * p * (x ** new - xn)
    return branch + king + xi_term


# ---------------------------------------------------------------------------
# long-run behaviour


@dataclass(frozen=True)
class StationaryEstimate:
    """Occupation-measure estimate over non-escaped replicates."""

    states: np.ndarray
    probs: np.ndarray
    probs_se: np.ndarray
    escape_fraction: float
    replicates: int
    escaped: int
    burn_in: float
    horizon: float
    _fractions: np.ndarray  # per-replicate occupation fractions

    def pmf(self) -> dict[int, float]:
        return {int(s): float(p) for s, p in zip(self.states, self.probs)}

    def phi(self, x: float) -> tuple[float, float]:
        """Mean and standard error of sum_n mu(n) x^n at the estimate."""
        vals = self._fractions @ (float(x) ** self.states.astype(float))
        r = vals.size
        if r == 0:
            raise ValueError("no non-escaped replicates to evaluate")
        se = float(vals.std(ddof=1) / math.sqrt(r)) if r > 1 else 0.0
        return float(vals.mean()), se


def stationary_estimate(params: DualParams, n0: int, burn_in: float,
                        horizon: float, replicates: int,
                        rng: np.random.Generator,
                        cap: int = _DEFAULT_CAP) -> StationaryEstimate:
    """Time-averaged occupation past burn_in, averaged over replicates."""
    if horizon <= burn_in:
        raise ValueError("horizon must exceed burn_in")
    per_rep: list[dict[int, float]] = []
    escaped = 0
    sampler = jump_sampler(params, rng=rng)
    for _ in range(replicates):
        occ: dict[int, float] = {}
        _, esc, _, _, _ = run_chain(params, n0, horizon, rng, sampler, cap=cap,
                                    burn_in=burn_in, occupation=occ)
        if esc:
            escaped += 1
        else:
            per_rep.append(occ)
    if not per_rep:
        raise ValueError("every replicate escaped; no occupation to average")
    states = np.array(sorted({s for occ in per_rep for s in occ}))
    index = {int(s): i for i, s in enumerate(states)}
    span = horizon - burn_in
    fractions = np.zeros((len(per_rep), states.size))
    for r, occ in enumerate(per_rep):
        for s, dt in occ.items():
            fractions[r, index[int(s)]] = dt / span
    probs = fractions.mean(axis=0)
    if len(per_rep) > 1:
        ses = fractions.std(axis=0, ddof=1) / math.sqrt(len(per_rep))
    else:
        ses = np.zeros_like(probs)
    return StationaryEstimate(states, probs, ses, escaped / replicates,
                              replicates, escaped, burn_in, horizon, fractions)


@dataclass(frozen=True)
class RecurrenceReport:
    verdict: str  # "recurrent-looking" | "escaping" | "inconclusive"
    escape_fraction: float
    mean_returns_to_one: float
    mean_return_time: float | None
    replicates: int
    horizon: float
    cap: int


def recurrence_probe(params: DualParams, n0: int, horizon: float, cap: int,
                     replicates: int, rng: np.random.Generator) -> RecurrenceReport:
    """Crude empirical recurrence probe; a diagnostic, not a proof.

    "escaping" when at least 99% of replicates cross the cap;
    "recurrent-looking" when none escape and replicates revisit state 1
    at least 10 times on average; anything else is "inconclusive".
    """
    escapes = 0
    total_returns = 0
    observed = 0.0
    sampler = jump_sampler(params, rng=rng)
    for _ in range(replicates):
        _, esc, _, returns, span = run_chain(params, n0, horizon, rng, sampler,
                                             cap=cap)
        if esc:
            escapes += 1
        else:
            total_returns += returns
            observed += span
    frac = escapes / replicates
    kept = replicates - escapes
    mean_returns = total_returns / kept if kept else 0.0
    mean_return_time = observed / total_returns if total_returns else None
    if frac >= 0.99:
        verdict = "escaping"
    elif frac == 0.0 and mean_returns >= 10.0:
        verdict = "recurrent-looking"
    else:
        verdict = "inconclusive"
    return RecurrenceReport(verdict, frac, mean_returns, mean_return_time,
                            replicates, horizon, cap)


# ---------------------------------------------------------------------------
# moment duality between the limit process and this chain


@dataclass(frozen=True)
class MomentDualityReport:
    lhs: McEstimate   # E[X_t^n] from the forward limit
    rhs: McEstimate   # E[x^(D_t)] from the dual chain
    gap: float
    combined_se: float
    tolerance: float
    passed: bool

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


def moment_duality_check(params: LimitParams, x: float, order: int,
                         total_time: float, dt: float, replicates: int,
                         rng: np.random.Generator,
                         cap: int = 1_000_000) -> MomentDualityReport:
    """Monte-Carlo check of E_x[X_t^n] = E_n[x^(D_t)] at time t."""
    finals = simulate_batch(params, x, total_time, dt, replicates, rng)
    lhs = McEstimate.from_samples(finals ** order)
    vals = np.empty(replicates)
    sampler = jump_sampler(params, rng=rng)
    for r in range(replicates):
        final, esc, _, _, _ = run_chain(params, order, total_time, rng, sampler,
                                        cap=cap)
        vals[r] = 0.0 if esc else float(x) ** final
    rhs = McEstimate.from_samples(vals)
    gap = abs(lhs.mean - rhs.mean)
    combined = math.hypot(lhs.std_error, rhs.std_error)
    return MomentDualityReport(lhs, rhs, gap, combined, 3.0 * combined,
                               gap <= 3.0 * combined)
