"""The branching-coalescing block-counting chain dual to the limit process.

State: the number n >= 1 of ancestral lineages.  Three event types:

* branching  -- each lineage independently at rate selection_rate splits
  into 1 + i lineages, i drawn from the offspring law (moment dual of
  the selection drift),
* pairwise   -- each pair merges at rate kingman_rate (n -> n - 1),
* xi events  -- candidate events at the truncated rate
  ``jump_sampler(params).rate`` (``simplex.TruncatedSampler``); at a
  candidate with ranked group sizes z each lineage joins group i with
  probability z_i or stays solo; every non-empty group collapses to one
  lineage, so n -> n - k + d with k participants in d groups.  Events
  that merge nothing are no-ops (self-thinning of the candidate clock).
  A one-group atom [y] at rate lam runs no candidate clock: it merges k
  of n lineages, k ~ Binomial(n, y) given k >= 2, at rate
  lam * P(Binomial(n, y) >= 2), so no-ops remain only for multi-group
  and continuous measures.

Generator on f(n) = x^n, for fixed x in [0, 1]:

    L x^n = selection_rate * n * sum_i pi_i (x^(n+i) - x^n)
          + kingman_rate * n (n-1) / 2 * (x^(n-1) - x^n)
          + sum_atoms w / sum(z^2) * sum_{k, counts}
                Binom(k; n, |z|) Multinom(counts; k, z/|z|)
                * (x^(n-k+d(counts)) - x^n),

which matches the forward generator on monomials: A x^n = L x^n.

``run_chains`` is the one Gillespie core.  It runs every replicate of a
call in one Python loop and takes the per-event draws from buffers
refilled in blocks of ``_BLOCK``: holding times
(``rng.standard_exponential``, divided by the rate), event choices
(``rng.random``, scaled by the rate), offspring counts (``sample_extra``,
for laws other than one extra lineage) and xi points
(``sampler.draw_masses``; a single-atom measure draws none).  All
replicates of one call share the buffers, so a replicate's draws depend
on the replicates before it.  The rates out of n come from a row
(branch, branch + pairwise, total) built the first time a call visits n
(``_rate_row``).  For a one-group atom the row also holds the CDF of k
given k >= 2, and a merge takes its k from the event choice itself,
rescaled to [0, 1) over the xi part of the row: no further draw.  Past
the n where P(Binomial(n, y) >= 2) rounds to 1 the row keeps the
candidate rate, and k is a binomial draw as for any candidate.  Only the
binomial participant count (and the multinomial split of a multi-group
point) of a candidate is drawn per event, as both depend on n; a
candidate at n = 1 merges nothing and draws nothing.  The law of the
chain is that of the earlier one-draw-per-call loop, but the random
streams differ: dual-chain reports made before the block draws, or on a
one-group atom before its merge-only events, do not reproduce.

With kingman_rate = 0 and one extra lineage per branching, the chain
between xi candidates is a Yule process at rate selection_rate per
lineage.  Where its xi clock is the constant candidate rate lam (at
every n, or for a one-group atom from the n where P(Binomial(n, y) >= 2)
rounds to 1; n >= 60 at y = 0.5), a call with a finite cap, without
``log`` and ``burn_in``, skips each such pure-birth stretch in one step.
Its rate row is (0, 0, lam, None), in such a call the only row with a
zero branch rate: the hold is the gap s to the next candidate, and at
the candidate (or at the horizon) the births of the hold are drawn at
once, the state as n + NegBin(n, e^(-selection_rate s)) and, when that
passes the cap, the escape time given it (``_yule_run``).  With ``log`` or ``burn_in`` the
same call runs event by event: the law is the same, the stream is not.

``run_chains`` builds the jump sampler itself, as its first draw, with
``jump_sampler(params, rng=rng)``, and shares it across replicates.  For
atomic and Beta measures the build draws nothing from the rng.  The
stick-breaking sampler draws its 100k-point pool, one padded mass
matrix, with one ``sample_masses`` call from the rng, so all replicates
share one pool.

``recurrence_probe`` reads the long run off one ``run_chains`` call: the
regime from escapes and returns to state 1 and, given a burn_in, the
occupation measure past it, whose generating function
``RecurrenceReport.phi`` is the weak type's fixation probability.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .mc import McEstimate
from .limit_sde import LimitParams, jump_sampler, simulate_batch
from .selection import branching_drift, sample_extra
from .simplex import SimplexPoint, as_atoms, binomial_pmf

_DEFAULT_CAP = 10_000
#: the dual chain's cap in ``moment_duality_check``
_DUALITY_CAP = 1_000_000
#: draws per buffer refill in ``run_chains``
_BLOCK = 1024
#: longest piece of a pure-birth stretch, as selection_rate * time
_PIECE = 10.0
#: rate rows ``run_chains`` keeps per call (about 160 bytes each); a state
#: above is rebuilt at every visit
_MAX_ROWS = 1 << 16


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


def _xi_merge(n: int, total: float, groups, rng: np.random.Generator):
    """(participants k, non-empty group sizes) for one candidate at state n.

    ``total`` is |z|; ``groups`` is None for a one-group point, else its
    masses (trailing zeros allowed: they stay empty).
    """
    k = int(rng.binomial(n, total if total < 1.0 else 1.0))
    if k == 0:
        return 0, ()
    if groups is None:
        return k, (k,)
    counts = rng.multinomial(k, [m / total for m in groups])
    return k, tuple(c for c in counts.tolist() if c > 0)


def _merges_round_to_one(n: int, y: float) -> bool:
    """Whether P(Binomial(n, y) >= 2), for n >= 2, rounds to 1: from
    that n on a one-group row keeps the candidate rate."""
    q = 1.0 - y
    return 1.0 - q ** (n - 1) * (q + n * y) == 1.0


def _yule_run(n: int, s: float, sel: float, cap: int,
              rng: np.random.Generator) -> tuple[int, float]:
    """(state, escape offset) of a Yule process at rate sel per lineage,
    run from n <= cap for time s and stopped once it passes cap.

    The state after time d is n + NegBin(n, e^(-sel d)) (Kendall 1948),
    drawn in pieces with sel d <= ``_PIECE``, since numpy's
    negative_binomial refuses p near 0; the process is Markov, so the
    split is exact.  Given M > cap lineages at the end of a piece of
    length d started from m, its M - m birth times are iid with density
    proportional to e^(sel u) on [0, d], and the one that passes cap is
    their (cap + 1 - m)-th smallest: its quantile B in the uniform order
    is Beta(cap + 1 - m, M - cap), at d + log(B + (1 - B) e^(-sel d)) / sel.
    The state is then cap + 1 and the offset that time; without an
    escape the offset is nan.
    """
    t = 0.0
    while t < s:
        d = min(_PIECE / sel, s - t)
        p = math.exp(-sel * d)
        m = n + int(rng.negative_binomial(n, p))
        if m > cap:
            b = rng.beta(cap + 1 - n, m - cap)
            return cap + 1, t + d + math.log(b + (1.0 - b) * p) / sel
        n = m
        t += d
    return n, math.nan


def _rate_row(n: int, sel: float, pair: float, lam: float,
              y: float | None) -> tuple:
    """(branch, branch + pairwise, total, cdf) out of state n.

    For a one-group atom [y] (``y`` not None) the xi part of ``total`` is
    0 at n = 1; below the n where P(Binomial(n, y) >= 2) rounds to 1 it
    is the merge rate lam * P(Binomial(n, y) >= 2), summed from the pmf
    terms with k >= 2 (1 - q^n - n y q^(n-1) cancels at small y), and
    ``cdf`` lists P(k <= j | k >= 2) for j = 2..n, its last entry +inf.
    From that n on, and for every other measure, the xi part is the
    candidate rate lam and ``cdf`` is None.
    """
    branch = sel * n
    paired = branch + pair * n * (n - 1)
    if y is not None:
        if n < 2:  # one lineage merges nothing
            return branch, paired, paired, None
        if not _merges_round_to_one(n, y):
            q = 1.0 - y
            # the merge chance as a sum of positive terms:
            # pmf_k = q^n C(n, k) (y/q)^k for k = 1..n; q > 0 and q^n
            # does not underflow while P(k < 2) is that large
            ks = np.arange(1, n + 1)
            pmf = q ** n * np.cumprod((n - ks + 1) / ks * (y / q))
            merges = float(pmf[1:].sum())
            cdf = (np.cumsum(pmf[1:]) / merges).tolist()
            cdf[-1] = math.inf
            return branch, paired, paired + lam * merges, cdf
    return branch, paired, paired + lam, None


def xi_jump_pmf(z: SimplexPoint, n: int) -> dict[int, float]:
    """Exact law of the post-event state for one candidate event at state n.

    Each lineage joins group i with probability z_i or stays solo, and
    the new state counts the solo lineages and the occupied groups.  Its
    exponential generating function (EGF) in the lineages is

        E[x^new] = n! [t^n] e^((1 - |z|) x t) prod_i (1 + x (e^(z_i t) - 1)).

    The product is taken one group at a time on the coefficient array
    c[k, d] = k! [t^k x^d] / q^k, q the mass of the cells taken so far:
    the chance that k lineages, each in one of those cells, occupy d of
    them.  Multiplying in group i moves a Binomial(k, z_i / (q + z_i))
    share of the k lineages into it, so every weight is a probability
    and the array stays in [0, 1] at any n.
    """
    ks = np.arange(n + 1)
    joins = ks[:, None] - ks[None, :]  # lineages the new group takes
    coef = np.zeros((n + 1, n + 1))
    # solo lineages each count once; with no solo cell only k = 0 exists
    coef[ks, ks] = 1.0 if z.residual > 0.0 else (ks == 0)
    mass = z.residual
    for m in z.masses:
        mass += m
        # take[k, j] = P(Binomial(k, m / mass) = k - j); above the
        # diagonal, where j > k, the negative index wraps onto a zero
        take = binomial_pmf(n, m / mass)[ks[:, None], joins]
        joined = np.tril(take, -1) @ coef[:, :-1]
        coef *= np.diag(take)[:, None]
        coef[:, 1:] += joined
    return {d: float(p) for d, p in enumerate(coef[n]) if p > 0.0}


def simulate(params: LimitParams, n0: int, total_time: float,
             rng: np.random.Generator, cap: int | None = _DEFAULT_CAP,
             record_noops: bool = False) -> DualPath:
    """Gillespie simulation of one chain with an event log.

    The log keeps it on the event path, so it runs no pure-birth stretch
    and draws what ``run_chains`` with ``log=True`` draws.  xi candidates
    that merge nothing stay in the log only with ``record_noops``."""
    runs = run_chains(params, n0, total_time, 1, rng, cap=cap, log=True)
    events = runs.events[0]
    if not record_noops:
        states = [n0] + [ev.state for ev in events]
        events = [ev for ev, before in zip(events, states)
                  if ev.kind != "xi" or ev.state != before]
    escaped = bool(runs.escaped[0])
    return DualPath(initial=n0, events=events,
                    final=int(runs.final[0]), escaped=escaped,
                    escape_time=float(runs.escape_time[0]) if escaped else None,
                    returns_to_one=int(runs.returns_to_one[0]))


@dataclass(frozen=True)
class ChainRuns:
    """Per-replicate outcomes of ``run_chains``."""

    final: np.ndarray           # state at the horizon, or just past the cap
    escaped: np.ndarray         # crossed the cap before the horizon
    escape_time: np.ndarray     # time of the crossing; nan when not escaped
    returns_to_one: np.ndarray  # entries into state 1 from above
    occupation: list[dict[int, float]] | None = None  # holding time per state
    events: list[list[DualEvent]] | None = None


def run_chains(params: LimitParams, n0: int, total_time: float,
               replicates: int, rng: np.random.Generator, *,
               cap: int | None = None, burn_in: float | None = None,
               log: bool = False) -> ChainRuns:
    """The Gillespie core: ``replicates`` independent chains from n0.

    The call builds the jump sampler first, then runs the replicates one
    after another, drawing from shared buffers of ``_BLOCK`` holding
    times, event choices, offspring counts and xi points.  A ``burn_in``
    adds each replicate's holding time per state past it (its
    occupation); ``log`` adds its event list, every xi candidate
    included (a one-group atom has candidates that merge nothing at n = 1
    and past the n where P(Binomial(n, y) >= 2) rounds to 1, each there
    with probability below 2^-53).  A chain stops at total_time or once
    n > cap.  Without ``log`` and ``burn_in``, and with a finite cap, a
    chain at kingman_rate 0 with one extra lineage per branching draws
    each pure-birth stretch in one step (module docstring), so asking for
    either changes the stream but not the law.
    """
    if n0 < 1:
        raise ValueError("n0 must be at least 1")
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    sampler = jump_sampler(params, rng=rng)
    sel = params.selection_rate
    pair = 0.5 * params.kingman_rate
    law = params.offspring
    delta_one = law.extra_pmf == (1.0,) and law.extra_inf_mass == 0.0
    lam = sampler.rate if sampler is not None else 0.0
    atoms = sampler.atom_points if sampler is not None else None
    one_point = atoms[0] if atoms is not None and len(atoms) == 1 else None
    one_y = None
    if one_point is not None:
        # a single atom needs no xi draws
        z_total = one_point.total
        z_groups = one_point.masses if len(one_point) > 1 else None
        if z_groups is None:
            one_y = z_total
    rows = []  # the row out of n at index n, None until n is visited
    # pure-birth stretches (module docstring); a chain stays at or below
    # the cap once it starts there
    stretches = (pair == 0.0 and sel > 0.0 and delta_one and cap is not None
                 and n0 <= cap and not log and burn_in is None)

    block = _BLOCK
    holds = choices = extras = totals = groups = None
    i_hold = i_choice = i_extra = i_xi = block
    finals, escaped, escape_times, returns_to_one = [], [], [], []
    occupations = [] if burn_in is not None else None
    logs = [] if log else None
    for _ in range(replicates):
        n = n0
        t = 0.0
        returns = 0
        esc_t = math.nan
        occ = {} if burn_in is not None else None
        events = [] if log else None
        while True:
            try:
                branch, paired, rate, cdf = rows[n]
            except (IndexError, TypeError):  # past the end, or a None slot
                if stretches and (one_y is None or (
                        n > 1 and _merges_round_to_one(n, one_y))):
                    # a stretch: the hold runs to the next candidate, and
                    # its births are drawn there or, past the horizon,
                    # after the loop
                    row = (0.0, 0.0, lam, None)
                else:
                    row = _rate_row(n, sel, pair, lam, one_y)
                if n < _MAX_ROWS:
                    if n >= len(rows):
                        rows.extend([None] * (n + 1 - len(rows)))
                    rows[n] = row
                branch, paired, rate, cdf = row
            if rate > 0.0:
                if i_hold == block:
                    holds = rng.standard_exponential(block).tolist()
                    i_hold = 0
                end = t + holds[i_hold] / rate
                i_hold += 1
            else:
                end = math.inf
            if occ is not None:
                lo = t if t > burn_in else burn_in
                hi = end if end < total_time else total_time
                if hi > lo:
                    occ[n] = occ.get(n, 0.0) + (hi - lo)
            if end >= total_time:
                break
            t = end
            if i_choice == block:
                choices = rng.random(block).tolist()
                i_choice = 0
            u = choices[i_choice] * rate
            i_choice += 1
            if u < branch:
                if delta_one:
                    extra = 1
                else:
                    if i_extra == block:
                        extras = sample_extra(law, block, rng).tolist()
                        i_extra = 0
                    extra = extras[i_extra]
                    i_extra += 1
                    if extra < 0:
                        raise ValueError("offspring law with mass at infinity "
                                         "cannot branch")
                n_new = n + extra
                if events is not None:
                    events.append(DualEvent(t, "branch", n_new, offspring=extra))
            elif u < paired:
                n_new = n - 1
                if events is not None:
                    events.append(DualEvent(t, "kingman", n_new))
            else:
                if cdf is not None:
                    # a one-group merge: u is uniform on [paired, rate)
                    k = 2 + bisect_right(cdf, (u - paired) / (rate - paired))
                    n_new, sizes = n - k + 1, (k,)
                else:
                    if branch == 0.0 and stretches:
                        # the births of the stretch's hold
                        hold = holds[i_hold - 1] / rate
                        n, dt = _yule_run(n, hold, sel, cap, rng)
                        if n > cap:
                            esc_t = t - hold + dt
                            break
                    if one_point is None:
                        if i_xi == block:
                            masses = sampler.draw_masses(block, rng)
                            totals = masses.sum(axis=1).tolist()
                            groups = (masses.tolist() if masses.shape[1] > 1
                                      else None)
                            i_xi = 0
                        z_total = totals[i_xi]
                        z_groups = groups[i_xi] if groups is not None else None
                        i_xi += 1
                    if n > 1:
                        k, sizes = _xi_merge(n, z_total, z_groups, rng)
                        n_new = n - k + len(sizes)
                    else:
                        # one lineage: a candidate can merge nothing
                        n_new, sizes = n, ()
                if events is not None:
                    point = (tuple(m for m in z_groups if m > 0.0)
                             if z_groups is not None else (z_total,))
                    events.append(DualEvent(
                        t, "xi", n_new, point=point,
                        merged_groups=tuple(s for s in sizes if s > 1)))
            if n_new == 1 and n > 1:
                returns += 1
            n = n_new
            if cap is not None and n > cap:
                esc_t = t
                break
        if branch == 0.0 and stretches and n <= cap:
            # the births of a stretch the horizon cut
            n, dt = _yule_run(n, total_time - t, sel, cap, rng)
            if n > cap:
                esc_t = t + dt
        finals.append(n)
        escaped.append(not math.isnan(esc_t))
        escape_times.append(esc_t)
        returns_to_one.append(returns)
        if occ is not None:
            occupations.append(occ)
        if events is not None:
            logs.append(events)
    return ChainRuns(np.array(finals, dtype=np.int64), np.array(escaped),
                     np.array(escape_times), np.array(returns_to_one),
                     occupations, logs)


# ---------------------------------------------------------------------------
# exact generator


def generator_apply_exact(params: LimitParams, x: float, n: int) -> float:
    """L x^n in closed form; needs an atomic measure.

    The xi term weighs each atom's ``xi_jump_pmf``, which is computed on
    the lineage side, independently of the forward ``bernoulli_patterns``
    the forward generator uses.
    """
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    if n < 1:
        raise ValueError("n must be at least 1")
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
            scale = w / z.sum_sq
            for new, p in xi_jump_pmf(z, n).items():
                if new != n:
                    xi_term += scale * p * (x ** new - xn)
    return branch + king + xi_term


# ---------------------------------------------------------------------------
# long-run behaviour


class RegimeUnclear(ValueError):
    """A model outcome, not an input error: the dual chain's runs leave
    its regime undecided."""


@dataclass(frozen=True)
class RecurrenceReport:
    verdict: str  # "recurrent-looking" | "escaping" | "inconclusive"
    escape_fraction: float
    mean_returns_to_one: float
    mean_return_time: float | None
    replicates: int
    horizon: float
    cap: int
    # with a burn_in: the states held past it, and one row per kept
    # replicate of the fraction of (burn_in, horizon] spent in each
    states: np.ndarray | None = None
    fractions: np.ndarray | None = None

    def phi(self, x: float) -> McEstimate:
        """The mean over kept replicates of sum_n mu(n) x^n, mu the
        occupation measure past burn_in."""
        if self.fractions is None or self.fractions.size == 0:
            raise ValueError("no occupation past burn_in to average")
        return McEstimate.from_samples(
            self.fractions @ (float(x) ** self.states.astype(float)))


def recurrence_probe(params: LimitParams, n0: int, horizon: float, cap: int,
                     replicates: int, rng: np.random.Generator,
                     burn_in: float | None = None) -> RecurrenceReport:
    """Crude empirical recurrence probe; a diagnostic, not a proof.

    "escaping" when at least 99% of replicates cross the cap;
    "recurrent-looking" when none escape and replicates revisit state 1
    at least 10 times on average; anything else is "inconclusive".
    With ``burn_in`` the same chains also keep their occupation past it,
    which ``phi`` averages; a burn_in at or past the horizon keeps none.
    Keeping the occupation draws nothing, but a burn_in runs the chains
    event by event: where, without ``log`` and ``burn_in``, they skip
    pure-birth stretches (kingman_rate 0, one extra lineage per
    branching), the verdict with a burn_in comes from a different stream
    of the same law.
    """
    runs = run_chains(params, n0, horizon, replicates, rng, cap=cap,
                      burn_in=burn_in)
    kept = int((~runs.escaped).sum())
    total_returns = int(runs.returns_to_one[~runs.escaped].sum())
    frac = (replicates - kept) / replicates
    mean_returns = total_returns / kept if kept else 0.0
    # every kept replicate is observed over the whole horizon
    mean_return_time = kept * horizon / total_returns if total_returns else None
    if frac >= 0.99:
        verdict = "escaping"
    elif frac == 0.0 and mean_returns >= 10.0:
        verdict = "recurrent-looking"
    else:
        verdict = "inconclusive"
    states = fractions = None
    if burn_in is not None:
        per_rep = [occ for occ, esc in zip(runs.occupation, runs.escaped)
                   if not esc]
        states = np.array(sorted({s for occ in per_rep for s in occ}),
                          dtype=np.int64)
        index = {int(s): i for i, s in enumerate(states)}
        fractions = np.zeros((kept, states.size))
        for r, occ in enumerate(per_rep):
            for s, dt in occ.items():
                fractions[r, index[s]] = dt / (horizon - burn_in)
    return RecurrenceReport(verdict, frac, mean_returns, mean_return_time,
                            replicates, horizon, cap, states, fractions)


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
                         rng: np.random.Generator) -> MomentDualityReport:
    """Monte-Carlo check of E_x[X_t^n] = E_n[x^(D_t)] at time t.

    A chain that passes ``_DUALITY_CAP`` scores 0 below x = 1 and 1 at
    x = 1, where x^D = 1 for every D."""
    finals = simulate_batch(params, x, total_time, dt, replicates, rng)
    lhs = McEstimate.from_samples(finals ** order)
    runs = run_chains(params, order, total_time, replicates, rng,
                      cap=_DUALITY_CAP)
    vals = np.power(float(x), runs.final.astype(float))
    if x < 1.0:
        vals[runs.escaped] = 0.0
    rhs = McEstimate.from_samples(vals)
    gap = abs(lhs.mean - rhs.mean)
    combined = math.hypot(lhs.std_error, rhs.std_error)
    return MomentDualityReport(lhs, rhs, gap, combined, 3.0 * combined,
                               gap <= 3.0 * combined)
