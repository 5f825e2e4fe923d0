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
  One lineage merges nothing, so state 1 has no xi part at all.
  An atomic measure whose atoms have at most ``MAX_EXACT_SUPPORT``
  groups runs no candidate clock up to n = 64: out of n it moves to
  each d < n at the rate rates[n, d] of one ``pick_laws`` sweep, so
  no-ops remain only for continuous measures, for atoms with more
  groups, and past n = 64 or where the no-op rate rounds away.

``generator_matrix(params, n_max)`` is the chain's rate matrix Q on
{1, ..., n_max} and an overflow state, for an atomic measure: n -> n + i
at rate selection_rate n pi_i, n -> n - 1 at rate kingman_rate n (n-1) / 2
and n -> d < n at rates[n, d] = sum_atoms w / sum(z^2) P(d labels after
n picks at z), the rows of the ``pick_laws`` sweep ``run_chains`` reads.
On f(n) = x^n it is the moment dual of the forward generator: row n - 1
of Q x^(1..n_max+1) is A x^n while n + max i <= n_max.

``run_chains`` is the one Gillespie core.  It runs every replicate of a
call in one Python loop and reads the per-event draws from four streams,
each refilled a block of ``_BLOCK`` at a time and drawn only when used
(a stream that is never read draws nothing): holding times
(``rng.standard_exponential``, divided by the rate), event choices
(``rng.random``, scaled by the rate), offspring counts (``sample_extra``,
for laws other than one extra lineage) and xi points
(``sampler.draw_masses``, which draws nothing for a one-atom law: its
points are one constant row), each as |z| capped at 1 and its group
shares, computed once per block.  All replicates of one call share the
streams, so a replicate's draws depend on the replicates before it.
The rates out of n come from a row (branch, branch + pairwise, total)
built the first time a call visits n (``_rate_row``).  An atomic
measure with at most ``MAX_EXACT_SUPPORT`` groups an atom sweeps
``pick_laws`` over 64 picks once per call, every drawn label new, and
row n reads the sweep's row n while its no-op rate does not round away
against lam: the row also holds the CDF of the merged state d = n - 1,
..., 1, and a merge takes its d from the event choice itself, rescaled
to [0, 1) over the xi part of the row: no further draw.  Every other
row above state 1 keeps the candidate rate, and a candidate draws its
binomial participant count k, as it depends on n, then splits the k by
a multinomial only where two or more join a multi-group point: one
joiner lands in one group whatever the split.  A lone lineage draws no
xi point, and at selection_rate 0 a chain at 1 stays there and draws
nothing.

With kingman_rate = 0 and one extra lineage per branching, the chain
between xi candidates is a Yule process at rate selection_rate per
lineage.  Where its xi clock is the constant candidate rate lam (on
every candidate row; n >= 60 at y = 0.5), a call with a finite cap,
without ``log`` and ``burn_in``, skips each such pure-birth stretch in
one step.  Its rate row is (0, 0, lam, None), in such a call the only
row with a zero branch rate: the hold is the gap s to the next
candidate, and at the candidate (or at the horizon) the births of the
hold are drawn at once, the state as n + NegBin(n, e^(-selection_rate
s)), or cap + 1 once that passes the cap (``_yule_run``).  With ``log``
or ``burn_in`` the same call runs event by event: the law is the same,
the stream is not.

``recurrence_probe`` reads the long run off one ``run_chains`` call: the
regime from escapes and returns to state 1 and, given a burn_in, the
occupation measure past it, whose generating function
``RecurrenceReport.phi`` is the weak type's fixation probability.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from itertools import chain, repeat

import numpy as np

from .mc import Check, McEstimate, compare
from .limit_sde import LimitParams, jump_sampler, simulate_batch
from .selection import sample_extra
from .simplex import MAX_EXACT_SUPPORT, as_atoms, pick_laws

_DEFAULT_CAP = 10_000
#: the dual chain's cap in ``moment_duality_check``
_DUALITY_CAP = 1_000_000
#: draws per block of a ``run_chains`` stream
_BLOCK = 1024
#: longest piece of a pure-birth stretch, as selection_rate * time
_PIECE = 10.0
#: states whose xi rates an atomic measure's sweep covers in ``run_chains``
_SWEPT = 64
#: rate rows ``run_chains`` keeps per call (about 160 bytes each); a state
#: above is rebuilt at every visit
_MAX_ROWS = 1 << 16


@dataclass
class DualEvent:
    time: float
    kind: str  # "branch" | "kingman" | "xi"
    state: int


@dataclass
class DualPath:
    initial: int
    events: list[DualEvent] = field(default_factory=list)
    final: int = 0
    escaped: bool = False
    returns_to_one: int = 0


def _stream(draw_block):
    """The values of ``draw_block()``, a list of ``_BLOCK`` draws per call,
    one at a time; the first block is drawn at the first ``next``."""
    return chain.from_iterable(iter(draw_block, None))


def _xi_points(masses: np.ndarray) -> list:
    """(min(|z|, 1), shares) per row of a (size, width) mass matrix:
    shares is None for width 1, else the row over |z| (trailing zeros
    allowed: those groups stay empty)."""
    totals = masses.sum(axis=1)
    shares = ((masses / totals[:, None]).tolist() if masses.shape[1] > 1
              else repeat(None))
    return list(zip(np.minimum(totals, 1.0).tolist(), shares))


def _yule_run(n: int, s: float, sel: float, cap: int,
              rng: np.random.Generator) -> int:
    """The state of a Yule process at rate sel per lineage, run from
    n <= cap for time s and stopped once it passes cap: cap + 1 then.

    The state after time d is n + NegBin(n, e^(-sel d)) (Kendall 1948),
    drawn in pieces with sel d <= ``_PIECE``, since numpy's
    negative_binomial refuses p near 0; the process is Markov, so the
    split is exact.
    """
    t = 0.0
    while t < s:
        d = min(_PIECE / sel, s - t)
        n += int(rng.negative_binomial(n, math.exp(-sel * d)))
        if n > cap:
            return cap + 1
        t += d
    return n


def _rate_row(n: int, sel: float, pair: float, lam: float,
              rates: np.ndarray | None, stretch: bool) -> tuple:
    """(branch, branch + pairwise, total, cdf) out of state n.

    State 1 has no xi part: one lineage merges nothing.  Above it, a
    swept row (``rates`` not None, n within it, and its no-op rate
    rates[n, n] not rounding away against lam) is merge-only: the xi
    part of ``total`` is the rate of the moves to d < n, and ``cdf``
    lists their cumulative shares for d = n - 1 down to 1, its last
    entry +inf.  Any other row is a candidate row: the xi part is the
    candidate rate lam and ``cdf`` is None, and with ``stretch`` the row
    is the pure-birth stretch row (0, 0, lam, None).
    """
    branch = sel * n
    paired = branch + pair * n * (n - 1)
    if n == 1:
        return branch, paired, paired, None
    if rates is None or n >= len(rates) or 1.0 - rates[n, n] / lam == 1.0:
        if stretch:
            return 0.0, 0.0, lam, None
        return branch, paired, paired + lam, None
    moves = rates[n, n - 1:0:-1]
    merges = float(moves.sum())
    cdf = (np.cumsum(moves) / merges).tolist()
    cdf[-1] = math.inf
    return branch, paired, paired + merges, cdf


def simulate(params: LimitParams, n0: int, total_time: float,
             rng: np.random.Generator, cap: int | None = _DEFAULT_CAP,
             record_noops: bool = False) -> DualPath:
    """Gillespie simulation of one chain with an event log.

    The log keeps it on the event path, so it runs no pure-birth stretch
    and draws what ``run_chains`` with ``log=True`` draws.  xi candidates
    that merge nothing stay in the log only with ``record_noops``; swept
    rows of an atomic measure have none (``run_chains``)."""
    runs = run_chains(params, n0, total_time, 1, rng, cap=cap, log=True)
    events = runs.events[0]
    if not record_noops:
        states = [n0] + [ev.state for ev in events]
        events = [ev for ev, before in zip(events, states)
                  if ev.kind != "xi" or ev.state != before]
    return DualPath(initial=n0, events=events,
                    final=int(runs.final[0]), escaped=bool(runs.escaped[0]),
                    returns_to_one=int(runs.returns_to_one[0]))


@dataclass(frozen=True)
class ChainRuns:
    """Per-replicate outcomes of ``run_chains``."""

    final: np.ndarray           # state at the horizon, or just past the cap
    escaped: np.ndarray         # crossed the cap before the horizon
    returns_to_one: np.ndarray  # entries into state 1 from above
    occupation: list[dict[int, float]] | None = None  # holding time per state
    events: list[list[DualEvent]] | None = None


def run_chains(params: LimitParams, n0: int, total_time: float,
               replicates: int, rng: np.random.Generator, *,
               cap: int | None = None, burn_in: float | None = None,
               log: bool = False) -> ChainRuns:
    """The Gillespie core: ``replicates`` independent chains from n0.

    The call runs the replicates one after another, reading shared
    streams of holding times, event choices, offspring counts and xi
    points, each refilled a block of ``_BLOCK`` at a time and drawn only
    when used (``sampler.draw_masses``: no xi point drawn for a one-atom
    law).  A ``burn_in`` adds each replicate's holding time per state
    past it (its occupation); ``log`` adds its event list, every
    xi candidate included.  No row gives state 1 an xi part: a lone
    lineage draws no xi point.  Candidates that merge nothing come from
    candidate rows above it alone: for continuous measures, for atoms
    with more than ``MAX_EXACT_SUPPORT`` groups, and for atomic measures
    past n = 64 or past the n where the no-op rate rounds away against
    lam (each there with probability below 2^-53).  A chain stops at
    total_time or once n > cap; n0 must not exceed the cap.  Without
    ``log`` and ``burn_in``, and with a finite cap, a chain at
    kingman_rate 0 with one extra lineage per branching draws each
    pure-birth stretch in one step (module docstring), so asking for
    either changes the stream but not the law.
    """
    if n0 < 1:
        raise ValueError("n0 must be at least 1")
    if cap is not None and n0 > cap:
        raise ValueError("n0 must not exceed cap")
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    sampler = jump_sampler(params)
    sel = params.selection_rate
    pair = 0.5 * params.kingman_rate
    law = params.offspring
    delta_one = law.point_extra == 1
    lam = sampler.rate
    atoms = sampler.atoms
    rates = None
    if atoms is not None and max(len(z) for _, z in atoms) <= MAX_EXACT_SUPPORT:
        rates = pick_laws(atoms, _SWEPT, np.ones(_SWEPT + 1))
    rows = {}  # the row out of n, from the first visit to n
    # pure-birth stretches (module docstring)
    stretches = (pair == 0.0 and sel > 0.0 and delta_one and cap is not None
                 and not log and burn_in is None)

    holds = _stream(lambda: rng.standard_exponential(_BLOCK).tolist())
    choices = _stream(lambda: rng.random(_BLOCK).tolist())
    extras = _stream(lambda: sample_extra(law, _BLOCK, rng).tolist())
    points = _stream(lambda: _xi_points(sampler.draw_masses(_BLOCK, rng)))
    finals, escapes, returns_to_one = [], [], []
    occupations = [] if burn_in is not None else None
    logs = [] if log else None
    for _ in range(replicates):
        n = n0
        t = 0.0
        returns = 0
        escaped = False
        occ = {} if burn_in is not None else None
        events = [] if log else None
        while True:
            try:
                branch, paired, rate, cdf = rows[n]
            except KeyError:
                # on a stretch row the hold runs to the next candidate,
                # and its births are drawn there or, past the horizon,
                # after the loop
                row = _rate_row(n, sel, pair, lam, rates, stretches)
                if n < _MAX_ROWS:
                    rows[n] = row
                branch, paired, rate, cdf = row
            hold = next(holds) / rate if rate > 0.0 else math.inf
            end = t + hold
            if occ is not None:
                lo = t if t > burn_in else burn_in
                hi = end if end < total_time else total_time
                if hi > lo:
                    occ[n] = occ.get(n, 0.0) + (hi - lo)
            if end >= total_time:
                break
            t = end
            u = next(choices) * rate
            if u < branch:
                n_new = n + (1 if delta_one else next(extras))
            elif u < paired:
                n_new = n - 1
            else:
                if cdf is not None:
                    # a swept merge: u is uniform on [paired, rate)
                    n_new = n - 1 - bisect_right(
                        cdf, (u - paired) / (rate - paired))
                else:
                    if branch == 0.0 and stretches:
                        # the births of the stretch's hold
                        n = _yule_run(n, hold, sel, cap, rng)
                        if n > cap:
                            escaped = True
                            break
                    # each lineage joins with probability min(|z|, 1);
                    # two or more joiners split into groups by the shares
                    total, shares = next(points)
                    k = int(rng.binomial(n, total))
                    n_new = n - k + (k > 0)
                    if k > 1 and shares is not None:
                        n_new += np.count_nonzero(
                            rng.multinomial(k, shares)) - 1
            if events is not None:
                kind = ("branch" if u < branch else
                        "kingman" if u < paired else "xi")
                events.append(DualEvent(t, kind, n_new))
            if n_new == 1 and n > 1:
                returns += 1
            n = n_new
            if cap is not None and n > cap:
                escaped = True
                break
        if branch == 0.0 and stretches and n <= cap:
            # the births of a stretch the horizon cut
            n = _yule_run(n, total_time - t, sel, cap, rng)
            escaped = n > cap
        finals.append(n)
        escapes.append(escaped)
        returns_to_one.append(returns)
        if occ is not None:
            occupations.append(occ)
        if events is not None:
            logs.append(events)
    return ChainRuns(np.array(finals, dtype=np.int64), np.array(escapes),
                     np.array(returns_to_one), occupations, logs)


# ---------------------------------------------------------------------------
# rate matrix


def generator_matrix(params: LimitParams, n_max: int) -> np.ndarray:
    """The chain's rate matrix Q for an atomic measure (module docstring):
    index m - 1 is state m, index n_max an absorbing overflow state, where
    every branching past n_max lands."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if as_atoms(params.xi) is None:
        raise ValueError("generator matrix needs an atomic measure")
    q = np.zeros((n_max + 1, n_max + 1))
    sampler = jump_sampler(params)
    if sampler.atoms is not None:
        # the merge rows run_chains sweeps; their no-ops, on the diagonal,
        # are reset below
        q[:n_max, :n_max] = pick_laws(sampler.atoms, n_max,
                                      np.ones(n_max + 1))[1:, 1:]
    m = np.arange(2, n_max + 1)
    q[m - 1, m - 2] += 0.5 * params.kingman_rate * m * (m - 1)
    # tail[k - 1] = P(i >= k), infinity included: pi_i = tail[i - 1] - tail[i]
    tail = np.array([params.offspring.extra_tail(k)
                     for k in range(1, n_max + 2)])
    n = np.arange(1, n_max + 1)
    r, c = np.triu_indices(n_max, 1)
    q[r, c] += params.selection_rate * n[r] * (tail[c - r - 1] - tail[c - r])
    q[:n_max, n_max] = params.selection_rate * n * tail[n_max - n]
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


# ---------------------------------------------------------------------------
# long-run behaviour


@dataclass(frozen=True)
class RecurrenceReport:
    verdict: str  # "recurrent-looking" | "escaping" | "inconclusive"
    escape_fraction: float
    mean_returns_to_one: float
    mean_return_time: float | None
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
                            states, fractions)


# ---------------------------------------------------------------------------
# moment duality between the limit process and this chain


def moment_duality_check(params: LimitParams, x: float, order: int,
                         total_time: float, dt: float, replicates: int,
                         rng: np.random.Generator) -> Check:
    """Monte-Carlo check of E_x[X_t^n] = E_n[x^(D_t)] at time t.

    A chain that passes ``_DUALITY_CAP`` is scored 0 (1 at x = 1, where
    x^D = 1 for every D) and again x^(cap + 1), its worth if it stays
    above the cap.  The returned ``Check`` compares with the first score;
    its verdict is "pass" when both scores pass, "fail" when both fail
    with lhs on the same side, and "inconclusive" otherwise.
    """
    finals, _ = simulate_batch(params, x, total_time, dt, replicates, rng)
    lhs = McEstimate.from_samples(finals ** order)
    runs = run_chains(params, order, total_time, replicates, rng,
                      cap=_DUALITY_CAP)
    vals = np.power(float(x), runs.final.astype(float))
    if x < 1.0:
        vals[runs.escaped] = 0.0
    low = compare(lhs, McEstimate.from_samples(vals))
    vals[runs.escaped] = float(x) ** (_DUALITY_CAP + 1)
    high = compare(lhs, McEstimate.from_samples(vals))
    same_side = (lhs.mean > low.rhs.mean) == (lhs.mean > high.rhs.mean)
    if low.verdict == high.verdict and (low.passed or same_side):
        return low
    return replace(low, verdict="inconclusive")
