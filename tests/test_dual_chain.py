import hashlib
import math

import numpy as np
import pytest
from scipy.stats import chisquare

from cannings import (FiniteAtomic, LambdaBeta, LambdaDirac, LimitParams,
                      SimplexPoint, StickBreaking, dual_generator_apply_exact,
                      generator_apply_exact, geometric_offspring,
                      jump_sampler, moment_duality_check, offspring_delta,
                      recurrence_probe, run_chains, simulate, xi_jump_pmf)
from cannings.dual_chain import _merges_round_to_one, _rate_row

DIRAC_HALF = LambdaDirac(0.5, 1.0)


def reference_params(kappa: float, sigma: float = 0.0) -> LimitParams:
    return LimitParams(kappa, sigma, offspring_delta(1), xi=DIRAC_HALF)


def test_pure_death_chain():
    rng = np.random.default_rng(8)
    params = LimitParams(0.0, 1.0, offspring_delta(1))
    path = simulate(params, 5, 1_000.0, rng)
    assert path.final == 1
    assert path.returns_to_one == 1
    kinds = [e.kind for e in path.events]
    assert kinds == ["kingman"] * 4
    assert [e.state for e in path.events] == [4, 3, 2, 1]
    times = [e.time for e in path.events]
    assert times == sorted(times) and times[-1] < 1_000.0


def test_total_merger_goes_straight_to_one():
    rng = np.random.default_rng(12)
    params = LimitParams(0.0, 0.0, offspring_delta(1),
                         xi=LambdaDirac(1.0, 1.0))
    path = simulate(params, 7, 50.0, rng)
    assert path.final == 1
    assert len(path.events) == 1
    assert path.events[0].kind == "xi" and path.events[0].state == 1


def test_holding_time_at_two():
    # state 2 under kappa=1, sigma=0, dirac [0.5]: the chain leaves at
    # rate 2 (branch) + 0 + 4 * 1/4 (both lineages join the merger), so
    # sojourns at 2 are Exp(3); every logged event changes the state
    rng = np.random.default_rng(42)
    path = simulate(reference_params(1.0), 2, 8_000.0, rng, cap=None)
    holds = []
    state, prev_t = 2, 0.0
    for ev in path.events:
        if state == 2:
            holds.append(ev.time - prev_t)
        state, prev_t = ev.state, ev.time
    holds = np.asarray(holds)
    assert holds.size > 5_000
    se = holds.std(ddof=1) / math.sqrt(holds.size)
    assert abs(holds.mean() - 1 / 3) <= 3 * se


def test_escape_cap():
    rng = np.random.default_rng(6)
    params = LimitParams(0.5, 0.0, offspring_delta(1))  # pure branching
    path = simulate(params, 2, 1_000.0, rng, cap=50)
    assert path.escaped
    assert path.final > 50
    assert path.escape_time is not None and 0.0 < path.escape_time < 1_000.0


def test_simulate_state_invariants():
    rng = np.random.default_rng(15)
    params = reference_params(1.0, sigma=1.0)
    path = simulate(params, 4, 200.0, rng, record_noops=True)
    state = 4
    for ev in path.events:
        assert ev.state >= 1
        if ev.kind == "kingman":
            assert ev.state == state - 1
        elif ev.kind == "branch":
            assert ev.state == state + ev.offspring
        else:
            assert ev.kind == "xi" and ev.state <= state
        state = ev.state
    assert state == path.final


def test_xi_jump_pmf_hand_enumeration():
    # z = (0.3, 0.2), n = 3: |z| = 0.5, normalized groups (0.6, 0.4);
    # k ~ Bin(3, 0.5) participants, counts multinomial over the groups,
    # new state 3 - k + d.  By hand:
    #   new 1: k=3 one group   = 0.125 * (0.216 + 0.064)        = 0.035
    #   new 2: k=2 one group   = 0.375 * (0.36 + 0.16)          = 0.195
    #          k=3 two groups  = 0.125 * (0.432 + 0.288)        = 0.090
    #   new 3: everything else                                   = 0.680
    pmf = xi_jump_pmf(SimplexPoint((0.3, 0.2)), 3)
    assert abs(pmf[1] - 0.035) < 1e-12
    assert abs(pmf[2] - 0.285) < 1e-12
    assert abs(pmf[3] - 0.680) < 1e-12
    assert abs(sum(pmf.values()) - 1.0) < 1e-12


def test_xi_jump_pmf_single_atom():
    # z = [0.5], n = 2: both in (prob 1/4) merges to 1, else no-op
    pmf = xi_jump_pmf(SimplexPoint((0.5,)), 2)
    assert abs(pmf[1] - 0.25) < 1e-14
    assert abs(pmf[2] - 0.75) < 1e-14


def test_generator_branch_only_at_one_lineage():
    # n = 1: mergers are impossible, only branching moves the state
    params = LimitParams(2.0, 1.0, offspring_delta(2), xi=DIRAC_HALF)
    expect = 2.0 * (0.5 ** 3 - 0.5)
    assert abs(dual_generator_apply_exact(params, 0.5, 1) - expect) < 1e-14


def test_generator_vanishes_on_constants():
    params = reference_params(1.5, sigma=0.7)
    for n in (1, 2, 5):
        assert abs(dual_generator_apply_exact(params, 1.0, n)) < 1e-12


def test_generator_duality_cross_check():
    # the two generators applied to x^n agree: forward A on f(x) = x^n,
    # backward L on n -> x^n, same value
    measures = [DIRAC_HALF, FiniteAtomic(((0.6, (0.3, 0.2)), (0.4, (0.5,))))]
    for xi in measures:
        for law in (offspring_delta(1), offspring_delta(2)):
            for sigma in (0.0, 1.0):
                params = LimitParams(1.0, sigma, law, xi=xi)
                for n in (1, 2, 3, 4):
                    for x in (0.25, 0.5, 0.75):
                        a = generator_apply_exact(params, n, x)
                        l = dual_generator_apply_exact(params, x, n)
                        assert abs(a - l) < 1e-10, (xi, sigma, n, x)


def test_generator_duality_beyond_enumeration_sizes():
    # the lineage-side pmf has no cap on n or on the atom support; it
    # still matches the forward pattern sum
    wide = FiniteAtomic(((1.0, (0.1,) * 7),))
    for xi in (DIRAC_HALF, wide):
        params = LimitParams(1.0, 0.5, offspring_delta(2), xi=xi)
        for n in (11, 15, 20):
            for x in (0.25, 0.5, 0.75):
                a = generator_apply_exact(params, n, x)
                l = dual_generator_apply_exact(params, x, n)
                assert abs(a - l) < 1e-10, (xi, n, x)
    for z in ((0.5,), (0.3, 0.2, 0.1), (0.1,) * 7):
        pmf = xi_jump_pmf(SimplexPoint(z), 60)
        assert abs(sum(pmf.values()) - 1.0) < 1e-12
    # the recursion's weights are probabilities: no overflow at large n
    pmf = xi_jump_pmf(SimplexPoint((0.6, 0.3)), 1000)
    assert abs(sum(pmf.values()) - 1.0) < 1e-12


def test_generator_budget_errors():
    cont = LimitParams(1.0, 0.0, offspring_delta(1),
                       xi=LambdaBeta(3.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        dual_generator_apply_exact(cont, 0.5, 2)


def test_stationary_pure_coalescence_is_delta_one():
    rng = np.random.default_rng(25)
    params = LimitParams(0.0, 1.0, offspring_delta(1))
    probe = recurrence_probe(params, 3, horizon=30.0, cap=10_000,
                             replicates=40, rng=rng, burn_in=10.0)
    assert probe.escape_fraction == 0.0
    assert probe.states.tolist() == [1]
    assert probe.fractions.mean(axis=0).tolist() == [1.0]
    phi = probe.phi(1.0)
    assert phi.mean == 1.0 and phi.std_error == 0.0
    assert abs(probe.phi(0.5).mean - 0.5) < 1e-12


def test_stationary_argument_errors():
    # a burn_in at the horizon is accepted and keeps no occupation; phi
    # has nothing to average there, nor on a probe without burn_in
    params = reference_params(1.0)
    probe = recurrence_probe(params, 2, horizon=5.0, cap=10_000,
                             replicates=4, rng=np.random.default_rng(0),
                             burn_in=5.0)
    assert probe.states.size == 0 and probe.fractions.shape == (4, 0)
    with pytest.raises(ValueError, match="no occupation"):
        probe.phi(0.5)
    probe = recurrence_probe(params, 2, horizon=5.0, cap=10_000,
                             replicates=4, rng=np.random.default_rng(0))
    assert probe.states is None and probe.fractions is None
    with pytest.raises(ValueError, match="no occupation"):
        probe.phi(0.5)


def test_recurrence_probe_escaping():
    rng = np.random.default_rng(18)
    params = LimitParams(0.5, 0.0, offspring_delta(1))  # pure branching
    report = recurrence_probe(params, 2, horizon=1_000.0, cap=200,
                              replicates=30, rng=rng)
    assert report.verdict == "escaping"
    assert report.escape_fraction == 1.0


def test_recurrence_probe_recurrent_looking():
    # kappa far below the threshold: state 1 is revisited constantly
    rng = np.random.default_rng(27)
    report = recurrence_probe(reference_params(0.1), 2, horizon=300.0,
                              cap=10_000, replicates=20, rng=rng)
    assert report.verdict == "recurrent-looking"
    assert report.escape_fraction == 0.0
    assert report.mean_returns_to_one >= 10.0
    assert report.mean_return_time is not None


def test_moment_duality_smoke():
    rng = np.random.default_rng(52)
    report = moment_duality_check(reference_params(1.0), 0.5, 2,
                                  total_time=0.5, dt=0.01, replicates=4_000,
                                  rng=rng)
    assert report.verdict == "pass"
    assert 0.0 <= report.lhs.mean <= 1.0 and 0.0 <= report.rhs.mean <= 1.0
    assert report.gap <= report.tolerance
    assert abs(report.tolerance - 3.0 * report.combined_se) < 1e-15


def test_moment_duality_scores_escapes_as_one_at_x_one():
    # at kappa = 6 most chains pass the cap within t = 5; at x = 1 every
    # D has 1^D = 1, so an escaped chain scores 1 like any other
    report = moment_duality_check(reference_params(6.0), 1.0, 2,
                                  total_time=5.0, dt=1e-3, replicates=200,
                                  rng=np.random.default_rng(3))
    assert report.lhs.mean == 1.0 and report.rhs.mean == 1.0
    assert report.verdict == "pass"


# ---------------------------------------------------------------------------
# the jump sampler is built once per run, not once per replicate

BETA_PARAMS = LimitParams(1.0, 1.0, geometric_offspring(0.5),
                          xi=LambdaBeta(0.5, 1.5), jump_floor=0.05)


@pytest.mark.parametrize("replicates, burn_in", [
    pytest.param(1, None, id="1"), pytest.param(6, None, id="6"),
    pytest.param(1, 0.2, id="1-burn_in"),
    pytest.param(6, 0.2, id="6-burn_in")])
def test_one_sampler_per_recurrence_probe(sampler_builds, replicates, burn_in):
    recurrence_probe(BETA_PARAMS, 2, horizon=0.5, cap=1_000,
                     replicates=replicates, rng=np.random.default_rng(3),
                     burn_in=burn_in)
    assert len(sampler_builds) == 1


@pytest.mark.parametrize("replicates", [2, 6])
def test_moment_duality_builds_forward_and_chain_samplers(sampler_builds,
                                                          replicates):
    # one in simulate_batch, one shared by every dual-chain replicate
    moment_duality_check(BETA_PARAMS, 0.5, 2, total_time=0.2, dt=0.05,
                         replicates=replicates, rng=np.random.default_rng(5))
    assert len(sampler_builds) == 2


# ---------------------------------------------------------------------------
# the block-buffered core: law checks and its stream


def candidate_rates(params, n):
    """(branch, pairwise, xi candidate) rates out of n: kappa n,
    sigma n (n - 1) / 2 and the truncated intensity."""
    return (params.selection_rate * n, params.kingman_rate * n * (n - 1) / 2,
            jump_sampler(params).rate)


def first_events(params, n0, replicates, seed):
    """The first logged event (no-op candidates included) of each replicate."""
    rng = np.random.default_rng(seed)
    rate = sum(candidate_rates(params, n0))
    # 20 mean holding times: a replicate sees no event with prob. e^-20
    runs = run_chains(params, n0, 20.0 / rate, replicates, rng, log=True)
    assert all(runs.events)
    return [events[0] for events in runs.events]


def test_first_event_law_beta_geometric_kingman():
    # out of state 4: the holding time is Exp(total rate) (mean at 3 SE)
    # and the event kind is branch / Kingman / xi in proportion to
    # the candidate rates (chi-square, 1% level)
    n, reps = 4, 10_000
    firsts = first_events(BETA_PARAMS, n, reps, seed=101)
    rates = np.array(candidate_rates(BETA_PARAMS, n))
    holds = np.array([e.time for e in firsts])
    se = holds.std(ddof=1) / math.sqrt(reps)
    assert abs(holds.mean() - 1.0 / rates.sum()) <= 3 * se
    kinds = [e.kind for e in firsts]
    f_obs = np.array([kinds.count(k) for k in ("branch", "kingman", "xi")])
    f_exp = reps * rates / rates.sum()
    assert f_obs.sum() == reps
    assert chisquare(f_obs, f_exp).pvalue > 0.01


def test_xi_post_state_law_two_atoms():
    # pure xi chain out of state 3 under two atoms: the post-state of the
    # first candidate (no-ops logged) follows the rate-weighted mixture of
    # xi_jump_pmf over the atoms (chi-square, 1% level)
    atoms = ((0.6, (0.3, 0.2)), (0.4, (0.6,)))
    params = LimitParams(0.0, 0.0, offspring_delta(1),
                         xi=FiniteAtomic(atoms))
    n, reps = 3, 10_000
    firsts = first_events(params, n, reps, seed=102)
    assert {e.kind for e in firsts} == {"xi"}
    weights = np.array([w / sum(m * m for m in z) for w, z in atoms])
    weights /= weights.sum()
    pmf = np.zeros(n)
    for w, (_, z) in zip(weights, atoms):
        for new, p in xi_jump_pmf(SimplexPoint(z), n).items():
            pmf[new - 1] += w * p
    news = np.array([e.state for e in firsts])
    f_obs = np.array([(news == s).sum() for s in range(1, n + 1)])
    assert f_obs.sum() == reps
    assert chisquare(f_obs, reps * pmf).pvalue > 0.01
    # each logged point is one of the two atoms
    assert {e.point for e in firsts} == {z for _, z in atoms}


@pytest.mark.parametrize("y", [1e-6, 0.01, 0.3, 0.5, 0.97])
def test_one_group_rate_row_against_xi_jump_pmf(y):
    # the row's xi rate is lam P(Bin(n, y) >= 2) to a few ulps, also at
    # small y, where 1 - q^n - n y q^(n-1) cancels; its CDF is the law
    # of k given k >= 2 (k of n lineages merge into n - k + 1); where
    # P(Bin(n, y) < 2) vanishes against 1 the row keeps the candidate rate
    lam, sel, pair = 3.0, 0.5, 0.25
    assert _rate_row(1, sel, pair, lam, y) == (sel, sel, sel, None)
    for n in (2, 3, 10, 40):
        branch, paired, total, cdf = _rate_row(n, sel, pair, lam, y)
        assert branch == sel * n and paired == branch + pair * n * (n - 1)
        pmf = xi_jump_pmf(SimplexPoint((y,)), n)
        merge = sum(p for d, p in pmf.items() if d != n)
        if cdf is None:
            assert 1.0 - (1.0 - y) ** (n - 1) * (1.0 - y + n * y) == 1.0
            assert total == paired + lam
            continue
        assert total - paired == pytest.approx(lam * merge, rel=1e-12)
        assert cdf[-1] == math.inf and len(cdf) == n - 1
        probs = np.diff([0.0] + cdf[:-1] + [1.0])
        expect = [pmf.get(n - k + 1, 0.0) / merge for k in range(2, n + 1)]
        assert np.allclose(probs, expect, rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("y,n,seed", [(0.3, 2, 111), (0.3, 3, 112),
                                      (0.3, 6, 113), (1.0, 3, 114)])
def test_first_event_law_one_group_merges(y, n, seed):
    # a one-group atom runs no candidate clock: out of n the chain leaves
    # at rate kappa n + sum_{d != n} lam xi_jump_pmf(d) (mean at 3 SE),
    # to n + 1 or to a merged state d in proportion to those rates
    # (chi-square, 1% level), and no logged xi event leaves n unchanged
    params = LimitParams(1.0, 0.0, offspring_delta(1), xi=LambdaDirac(y))
    reps = 20_000
    lam = jump_sampler(params).rate
    rates = {n + 1: params.selection_rate * n}
    for new, p in xi_jump_pmf(SimplexPoint((y,)), n).items():
        if new != n:
            rates[new] = lam * p
    total = sum(rates.values())
    rng = np.random.default_rng(seed)
    # 20 mean holding times: a replicate sees no event with prob. e^-20;
    # a replicate stops once it branches above n
    runs = run_chains(params, n, 20.0 / total, reps, rng, cap=n, log=True)
    assert all(runs.events)
    firsts = [events[0] for events in runs.events]
    holds = np.array([e.time for e in firsts])
    se = holds.std(ddof=1) / math.sqrt(reps)
    assert abs(holds.mean() - 1.0 / total) <= 3 * se
    states = sorted(rates)
    news = [e.state for e in firsts]
    f_obs = np.array([news.count(s) for s in states])
    assert f_obs.sum() == reps
    f_exp = reps * np.array([rates[s] for s in states]) / total
    assert chisquare(f_obs, f_exp).pvalue > 0.01
    for events in runs.events:
        state = n
        for ev in events:
            assert ev.kind != "xi" or ev.state < state
            state = ev.state


@pytest.mark.parametrize("params", [reference_params(1.0, sigma=1.0),
                                    BETA_PARAMS],
                         ids=["dirac", "beta"])
def test_simulate_is_one_replicate_of_run_chains(params):
    # the event log does not touch the random stream
    for seed in (1, 2, 3):
        path = simulate(params, 3, 20.0, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        runs = run_chains(params, 3, 20.0, 1, rng, cap=10_000)
        assert path.final == runs.final[0]
        assert path.returns_to_one == runs.returns_to_one[0]
        assert path.escaped == runs.escaped[0]


def test_simulate_drops_only_noop_candidates():
    # without record_noops the log is the full log minus the xi events
    # that leave the state unchanged, from the same stream
    for seed in (1, 2, 3):
        full = simulate(BETA_PARAMS, 3, 20.0, np.random.default_rng(seed),
                        record_noops=True)
        kept = simulate(BETA_PARAMS, 3, 20.0, np.random.default_rng(seed))
        states = [3] + [ev.state for ev in full.events]
        changed = [ev for ev, before in zip(full.events, states)
                   if ev.kind != "xi" or ev.state != before]
        assert len(changed) < len(full.events)
        assert kept.events == changed
        assert (kept.final, kept.returns_to_one) == (full.final,
                                                     full.returns_to_one)


STICK_PARAMS = LimitParams(1.0, 0.5, geometric_offspring(0.5),
                           xi=StickBreaking(), jump_floor=0.1)


@pytest.mark.parametrize("params", [reference_params(1.0), BETA_PARAMS,
                                    STICK_PARAMS],
                         ids=["dirac", "beta", "stick"])
def test_occupation_draws_nothing(params):
    # keeping the occupation leaves the chains and the rng where they
    # were, so one probe gives both the regime and the occupation average;
    # the low cap makes some replicates of each model escape
    outs = []
    for burn_in in (None, 1.0):
        rng = np.random.default_rng(31)
        runs = run_chains(params, 3, 5.0, 20, rng, cap=5, burn_in=burn_in)
        outs.append((runs, rng.random()))
    (plain, u), (occ, v) = outs
    for name in ("final", "escaped", "escape_time", "returns_to_one"):
        np.testing.assert_array_equal(getattr(plain, name), getattr(occ, name))
    assert u == v
    assert plain.occupation is None and occ.escaped.any()
    for held, escaped in zip(occ.occupation, occ.escaped):
        if not escaped:
            assert abs(sum(held.values()) - 4.0) < 1e-9


def test_run_chains_argument_errors():
    rng = np.random.default_rng(0)
    params = reference_params(1.0)
    with pytest.raises(ValueError, match="replicates"):
        run_chains(params, 2, 1.0, 0, rng)
    with pytest.raises(ValueError, match="n0"):
        run_chains(params, 0, 1.0, 3, rng)
    with pytest.raises(ValueError, match="replicates"):
        recurrence_probe(params, 2, horizon=1.0, cap=10, replicates=0, rng=rng)


def test_stick_breaking_chain_stream_pinned():
    # stick-breaking is the one family whose sampler build draws (its
    # point pool): sha256 of final, returns_to_one and escaped (int64,
    # int64, uint8), then of the next rng.random() as float64, recorded
    # when the caller built the sampler just before the chains
    rng = np.random.default_rng(2024)
    runs = run_chains(STICK_PARAMS, 3, 5.0, 50, rng, cap=1_000)
    digest = hashlib.sha256(runs.final.astype("<i8").tobytes())
    digest.update(runs.returns_to_one.astype("<i8").tobytes())
    digest.update(runs.escaped.astype(np.uint8).tobytes())
    digest.update(np.float64(rng.random()).tobytes())
    assert digest.hexdigest() == (
        "f30a0a8b18b4ac723ffc67ef4164b0510ddd8405ede13639a465768bbc03ad8f")


# ---------------------------------------------------------------------------
# pure-birth stretches: kingman_rate 0, one extra lineage, a finite cap

YULE_PARAMS = LimitParams(1.0, 0.0, offspring_delta(1), xi=None)


def test_yule_stretch_escape_time_is_harmonic():
    # no xi events: from 2 lineages the chain passes cap 50 after one
    # Exp(j) holding time at each j = 2..50, and stops at 51
    reps = 4000
    runs = run_chains(YULE_PARAMS, 2, 100.0, reps, np.random.default_rng(41),
                      cap=50)
    assert runs.escaped.all() and (runs.final == 51).all()
    expected = sum(1.0 / j for j in range(2, 51))
    se = runs.escape_time.std(ddof=1) / math.sqrt(reps)
    assert abs(runs.escape_time.mean() - expected) <= 3.0 * se


def test_yule_stretch_state_at_horizon():
    # a Yule process at rate 1 from 3 has mean 3 e^t at time t
    reps = 4000
    runs = run_chains(YULE_PARAMS, 3, 1.5, reps, np.random.default_rng(42),
                      cap=10**9)
    assert not runs.escaped.any()
    finals = runs.final.astype(float)
    se = finals.std(ddof=1) / math.sqrt(reps)
    assert abs(finals.mean() - 3.0 * math.exp(1.5)) <= 3.0 * se


def test_yule_stretch_matches_event_path():
    # delta_0.5 at kappa = 6 starts in a stretch (n0 = 80 >= 60) and
    # escapes in about two thirds of the replicates; the event log keeps
    # the other side of the comparison event by event
    params = reference_params(6.0)
    reps = 4000
    sides = [run_chains(params, 80, 0.5, reps, np.random.default_rng(seed),
                        cap=400, log=log)
             for seed, log in ((43, False), (44, True))]

    def moments(runs):
        esc = runs.escaped.astype(float)
        finals = runs.final.astype(float)
        times = runs.escape_time[runs.escaped]
        return [(v.mean(), v.std(ddof=1) / math.sqrt(v.size))
                for v in (esc, finals, times)]

    for (a, se_a), (b, se_b) in zip(*map(moments, sides)):
        assert abs(a - b) <= 3.0 * math.hypot(se_a, se_b)


def test_yule_stretch_long_horizon_draws_in_pieces():
    # kappa * s = 2000 > 745: one negative binomial over the whole stretch
    # would need p = e^-2000, which is 0.0 in floating point
    runs = run_chains(YULE_PARAMS, 2, 2000.0, 5, np.random.default_rng(45),
                      cap=10**6)
    assert runs.escaped.all() and (runs.final == 10**6 + 1).all()
    assert ((0.0 < runs.escape_time) & (runs.escape_time < 2000.0)).all()


@pytest.mark.parametrize("y", [0.01, 0.3, 0.5, 0.97, 1.0])
def test_merge_rows_end_is_the_first_candidate_row(y):
    # the one-group rows keep merge CDFs up to the first n >= 2 where
    # P(Binomial(n, y) >= 2) rounds to 1, and the candidate rate from
    # there on, where stretch rows (decided by the same test) start too
    end = next(n for n in range(2, 10**6) if _merges_round_to_one(n, y))
    assert end == 2 or _rate_row(end - 1, 1.0, 0.0, 2.0, y)[3] is not None
    for n in range(end, end + 200):
        assert _merges_round_to_one(n, y)
        assert _rate_row(n, 1.0, 0.0, 2.0, y)[3] is None


def test_merge_rows_end_above_cap():
    assert not _merges_round_to_one(59, 0.5)
    assert _merges_round_to_one(60, 0.5)
    assert _rate_row(59, 1.0, 0.0, 2.0, 0.5)[3] is not None
    assert _rate_row(60, 1.0, 0.0, 2.0, 0.5)[3] is None
    # at a tiny y the merge rows never give way within 10^6 lineages
    assert not _merges_round_to_one(10**6, 1e-300)
    # with the end above the cap no row is a stretch row: the plain run
    # and the event path agree draw for draw
    params = reference_params(6.0)
    for seed in (1, 2, 3):
        rngs = np.random.default_rng(seed), np.random.default_rng(seed)
        path = simulate(params, 50, 0.5, rngs[0], cap=59)
        plain = run_chains(params, 50, 0.5, 1, rngs[1], cap=59)
        assert (path.final, path.escaped) == (plain.final[0], plain.escaped[0])
        assert rngs[0].random() == rngs[1].random()


def test_occupation_log_and_no_cap_take_the_event_path():
    # the model is stretch-eligible, yet asking for the occupation or the
    # log, or giving no cap, keeps every chain event by event: those
    # runs agree with each other draw for draw, and the plain run with a
    # cap leaves the rng elsewhere
    params = reference_params(6.0)
    for seed in (46, 47, 48):
        path = simulate(params, 80, 0.5, np.random.default_rng(seed), cap=400)
        rng = np.random.default_rng(seed)
        occ = run_chains(params, 80, 0.5, 1, rng, cap=400, burn_in=0.0)
        assert path.final == occ.final[0]
        assert path.escaped == occ.escaped[0]
        assert path.returns_to_one == occ.returns_to_one[0]
        after_event_path = rng.random()
        rng = np.random.default_rng(seed)
        run_chains(params, 80, 0.5, 1, rng, cap=400)
        assert rng.random() != after_event_path
        unbounded = simulate(params, 80, 0.3, np.random.default_rng(seed),
                             cap=None)
        plain = run_chains(params, 80, 0.3, 1, np.random.default_rng(seed))
        assert plain.final[0] == unbounded.final
        assert plain.returns_to_one[0] == unbounded.returns_to_one
