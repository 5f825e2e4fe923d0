import math

import numpy as np
import pytest
from scipy.stats import chisquare

from cannings import (FiniteAtomic, LambdaBeta, LambdaDirac, LimitParams,
                      SimplexPoint, dual_generator_apply_exact, event_rates,
                      generator_apply_exact, geometric_offspring,
                      moment_duality_check, offspring_delta, recurrence_probe,
                      simulate, stationary_estimate, xi_event_outcome,
                      xi_jump_pmf)

DIRAC_HALF = LambdaDirac(0.5, 1.0)


def reference_params(kappa: float, sigma: float = 0.0) -> LimitParams:
    return LimitParams(kappa, sigma, offspring_delta(1), xi=DIRAC_HALF)


def test_event_rates_examples():
    params = reference_params(1.0, sigma=1.0)
    r1 = event_rates(params, 1)
    assert r1.kingman == 0.0
    r3 = event_rates(params, 3)
    assert r3.kingman == 3.0            # C(3,2) pairs at rate 1
    assert r3.branch_total == 3.0       # one branch clock per lineage
    assert abs(r3.xi_candidate - 4.0) < 1e-12   # mass 1 / 0.5^2
    assert abs(r3.total - 10.0) < 1e-12
    with pytest.raises(ValueError):
        event_rates(params, 0)
    # a cached candidate rate is taken at face value
    assert event_rates(params, 2, xi_rate=7.0).xi_candidate == 7.0


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
    # state 2 under kappa=1, sigma=0, dirac [0.5]: candidate clock
    # 2 (branch) + 0 + 4 (xi) = 6, so sojourns at 2 are Exp(6)
    rng = np.random.default_rng(42)
    path = simulate(reference_params(1.0), 2, 6_000.0, rng, cap=None,
                    record_noops=True)
    holds = []
    state, prev_t = 2, 0.0
    for ev in path.events:
        if state == 2:
            holds.append(ev.time - prev_t)
        state, prev_t = ev.state, ev.time
    holds = np.asarray(holds)
    assert holds.size > 5_000
    se = holds.std(ddof=1) / math.sqrt(holds.size)
    assert abs(holds.mean() - 1 / 6) <= 3 * se


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


def test_xi_event_outcome_matches_exact_law():
    # empirical conditional-on-change frequencies vs the enumeration above,
    # chi-square at the 1% level
    rng = np.random.default_rng(3)
    z = SimplexPoint((0.3, 0.2))
    n, draws = 3, 40_000
    news = np.empty(draws, dtype=np.int64)
    for i in range(draws):
        k, d, sizes = xi_event_outcome(z, n, rng)
        assert sum(sizes) == k and len(sizes) == d
        news[i] = n - k + d
    changed = news[news != n]
    f_obs = np.array([(changed == 1).sum(), (changed == 2).sum()])
    cond = np.array([0.035, 0.285]) / 0.32
    result = chisquare(f_obs, f_exp=cond * changed.size)
    assert result.pvalue > 0.01


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


def test_generator_budget_errors():
    params = reference_params(1.0)
    with pytest.raises(ValueError):
        dual_generator_apply_exact(params, 0.5, 11)
    wide = FiniteAtomic(((1.0, (0.1,) * 7),))
    with pytest.raises(ValueError):
        dual_generator_apply_exact(
            LimitParams(1.0, 0.0, offspring_delta(1), xi=wide), 0.5, 2)
    cont = LimitParams(1.0, 0.0, offspring_delta(1),
                       xi=LambdaBeta(3.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        dual_generator_apply_exact(cont, 0.5, 2)


def test_stationary_pure_coalescence_is_delta_one():
    rng = np.random.default_rng(25)
    params = LimitParams(0.0, 1.0, offspring_delta(1))
    est = stationary_estimate(params, 3, burn_in=10.0, horizon=30.0,
                              replicates=40, rng=rng)
    assert est.escape_fraction == 0.0
    assert est.pmf() == {1: 1.0}
    mean, se = est.phi(1.0)
    assert mean == 1.0 and se == 0.0
    mean_half, _ = est.phi(0.5)
    assert abs(mean_half - 0.5) < 1e-12


def test_stationary_argument_errors():
    rng = np.random.default_rng(0)
    params = reference_params(1.0)
    with pytest.raises(ValueError):
        stationary_estimate(params, 2, burn_in=5.0, horizon=5.0,
                            replicates=4, rng=rng)


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


# ---------------------------------------------------------------------------
# the jump sampler is built once per run, not once per replicate

BETA_PARAMS = LimitParams(1.0, 1.0, geometric_offspring(0.5),
                          xi=LambdaBeta(0.5, 1.5), jump_floor=0.05)


@pytest.mark.parametrize("replicates", [1, 6])
def test_one_sampler_per_recurrence_probe(sampler_builds, replicates):
    recurrence_probe(BETA_PARAMS, 2, horizon=0.5, cap=1_000,
                     replicates=replicates, rng=np.random.default_rng(3))
    assert len(sampler_builds) == 1


@pytest.mark.parametrize("replicates", [1, 6])
def test_one_sampler_per_stationary_estimate(sampler_builds, replicates):
    stationary_estimate(BETA_PARAMS, 2, burn_in=0.2, horizon=0.5,
                        replicates=replicates, rng=np.random.default_rng(4))
    assert len(sampler_builds) == 1


@pytest.mark.parametrize("replicates", [2, 6])
def test_moment_duality_builds_forward_and_chain_samplers(sampler_builds,
                                                          replicates):
    # one in simulate_batch, one shared by every dual-chain replicate
    moment_duality_check(BETA_PARAMS, 0.5, 2, total_time=0.2, dt=0.05,
                         replicates=replicates, rng=np.random.default_rng(5))
    assert len(sampler_builds) == 2
