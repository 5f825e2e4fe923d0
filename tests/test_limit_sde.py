import math

import numpy as np
import pytest

from cannings import (FiniteAtomic, LambdaBeta, LambdaDirac, LimitParams,
                      SelectionLaw, generator_apply_bernoulli,
                      generator_apply_exact, geometric_offspring, jump_sampler,
                      offspring_delta, offspring_pmf, resolved_jump_floor,
                      simulate_batch, simulate_path)

DIRAC_HALF = LambdaDirac(0.5, 1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        LimitParams(-1.0, 0.0, offspring_delta(1))
    with pytest.raises(ValueError):
        LimitParams(1.0, -0.5, offspring_delta(1))
    with pytest.raises(ValueError):
        LimitParams(1.0, 0.0, SelectionLaw(1.0, extra_pmf=(), extra_inf_mass=1.0))
    with pytest.raises(ValueError):
        LimitParams(1.0, 0.0, offspring_delta(1), xi=DIRAC_HALF, jump_floor=1.5)


def test_resolved_jump_floor():
    base = dict(selection_rate=1.0, kingman_rate=0.0, offspring=offspring_delta(1))
    assert resolved_jump_floor(LimitParams(**base)) is None
    assert resolved_jump_floor(LimitParams(**base, xi=DIRAC_HALF,
                                           jump_floor=0.2)) == 0.2
    # atomic measures resolve to their smallest leading mass (exact clock)
    atoms = FiniteAtomic(((1.0, (0.4, 0.1)), (2.0, (0.25,))))
    assert resolved_jump_floor(LimitParams(**base, xi=atoms)) == 0.25
    # continuous families fall back to the documented default
    cont = LimitParams(**base, xi=LambdaBeta(3.0, 1.0, 1.0))
    assert resolved_jump_floor(cont) == 1e-3


def test_jump_rate_dirac():
    params = LimitParams(1.0, 0.0, offspring_delta(1), xi=DIRAC_HALF)
    sampler = jump_sampler(params, rng=np.random.default_rng(0))
    # one atom of mass 1 at [0.5]: rate = 1 / 0.25 = 4
    assert abs(sampler.rate - 4.0) < 1e-12


def test_absorbing_endpoints():
    rng = np.random.default_rng(2)
    params = LimitParams(1.0, 1.0, offspring_delta(1), xi=DIRAC_HALF)
    for x0 in (0.0, 1.0):
        path = simulate_path(params, x0, 2.0, dt=0.01, rng=rng)
        assert np.all(path.values == x0)
        finals = simulate_batch(params, x0, 2.0, dt=0.01, n_paths=64, rng=rng)
        assert np.all(finals == x0)


def test_neutral_jump_martingale():
    # kappa = 0, sigma = 0: only mean-preserving jumps move the state
    rng = np.random.default_rng(9)
    params = LimitParams(0.0, 0.0, offspring_delta(1), xi=DIRAC_HALF)
    finals = simulate_batch(params, 0.3, 1.0, dt=0.01, n_paths=100_000, rng=rng)
    se = finals.std(ddof=1) / math.sqrt(finals.size)
    assert abs(finals.mean() - 0.3) <= 3 * se
    assert np.all((finals >= 0.0) & (finals <= 1.0))


def test_path_structure_and_jump_log():
    rng = np.random.default_rng(14)
    params = LimitParams(1.0, 0.5, offspring_delta(1), xi=DIRAC_HALF)
    path = simulate_path(params, 0.5, 3.0, dt=0.01, rng=rng)
    assert np.all(np.diff(path.times) > 0)
    assert path.times[0] == 0.0 and path.times[-1] == 3.0
    assert np.all((path.values >= 0.0) & (path.values <= 1.0))
    assert len(path.jump_log) > 0  # rate 4 over T=3: empty log is (1e-6)-unlikely
    jump_times = [t for t, _, _ in path.jump_log]
    assert all(0.0 < t <= 3.0 for t in jump_times)
    assert jump_times == sorted(jump_times)
    assert all(0.0 <= post <= 1.0 for _, _, post in path.jump_log)


def test_simulate_argument_errors():
    rng = np.random.default_rng(0)
    params = LimitParams(1.0, 0.0, offspring_delta(1))
    with pytest.raises(ValueError):
        simulate_path(params, 1.5, 1.0, rng=rng)
    with pytest.raises(ValueError):
        simulate_path(params, 0.5, 1.0, dt=0.0, rng=rng)
    with pytest.raises(ValueError):
        simulate_path(params, 0.5, 1.0)
    with pytest.raises(ValueError):
        simulate_batch(params, 0.5, 1.0)
    for total_time, dt in ((-1.0, 0.01), (1.0, 0.0), (1.0, -0.01)):
        with pytest.raises(ValueError):
            simulate_batch(params, 0.5, total_time, dt=dt, rng=rng)


@pytest.mark.parametrize("params, x0, total_time, dt, n_paths, seed, expected", [
    (LimitParams(1.0, 0.5, offspring_delta(1), xi=DIRAC_HALF), 0.3, 0.5, 0.01,
     8, 11, [0.5083196680388928, 0.07812297067109646, 0.12368442780582337,
             0.45986297103233204, 0.17690161135945384, 0.04637058747091973,
             0.058903181923986345, 0.18408443265677701]),
    # rate 2 / 0.09 over steps of 0.05: several jump rounds per step
    (LimitParams(2.0, 0.0, offspring_pmf((0.5, 0.5)), xi=LambdaDirac(0.3, 2.0)),
     0.6, 1.0, 0.05, 6, 3,
     [4.8731780576915765e-05, 1.310751208623253e-06, 0.9493887183409031,
      0.0024957052894619314, 0.0005757418092809751, 0.994175526133195]),
])
def test_simulate_batch_dirac_pinned(params, x0, total_time, dt, n_paths, seed,
                                     expected):
    # single-atom jump streams are pinned bit for bit
    finals = simulate_batch(params, x0, total_time, dt=dt, n_paths=n_paths,
                            rng=np.random.default_rng(seed))
    assert finals.tolist() == expected


def test_generator_frozen_cancellation():
    # kappa=1, sigma=0, one extra parent, Xi = delta_[0.5], f = x^2, x = 0.5:
    # drift = -2 * 0.5 * 0.25 * 1 = -0.25; jump = 4 * (E[x'^2] - 0.25) with
    # x' uniform on {0.25, 0.75}, i.e. 4 * 0.0625 = +0.25; total 0
    params = LimitParams(1.0, 0.0, offspring_delta(1), xi=DIRAC_HALF)
    assert abs(generator_apply_exact(params, 2, 0.5)) < 1e-15
    # n = 1: jumps are mean-preserving, only the drift survives
    assert abs(generator_apply_exact(params, 1, 0.5) - (-0.25)) < 1e-15


def test_generator_neutral_first_moment_is_zero():
    params = LimitParams(0.0, 1.3, offspring_delta(1), xi=DIRAC_HALF)
    for x in (0.0, 0.25, 0.7, 1.0):
        assert abs(generator_apply_exact(params, 1, x)) < 1e-15


def test_generator_zero_at_boundaries():
    # geometric tails are summed in two different orders, leaving a few
    # ulps at x = 1; anything at 1e-13 is an honest zero here
    params = LimitParams(2.0, 1.0, geometric_offspring(0.3), xi=DIRAC_HALF)
    for n in (1, 2, 5):
        assert abs(generator_apply_exact(params, n, 0.0)) < 1e-13
        assert abs(generator_apply_exact(params, n, 1.0)) < 1e-13


def test_generator_pure_kingman_hand_value():
    # sigma = 2, neutral, no jumps: A x^n = (sigma/2) n(n-1) x^(n-1) (1-x)
    params = LimitParams(0.0, 2.0, offspring_delta(1))
    assert abs(generator_apply_exact(params, 2, 0.25) - 0.375) < 1e-15
    assert abs(generator_apply_exact(params, 3, 0.5) - 0.75) < 1e-15


def test_generator_rejects_nonatomic():
    params = LimitParams(1.0, 0.0, offspring_delta(1),
                         xi=LambdaBeta(3.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        generator_apply_exact(params, 2, 0.5)


def test_bernoulli_generator_n1_is_exact():
    # second-derivative factor vanishes: estimate = drift term, SE = 0
    params = LimitParams(1.5, 0.0, offspring_delta(2), xi=DIRAC_HALF)
    est = generator_apply_bernoulli(params, 1, 0.4, 100, np.random.default_rng(0))
    assert est.std_error == 0.0
    # -1.5 * s(0.4) * 0.4 * 0.6 with s(x) = 1 + x
    assert abs(est.mean - (-1.5 * 1.4 * 0.24)) < 1e-14


def test_bernoulli_generator_zero_at_boundaries():
    params = LimitParams(1.0, 0.0, offspring_delta(1), xi=DIRAC_HALF)
    rng = np.random.default_rng(3)
    for x in (0.0, 1.0):
        est = generator_apply_bernoulli(params, 3, x, 2_000, rng)
        assert abs(est.mean) < 1e-12


def test_bernoulli_generator_requires_no_diffusion():
    params = LimitParams(1.0, 0.7, offspring_delta(1), xi=DIRAC_HALF)
    with pytest.raises(ValueError):
        generator_apply_bernoulli(params, 2, 0.5, 100, np.random.default_rng(0))


@pytest.mark.parametrize("xi", [
    FiniteAtomic(((1.0, (0.5,)),)),
    FiniteAtomic(((0.6, (0.3, 0.2)), (0.4, (0.7,)))),
])
def test_bernoulli_generator_matches_exact(xi):
    rng = np.random.default_rng(101)
    params = LimitParams(1.0, 0.0, offspring_delta(1), xi=xi)
    for n in (2, 3, 4):
        for x in (0.25, 0.5, 0.75):
            exact = generator_apply_exact(params, n, x)
            est = generator_apply_bernoulli(params, n, x, 60_000, rng)
            assert abs(est.mean - exact) <= 4 * est.std_error, (n, x)


def test_batch_diagnostics_and_clamping():
    rng = np.random.default_rng(21)
    params = LimitParams(0.0, 40.0, offspring_delta(1), xi=DIRAC_HALF)
    finals, diag = simulate_batch(params, 0.5, 1.0, dt=0.01, n_paths=200,
                                  rng=rng, return_diagnostics=True)
    assert set(diag) == {"clamp_count", "jumps_applied", "steps", "jump_rate"}
    assert diag["steps"] == 100
    assert abs(diag["jump_rate"] - 4.0) < 1e-12
    assert diag["clamp_count"] > 0  # sigma = 40 overshoots constantly
    assert np.all((finals >= 0.0) & (finals <= 1.0))


def test_lower_floor_never_fewer_jumps():
    # nested truncations of a continuous measure: the small-jump clock
    # only gains rate as the floor drops
    rng = np.random.default_rng(33)
    base = dict(selection_rate=0.0, kingman_rate=0.0,
                offspring=offspring_delta(1), xi=LambdaBeta(3.0, 1.0, 1.0))
    counts = []
    for floor in (0.6, 0.3, 0.1):
        params = LimitParams(**base, jump_floor=floor)
        _, diag = simulate_batch(params, 0.5, 5.0, dt=0.01, n_paths=200,
                                 rng=rng, return_diagnostics=True)
        counts.append(diag["jumps_applied"])
    assert counts[0] < counts[1] < counts[2]
    # rates 3(1 - floor): 1.2, 2.1, 2.7 per unit time
    params = LimitParams(**base, jump_floor=0.6)
    assert abs(jump_sampler(params, rng).rate - 1.2) < 1e-6
