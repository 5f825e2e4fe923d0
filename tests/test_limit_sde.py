import hashlib
import importlib.util
import inspect
import math
import pathlib

import numpy as np
import pytest

from cannings import (FiniteAtomic, LambdaBeta, LambdaDirac, LimitParams,
                      SelectionLaw, generator_apply_bernoulli,
                      generator_apply_exact, geometric_offspring, jump_sampler,
                      moment_duality_check, offspring_delta, offspring_pmf,
                      simulate_batch)
from cannings.limit_sde import normalized_draws

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
    # no measure is the empty atom list: a law of rate 0 with no atoms
    empty = jump_sampler(LimitParams(**base))
    assert (empty.rate, empty.atoms) == (0.0, None)
    assert isinstance(empty.rate, float)  # reports print it as 0.0
    assert jump_sampler(LimitParams(**base, xi=DIRAC_HALF,
                                    jump_floor=0.2)).floor == 0.2
    # atomic measures resolve to their smallest leading mass (exact clock)
    atoms = FiniteAtomic(((1.0, (0.4, 0.1)), (2.0, (0.25,))))
    assert jump_sampler(LimitParams(**base, xi=atoms)).floor == 0.25
    # continuous families fall back to the documented default
    cont = LimitParams(**base, xi=LambdaBeta(3.0, 1.0, 1.0))
    assert jump_sampler(cont).floor == 1e-3


def test_no_measure_law_draws_nothing():
    empty = jump_sampler(LimitParams(1.0, 0.0, offspring_delta(1)))
    with pytest.raises(ValueError, match="no mass above the floor"):
        empty.draw_masses(1, np.random.default_rng(0))


def test_jump_rate_dirac():
    params = LimitParams(1.0, 0.0, offspring_delta(1), xi=DIRAC_HALF)
    sampler = jump_sampler(params)
    # one atom of mass 1 at [0.5]: rate = 1 / 0.25 = 4
    assert abs(sampler.rate - 4.0) < 1e-12


def test_absorbing_endpoints():
    # Euler at sigma = 1, the exact flow at sigma = 0
    rng = np.random.default_rng(2)
    for sigma in (1.0, 0.0):
        params = LimitParams(1.0, sigma, offspring_delta(1), xi=DIRAC_HALF)
        for x0 in (0.0, 1.0):
            finals, _ = simulate_batch(params, x0, 2.0, dt=0.01, n_paths=64,
                                       rng=rng)
            assert np.all(finals == x0)


def test_neutral_jump_martingale():
    # kappa = 0, sigma = 0: only mean-preserving jumps move the state
    rng = np.random.default_rng(9)
    params = LimitParams(0.0, 0.0, offspring_delta(1), xi=DIRAC_HALF)
    finals, _ = simulate_batch(params, 0.3, 1.0, dt=0.01, n_paths=100_000,
                               rng=rng)
    se = finals.std(ddof=1) / math.sqrt(finals.size)
    assert abs(finals.mean() - 0.3) <= 3 * se
    assert np.all((finals >= 0.0) & (finals <= 1.0))


def test_simulate_argument_errors():
    rng = np.random.default_rng(0)
    params = LimitParams(1.0, 0.0, offspring_delta(1))
    with pytest.raises(ValueError):
        simulate_batch(params, 1.5, 1.0, 0.01, 1, rng)
    with pytest.raises(TypeError):
        simulate_batch(params, 0.5, 1.0, 0.01, 1)
    for total_time, dt in ((-1.0, 0.01), (1.0, 0.0), (1.0, -0.01)):
        with pytest.raises(ValueError):
            simulate_batch(params, 0.5, total_time, dt, 1, rng)


@pytest.mark.parametrize("params, x0, total_time, dt, n_paths, seed, expected", [
    (LimitParams(1.0, 0.5, offspring_delta(1), xi=DIRAC_HALF), 0.3, 0.5, 0.01,
     8, 11, [0.3758110814396855, 0.505938099762799, 0.04062603051727873,
             0.015167813396451792, 0.057923449654896424, 0.716168507312741,
             0.9122095367909819, 0.13241036888891572]),
    # rate 2 / 0.09 over steps of 0.05: several jump rounds per step
    (LimitParams(2.0, 0.0, offspring_pmf((0.5, 0.5)), xi=LambdaDirac(0.3, 2.0)),
     0.6, 1.0, 0.05, 6, 3,
     [0.9975342926740174, 0.00018139839531998537, 0.0002736908923386643,
      0.00010633498571063534, 0.3359122704352074, 0.0007734943028633713]),
])
def test_simulate_batch_dirac_pinned(params, x0, total_time, dt, n_paths, seed,
                                     expected):
    # single-atom jump streams are pinned bit for bit; recorded again,
    # same configs and seeds, when the jump clock became block-drawn and
    # when one-atom point draws stopped consuming uniforms
    finals, _ = simulate_batch(params, x0, total_time, dt=dt, n_paths=n_paths,
                               rng=np.random.default_rng(seed))
    assert finals.tolist() == expected


BETA_GEOMETRIC = LimitParams(1.0, 1.0, geometric_offspring(0.5),
                             xi=LambdaBeta(0.5, 1.5), jump_floor=0.05)


@pytest.mark.parametrize("params, x0, total_time, dt, n_paths, seed, digest, "
                         "diagnostics", [
    # the bench's Beta model: geometric drift, diffusion, width-1 jumps
    (BETA_GEOMETRIC, 0.5, 1.0, 1e-3, 60, 4,
     "661599b18ad62a2c057b50f055b5d8d2f82894c0a195c55de5343d34b8313ab0",
     {"clamp_count": 40, "jumps_applied": 2205, "steps": 1000,
      "jump_rate": 35.149509207328634}),
    # an explicit pmf and width-2 jumps
    (LimitParams(1.5, 0.5, offspring_pmf((0.5, 0.3, 0.2)),
                 xi=FiniteAtomic(((0.6, (0.3, 0.2)), (0.4, (0.7,))))),
     0.4, 1.0, 0.01, 50, 8,
     "2b71d0dd20a32e8274ce24ccf2dcde69edd9028974c927c3e7a2e79b30b5e51c",
     {"clamp_count": 32, "jumps_applied": 263, "steps": 100,
      "jump_rate": 5.43171114599686}),
    # clamps on every path, and a short last step (1.32 = 26 * 0.05 + 0.02);
    # re-recorded when one-atom point draws stopped consuming uniforms
    (LimitParams(1.0, 4.0, offspring_delta(1), xi=DIRAC_HALF),
     0.02, 1.32, 0.05, 40, 12,
     "b857457d8172c2dc4ec327413a878959c58338dff8e9847e580312d2ba9c88b3",
     {"clamp_count": 40, "jumps_applied": 197, "steps": 27,
      "jump_rate": 4.0}),
    # no paths at all
    (BETA_GEOMETRIC, 0.5, 1.0, 0.01, 0, 5,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     {"clamp_count": 0, "jumps_applied": 0, "steps": 100,
      "jump_rate": 35.149509207328634}),
])
def test_simulate_batch_euler_pinned(params, x0, total_time, dt, n_paths, seed,
                                     digest, diagnostics):
    # Euler streams with sigma > 0 or a non-point offspring law, pinned
    # bit for bit: sha256 of the finals' bytes and the whole diagnostics
    finals, diag = simulate_batch(params, x0, total_time, dt=dt,
                                  n_paths=n_paths,
                                  rng=np.random.default_rng(seed))
    assert finals.shape == (n_paths,)
    assert hashlib.sha256(finals.tobytes()).hexdigest() == digest
    assert diag == diagnostics


def test_bench_tracer_counts_euler_steps():
    # the traced benchmark binds each simulate_batch call's arguments by
    # name and counts its steps with bench/tracer.py's hook, which reads
    # total_time, dt and n_paths; bound here as the CLI calls it
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", pathlib.Path(__file__).resolve().parents[1]
        / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    args = (BETA_GEOMETRIC, 0.5, 0.3, 0.02, 7, np.random.default_rng(0))
    bound = inspect.signature(simulate_batch).bind(*args)
    bound.apply_defaults()
    result = simulate_batch(*args)
    steps = result[1]["steps"]
    assert steps == 15
    assert tracer._HOOKS["limit_sde.simulate_batch"](bound.arguments, result) \
        == [("limit_sde.batch_steps", steps), ("limit_sde.path_steps", 7 * steps)]


def test_batch_pure_jump_moments_and_clock():
    # kappa = 0, sigma = 0, two atoms, several jumps per path per step and
    # a short last step (2.0 = 0.7 + 0.7 + 0.6): the terminal law is the
    # pure-jump law, with E[X_T] = x0 and, since A x^2 = mass x (1 - x)
    # for every Xi, E[X_T^2] = x0 - x0 (1 - x0) exp(-mass T)
    xi = FiniteAtomic(((0.6, (0.3, 0.2)), (0.4, (0.7,))))
    params = LimitParams(0.0, 0.0, offspring_delta(1), xi=xi)
    x0, total_time, n_paths, mass = 0.3, 2.0, 20_000, 1.0
    finals, diag = simulate_batch(params, x0, total_time, dt=0.7,
                                  n_paths=n_paths,
                                  rng=np.random.default_rng(17))
    assert diag["steps"] == 3
    root_n = math.sqrt(n_paths)
    assert abs(finals.mean() - x0) <= 3 * finals.std(ddof=1) / root_n
    second = x0 - x0 * (1.0 - x0) * math.exp(-mass * total_time)
    sq = finals ** 2
    assert abs(sq.mean() - second) <= 3 * sq.std(ddof=1) / root_n
    expected_jumps = diag["jump_rate"] * total_time * n_paths
    assert abs(diag["jumps_applied"] - expected_jumps) <= 3 * math.sqrt(expected_jumps)


# ---------------------------------------------------------------------------
# the exact path: sigma = 0, all extra-parent mass on one i


@pytest.mark.parametrize("i", [1, 2, 3])
def test_exact_path_follows_closed_form_flow(i):
    # no jumps: x_t^i = 1 / (1 + e^(i kappa t) (1 - x0^i) / x0^i)
    kappa, x0 = 1.3, 0.4
    params = LimitParams(kappa, 0.0, offspring_delta(i))
    for total_time in (0.7, 2.5):
        finals, diag = simulate_batch(params, x0, total_time, dt=0.01,
                                      n_paths=5, rng=np.random.default_rng(4))
        u0 = x0 ** i
        flow = (1.0 / (1.0 + math.exp(i * kappa * total_time)
                       * (1.0 - u0) / u0)) ** (1.0 / i)
        assert np.all(np.abs(finals - flow) <= 1e-12)
        assert diag == {"clamp_count": 0, "jumps_applied": 0, "steps": 1,
                        "jump_rate": 0.0}


def test_flow_log_sigmoid_is_log_expit():
    # _flow takes log x^i as -logaddexp(0, -logit): bit for bit the
    # log_expit it replaced, so every exact flow path stays as pinned
    from scipy.special import log_expit

    edges = np.array([800.0, -800.0, 1e-300, -1e-300, 0.0, -0.0, 745.2,
                      -745.2, 36.7, -36.7])
    tiny = np.geomspace(1e-300, 800.0, 20_001)
    t = np.concatenate([edges, np.linspace(-800.0, 800.0, 400_001), tiny,
                        -tiny])
    got = -np.logaddexp(0.0, -t)
    assert np.array_equal(got.view(np.int64), log_expit(t).view(np.int64))


@pytest.mark.parametrize("i, total_time, seed", [
    (1, 0.5, 151), (1, 1.5, 152), (2, 0.5, 153), (2, 1.5, 154)])
def test_exact_path_moment_duality(i, total_time, seed):
    # E_x[X_t^2] = E_2[x^(D_t)] against the dual chain, at 3 combined SE
    params = LimitParams(1.0, 0.0, offspring_delta(i), xi=DIRAC_HALF)
    report = moment_duality_check(params, 0.5, 2, total_time, 1e-3, 100_000,
                                  np.random.default_rng(seed))
    assert report.passed, (report.gap, report.tolerance)


def test_exact_path_ignores_dt():
    params = LimitParams(2.0, 0.0, offspring_delta(2), xi=DIRAC_HALF)
    runs = [simulate_batch(params, 0.6, 1.7, dt=dt, n_paths=500,
                           rng=np.random.default_rng(8))
            for dt in (1e-3, 0.25)]
    (fine, fine_diag), (coarse, coarse_diag) = runs
    assert fine.tolist() == coarse.tolist()
    assert fine_diag == coarse_diag
    assert fine_diag["clamp_count"] == 0 and fine_diag["jumps_applied"] > 0


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


def test_normalized_draws_fractions():
    # Beta(0.01, 1) draws underflow to y = 0 now and then; a one-group
    # point still normalizes to [1]
    frac, ssq, totals = normalized_draws(LambdaBeta(0.01, 1.0), 200_000,
                                         np.random.default_rng(0))
    assert (totals == 0.0).any()
    assert frac.shape == (200_000, 1)
    assert np.all(frac == 1.0) and np.all(ssq == 1.0)
    xi = FiniteAtomic(((0.6, (0.3, 0.2)), (0.4, (0.7,))))
    frac, ssq, totals = normalized_draws(xi, 1000, np.random.default_rng(1))
    assert frac.shape == (1000, 2)
    assert np.allclose(frac.sum(axis=1), 1.0)
    assert set(np.round(totals, 12)) == {0.5, 0.7}
    assert np.allclose(ssq[totals > 0.6], 1.0)
    assert np.allclose(ssq[totals < 0.6], 0.6 ** 2 + 0.4 ** 2)


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
                                  rng=rng)
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
                                 rng=rng)
        counts.append(diag["jumps_applied"])
    assert counts[0] < counts[1] < counts[2]
    # rates 3(1 - floor): 1.2, 2.1, 2.7 per unit time
    params = LimitParams(**base, jump_floor=0.6)
    assert abs(jump_sampler(params).rate - 1.2) < 1e-6
