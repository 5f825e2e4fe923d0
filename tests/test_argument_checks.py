"""The argument checks of the public functions: each refuses its bad
input with a ValueError that says what is wrong."""

import numpy as np
import pytest

from cannings import (DiscreteParams, FiniteAtomic, LambdaBeta, LambdaDirac,
                      LimitParams, SelectionLaw, StickBreaking,
                      ancestral_trajectories, branching_drift,
                      explicit_family, generator_apply_bernoulli,
                      generator_apply_exact, generator_matrix,
                      geometric_family, geometric_offspring, offspring_delta,
                      sampling_duality_check, sampling_probability)

FINITE = DiscreteParams(4, 0.2, geometric_family(0.1), LambdaDirac(0.5))
LIMIT = LimitParams(1.0, 0.0, offspring_delta(1), xi=LambdaDirac(0.5))
INFINITE_MEAN = SelectionLaw(0.5, extra_pmf=(0.6,), extra_inf_mass=0.4)


def rng():
    return np.random.default_rng(0)


CHECKS = {
    # discrete
    "sampling_probability-x": (lambda: sampling_probability(FINITE, 1.5, 2),
                               r"x must lie in \[0, 1\]"),
    "sampling_probability-n": (lambda: sampling_probability(FINITE, 0.5, 0),
                               "n must be at least 1"),
    "ancestral_trajectories-n0": (
        lambda: ancestral_trajectories(FINITE, 5, 3, 2, rng()),
        r"n0 must lie in 1\.\.pop_size"),
    "sampling_duality_check-n": (
        lambda: sampling_duality_check(FINITE, 0.5, 5, 1),
        r"n must lie in 1\.\.pop_size"),
    "sampling_duality_check-mode": (
        lambda: sampling_duality_check(FINITE, 0.5, 2, 1, mode="exakt"),
        "mode must be 'exact' or 'mc'"),
    # dual chain and limit
    "generator_matrix-n_max": (lambda: generator_matrix(LIMIT, 0),
                               "n_max must be at least 1"),
    "generator_apply_exact-n": (lambda: generator_apply_exact(LIMIT, 0, 0.5),
                                "n must be at least 1"),
    "generator_apply_exact-x": (lambda: generator_apply_exact(LIMIT, 2, 1.5),
                                r"x must lie in \[0, 1\]"),
    "generator_apply_bernoulli-n": (
        lambda: generator_apply_bernoulli(LIMIT, 0, 0.5, 10, rng()),
        "n must be at least 1"),
    "generator_apply_bernoulli-x": (
        lambda: generator_apply_bernoulli(LIMIT, 2, -0.1, 10, rng()),
        r"x must lie in \[0, 1\]"),
    # selection
    "SelectionLaw-extra_inf_mass": (
        lambda: SelectionLaw(0.5, extra_pmf=(1.0,), extra_inf_mass=1.5),
        r"extra_inf_mass must lie in \[0, 1\]"),
    "SelectionLaw-geometric_param": (
        lambda: SelectionLaw(0.5, geometric_param=1.0),
        r"geometric_param must lie in \(0, 1\)"),
    "SelectionLaw-geometric_at_infinity": (
        lambda: SelectionLaw(0.5, geometric_param=0.5, extra_inf_mass=0.1),
        "geometric conditional law has no mass at infinity"),
    "SelectionLaw-negative_pmf": (
        lambda: SelectionLaw(0.5, extra_pmf=(1.5, -0.5)),
        "pmf entries must be non-negative"),
    "explicit_family-empty": (lambda: explicit_family(()),
                              "need a non-negative pmf"),
    "explicit_family-negative": (lambda: explicit_family((1.5, -0.5)),
                                 "need a non-negative pmf"),
    "geometric_family-param": (lambda: geometric_family(1.0),
                               r"param must lie in \(0, 1\)"),
    "geometric_offspring-param": (lambda: geometric_offspring(0.0),
                                  r"param must lie in \(0, 1\)"),
    "branching_drift-infinite_mean": (
        lambda: branching_drift(INFINITE_MEAN, 0.5),
        "branching drift needs a finite mean"),
    # measures
    "FiniteAtomic-empty": (lambda: FiniteAtomic(()), "need at least one atom"),
    "FiniteAtomic-weight": (lambda: FiniteAtomic(((0.0, (0.5,)),)),
                            "atom weights must be positive"),
    "FiniteAtomic-zero_point": (lambda: FiniteAtomic(((1.0, ()),)),
                                "atoms at the zero point"),
    "LambdaDirac-mass": (lambda: LambdaDirac(0.5, 0.0),
                         "total_mass must be positive"),
    "LambdaBeta-mass": (lambda: LambdaBeta(1.0, 1.0, 0.0),
                        "total_mass must be positive"),
    "StickBreaking-stick_law": (lambda: StickBreaking(stick_law="gamma"),
                                "stick_law must be 'uniform' or 'beta'"),
    "StickBreaking-a": (lambda: StickBreaking(a=0.0),
                        "Beta parameters must be positive"),
    "StickBreaking-mass": (lambda: StickBreaking(total_mass=0.0),
                           "total_mass must be positive"),
    "StickBreaking-truncation_tol": (lambda: StickBreaking(truncation_tol=1.0),
                                     r"truncation_tol must lie in \(0, 1\)"),
}


@pytest.mark.parametrize("call, match", CHECKS.values(), ids=CHECKS.keys())
def test_argument_check_refuses(call, match):
    with pytest.raises(ValueError, match=match):
        call()
