"""Two-type Cannings models with selection and extreme reproduction.

Forward and backward simulation of the finite population model, its
jump-diffusion scaling limit with the dual branching-coalescing chain,
numeric and exact duality checks, and the fixation threshold for the
selection rate.
"""

from .mc import McEstimate
from .simplex import (FiniteAtomic, LambdaBeta, LambdaDirac, SimplexPoint,
                      StickBreaking, TruncatedSampler, XiMeasure,
                      admissibility_diagnostic, admissibility_index, as_atoms,
                      bernoulli_patterns, binomial_pmf, jump_map, normalized,
                      sample_masses, small_mass_gap, total_mass, truncate_alpha)
from .selection import (SelectionLaw, branching_drift, explicit_family,
                        geometric_family, geometric_offspring, neutral_family,
                        offspring_delta, offspring_pmf, pgf,
                        sample_parent_total, selection_shape)
from .discrete import (DiscreteParams, DualityReport, ancestral_trajectories,
                       exact_transition_matrices, forward_trajectories,
                       has_exact_kernels, sampling_duality_check,
                       sampling_probability)
from .limit_sde import (LimitParams, generator_apply_bernoulli,
                        generator_apply_exact, jump_sampler,
                        resolved_jump_floor, simulate_batch)
from .dual_chain import (ChainRuns, DualPath, MomentDualityReport,
                         RecurrenceReport, RegimeUnclear, moment_duality_check,
                         recurrence_probe, run_chains, simulate, xi_jump_pmf)
from .dual_chain import generator_apply_exact as dual_generator_apply_exact
from .threshold import fixation_probability, kappa_star_dirac, kappa_star_mc
from .config import Config, ConfigError, RunSettings

__all__ = [
    "McEstimate",
    "SimplexPoint", "XiMeasure", "FiniteAtomic", "LambdaDirac", "LambdaBeta",
    "StickBreaking", "TruncatedSampler",
    "total_mass", "normalized", "as_atoms", "sample_masses",
    "jump_map", "bernoulli_patterns", "binomial_pmf",
    "truncate_alpha", "small_mass_gap", "admissibility_index",
    "admissibility_diagnostic",
    "SelectionLaw", "neutral_family", "geometric_family", "explicit_family",
    "offspring_delta", "offspring_pmf", "geometric_offspring", "pgf",
    "selection_shape", "branching_drift", "sample_parent_total",
    "DiscreteParams", "DualityReport",
    "forward_trajectories", "ancestral_trajectories",
    "sampling_probability", "has_exact_kernels", "exact_transition_matrices",
    "sampling_duality_check",
    "LimitParams", "resolved_jump_floor", "jump_sampler",
    "simulate_batch", "generator_apply_exact",
    "generator_apply_bernoulli",
    "DualPath", "simulate", "run_chains", "ChainRuns",
    "xi_jump_pmf", "dual_generator_apply_exact",
    "RecurrenceReport", "RegimeUnclear", "recurrence_probe",
    "MomentDualityReport", "moment_duality_check",
    "kappa_star_mc", "kappa_star_dirac", "fixation_probability",
    "Config", "ConfigError", "RunSettings",
]

__version__ = "0.1.0"
