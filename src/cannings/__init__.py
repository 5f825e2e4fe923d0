"""Two-type Cannings models with selection and extreme reproduction.

Forward and backward simulation of the finite population model, its
jump-diffusion scaling limit with the dual branching-coalescing chain,
numeric and exact duality checks, and the fixation threshold for the
selection rate.
"""

from .mc import Check, McEstimate, compare
from .simplex import (FiniteAtomic, LambdaBeta, LambdaDirac, SimplexPoint,
                      StickBreaking, TruncatedSampler, XiMeasure, as_atoms,
                      bernoulli_patterns, binomial_pmf, jump_map, normalized,
                      sample_masses, total_mass)
from .selection import (SelectionLaw, branching_drift, explicit_family,
                        geometric_family, geometric_offspring, neutral_family,
                        offspring_delta, offspring_pmf, pgf,
                        sample_parent_total, selection_shape)
from .discrete import (DiscreteParams, ancestral_trajectories,
                       exact_transition_matrices, forward_trajectories,
                       has_exact_kernels, sampling_duality_check,
                       sampling_probability)
from .limit_sde import (LimitParams, generator_apply_bernoulli,
                        generator_apply_exact, jump_sampler, simulate_batch)
from .dual_chain import (ChainRuns, DualPath, RecurrenceReport,
                         generator_matrix, moment_duality_check,
                         recurrence_probe, run_chains, simulate)
from .threshold import RegimeUnclear, fixation_probability, kappa_star
from .config import Config, ConfigError, RunSettings

__all__ = [
    "McEstimate", "Check", "compare",
    "SimplexPoint", "XiMeasure", "FiniteAtomic", "LambdaDirac", "LambdaBeta",
    "StickBreaking", "TruncatedSampler",
    "total_mass", "normalized", "as_atoms", "sample_masses",
    "jump_map", "bernoulli_patterns", "binomial_pmf",
    "SelectionLaw", "neutral_family", "geometric_family", "explicit_family",
    "offspring_delta", "offspring_pmf", "geometric_offspring", "pgf",
    "selection_shape", "branching_drift", "sample_parent_total",
    "DiscreteParams",
    "forward_trajectories", "ancestral_trajectories",
    "sampling_probability", "has_exact_kernels", "exact_transition_matrices",
    "sampling_duality_check",
    "LimitParams", "jump_sampler",
    "simulate_batch", "generator_apply_exact",
    "generator_apply_bernoulli",
    "DualPath", "simulate", "run_chains", "ChainRuns",
    "generator_matrix",
    "RecurrenceReport", "RegimeUnclear", "recurrence_probe",
    "moment_duality_check",
    "kappa_star", "fixation_probability",
    "Config", "ConfigError", "RunSettings",
]

__version__ = "0.1.0"
