"""Two-type Cannings models with selection and extreme reproduction.

Forward and backward simulation of the finite population model, its
jump-diffusion scaling limit with the dual branching-coalescing chain,
numeric and exact duality checks, and the fixation threshold for the
selection rate.
"""

from .mc import McEstimate
from .simplex import (FiniteAtomic, LambdaBeta, LambdaDirac, SimplexPoint,
                      StickBreaking, TruncatedIntensity, TruncatedSampler,
                      XiMeasure, admissibility_diagnostic, admissibility_index,
                      as_atoms, intensity_mass, normalized, sample_point,
                      small_mass_gap, total_mass, truncate_alpha)
from .selection import (SelectionLaw, branching_drift, explicit_family,
                        geometric_family, geometric_offspring, neutral_family,
                        offspring_delta, offspring_pmf, pgf,
                        sample_parent_counts, selection_shape)
from .discrete import (DiscreteParams, DualityReport, ancestral_moment_mc,
                       ancestral_step, ancestral_trajectories,
                       exact_transition_matrices, forward_moment_mc,
                       forward_step, forward_trajectories,
                       post_event_frequency, sampling_duality_check,
                       sampling_probability)
from .limit_sde import (LimitParams, SdePath, generator_apply_bernoulli,
                        generator_apply_exact, jump_sampler,
                        resolved_jump_floor, simulate_batch, simulate_path)
from .dual_chain import (DualParams, DualPath, EventRates,
                         MomentDualityReport, RecurrenceReport,
                         StationaryEstimate, event_rates,
                         moment_duality_check, recurrence_probe, run_chain,
                         simulate, stationary_estimate, xi_event_outcome,
                         xi_jump_pmf)
from .dual_chain import generator_apply_exact as dual_generator_apply_exact
from .threshold import fixation_probability, kappa_star_dirac, kappa_star_mc
from .config import Config, ConfigError, RunSettings

__all__ = [
    "McEstimate",
    "SimplexPoint", "XiMeasure", "FiniteAtomic", "LambdaDirac", "LambdaBeta",
    "StickBreaking", "TruncatedIntensity", "TruncatedSampler",
    "total_mass", "normalized", "as_atoms", "sample_point", "intensity_mass",
    "truncate_alpha", "small_mass_gap", "admissibility_index",
    "admissibility_diagnostic",
    "SelectionLaw", "neutral_family", "geometric_family", "explicit_family",
    "offspring_delta", "offspring_pmf", "geometric_offspring", "pgf",
    "selection_shape", "branching_drift", "sample_parent_counts",
    "DiscreteParams", "DualityReport", "post_event_frequency", "forward_step",
    "forward_trajectories", "ancestral_step", "ancestral_trajectories",
    "sampling_probability", "exact_transition_matrices",
    "sampling_duality_check", "forward_moment_mc", "ancestral_moment_mc",
    "LimitParams", "SdePath", "resolved_jump_floor", "jump_sampler",
    "simulate_path", "simulate_batch", "generator_apply_exact",
    "generator_apply_bernoulli",
    "DualParams", "DualPath", "EventRates", "event_rates", "simulate",
    "run_chain",
    "xi_event_outcome", "xi_jump_pmf", "dual_generator_apply_exact",
    "StationaryEstimate", "stationary_estimate", "RecurrenceReport",
    "recurrence_probe", "MomentDualityReport", "moment_duality_check",
    "kappa_star_mc", "kappa_star_dirac", "fixation_probability",
    "Config", "ConfigError", "RunSettings",
]

__version__ = "0.1.0"
