"""Finite-population calibration of regression adjustment in three-arm trials.

Each subject carries fixed potential responses to three treatments plus
a covariate; the only randomness is the assignment of subjects to
groups.  The package computes the unadjusted and covariate-adjusted
effect estimators, their exact distributions by exhaustive enumeration,
seeded Monte Carlo summaries, and the matching closed-form moments,
bias, asymptotic and nominal variances, and adjustment gain, with each
route cross-validated against the others.
"""

from .assignment import (
    Assignment,
    EnumerationLimitError,
    GroupSizes,
    assignment_count,
    enumerate_assignments,
    group_mean,
    master_generator,
    observed_response,
    random_assignment,
    worker_generator,
)
from .estimators import (
    BatchEvaluator,
    EffectEstimate,
    MREstimate,
    SingularDesignError,
    effect_difference,
    itt_estimates,
    mr_estimates,
    mr_via_normal_equations,
)
from .experiments import (
    ExactSummary,
    MCSummary,
    OrderCheckReport,
    contrast_symmetry_deviation,
    exact_distribution,
    make_additive_population,
    make_interaction_population,
    make_orthogonal_population,
    monte_carlo,
    order_checks,
)
from .population import (
    ConditionReport,
    MomentSet,
    Population,
    PopulationFormatError,
    additive_effects,
    center_responses,
    condition_report,
    is_normalized_z,
    load_population,
    moment_set,
    normalize_z,
    replicate,
)
from .theory import (
    AdjustmentGain,
    AsymptoticSpec,
    GroupMeanMoments,
    TheoryReport,
    adjustment_gain,
    bias_k,
    itt_pair_variance,
    nominal_asymptotics,
    plugin_spec,
    prop1_moments,
    q_limit,
    q_tilde,
    sigma_matrix,
    theory_report,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
