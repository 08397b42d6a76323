"""Finite-population calibration of regression adjustment in three-arm trials.

Each subject carries fixed potential responses to three treatments plus
a covariate; the only randomness is the assignment of subjects to
groups.  The package computes the unadjusted and covariate-adjusted
effect estimators, their exact distributions by exhaustive enumeration,
seeded Monte Carlo summaries, and the matching closed-form moments,
bias, asymptotic and nominal variances, and adjustment gain, with each
route cross-validated against the others.
"""

import types as _types

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
    contrast_symmetry_deviation,
    exact_distribution,
    monte_carlo,
)
from .population import (
    MomentSet,
    Population,
    PopulationFormatError,
    additive_effects,
    center_responses,
    is_normalized_z,
    load_population,
    moment_set,
    normalize_z,
    replicate,
)
from .scenarios import (
    OrderCheckReport,
    make_additive_population,
    make_interaction_population,
    make_orthogonal_population,
    order_checks,
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

# the names imported above; the submodules those imports bind as package
# attributes are reached by dotted name (triarm.scenarios), not by the star
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
