"""Built-in verification scenarios with stored reference values.

Each scenario runs entirely from populations and limiting-moment specs
embedded here, computes the artifact's numbers, and compares them with
the stored references.  The ``table2`` scenario is special: its stored
averages come from an enumeration whose exact assignment set is not
fully derivable (the documented count of 15 conflicts with the 30
distinct labelings), so the runner compares both enumeration modes and
emits a structured discrepancy note when neither reproduces every row.
"""

from dataclasses import dataclass, field

import numpy as np

from .assignment import GroupSizes
from .experiments import contrast_symmetry_deviation, exact_distribution
from .population import Population, moment_set, normalize_z
from .theory import (
    AsymptoticSpec,
    adjustment_gain,
    nominal_asymptotics,
    sigma_matrix,
)

SCENARIO_NAMES = ("table2", "example2", "example3", "example4", "theorem5", "theorem6")


def demo_population() -> Population:
    """Six-subject additive population with a skewed covariate.

    Effects are additive (b - a = 1, c - a = 2) and the covariate is
    centered but deliberately not unit-scale.
    """
    a = np.array([0.0, 0.0, 0.0, 2.0, 2.0, 4.0])
    return Population(a, a + 1.0, a + 2.0, np.array([0.0, 0.0, 0.0, -2.0, -2.0, 4.0]))


def curved_response_population(linear_scale: float = 1.0) -> Population:
    """Six subjects, two equal linear responses, one curved response.

    The covariate is already normalized; the third response follows the
    centered square of the covariate, so effects are far from additive
    and the leading bias coefficient is large.  ``linear_scale`` sets
    the amplitude of the two linear responses, which tunes how much of
    the estimator variance the uncurved arms contribute.
    """
    z = np.array([0.0, 0.0, 0.0, -1.0, -1.0, 2.0])
    a = linear_scale * np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    return Population(a, a.copy(), z * z - 1.0, z)


def conditional_constancy_population() -> Population:
    """Within every covariate level, each response averages to its mean."""
    return Population(
        a=np.array([1.0, -1.0, 0.0, 2.0, -2.0, 0.0]),
        b=np.array([3.0, -3.0, 0.0, 1.0, -1.0, 0.0]),
        c=np.array([1.0, 1.0, -2.0, 0.0, 4.0, -4.0]),
        z=np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0]),
    )


def random_conditional_constancy_population(rng: np.random.Generator) -> Population:
    """Random six-subject population satisfying conditional constancy.

    The covariate takes two values, three subjects each; within each
    level the responses are a common mean plus perturbations that sum to
    zero.  With groups of size two no assignment can be singular: three
    subjects per level cannot be split into three single-level pairs.
    """
    z = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
    responses = []
    for _ in range(3):
        mean = rng.uniform(-2.0, 2.0)
        column = np.empty(6)
        for level in (slice(0, 3), slice(3, 6)):
            d = rng.uniform(-3.0, 3.0, size=2)
            column[level] = mean + np.array([d[0], d[1], -d[0] - d[1]])
        responses.append(column)
    return Population(*responses, z)


def random_additive_population(rng: np.random.Generator, n: int) -> Population:
    """Random additive population with normalized, all-distinct covariate.

    Distinct covariate values make every assignment non-singular as soon
    as some group has two or more members.
    """
    while True:
        z = rng.uniform(-1.0, 1.0, size=n)
        if np.unique(z).size == n:
            break
    shape = rng.uniform(-3.0, 3.0, size=n)
    shifts = rng.uniform(-2.0, 2.0, size=3)
    pop = Population(shape + shifts[0], shape + shifts[1], shape + shifts[2], z)
    normalized, _ = normalize_z(pop)
    return normalized


def identity_spec(var_b: float = 1.0) -> AsymptoticSpec:
    """Limiting spec with an identity covariance matrix except var(b).

    Fractions are (1/4, 1/2, 1/4); the covariance matrix of (a, b, c, z)
    is diag(1, var_b, 1, 1), so the responses are uncorrelated with each
    other and with the covariate.
    """
    return AsymptoticSpec(np.array([0.25, 0.5, 0.25]), np.diag([1.0, var_b, 1.0, 1.0]))


def additive_spec(q: float, p: tuple, var: float) -> AsymptoticSpec:
    """Additive-effects spec: perfectly correlated responses.

    Fractions are ``p``.  Every entry of the response block of the
    covariance matrix is ``var``, and every response has covariance
    ``q`` with the covariate; realizability requires var >= q**2.
    """
    cov = np.full((4, 4), float(var))
    cov[:3, 3] = cov[3, :3] = q
    cov[3, 3] = 1.0
    return AsymptoticSpec(np.array(p), cov)


def covariate_sum_spec(var_b: float) -> AsymptoticSpec:
    """Balanced spec where the covariate is the sum of the responses.

    Responses are mutually uncorrelated with variances ((1 - var_b)/2,
    var_b, (1 - var_b)/2), so the covariate has unit variance and
    covariance var(x) with each response x: the matrix is diagonal
    except for z's row and column, which repeat the variances.
    """
    if not 0.0 < var_b < 1.0:
        raise ValueError("var_b must lie strictly between 0 and 1")
    va = (1.0 - var_b) / 2.0
    variances = [va, var_b, va]
    cov = np.diag(variances + [1.0])
    cov[:3, 3] = cov[3, :3] = variances
    return AsymptoticSpec(np.full(3, 1.0 / 3.0), cov)


#: Stored reference values for the table2 scenario: the published
#: 15-assignment averages (effects for A, B, C and the covariate
#: coefficient, on the raw covariate scale) and the true effects.
TABLE2_REFERENCE = {"effect_a": 3.3825, "effect_b": 1.9965, "effect_c": 2.9053, "z_coef": -0.0105}
TABLE2_TRUTH = (1.3333, 2.3333, 3.3333)
TABLE2_TOLERANCE = 5e-4
#: Matching truth "exactly" means matching its 4-decimal rendering.
TRUTH_TOLERANCE = 5e-5

EXACT_TOL = 1e-9
SYMBOLIC_TOL = 1e-12
BIAS_TOL = 1e-12


@dataclass
class ScenarioRow:
    label: str
    computed: float | int
    reference: float | None = None
    tolerance: float | None = None
    status: str = "info"


@dataclass
class ScenarioResult:
    scenario: str
    rows: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    discrepancy: bool = False

    @property
    def passed(self) -> bool:
        return not any(row.status == "fail" for row in self.rows)

    def check(self, label, computed, reference, tolerance) -> ScenarioRow:
        status = "pass" if abs(computed - reference) <= tolerance else "fail"
        row = ScenarioRow(label, float(computed), float(reference), tolerance, status)
        self.rows.append(row)
        return row

    def info(self, label, computed) -> ScenarioRow:
        value = int(computed) if isinstance(computed, (int, np.integer)) else float(computed)
        row = ScenarioRow(label, value)
        self.rows.append(row)
        return row


def _run_table2(threads: int = 1) -> ScenarioResult:
    result = ScenarioResult("table2")
    pop = demo_population()  # raw covariate scale: the stored z coefficient uses it
    sizes = GroupSizes(1, 1, 4)
    for label, computed, reference in zip(
        ("truth_a", "truth_b", "truth_c"),
        moment_set(pop).means[:3],
        TABLE2_TRUTH,
    ):
        result.check(label, computed, reference, TRUTH_TOLERANCE)

    matched_modes = []
    summaries = {}
    for mode in ("all", "a-before-b"):
        summary = exact_distribution(pop, sizes, mode=mode, threads=threads)
        summaries[mode] = summary
        values = {
            "effect_a": summary.mr_mean[0],
            "effect_b": summary.mr_mean[1],
            "effect_c": summary.mr_mean[2],
            "z_coef": summary.mr_z_coef_mean,
        }
        ok = True
        for key, reference in TABLE2_REFERENCE.items():
            delta = abs(values[key] - reference)
            status = "pass" if delta <= TABLE2_TOLERANCE else "discrepancy"
            ok = ok and delta <= TABLE2_TOLERANCE
            result.rows.append(
                ScenarioRow(f"{mode}:{key}", float(values[key]), reference, TABLE2_TOLERANCE, status)
            )
        result.info(f"{mode}:assignment_count", summary.assignment_count)
        if ok:
            matched_modes.append(mode)

    if not matched_modes:
        result.discrepancy = True
        all_mr = summaries["all"].mr_mean
        ref_sum = TABLE2_REFERENCE["effect_a"] + TABLE2_REFERENCE["effect_b"]
        result.notes.append(
            "discrepancy: neither enumeration mode reproduces the stored averages "
            "for effects A and B; the documented assignment count (15) conflicts "
            "with the 30 distinct labelings and the exact subset behind the stored "
            "numbers is not recoverable"
        )
        result.notes.append(
            f"mode all reproduces effect C ({all_mr[2]:.4f} vs 2.9053) and the covariate "
            f"coefficient ({summaries['all'].mr_z_coef_mean:.4f} vs -0.0105)"
        )
        result.notes.append(
            f"the A+B sum is orientation-invariant and matches: {all_mr[0] + all_mr[1]:.4f} "
            f"vs stored {ref_sum:.4f}"
        )
        result.notes.append(
            "over all 30 labelings the average of effect_b - effect_a equals the true "
            "difference (+1) exactly by the A/B swap symmetry, so the stored -1.3860 "
            "cannot come from that average"
        )
    return result


def _run_example2(threads: int = 1) -> ScenarioResult:
    result = ScenarioResult("example2")
    spec = identity_spec(1.0)
    sigma, q = sigma_matrix(spec)
    result.info("q", q)
    result.check("true_contrast_var", sigma[0, 0] + sigma[2, 2] - 2 * sigma[0, 2], 6.0, EXACT_TOL)
    nom = nominal_asymptotics(spec)
    result.check("nominal_contrast_var", nom.covariance[0, 0] + nom.covariance[2, 2], 8.0, EXACT_TOL)
    low = nominal_asymptotics(identity_spec(0.25))
    result.check("nominal_contrast_var_small_b", low.covariance[0, 0] + low.covariance[2, 2], 5.0, EXACT_TOL)
    return result


def _run_example3(threads: int = 1) -> ScenarioResult:
    result = ScenarioResult("example3")
    q, p, var = 0.5, (0.3, 0.45, 0.25), 1.5
    gain = adjustment_gain(additive_spec(q, p, var))
    result.check("gamma", gain.gamma, q * q * (p[0] + p[2]), SYMBOLIC_TOL)
    result.info("gain_coefficient", gain.coefficient)
    result.notes.append(f"verdict: adjustment {gain.verdict} (additive effects, q != 0)")
    return result


def _run_example4(threads: int = 1) -> ScenarioResult:
    result = ScenarioResult("example4")
    boundary = adjustment_gain(covariate_sum_spec(2.0 / 3.0))
    result.check("gamma_boundary", boundary.gamma, 0.0, SYMBOLIC_TOL)
    interior = adjustment_gain(covariate_sum_spec(5.0 / 6.0))
    result.check("gamma_interior", interior.gamma, -1.0 / 27.0, SYMBOLIC_TOL)
    result.notes.append(f"verdict at var_b=5/6: adjustment {interior.verdict}")
    return result


def _run_theorem5(threads: int = 1) -> ScenarioResult:
    result = ScenarioResult("theorem5")
    pop, _ = normalize_z(demo_population())
    summary = exact_distribution(pop, GroupSizes(2, 2, 2), keep_table=True, threads=threads)
    for i, label in enumerate(("bias_a", "bias_b", "bias_c")):
        result.check(label, summary.mr_bias[i], 0.0, BIAS_TOL)
    result.check(
        "contrast_symmetry_dev", contrast_symmetry_deviation(summary, ("A", "C")), 0.0, BIAS_TOL
    )
    result.info("singular_count", summary.singular_count)
    result.notes.append("balanced design + additive effects: adjusted estimator unbiased")
    return result


def _run_theorem6(threads: int = 1) -> ScenarioResult:
    result = ScenarioResult("theorem6")
    pop, _ = normalize_z(conditional_constancy_population())
    summary = exact_distribution(pop, GroupSizes(2, 2, 2), threads=threads)
    for i, label in enumerate(("bias_a", "bias_b", "bias_c")):
        result.check(label, summary.mr_bias[i], 0.0, BIAS_TOL)
    result.info("singular_count", summary.singular_count)
    result.notes.append("conditional constancy: adjusted estimator unbiased, any sizes")
    return result


_RUNNERS = {
    "table2": _run_table2,
    "example2": _run_example2,
    "example3": _run_example3,
    "example4": _run_example4,
    "theorem5": _run_theorem5,
    "theorem6": _run_theorem6,
}


def run_scenario(name: str, threads: int = 1) -> ScenarioResult:
    if name not in _RUNNERS:
        raise ValueError(f"unknown scenario {name!r}; valid names: {', '.join(SCENARIO_NAMES)}")
    return _RUNNERS[name](threads=threads)
