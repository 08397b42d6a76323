"""Built-in populations and the checks that compare the engines with theory.

This module holds every population and limiting-moment spec that ships
with the package, the sign-pattern populations with exact moment
structure among them; the ``reproduce`` scenarios; and
:func:`order_checks`, which compares Monte Carlo summaries along a
replication sequence with the closed forms.  The engines themselves live
in :mod:`triarm.experiments`.

Each scenario runs entirely from populations and limiting-moment specs
embedded here, computes the artifact's numbers, and compares them with
the stored references.  The ``table2`` scenario is special: its stored
averages come from an enumeration whose exact assignment set is not
fully derivable (the documented count of 15 conflicts with the 30
distinct labelings), so the runner compares both enumeration modes and
emits a structured discrepancy note when neither reproduces every row.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .assignment import GroupSizes
from .experiments import contrast_symmetry_deviation, exact_distribution, monte_carlo
from .population import Population, moment_set, normalize_z, replicate
from .theory import (
    AsymptoticSpec,
    adjustment_gain,
    bias_k,
    nominal_asymptotics,
    plugin_spec,
    sigma_matrix,
)


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


# quoted: evaluating np.random here would load numpy.random at import time
def random_conditional_constancy_population(rng: "np.random.Generator") -> Population:
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


# quoted: evaluating np.random here would load numpy.random at import time
def random_additive_population(rng: "np.random.Generator", n: int) -> Population:
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


# ---------------------------------------------------------------------------
# Deterministic populations built from period-8 sign patterns.  Distinct
# rows are exactly orthogonal with mean 0 and unit mean square, so the
# moment structure below holds to machine precision at any multiple of 8.

_SIGN_PATTERNS = np.array(
    [
        [1, -1, 1, -1, 1, -1, 1, -1],
        [1, 1, -1, -1, 1, 1, -1, -1],
        [1, -1, -1, 1, 1, -1, -1, 1],
        [1, 1, 1, 1, -1, -1, -1, -1],
    ],
    dtype=np.float64,
)


def _tiled_patterns(n: int) -> list:
    if n < 8 or n % 8:
        raise ValueError(f"n must be a positive multiple of 8, got {n}")
    return [np.tile(row, n // 8) for row in _SIGN_PATTERNS]


def make_orthogonal_population(n: int, var_b: float = 1.0) -> Population:
    """Population with exactly orthonormal a, c, z and var(b) = var_b.

    All four variables have mean 0 and vanishing pairwise covariances;
    a, c and z have unit variance.  This realizes, at finite n, the
    identity limiting covariance structure (with the b variance free).
    """
    if var_b <= 0.0:
        raise ValueError("var_b must be positive")
    r1, r2, r3, r4 = _tiled_patterns(n)
    return Population(r1, math.sqrt(var_b) * r2, r3, r4)


def make_additive_population(n: int, z_correlation: float = 0.6) -> Population:
    """Additive-effects population with cov(a, z) = z_correlation.

    Responses share one unit-variance shape plus the constant shifts 0, 1
    and 2, so adjustment must help the precision of every contrast.
    """
    rho = float(z_correlation)
    if not -1.0 < rho < 1.0:
        raise ValueError("z_correlation must lie strictly between -1 and 1")
    r1, r2, _, _ = _tiled_patterns(n)
    shape = rho * r1 + math.sqrt(1.0 - rho * rho) * r2
    return Population(shape, shape + 1.0, shape + 2.0, r1)


def make_interaction_population(n: int, var_b: float = 5.0 / 6.0) -> Population:
    """Uncorrelated responses whose sum is the covariate.

    var(a) = var(c) = (1 - var_b) / 2 and z = a + b + c has unit
    variance; raising var_b transfers response variance into the arm
    whose group membership the covariate cannot help with, which is the
    canonical way to make adjustment hurt a balanced design.
    """
    if not 0.0 < var_b < 1.0:
        raise ValueError("var_b must lie strictly between 0 and 1")
    va = (1.0 - var_b) / 2.0
    r1, r2, r3, _ = _tiled_patterns(n)
    a = math.sqrt(va) * r1
    b = math.sqrt(var_b) * r2
    c = math.sqrt(va) * r3
    return Population(a, b, c, a + b + c)


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


def _run_table2() -> ScenarioResult:
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
        summary = exact_distribution(pop, sizes, mode=mode)
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


def _run_example2() -> ScenarioResult:
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


def _run_example3() -> ScenarioResult:
    result = ScenarioResult("example3")
    q, p, var = 0.5, (0.3, 0.45, 0.25), 1.5
    gain = adjustment_gain(additive_spec(q, p, var))
    result.check("gamma", gain.gamma, q * q * (p[0] + p[2]), SYMBOLIC_TOL)
    result.info("gain_coefficient", gain.coefficient)
    result.notes.append(f"verdict: adjustment {gain.verdict} (additive effects, q != 0)")
    return result


def _run_example4() -> ScenarioResult:
    result = ScenarioResult("example4")
    boundary = adjustment_gain(covariate_sum_spec(2.0 / 3.0))
    result.check("gamma_boundary", boundary.gamma, 0.0, SYMBOLIC_TOL)
    interior = adjustment_gain(covariate_sum_spec(5.0 / 6.0))
    result.check("gamma_interior", interior.gamma, -1.0 / 27.0, SYMBOLIC_TOL)
    result.notes.append(f"verdict at var_b=5/6: adjustment {interior.verdict}")
    return result


def _run_theorem5() -> ScenarioResult:
    result = ScenarioResult("theorem5")
    pop, _ = normalize_z(demo_population())
    sizes = GroupSizes(2, 2, 2)
    summary = exact_distribution(pop, sizes)
    for i, label in enumerate(("bias_a", "bias_b", "bias_c")):
        result.check(label, summary.mr_bias[i], 0.0, BIAS_TOL)
    result.check(
        "contrast_symmetry_dev", contrast_symmetry_deviation(pop, sizes, ("A", "C")), 0.0, BIAS_TOL
    )
    result.info("singular_count", summary.singular_count)
    result.notes.append("balanced design + additive effects: adjusted estimator unbiased")
    return result


def _run_theorem6() -> ScenarioResult:
    result = ScenarioResult("theorem6")
    pop, _ = normalize_z(conditional_constancy_population())
    summary = exact_distribution(pop, GroupSizes(2, 2, 2))
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
SCENARIO_NAMES = tuple(_RUNNERS)


def run_scenario(name: str) -> ScenarioResult:
    if name not in _RUNNERS:
        raise ValueError(f"unknown scenario {name!r}; valid names: {', '.join(SCENARIO_NAMES)}")
    return _RUNNERS[name]()


# ---------------------------------------------------------------------------
# Order diagnostics: replicate a base population (moments frozen, n
# growing) and compare Monte Carlo summaries against the closed forms.


@dataclass
class OrderCheckRow:
    m: int
    n: int
    bias_scaled: np.ndarray
    bias_gate: np.ndarray
    bias_ok: bool
    residual_norm: float
    cov_deviation: float
    sigma_hat_mean: float
    max_dev_az: float


@dataclass
class OrderCheckReport:
    """Asymptotic-order diagnostics along a replication sequence.

    Per replication factor m (population size n = m * n0): the adjusted
    estimator's Monte Carlo bias scaled by (n - 1) against the negated
    bias coefficient K, with a four-standard-error gate; the deviation
    of n times the estimator covariance from its limit; the mean
    residual-variance estimate against its limit; the norm of the
    second-order bias residual; and the worst deviation of a sampled
    product mean from its population value (a concentration check).
    ``slope`` is the log-log fit of the bias residual against n; second-
    order theory predicts it to be steeply negative.
    """

    k: np.ndarray
    sigma_sq: float
    rows: list
    slope: float


def order_checks(
    base: Population,
    sizes: GroupSizes,
    m_values,
    reps: int,
    seed: int,
    threads: int = 1,
) -> OrderCheckReport:
    sizes.validate_for(base.n)
    k = bias_k(base, sizes)
    spec = plugin_spec(base, sizes)
    sigma, _ = sigma_matrix(spec)
    sigma_sq = nominal_asymptotics(spec).sigma_sq
    rows = []
    for i, m in enumerate(m_values):
        m = int(m)
        pop_m = replicate(base, m)
        mc = monte_carlo(
            pop_m,
            sizes.scaled(m),
            reps,
            seed=np.random.SeedSequence(seed, spawn_key=(i,)),
            threads=threads,
        )
        n = pop_m.n
        scaled = (n - 1) * mc.mr_bias
        gate = 4.0 * (n - 1) * mc.mr_se
        rows.append(
            OrderCheckRow(
                m=m,
                n=n,
                bias_scaled=scaled,
                bias_gate=gate,
                bias_ok=bool(np.all(np.abs(scaled + k) <= gate)),
                residual_norm=float(np.linalg.norm(mc.mr_bias + k / (n - 1))),
                cov_deviation=float(np.abs(n * mc.mr_cov - sigma).max()),
                sigma_hat_mean=mc.mean_sigma_hat_sq,
                max_dev_az=mc.max_abs_dev_az_a,
            )
        )
    if len(rows) >= 2 and all(r.residual_norm > 0 for r in rows):
        log_n = np.log([r.n for r in rows])
        log_r = np.log([r.residual_norm for r in rows])
        slope = float(np.polyfit(log_n, log_r, 1)[0])
    else:
        slope = float("nan")
    return OrderCheckReport(k=k, sigma_sq=sigma_sq, rows=rows, slope=slope)
