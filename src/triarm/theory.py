"""Closed-form sampling moments, asymptotics, bias and adjustment gain.

Everything here is deterministic arithmetic on population (or limiting)
moments.  The simulation engines in :mod:`triarm.experiments` exist to
check these formulas; keeping the two sides independent is a design
requirement, so nothing in this module touches an assignment.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .assignment import GroupSizes, _check_group
from .population import (
    MomentSet,
    Population,
    centered_product_covariances,
    is_normalized_z,
    moment_set,
)

#: Response variable observed in each group.
RESPONSE_OF_GROUP = {"A": "a", "B": "b", "C": "c"}


def _warn_if_unnormalized(pop: Population, where: str) -> None:
    if not is_normalized_z(pop):
        warnings.warn(
            f"{where}: covariate z is not normalized to mean 0 and mean square 1; "
            "the closed forms assume it is",
            stacklevel=3,
        )


@dataclass(frozen=True)
class GroupMeanMoments:
    """Exact sampling moments of group means over random assignment.

    For variables x, y and distinct groups S, T:
    ``mean`` = E(x_S), ``variance`` = var(x_S), ``within_covariance`` =
    cov(x_S, y_S), ``cross_covariance`` = cov(x_S, y_T).  The cross term
    does not depend on the group fractions.
    """

    mean: float
    variance: float
    within_covariance: float
    cross_covariance: float


def prop1_moments(
    pop: Population,
    sizes: GroupSizes,
    x: str = "a",
    y: str = "b",
    groups: tuple[str, str] = ("A", "B"),
) -> GroupMeanMoments:
    """Exact mean/variance/covariances of group means of x and y."""
    sizes.validate_for(pop.n)
    s, t = groups
    if s == t:
        raise ValueError("groups must be distinct")
    _check_group(s), _check_group(t)
    ms = moment_set(pop)
    n = pop.n
    p_s = sizes.counts()[_check_group(s)] / n
    factor = (1.0 - p_s) / p_s / (n - 1)
    return GroupMeanMoments(
        mean=ms.mean(x),
        variance=factor * ms.var(x),
        within_covariance=factor * ms.cov(x, y),
        cross_covariance=-ms.cov(x, y) / (n - 1),
    )


def itt_pair_variance(pop: Population, sizes: GroupSizes, pair: tuple[str, str] = ("A", "C")) -> float:
    """Exact variance of the unadjusted contrast between two groups."""
    s, t = pair
    if s == t:
        raise ValueError("groups must be distinct")
    sizes.validate_for(pop.n)
    ms = moment_set(pop)
    n = pop.n
    fractions = sizes.fractions()
    xs = RESPONSE_OF_GROUP[s]
    xt = RESPONSE_OF_GROUP[t]
    p_s = fractions[_check_group(s)]
    p_t = fractions[_check_group(t)]
    return (
        (1.0 - p_s) / p_s * ms.var(xs)
        + (1.0 - p_t) / p_t * ms.var(xt)
        + 2.0 * ms.cov(xs, xt)
    ) / (n - 1)


def q_tilde(pop: Population, sizes: GroupSizes) -> float:
    """Fraction-weighted average of the raw response-covariate products."""
    sizes.validate_for(pop.n)
    _warn_if_unnormalized(pop, "q_tilde")
    cross = [math.fsum((x * pop.z).tolist()) / pop.n for x in (pop.a, pop.b, pop.c)]
    return float(np.dot(sizes.fractions(), cross))


def bias_k(pop: Population, sizes: GroupSizes, center: bool = True) -> np.ndarray:
    """Leading bias coefficient K of the adjusted estimator, per group.

    The literal formula is not invariant under shifting a response by a
    constant, but the bias it describes is; responses are therefore
    centered first (the derivation reduces to mean-zero responses before
    isolating the term).  Pass ``center=False`` to see the uncentered
    value for diagnostic comparison; it is not the bias coefficient.
    """
    sizes.validate_for(pop.n)
    _warn_if_unnormalized(pop, "bias_k")
    ms = moment_set(pop)
    prod_cov = centered_product_covariances(pop, ms.means) if center else ms.product_covariances
    weighted = float(np.dot(sizes.fractions(), prod_cov))
    out = prod_cov - weighted
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class AsymptoticSpec:
    """Limiting fractions and moments driving every asymptotic formula.

    The covariate is structurally normalized: its limiting mean is 0 and
    its limiting mean square 1, so they are not fields.  ``mean_az`` and
    friends are limits of the raw product averages, which under that
    normalization equal the limiting covariances with z.
    """

    p_a: float
    p_b: float
    p_c: float
    mean_a: float = 0.0
    mean_b: float = 0.0
    mean_c: float = 0.0
    mean_sq_a: float = 0.0
    mean_sq_b: float = 0.0
    mean_sq_c: float = 0.0
    mean_ab: float = 0.0
    mean_ac: float = 0.0
    mean_bc: float = 0.0
    mean_az: float = 0.0
    mean_bz: float = 0.0
    mean_cz: float = 0.0

    def __post_init__(self):
        p = (self.p_a, self.p_b, self.p_c)
        if min(p) <= 0.0:
            raise ValueError("group fractions must be strictly positive")
        if abs(sum(p) - 1.0) > 1e-9:
            raise ValueError(f"group fractions must sum to 1, got {sum(p)!r}")
        eigvals = np.linalg.eigvalsh(self.covariance_matrix())
        if eigvals.min() < -1e-9:
            raise ValueError(
                "moments are not realizable: implied covariance matrix has "
                f"eigenvalue {eigvals.min():.3e}"
            )

    @property
    def fractions(self) -> np.ndarray:
        return np.array([self.p_a, self.p_b, self.p_c])

    @property
    def var_a(self) -> float:
        return self.mean_sq_a - self.mean_a**2

    @property
    def var_b(self) -> float:
        return self.mean_sq_b - self.mean_b**2

    @property
    def var_c(self) -> float:
        return self.mean_sq_c - self.mean_c**2

    def covariance_matrix(self) -> np.ndarray:
        """Implied limiting covariance matrix of (a, b, c, z)."""
        m = (self.mean_a, self.mean_b, self.mean_c)
        cov = np.empty((4, 4))
        cov[0, 0], cov[1, 1], cov[2, 2], cov[3, 3] = self.var_a, self.var_b, self.var_c, 1.0
        cov[0, 1] = cov[1, 0] = self.mean_ab - m[0] * m[1]
        cov[0, 2] = cov[2, 0] = self.mean_ac - m[0] * m[2]
        cov[1, 2] = cov[2, 1] = self.mean_bc - m[1] * m[2]
        # limiting mean of z is 0, so product moments with z are covariances
        cov[0, 3] = cov[3, 0] = self.mean_az
        cov[1, 3] = cov[3, 1] = self.mean_bz
        cov[2, 3] = cov[3, 2] = self.mean_cz
        return cov

    def degenerate_variables(self) -> tuple[str, ...]:
        """Responses whose limiting variance is not strictly positive.

        Strict positivity is assumed by the limit theorems; degenerate
        specs are still constructible because several edge-case
        identities are worth checking on them.
        """
        out = []
        for name, var in zip(("a", "b", "c"), (self.var_a, self.var_b, self.var_c)):
            if var <= 0.0:
                out.append(name)
        return tuple(out)

    def product_moments(self) -> np.ndarray:
        return np.array([self.mean_az, self.mean_bz, self.mean_cz])


def q_limit(spec: AsymptoticSpec) -> float:
    """Limiting value of the adjustment slope."""
    return float(np.dot(spec.fractions, spec.product_moments()))


def sigma_matrix(spec: AsymptoticSpec) -> tuple[np.ndarray, float]:
    """Asymptotic covariance of the scaled adjusted estimator, and Q.

    Entry (S, S) is ((1 - p_S)/p_S) var(x_S - Q z) in the limit; entry
    (S, T) is -cov(x_S - Q z, x_T - Q z).
    """
    q = q_limit(spec)
    cov = spec.covariance_matrix()
    prod = spec.product_moments()
    # var/cov of (x - Qz) expanded from the spec moments, var(z) = 1
    adj = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            adj[i, j] = cov[i, j] - q * prod[i] - q * prod[j] + q * q
    p = spec.fractions
    sigma = -adj.copy()
    for i in range(3):
        sigma[i, i] = (1.0 - p[i]) / p[i] * adj[i, i]
    sigma.setflags(write=False)
    return sigma, q


@dataclass(frozen=True)
class NominalAsymptotics:
    """Limit of n times the conventional covariance matrix."""

    sigma_sq: float
    d_matrix: np.ndarray
    covariance: np.ndarray


def nominal_asymptotics(spec: AsymptoticSpec) -> NominalAsymptotics:
    """Limiting residual variance and the conventional covariance limit."""
    q = q_limit(spec)
    sigma_sq = float(np.dot(spec.fractions, (spec.var_a, spec.var_b, spec.var_c)) - q * q)
    if sigma_sq < -1e-9:
        raise ValueError(f"inconsistent spec: limiting residual variance {sigma_sq:.3e} < 0")
    sigma_sq = max(sigma_sq, 0.0)
    d = np.diag(np.append(spec.fractions, 1.0))
    cov = sigma_sq * np.diag(np.append(1.0 / spec.fractions, 1.0))
    d.setflags(write=False)
    cov.setflags(write=False)
    return NominalAsymptotics(sigma_sq=sigma_sq, d_matrix=d, covariance=cov)


@dataclass(frozen=True)
class AdjustmentGain:
    """Sign and size of the asymptotic precision change from adjusting.

    ``gamma`` > 0 means adjustment shrinks the asymptotic variance of
    the pair contrast; the improvement at population size n is
    ``gain(n) = gamma / (n p_S p_T)``.
    """

    gamma: float
    pair: tuple[str, str]
    q: float
    p_s: float
    p_t: float

    @property
    def verdict(self) -> str:
        if self.gamma > 1e-12:
            return "helps"
        if self.gamma < -1e-12:
            return "hurts"
        return "neutral"

    @property
    def coefficient(self) -> float:
        """gain(n) * n, i.e. gamma / (p_S p_T)."""
        return self.gamma / (self.p_s * self.p_t)

    def gain(self, n: int) -> float:
        return self.coefficient / n


def adjustment_gain(spec: AsymptoticSpec, pair: tuple[str, str] = ("A", "C")) -> AdjustmentGain:
    """Gain from adjustment for the given contrast.

    Stated for the (A, C) pair; any other pair follows by relabeling the
    groups, swapping the matching fractions and product moments.
    """
    s, t = pair
    if s == t:
        raise ValueError("groups must be distinct")
    si, ti = _check_group(s), _check_group(t)
    q = q_limit(spec)
    p = spec.fractions
    prod = spec.product_moments()
    gamma = 2.0 * q * (p[ti] * prod[si] + p[si] * prod[ti]) - q * q * (p[si] + p[ti])
    return AdjustmentGain(gamma=float(gamma), pair=(s, t), q=q, p_s=float(p[si]), p_t=float(p[ti]))


def plugin_spec(pop: Population, sizes: GroupSizes) -> AsymptoticSpec:
    """Treat a finite population as its own limit.

    Fractions come from the sizes, moments from the population.  The
    covariate must already be normalized (warned otherwise, since the
    spec fixes its limiting mean and mean square structurally).
    """
    sizes.validate_for(pop.n)
    _warn_if_unnormalized(pop, "plugin_spec")
    ms = moment_set(pop)
    m = ms.means
    p = sizes.fractions()
    return AsymptoticSpec(
        p_a=float(p[0]),
        p_b=float(p[1]),
        p_c=float(p[2]),
        mean_a=float(m[0]),
        mean_b=float(m[1]),
        mean_c=float(m[2]),
        mean_sq_a=ms.var("a") + float(m[0]) ** 2,
        mean_sq_b=ms.var("b") + float(m[1]) ** 2,
        mean_sq_c=ms.var("c") + float(m[2]) ** 2,
        mean_ab=ms.cov("a", "b") + float(m[0] * m[1]),
        mean_ac=ms.cov("a", "c") + float(m[0] * m[2]),
        mean_bc=ms.cov("b", "c") + float(m[1] * m[2]),
        mean_az=ms.cov("a", "z") + float(m[0] * m[3]),
        mean_bz=ms.cov("b", "z") + float(m[1] * m[3]),
        mean_cz=ms.cov("c", "z") + float(m[2] * m[3]),
    )


@dataclass(frozen=True)
class TheoryReport:
    """Every closed-form quantity for one population/sizes/pair choice."""

    moments: MomentSet
    q_tilde: float
    bias: np.ndarray
    itt_variances: dict
    q: float
    sigma: np.ndarray
    sigma_sq: float
    d_matrix: np.ndarray
    nominal: np.ndarray
    gain: AdjustmentGain


def theory_report(pop: Population, sizes: GroupSizes, pair: tuple[str, str] = ("A", "C")) -> TheoryReport:
    """Assemble the full closed-form report used by the command line."""
    spec = plugin_spec(pop, sizes)
    sigma, q = sigma_matrix(spec)
    nominal = nominal_asymptotics(spec)
    pairs = [("A", "B"), ("A", "C"), ("B", "C")]
    return TheoryReport(
        moments=moment_set(pop),
        q_tilde=q_tilde(pop, sizes),
        bias=bias_k(pop, sizes),
        itt_variances={f"{s}-{t}": itt_pair_variance(pop, sizes, (s, t)) for s, t in pairs},
        q=q,
        sigma=sigma,
        sigma_sq=nominal.sigma_sq,
        d_matrix=nominal.d_matrix,
        nominal=nominal.covariance,
        gain=adjustment_gain(spec, pair),
    )
