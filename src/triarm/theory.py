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


def _pair_codes(pair: tuple[str, str]) -> tuple[int, int]:
    s, t = pair
    if s == t:
        raise ValueError("groups must be distinct")
    return _check_group(s), _check_group(t)


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
    si, _ = _pair_codes(groups)
    ms = moment_set(pop)
    n = pop.n
    p_s = sizes.counts()[si] / n
    factor = (1.0 - p_s) / p_s / (n - 1)
    return GroupMeanMoments(
        mean=ms.mean(x),
        variance=factor * ms.var(x),
        within_covariance=factor * ms.cov(x, y),
        cross_covariance=-ms.cov(x, y) / (n - 1),
    )


def itt_pair_variance(pop: Population, sizes: GroupSizes, pair: tuple[str, str] = ("A", "C")) -> float:
    """Exact variance of the unadjusted contrast between two groups."""
    si, ti = _pair_codes(pair)
    sizes.validate_for(pop.n)
    ms = moment_set(pop)
    p_s, p_t = sizes.fractions()[[si, ti]]
    xs, xt = (RESPONSE_OF_GROUP[g] for g in pair)
    return (
        (1.0 - p_s) / p_s * ms.var(xs)
        + (1.0 - p_t) / p_t * ms.var(xt)
        + 2.0 * ms.cov(xs, xt)
    ) / (pop.n - 1)


def q_tilde(pop: Population, sizes: GroupSizes) -> float:
    """Fraction-weighted average of the raw response-covariate products."""
    sizes.validate_for(pop.n)
    _warn_if_unnormalized(pop, "q_tilde")
    cross = [math.fsum((x * pop.z).tolist()) / pop.n for x in (pop.a, pop.b, pop.c)]
    return float(np.dot(sizes.fractions(), cross))


def bias_k(pop: Population, sizes: GroupSizes) -> np.ndarray:
    """Leading bias coefficient K of the adjusted estimator, per group.

    The literal formula is not invariant under shifting a response by a
    constant, but the bias it describes is; responses are therefore
    centered first (the derivation reduces to mean-zero responses before
    isolating the term).
    """
    sizes.validate_for(pop.n)
    _warn_if_unnormalized(pop, "bias_k")
    prod_cov = centered_product_covariances(pop, moment_set(pop).means)
    weighted = float(np.dot(sizes.fractions(), prod_cov))
    out = prod_cov - weighted
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class AsymptoticSpec:
    """Limiting fractions and central moments driving every asymptotic formula.

    Every closed form here is invariant to shifting a response by a
    constant, so the spec describes the centered limit and carries no
    response means: ``mean_sq_a`` etc. are the limiting variances of the
    responses, ``mean_ab`` etc. their covariances and ``mean_az`` etc.
    their covariances with z.  The covariate is structurally normalized:
    its limiting mean is 0 and its limiting mean square 1, so they are
    not fields either.
    """

    p_a: float
    p_b: float
    p_c: float
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

    def covariance_matrix(self) -> np.ndarray:
        """Implied limiting covariance matrix of (a, b, c, z)."""
        return np.array(
            [
                [self.mean_sq_a, self.mean_ab, self.mean_ac, self.mean_az],
                [self.mean_ab, self.mean_sq_b, self.mean_bc, self.mean_bz],
                [self.mean_ac, self.mean_bc, self.mean_sq_c, self.mean_cz],
                [self.mean_az, self.mean_bz, self.mean_cz, 1.0],
            ]
        )

    def degenerate_variables(self) -> tuple[str, ...]:
        """Responses whose limiting variance is not strictly positive.

        Strict positivity is assumed by the limit theorems; degenerate
        specs are still constructible because several edge-case
        identities are worth checking on them.
        """
        variances = (self.mean_sq_a, self.mean_sq_b, self.mean_sq_c)
        return tuple(name for name, var in zip("abc", variances) if var <= 0.0)

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
    cov = spec.covariance_matrix()[:3, :3]
    prod = spec.product_moments()
    # var/cov of (x - Qz), var(z) = 1; adding the products first keeps it symmetric
    adj = cov - q * (prod[:, None] + prod[None, :]) + q * q
    p = spec.fractions
    sigma = -adj
    np.fill_diagonal(sigma, (1.0 - p) / p * np.diag(adj))
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
    sigma_sq = float(np.dot(spec.fractions, (spec.mean_sq_a, spec.mean_sq_b, spec.mean_sq_c)) - q * q)
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
    si, ti = _pair_codes(pair)
    q = q_limit(spec)
    p = spec.fractions
    prod = spec.product_moments()
    gamma = 2.0 * q * (p[ti] * prod[si] + p[si] * prod[ti]) - q * q * (p[si] + p[ti])
    return AdjustmentGain(gamma=float(gamma), pair=tuple(pair), q=q, p_s=float(p[si]), p_t=float(p[ti]))


def plugin_spec(pop: Population, sizes: GroupSizes) -> AsymptoticSpec:
    """Treat a finite population as its own limit.

    Fractions come from the sizes, variances and covariances from the
    population.  The covariate must already be normalized (warned
    otherwise, since the spec fixes its limiting mean and mean square
    structurally); a raw covariate that leaves the spec unrealizable is
    refused with its mean and mean square named.
    """
    sizes.validate_for(pop.n)
    _warn_if_unnormalized(pop, "plugin_spec")
    ms = moment_set(pop)
    p = sizes.fractions()
    try:
        return AsymptoticSpec(
            p_a=float(p[0]),
            p_b=float(p[1]),
            p_c=float(p[2]),
            mean_sq_a=ms.var("a"),
            mean_sq_b=ms.var("b"),
            mean_sq_c=ms.var("c"),
            mean_ab=ms.cov("a", "b"),
            mean_ac=ms.cov("a", "c"),
            mean_bc=ms.cov("b", "c"),
            mean_az=ms.cov("a", "z"),
            mean_bz=ms.cov("b", "z"),
            mean_cz=ms.cov("c", "z"),
        )
    except ValueError as exc:
        if is_normalized_z(pop):
            raise
        mean_z = ms.mean("z")
        raise ValueError(
            f"{exc}; covariate z has mean {mean_z!r} and mean square "
            f"{ms.var('z') + mean_z * mean_z!r}, but the closed forms need 0 and 1"
        ) from None


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
