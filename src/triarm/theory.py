"""Closed-form sampling moments, asymptotics, bias and adjustment gain.

Everything here is deterministic arithmetic on population (or limiting)
moments.  The simulation engines in :mod:`triarm.experiments` exist to
check these formulas; keeping the two sides independent is a design
requirement, so nothing in this module touches an assignment.
"""

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
    z_moments,
)

#: Response variable observed in each group.
RESPONSE_OF_GROUP = {"A": "a", "B": "b", "C": "c"}

#: The three pairwise contrasts, in report order.
PAIRS = (("A", "B"), ("A", "C"), ("B", "C"))


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
    return float(np.dot(sizes.fractions(), moment_set(pop).product_means))


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


@dataclass(frozen=True, eq=False)
class AsymptoticSpec:
    """Limiting fractions and covariances driving every asymptotic formula.

    ``fractions`` holds the group fractions (p_A, p_B, p_C).
    ``covariance`` is the limiting covariance matrix of (a, b, c, z),
    ordered like :data:`triarm.population.VARIABLES`, the layout of
    :attr:`MomentSet.covariance`.  Every closed form here is invariant to
    shifting a response by a constant, so the spec carries no response
    means.  The covariate is structurally normalized: its limiting mean
    is 0 and its variance, entry [3, 3], must be exactly 1.  Both arrays
    are kept as read-only copies.
    """

    fractions: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        p = np.array(self.fractions, dtype=np.float64)
        cov = np.array(self.covariance, dtype=np.float64)
        if p.shape != (3,) or cov.shape != (4, 4):
            raise ValueError(
                f"expected 3 fractions and a 4x4 covariance, got shapes {p.shape} and {cov.shape}"
            )
        if not np.all(p > 0.0):
            raise ValueError("group fractions must be strictly positive")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"group fractions must sum to 1, got {float(p.sum())!r}")
        if not np.array_equal(cov, cov.T) or cov[3, 3] != 1.0:
            raise ValueError("covariance must be symmetric with z's variance, entry [3, 3], equal to 1")
        eigvals = np.linalg.eigvalsh(cov)
        if eigvals.min() < -1e-9:
            raise ValueError(
                "moments are not realizable: implied covariance matrix has "
                f"eigenvalue {eigvals.min():.3e}"
            )
        for name, arr in (("fractions", p), ("covariance", cov)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def q_limit(spec: AsymptoticSpec) -> float:
    """Limiting value of the adjustment slope."""
    return float(np.dot(spec.fractions, spec.covariance[:3, 3]))


def sigma_matrix(spec: AsymptoticSpec) -> tuple[np.ndarray, float]:
    """Asymptotic covariance of the scaled adjusted estimator, and Q.

    Entry (S, S) is ((1 - p_S)/p_S) var(x_S - Q z) in the limit; entry
    (S, T) is -cov(x_S - Q z, x_T - Q z).
    """
    q = q_limit(spec)
    prod = spec.covariance[:3, 3]
    # var/cov of (x - Qz), var(z) = 1; adding the products first keeps it symmetric
    adj = spec.covariance[:3, :3] - q * (prod[:, None] + prod[None, :]) + q * q
    p = spec.fractions
    sigma = -adj
    np.fill_diagonal(sigma, (1.0 - p) / p * np.diag(adj))
    sigma.setflags(write=False)
    return sigma, q


@dataclass(frozen=True)
class NominalAsymptotics:
    """Limit of n times the conventional covariance matrix."""

    sigma_sq: float
    covariance: np.ndarray


def nominal_asymptotics(spec: AsymptoticSpec) -> NominalAsymptotics:
    """Limiting residual variance and the conventional covariance limit."""
    q = q_limit(spec)
    sigma_sq = float(np.dot(spec.fractions, np.diag(spec.covariance)[:3]) - q * q)
    if sigma_sq < -1e-9:
        raise ValueError(f"inconsistent spec: limiting residual variance {sigma_sq:.3e} < 0")
    sigma_sq = max(sigma_sq, 0.0)
    cov = sigma_sq * np.diag(np.append(1.0 / spec.fractions, 1.0))
    cov.setflags(write=False)
    return NominalAsymptotics(sigma_sq=sigma_sq, covariance=cov)


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
    groups, swapping the matching fractions and covariances with z.
    """
    si, ti = _pair_codes(pair)
    q = q_limit(spec)
    p = spec.fractions
    prod = spec.covariance[:3, 3]
    gamma = 2.0 * q * (p[ti] * prod[si] + p[si] * prod[ti]) - q * q * (p[si] + p[ti])
    return AdjustmentGain(gamma=float(gamma), pair=tuple(pair), q=q, p_s=float(p[si]), p_t=float(p[ti]))


def plugin_spec(pop: Population, sizes: GroupSizes) -> AsymptoticSpec:
    """Treat a finite population as its own limit.

    Fractions come from the sizes and the covariance matrix from the
    population's moment set, with z's variance set to 1.  The covariate
    must already be normalized (warned otherwise, since the spec fixes
    its limiting mean and mean square structurally); a raw covariate that
    leaves the spec unrealizable is refused with its mean and mean square
    named.
    """
    sizes.validate_for(pop.n)
    _warn_if_unnormalized(pop, "plugin_spec")
    cov = moment_set(pop).covariance.copy()
    cov[3, 3] = 1.0
    try:
        return AsymptoticSpec(sizes.fractions(), cov)
    except ValueError as exc:
        if is_normalized_z(pop):
            raise
        mean_z, mean_sq_z = z_moments(pop)
        raise ValueError(
            f"{exc}; covariate z has mean {mean_z!r} and mean square "
            f"{mean_sq_z!r}, but the closed forms need 0 and 1"
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
    nominal: np.ndarray
    gain: AdjustmentGain


def theory_report(pop: Population, sizes: GroupSizes, pair: tuple[str, str] = ("A", "C")) -> TheoryReport:
    """Assemble the full closed-form report used by the command line."""
    spec = plugin_spec(pop, sizes)
    sigma, q = sigma_matrix(spec)
    nominal = nominal_asymptotics(spec)
    return TheoryReport(
        moments=moment_set(pop),
        q_tilde=q_tilde(pop, sizes),
        bias=bias_k(pop, sizes),
        itt_variances={f"{s}-{t}": itt_pair_variance(pop, sizes, (s, t)) for s, t in PAIRS},
        q=q,
        sigma=sigma,
        sigma_sq=nominal.sigma_sq,
        nominal=nominal.covariance,
        gain=adjustment_gain(spec, pair),
    )
