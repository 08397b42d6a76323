"""Finite populations of potential responses and their moments.

A population fixes, for every subject, the response it would show under
each of the three treatments (``a``, ``b``, ``c``) together with a
pre-treatment covariate ``z``.  All randomness downstream comes from the
assignment of subjects to groups, never from the population itself.

Every moment in this module uses the divisor ``n`` (not ``n - 1``): the
closed-form sampling formulas in :mod:`triarm.theory` are exact only
under that convention.

This module is the package's one source of population sums.  A
population caches its :class:`MomentSet` (:func:`moment_set`) and the
mean and mean square of ``z`` (:func:`z_moments`); every other module
reads them.  Two sums are taken elsewhere on purpose, because their
exact bits fix the Monte Carlo output for a seed: ``monte_carlo``'s
mean of ``a * z`` is a numpy mean, and ``BatchEvaluator.z_sum_sq`` is a
BLAS dot product.  A sum that leaves the float range raises a
:class:`ValueError` naming its variable; only the fourth absolute
moments may be infinite.
"""

import csv
import functools
import math
from array import array
from dataclasses import dataclass

import numpy as np

VARIABLES = ("a", "b", "c", "z")

#: Absolute tolerance for "covariate is centered / unit-scale" checks.
#: Populations are exact user data; this absorbs float roundoff only.
NORMALIZATION_TOL = 1e-9


class PopulationFormatError(ValueError):
    """A population CSV could not be parsed.

    Carries the offending data row (1-based, header excluded) and column
    name when they are known.
    """

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


def _as_readonly_vector(values, name):
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size < 1:
        raise ValueError(f"{name} must contain at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Population:
    """Potential responses ``a``, ``b``, ``c`` and covariate ``z``.

    All four sequences have the same length and finite entries.  Arrays
    are stored read-only, so instances are safe to share across threads,
    and the moments computed from them are computed once and kept (see
    :func:`moment_set`).
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        for name in VARIABLES:
            object.__setattr__(self, name, _as_readonly_vector(getattr(self, name), name))
        lengths = {getattr(self, name).size for name in VARIABLES}
        if len(lengths) != 1:
            raise ValueError("a, b, c, z must all have the same length")

    @property
    def n(self) -> int:
        return self.a.size

    def variable(self, name: str) -> np.ndarray:
        if name not in VARIABLES:
            raise ValueError(f"unknown variable {name!r}; expected one of {VARIABLES}")
        return getattr(self, name)

    @functools.cached_property
    def _moments(self) -> "MomentSet":
        # cached_property writes the instance __dict__, which a frozen
        # dataclass allows; the arrays it is computed from never change
        return _compute_moment_set(self)

    @functools.cached_property
    def _z_moments(self) -> tuple[float, float]:
        return _compute_z_moments(self)


@dataclass(frozen=True)
class MomentSet:
    """Divisor-``n`` moments of a population.

    ``means`` and ``fourth_abs_moments`` are ordered like
    :data:`VARIABLES`; ``covariance`` is the 4x4 matrix over the same
    ordering; ``product_means`` holds the means of az, bz, cz, the
    elementwise products, and ``product_covariances`` holds cov(az, z),
    cov(bz, z), cov(cz, z).
    """

    means: np.ndarray
    covariance: np.ndarray
    product_means: np.ndarray
    product_covariances: np.ndarray
    fourth_abs_moments: np.ndarray

    def mean(self, x: str) -> float:
        return float(self.means[VARIABLES.index(x)])

    def var(self, x: str) -> float:
        i = VARIABLES.index(x)
        return float(self.covariance[i, i])

    def cov(self, x: str, y: str) -> float:
        return float(self.covariance[VARIABLES.index(x), VARIABLES.index(y)])


def _fsum_mean(values: np.ndarray, label: str | None = None) -> float:
    """Correctly rounded mean; with a ``label``, a non-finite mean raises naming it."""
    # fsum of a list is the same correctly rounded sum, and faster than
    # iterating over numpy scalars
    try:
        mean = math.fsum(values.tolist()) / values.size
    except OverflowError:  # finite terms summing past the float range
        mean = math.inf
    except ValueError:  # terms that overflowed to both inf and -inf
        mean = math.nan
    if label is not None and not math.isfinite(mean):
        raise ValueError(f"{label} is not finite: the population's values are too large")
    return mean


def _fsum_cov(x: np.ndarray, mx: float, y: np.ndarray, my: float, label: str) -> float:
    return _fsum_mean((x - mx) * (y - my), label)


def _product_moments(responses, z: np.ndarray, mz: float, names="abc"):
    """Means of xz and cov(xz, z) for each response x, given the mean ``mz`` of ``z``."""
    products = [x * z for x in responses]
    means = np.array([_fsum_mean(xz, f"the mean of {x}z") for xz, x in zip(products, names)])
    covs = [
        _fsum_cov(xz, m, z, mz, f"the covariance of {x}z and z")
        for xz, m, x in zip(products, means, names)
    ]
    return means, np.array(covs)


def _compute_moment_set(pop: Population) -> MomentSet:
    columns = [pop.variable(name) for name in VARIABLES]
    # a product past the float range becomes inf, and its moment is refused
    with np.errstate(over="ignore", invalid="ignore"):
        means = np.array([_fsum_mean(x, f"the mean of {v}") for x, v in zip(columns, VARIABLES)])
        cov = np.empty((4, 4))
        for i, x in enumerate(VARIABLES):
            for j in range(i, 4):
                label = f"the variance of {x}" if i == j else f"the covariance of {x} and {VARIABLES[j]}"
                cov[i, j] = cov[j, i] = _fsum_cov(columns[i], means[i], columns[j], means[j], label)
        prod_means, prod_cov = _product_moments(columns[:3], pop.z, means[3])
        # the one moment allowed to overflow: it is reported, never used
        fourth = np.array([_fsum_mean(np.abs(x) ** 4) for x in columns])
    for arr in (means, cov, prod_means, prod_cov, fourth):
        arr.setflags(write=False)
    return MomentSet(means, cov, prod_means, prod_cov, fourth)


def moment_set(pop: Population) -> MomentSet:
    """All first, second and fourth-absolute moments of a population.

    Sums are exact (``math.fsum``), so the results are correctly rounded
    regardless of population size.  They are computed on the first call
    for a population and the same read-only :class:`MomentSet` is
    returned after that.  A mean, covariance or product moment outside
    the float range raises :class:`ValueError` naming it; a fourth
    absolute moment there is ``inf``.
    """
    return pop._moments


def centered_product_covariances(pop: Population, means) -> np.ndarray:
    """cov(xz, z) for each response x centered at its mean.

    ``means`` are the population's means ordered like :data:`VARIABLES`
    (``moment_set(pop).means``).  The result equals the product
    covariances of the :func:`center_responses` population bit for bit,
    without building that population or its other moments.
    """
    responses = [x - m for x, m in zip((pop.a, pop.b, pop.c), means[:3])]
    return _product_moments(responses, pop.z, means[3], ("centered a", "centered b", "centered c"))[1]


@dataclass(frozen=True)
class ZNormalization:
    """Affine map applied to the covariate: z -> (z - shift) / scale."""

    shift: float
    scale: float


def normalize_z(pop: Population) -> tuple[Population, ZNormalization]:
    """Center ``z`` and rescale it to unit mean square.

    The applied shift and scale are returned rather than silently
    discarded: translating the covariate changes individual effect
    estimates (only differences are invariant), so callers must be able
    to see what was done.
    """
    shift, mean_sq = z_moments(pop)
    centered = pop.z - shift
    scale = math.sqrt(_fsum_mean(centered * centered, "the variance of z"))
    if scale <= 1e-12 * max(math.sqrt(mean_sq), 1.0):
        raise ValueError("zero variance covariate")
    return Population(pop.a, pop.b, pop.c, centered / scale), ZNormalization(shift, scale)


def _compute_z_moments(pop: Population) -> tuple[float, float]:
    with np.errstate(over="ignore"):
        return _fsum_mean(pop.z, "the mean of z"), _fsum_mean(pop.z * pop.z, "the mean square of z")


def z_moments(pop: Population) -> tuple[float, float]:
    """Mean and mean square of ``z``: computed once per population, and cheaper than its moment set."""
    return pop._z_moments


def is_normalized_z(pop: Population) -> bool:
    """Whether ``z`` has mean 0 and mean square 1 within :data:`NORMALIZATION_TOL`."""
    mean_z, mean_sq_z = z_moments(pop)
    return abs(mean_z) <= NORMALIZATION_TOL and abs(mean_sq_z - 1.0) <= NORMALIZATION_TOL


def center_responses(pop: Population) -> tuple[Population, tuple[float, float, float]]:
    """Remove the response means, returning them alongside the population.

    ``z`` is left untouched.
    """
    means = tuple(moment_set(pop).means[:3].tolist())
    return (
        Population(pop.a - means[0], pop.b - means[1], pop.c - means[2], pop.z),
        means,
    )


def replicate(pop: Population, m: int) -> Population:
    """Duplicate every subject ``m`` times.

    Replication grows ``n`` while holding all divisor-``n`` moments
    fixed, which is how asymptotic claims are probed here.
    """
    if int(m) != m or m < 1:
        raise ValueError("replication factor must be a positive integer")
    m = int(m)
    if m == 1:
        return pop
    return Population(*(np.tile(pop.variable(v), m) for v in VARIABLES))


def additive_effects(pop: Population, tol: float = 1e-12) -> bool:
    """True when b - a and c - a are constant across subjects."""
    d1 = pop.b - pop.a
    d2 = pop.c - pop.a
    return float(np.ptp(d1)) <= tol and float(np.ptp(d2)) <= tol


@dataclass(frozen=True)
class ConditionReport:
    """Advisory regularity diagnostics; nothing here hard-fails.

    ``fourth_moment_bound`` is the max over variables of the average
    fourth absolute moment (the a-priori bound that the asymptotics
    assume).  The covariate flags use :data:`NORMALIZATION_TOL`.
    Convergence of moments along a sequence of populations cannot be
    checked on a single finite population; see
    :func:`triarm.experiments.order_checks` for the sequence-level
    diagnostics.
    """

    mean_z: float
    mean_sq_z: float
    fourth_moment_bound: float
    fractions_ok: bool
    z_centered_ok: bool
    z_scaled_ok: bool


def condition_report(pop: Population, sizes) -> ConditionReport:
    sizes.validate_for(pop.n)
    mean_z, mean_sq_z = z_moments(pop)
    return ConditionReport(
        mean_z=mean_z,
        mean_sq_z=mean_sq_z,
        fourth_moment_bound=float(moment_set(pop).fourth_abs_moments.max()),
        fractions_ok=bool(np.all(sizes.counts() > 0)),
        z_centered_ok=abs(mean_z) <= NORMALIZATION_TOL,
        z_scaled_ok=abs(mean_sq_z - 1.0) <= NORMALIZATION_TOL,
    )


def load_population(path) -> Population:
    """Read a population from CSV.

    The file is UTF-8, with or without a byte-order mark.  The header
    must name exactly the columns ``a,b,c,z`` (any order); every body
    cell must parse as a finite decimal number.  Rows are kept in file
    order.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PopulationFormatError("empty file: missing header row") from None
        names = [cell.strip() for cell in header]
        for name in names:
            if name not in VARIABLES:
                raise PopulationFormatError(f"unexpected column {name!r}", column=name)
            if names.count(name) > 1:
                raise PopulationFormatError(f"duplicate column {name!r}", column=name)
        for required in VARIABLES:
            if required not in names:
                raise PopulationFormatError(f"missing column {required!r}", column=required)

        width = len(names)
        values = array("d")
        row_index = 0
        for row in reader:
            # fast path: a full row of finite numbers.  float() strips the
            # same whitespace as str.strip() except U+001C..U+001F, which
            # only str.strip() removes; a cell holding them misses this
            # path and _parse_row accepts it
            if len(row) == width:
                try:
                    cells = list(map(float, row))
                except ValueError:
                    cells = None
                if cells is not None and all(map(math.isfinite, cells)):
                    row_index += 1
                    values.extend(cells)
                    continue
            if not row or all(not cell.strip() for cell in row):
                continue
            row_index += 1
            values.extend(_parse_row(row, names, row_index))
        if row_index == 0:
            raise PopulationFormatError("empty body")
    table = np.frombuffer(values, dtype=np.float64).reshape(row_index, width)
    return Population(*(table[:, names.index(name)] for name in VARIABLES))


def _parse_row(row, names, row_index) -> list:
    """Cell-by-cell parse of one body row, raising on the first bad cell."""
    if len(row) != len(names):
        raise PopulationFormatError(
            f"row {row_index}: expected {len(names)} cells, found {len(row)}",
            row=row_index,
        )
    out = []
    for name, cell in zip(names, row):
        text = cell.strip()
        try:
            value = float(text)
        except ValueError:
            raise PopulationFormatError(
                f"row {row_index}, column {name!r}: not a number: {text!r}",
                row=row_index,
                column=name,
            ) from None
        if not math.isfinite(value):
            raise PopulationFormatError(
                f"row {row_index}, column {name!r}: non-finite value {text!r}",
                row=row_index,
                column=name,
            )
        out.append(value)
    return out
