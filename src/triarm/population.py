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
reads them.  Each sum is :func:`_exact_sum`: the same float as
``math.fsum``, from a vectorized error-free extraction for arrays of at
least :data:`_EXACT_SUM_MIN_SIZE` finite values and from ``math.fsum``
itself otherwise.  Two sums are taken elsewhere on purpose, because their
exact bits fix the engines' output: ``az_mean``, the mean of ``a * z``,
is a numpy mean in :func:`~triarm.experiments.monte_carlo`, and
``z_sum_sq`` a BLAS dot product in :class:`~triarm.estimators.BatchEvaluator`;
a third, that class's overflow guard, only decides whether an input is
refused.  A sum that leaves the float range raises a :class:`ValueError`
naming its variable; only the fourth absolute moments may be infinite.
"""

import csv
import functools
import io
import math
import warnings
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


def _variable_index(name: str) -> int:
    if name not in VARIABLES:
        raise ValueError(f"unknown variable {name!r}; expected one of {VARIABLES}")
    return VARIABLES.index(name)


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
        return getattr(self, VARIABLES[_variable_index(name)])

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
        return float(self.means[_variable_index(x)])

    def var(self, x: str) -> float:
        i = _variable_index(x)
        return float(self.covariance[i, i])

    def cov(self, x: str, y: str) -> float:
        return float(self.covariance[_variable_index(x), _variable_index(y)])


#: Shortest array :func:`_exact_sum` extracts; below it ``math.fsum`` is faster.
_EXACT_SUM_MIN_SIZE = 1000
#: Largest ``e`` of an extraction level's ``2**e``.  Every sum the kernel
#: and ``math.fsum`` form then stays below ``2**1023``, so neither overflows.
_EXACT_SUM_MAX_EXPONENT = 1020


def _exact_sum(values: np.ndarray) -> float:
    """``math.fsum(values)``: the same float, or the same exception.

    For at least :data:`_EXACT_SUM_MIN_SIZE` finite values, the
    error-free extraction of Rump, Ogita and Oishi (2008, "Accurate
    floating-point summation I") splits the values level by level into
    parts whose sums are exact in any order.  With ``2**m >= n + 2`` and
    ``max|r| < 2**(e - m)``, ``q = (r + 2**e) - 2**e`` rounds each
    remainder ``r`` to a multiple of ``2**(e - 53)`` without error, and
    ``r - q`` is exact too.  ``n`` such multiples of magnitude at most
    ``2**(e - m)`` sum exactly, and the new remainders are at most
    ``2**(e - 53)``, so each level lowers ``e`` by ``52 - m`` or more.
    A level with ``2**e <= 2**-1022`` takes every remainder whole, as its
    ulp is ``2**-1074``; from ``e <= 1020``, at most
    ``ceil(2042 / (52 - m)) + 1`` levels run.  The level sums add up to
    the exact total, and ``math.fsum`` of them rounds it once, as
    ``math.fsum`` of the values does.  Otherwise ``math.fsum`` itself
    runs: short arrays, an inf or NaN, values so large that a sum could
    overflow (fsum's ``OverflowError``) and all zeros (fsum's signed zero).
    """
    n = values.size
    if n >= _EXACT_SUM_MIN_SIZE:
        m = (n + 1).bit_length()
        top = max(float(values.max()), -float(values.min()))
        if 0.0 < top < math.inf and m + math.frexp(top)[1] <= _EXACT_SUM_MAX_EXPONENT:
            parts = []
            r = np.array(values, dtype=np.float64)
            q = np.empty_like(r)
            while top:
                sigma = math.ldexp(1.0, m + math.frexp(top)[1])
                np.add(r, sigma, out=q)
                q -= sigma
                parts.append(float(q.sum()))
                r -= q
                top = max(float(r.max()), -float(r.min()))
            return math.fsum(parts)
    # a memoryview yields the same Python floats in the same order as
    # tolist(), strided arrays included, without building a list
    return math.fsum(memoryview(values))


def _exact_mean(values: np.ndarray, label: str | None = None) -> float:
    """Correctly rounded mean; with a ``label``, a non-finite mean raises naming it."""
    try:
        mean = _exact_sum(values) / values.size
    except OverflowError:  # finite terms summing past the float range
        mean = math.inf
    except ValueError:  # terms that overflowed to both inf and -inf
        mean = math.nan
    if label is not None and not math.isfinite(mean):
        raise ValueError(f"{label} is not finite: the population's values are too large")
    return mean


def _exact_cov(x: np.ndarray, mx: float, y: np.ndarray, my: float, label: str) -> float:
    return _exact_mean((x - mx) * (y - my), label)


def _product_moments(responses, z: np.ndarray, mz: float, names="abc"):
    """Means of xz and cov(xz, z) for each response x, given the mean ``mz`` of ``z``."""
    products = [x * z for x in responses]
    means = np.array([_exact_mean(xz, f"the mean of {x}z") for xz, x in zip(products, names)])
    covs = [
        _exact_cov(xz, m, z, mz, f"the covariance of {x}z and z")
        for xz, m, x in zip(products, means, names)
    ]
    return means, np.array(covs)


def _compute_moment_set(pop: Population) -> MomentSet:
    columns = [pop.variable(name) for name in VARIABLES]
    # a product past the float range becomes inf, and its moment is refused
    with np.errstate(over="ignore", invalid="ignore"):
        means = np.array([_exact_mean(x, f"the mean of {v}") for x, v in zip(columns, VARIABLES)])
        cov = np.empty((4, 4))
        for i, x in enumerate(VARIABLES):
            for j in range(i, 4):
                label = f"the variance of {x}" if i == j else f"the covariance of {x} and {VARIABLES[j]}"
                cov[i, j] = cov[j, i] = _exact_cov(columns[i], means[i], columns[j], means[j], label)
        prod_means, prod_cov = _product_moments(columns[:3], pop.z, means[3])
        # the one moment allowed to overflow: it is reported, never used
        fourth = np.array([_exact_mean(np.abs(x) ** 4) for x in columns])
    for arr in (means, cov, prod_means, prod_cov, fourth):
        arr.setflags(write=False)
    return MomentSet(means, cov, prod_means, prod_cov, fourth)


def moment_set(pop: Population) -> MomentSet:
    """All first, second and fourth-absolute moments of a population.

    Each sum is correctly rounded, regardless of population size, and
    has the bits ``math.fsum`` gives it: :func:`_exact_sum` extracts
    exactly summable parts from arrays of at least
    :data:`_EXACT_SUM_MIN_SIZE` finite values and rounds their exact
    total once, as ``math.fsum`` does; it calls ``math.fsum`` itself
    for shorter arrays, inf or NaN terms, sums near the float range and
    the other cases its docstring lists.  The moments are computed on
    the first call for a population and the same read-only
    :class:`MomentSet` is returned after that.  A mean, covariance or
    product moment outside the float range raises :class:`ValueError`
    naming it; a fourth absolute moment there is ``inf``.
    """
    return pop._moments


def centered_product_covariances(pop: Population) -> np.ndarray:
    """cov(xz, z) for each response x centered at its mean.

    The result equals the product covariances of the
    :func:`center_responses` population bit for bit, without building
    that population or its other moments.
    """
    means = moment_set(pop).means
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
    to see what was done.  Raises :class:`ValueError` for a covariate
    whose standard deviation is at most ``1e-12`` of its root mean square
    ("zero variance"), and for one so small that its squares lose bits to
    subnormal rounding, so that the rescaled ``z`` misses mean square 1.
    """
    shift, mean_sq = z_moments(pop)
    centered = pop.z - shift
    scale = math.sqrt(_exact_mean(centered * centered, "the variance of z"))
    if scale <= 1e-12 * math.sqrt(mean_sq):
        raise ValueError("zero variance covariate")
    normalized = Population(pop.a, pop.b, pop.c, centered / scale)
    # only the mean square is checked: a mean far from 0 relative to the
    # spread leaves the rounded shift's error in the normalized mean
    if not abs(z_moments(normalized)[1] - 1.0) <= NORMALIZATION_TOL:
        raise ValueError(
            f"covariate scale {scale!r} is too small: the squares of z lose bits "
            "to subnormal rounding, so z cannot be normalized to mean square 1"
        )
    return normalized, ZNormalization(shift, scale)


def _compute_z_moments(pop: Population) -> tuple[float, float]:
    with np.errstate(over="ignore"):
        return _exact_mean(pop.z, "the mean of z"), _exact_mean(pop.z * pop.z, "the mean square of z")


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
    fixed, which is how asymptotic claims are probed here.  A factor
    whose columns numpy cannot build (too many elements for memory or
    for int64) raises :class:`ValueError` naming the factor.
    """
    if int(m) != m or m < 1:
        raise ValueError("replication factor must be a positive integer")
    m = int(m)
    if m == 1:
        return pop
    try:
        columns = [np.tile(pop.variable(v), m) for v in VARIABLES]
    except (ValueError, OverflowError, MemoryError):  # ValueError: numpy's "array is too big"
        raise ValueError(
            f"replication factor {m} is too large: {pop.n * m} subjects do not fit in memory"
        ) from None
    return Population(*columns)


def load_population(path) -> Population:
    """Read a population from CSV.

    The file is UTF-8, with or without a byte-order mark.  The header
    must name exactly the columns ``a,b,c,z`` (any order); every body
    cell must parse as a finite decimal number.  Rows are kept in file
    order.

    The file is opened once, and its body is parsed one of two ways with
    the same result.  numpy's C reader (:func:`_numpy_body`) takes it
    first, and its table is kept only if every non-empty line gave
    ``a,b,c,z``'s width in finite values.  Anything else (quotes, blank
    or ragged rows, underscores, non-ASCII digits, bad or non-finite
    cells) rewinds the handle for a ``csv.reader`` row loop
    (:func:`_csv_body`), which decides what is accepted and words every
    error.  A stream that cannot rewind, such as a pipe, is read into
    memory first, so it loads like the same bytes in a regular file.

    Cells of any length are read: the call raises
    ``csv.field_size_limit`` and restores it on return.  The limit is
    process-wide, so ``csv`` readers in other threads see it meanwhile.
    """
    limit = csv.field_size_limit(2**31 - 1)  # fits a C long on every platform
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            if not fh.seekable():
                fh = io.StringIO(fh.read(), newline="")
            names = _read_header(csv.reader(fh))
            table = _numpy_body(fh, len(names))
            if table is None:
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)  # the header, checked above
                table = _csv_body(reader, names)
    finally:
        csv.field_size_limit(limit)
    return Population(*(table[:, names.index(name)] for name in VARIABLES))


def _read_header(reader) -> list:
    """Column names of the header row, checked to be ``a,b,c,z`` in some order."""
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
    return names


def _numpy_body(fh, width):
    """The rest of ``fh`` as a ``(rows, width)`` table, or None to fall back.

    numpy accepts a subset of what :func:`_csv_body` accepts, with the
    same bits.  Without a quote character, both split lines at commas
    and at line feeds, CR LF pairs or lone carriage returns; numpy skips
    only empty lines, which the row loop skips too.  numpy strips the
    same whitespace as ``str.strip`` and converts the ASCII rest with
    the correctly rounded parser ``float`` uses, and it refuses quotes,
    underscores and non-ASCII digits, which ``float`` would take.
    """
    try:
        with warnings.catch_warnings():
            # "input contained no data" on a header-only file
            warnings.simplefilter("ignore")
            table = np.loadtxt(
                fh, delimiter=",", comments=None, quotechar=None, dtype=np.float64, ndmin=2
            )
    except ValueError:  # a bad or ragged cell, or bytes that are not UTF-8
        return None
    if table.shape[0] == 0 or table.shape[1] != width or not np.isfinite(table).all():
        return None
    return table


def _csv_body(reader, names) -> np.ndarray:
    """The remaining rows of ``reader``, skipping blank ones, parsed cell by cell.

    The first bad cell in file order is the one reported.
    """
    width = len(names)
    values = array("d")
    row_index = 0
    for row in reader:
        if not row or all(not cell.strip() for cell in row):
            continue
        row_index += 1
        if len(row) != width:
            raise PopulationFormatError(
                f"row {row_index}: expected {width} cells, found {len(row)}",
                row=row_index,
            )
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
            values.append(value)
    if row_index == 0:
        raise PopulationFormatError("empty body")
    return np.frombuffer(values, dtype=np.float64).reshape(row_index, width)
