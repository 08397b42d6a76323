"""Effect estimators: plain group means and covariate-adjusted regression.

The adjusted estimator regresses the observed response on the three
group indicators plus the covariate, with no intercept.  Two fully
independent computation routes are provided and cross-checked in tests:

* :func:`mr_estimates` works with explicit residual vectors: ``e`` is
  the response with group means removed, ``f`` the covariate with group
  means removed, the adjustment slope is ``e.f / |f|^2`` and the
  residual variance comes from the residual vector ``e - q f``.
* The group-sum route never forms residual vectors.  The design
  cross-product is diagonal-plus-border, so eliminating the covariate
  row by its Schur complement solves it in closed form from raw group
  sums.  One batched kernel implements it: :class:`BatchEvaluator` runs
  it over many assignments for the engines, and
  :func:`mr_via_normal_equations` is its one-row call; both get the
  nominal covariance from :func:`nominal_covariance`.  Group sums travel
  as (3, m) arrays, a row per group, added as ``0.0 + A + B + C``: numpy's
  row-wise sum of three, whose +0.0 start makes three -0.0 sum to +0.0.
  The (m, 3) results may be column-major views; never assume C order.

Both return the same :class:`MREstimate` contract, including the
conventional ("nominal") covariance matrix, which randomization does
not actually justify; calibrating it is the point of the package.
"""

import math
from dataclasses import dataclass

import numpy as np

from .assignment import Assignment, GroupSizes
from .population import moment_set

#: An assignment is singular when the mean square of the within-group
#: centered covariate falls below this.  True singularity (covariate in
#: the span of the group dummies) is exact; for a normalized ``z`` the
#: slack absorbs roundoff only.  The threshold is absolute, so for a ``z``
#: of another scale (``--normalize off``, or a library caller's raw
#: covariate) it moves with that scale: roundoff can clear it, and a
#: nonsingular design can fall below it (ROADMAP item 1, Defect B).
SINGULARITY_TOL = 1e-12


class SingularDesignError(ValueError):
    """The covariate is collinear with the group dummies for this assignment."""

    def __init__(self, message="singular design"):
        super().__init__(message)


@dataclass(frozen=True)
class EffectEstimate:
    """Effect estimates for groups A, B, C.

    Unadjusted (intention-to-treat) estimates are the group means of Y;
    :class:`MREstimate` extends this with the covariate adjustment.
    """

    effect_a: float
    effect_b: float
    effect_c: float

    def as_vector(self) -> np.ndarray:
        return np.array([self.effect_a, self.effect_b, self.effect_c])


@dataclass(frozen=True)
class MREstimate(EffectEstimate):
    """Covariate-adjusted estimates plus the pieces behind them.

    ``q_hat`` is the adjustment slope (residual response on residual
    covariate), which is also the covariate coefficient of the full
    four-column regression (``z_coefficient``).  The routes are checked
    against each other, and both against generic least squares, in the
    tests.  ``residual_sq_e`` and ``residual_sq_f`` are |e|^2 and |f|^2.
    ``sigma_hat_sq`` and ``nominal_cov`` are None when n <= 4 (no
    residual degrees of freedom).
    """

    q_hat: float
    sigma_hat_sq: float | None
    nominal_cov: np.ndarray | None
    residual_sq_e: float
    residual_sq_f: float

    @property
    def z_coefficient(self) -> float:
        """Covariate coefficient of the four-column regression; equals ``q_hat``."""
        return self.q_hat


def itt_estimates(Y, asg: Assignment) -> EffectEstimate:
    """Group means of the observed response."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape != (asg.n,):
        raise ValueError(f"length mismatch: expected {asg.n} responses, got {Y.shape}")
    sums = np.bincount(asg.codes, weights=Y, minlength=3)
    return EffectEstimate(*(sums / asg.sizes.counts()))


def _xtx_inverse(counts: np.ndarray, zbar: np.ndarray, f_sq: np.ndarray) -> np.ndarray:
    """Closed-form (X'X)^-1 per row; ``f_sq`` is the covariate row's Schur complement."""
    inv = np.empty((f_sq.shape[0], 4, 4))
    inv[:, :3, :3] = (zbar[:, :, None] * zbar[:, None, :]) / f_sq[:, None, None]
    idx = np.arange(3)
    inv[:, idx, idx] += 1.0 / counts
    inv[:, :3, 3] = inv[:, 3, :3] = -zbar / f_sq[:, None]
    inv[:, 3, 3] = 1.0 / f_sq
    return inv


def _group_sum_regression(t, g, u, ysq, zsq, counts, n) -> dict:
    """Both estimators for m assignments from their raw group sums.

    ``t`` and ``g`` are (3, m) per-group sums of Y and z (or three (m,)
    columns); ``u`` and ``ysq`` are (m,) sums of zY and Y^2, ``zsq`` the
    sum of z^2 and ``counts`` the float group counts.  Rows whose design
    is singular come back with ``valid`` False and NaN estimates.
    ``sigma_hat_sq`` is NaN when n <= 4.  ``itt``, ``mr`` and ``zbar``
    (the z group means) are column-major (m, 3) arrays.
    """
    t, g = np.asarray(t), np.asarray(g)
    # g*g, g*t, t*t over n_k, one (3, m) block each, summed over the
    # groups as numpy's row-wise sum of three: +0.0, A, B, C
    p = np.empty((3,) + t.shape)
    np.multiply(g, g, out=p[0])
    np.multiply(g, t, out=p[1])
    np.multiply(t, t, out=p[2])
    p /= counts[:, None]
    acc = np.add(p[:, 0], 0.0)
    acc += p[:, 1]
    acc += p[:, 2]
    gg, gt, tt = acc
    ybar = (t / counts[:, None]).T
    zbar = (g / counts[:, None]).T
    f_sq = zsq - gg
    valid = f_sq > SINGULARITY_TOL * n
    q = (u - gt) / np.where(valid, f_sq, np.nan)
    e_sq = ysq - tt
    if n > 4:
        # a residual sum of squares: clamp the roundoff of the subtraction at 0
        sigma_sq = np.maximum(e_sq - q * q * f_sq, 0.0) / (n - 4)
    else:
        sigma_sq = np.full(len(q), np.nan)
    return {
        "itt": ybar,
        "mr": ybar - q[:, None] * zbar,
        "q_hat": q,
        "sigma_hat_sq": sigma_sq,
        "valid": valid,
        "e_sq": e_sq,
        "f_sq": f_sq,
        "zbar": zbar,
    }


def nominal_covariance(fit: dict, counts: np.ndarray) -> np.ndarray:
    """sigma_hat^2 (X'X)^-1 per row of a kernel result; NaN on singular rows and when n <= 4."""
    safe_f = np.where(fit["valid"], fit["f_sq"], np.nan)
    return fit["sigma_hat_sq"][:, None, None] * _xtx_inverse(counts, fit["zbar"], safe_f)


def _assemble(asg: Assignment, effects, q_hat, sigma_sq, nominal, e_sq, f_sq) -> MREstimate:
    if asg.n > 4:
        sigma_sq = float(sigma_sq)
        nominal = np.array(nominal, dtype=np.float64)
        nominal.setflags(write=False)
    else:
        sigma_sq = nominal = None
    return MREstimate(
        effect_a=float(effects[0]),
        effect_b=float(effects[1]),
        effect_c=float(effects[2]),
        q_hat=float(q_hat),
        sigma_hat_sq=sigma_sq,
        nominal_cov=nominal,
        residual_sq_e=float(e_sq),
        residual_sq_f=float(f_sq),
    )


def _validated(z, Y, asg: Assignment):
    z = np.asarray(z, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if z.shape != (asg.n,) or Y.shape != (asg.n,):
        raise ValueError("covariate/response length must match the assignment")
    return z, Y


def mr_estimates(z, Y, asg: Assignment) -> MREstimate:
    """Adjusted estimates via explicit residual vectors."""
    z, Y = _validated(z, Y, asg)
    counts = asg.sizes.counts()
    ybar = np.bincount(asg.codes, weights=Y, minlength=3) / counts
    zbar = np.bincount(asg.codes, weights=z, minlength=3) / counts
    e = Y - ybar[asg.codes]
    f = z - zbar[asg.codes]
    f_sq = float(f @ f)
    if f_sq <= SINGULARITY_TOL * asg.n:
        raise SingularDesignError()
    ef = float(e @ f)
    q_hat = ef / f_sq
    r = e - q_hat * f
    sigma_sq = float(r @ r) / (asg.n - 4) if asg.n > 4 else math.nan
    nominal = sigma_sq * _xtx_inverse(counts, zbar[None], np.array([f_sq]))[0]
    return _assemble(asg, ybar - q_hat * zbar, q_hat, sigma_sq, nominal, float(e @ e), f_sq)


def mr_via_normal_equations(z, Y, asg: Assignment) -> MREstimate:
    """Adjusted estimates via the bordered cross-product system.

    Builds the raw sums behind X'X and X'Y and hands them to the batched
    group-sum kernel as a single row; never forms residual vectors.
    """
    z, Y = _validated(z, Y, asg)
    counts = asg.sizes.counts().astype(float)
    t = np.bincount(asg.codes, weights=Y, minlength=3)  # response sums per group
    g = np.bincount(asg.codes, weights=z, minlength=3)  # covariate sums per group
    fit = _group_sum_regression(
        t[:, None], g[:, None], np.array([z @ Y]), np.array([Y @ Y]), z @ z, counts, asg.n
    )
    if not fit["valid"][0]:
        raise SingularDesignError()
    fit["nominal_cov"] = nominal_covariance(fit, counts)
    keys = ("mr", "q_hat", "sigma_hat_sq", "nominal_cov", "e_sq", "f_sq")
    return _assemble(asg, *(fit[key][0] for key in keys))


class BatchEvaluator:
    """Vectorized evaluation of both estimators over many assignments.

    Precomputes the per-population products once; each call then needs
    only group sums, either from label codes (enumeration) or from an
    index matrix whose leading columns are the A then B then C members
    (sampling).  Rows whose design is singular come back with ``valid``
    False and NaN estimates; callers decide whether to drop or redraw.
    Both entry points fill one (3, m, 4) block of per-group sums of Y, zY,
    Y^2 and z, and return the kernel's keys plus ``az_a``, group A's mean of
    ``a * z``; the (m, 3) results may be column-major views, never assume C
    order.  The nominal covariance comes from :func:`nominal_covariance`.
    """

    def __init__(self, pop, sizes: GroupSizes):
        sizes.validate_for(pop.n)
        # exactly rounded means, and any overflow refused before the
        # products below are formed: engine biases are gated at 1e-12
        self.truth = moment_set(pop).means[:3]
        self.n = pop.n
        self.sizes = sizes
        self.counts = sizes.counts().astype(float)
        self.z = pop.z
        self.responses = (pop.a, pop.b, pop.c)
        self.products = (pop.a * pop.z, pop.b * pop.z, pop.c * pop.z)
        # n * sum(x^2) bounds every t^2 and g * t the kernel forms, so a
        # finite bound for each variable keeps the kernel in range
        with np.errstate(over="ignore"):
            self.squares = (pop.a * pop.a, pop.b * pop.b, pop.c * pop.c)
            for name, sq in zip("abcz", self.squares + (pop.z * pop.z,)):
                if not math.isfinite(self.n * float(sq.sum())):
                    raise ValueError(
                        f"n times the sum of squares of {name} is not finite: "
                        "the population's values are too large"
                    )
        # each group's (n, 4) operand: Y, zY, Y^2 and z, summed by both entry points
        self.group_columns = tuple(
            np.column_stack([self.responses[k], self.products[k], self.squares[k], self.z])
            for k in range(3)
        )
        # a BLAS dot, not a population sum (population._exact_sum, which has
        # math.fsum's bits): it fixes the kernel's output bits
        self.z_sum_sq = float(pop.z @ pop.z)

    def _from_group_sums(self, t, g, zy, ysq):
        # (3, m) per-group sums, or three (m,) columns each; added A, B, C
        u = zy[0] + zy[1] + zy[2]
        y_sq = 0.0 + ysq[0] + ysq[1] + ysq[2]
        out = _group_sum_regression(t, g, u, y_sq, self.z_sum_sq, self.counts, self.n)
        out["az_a"] = zy[0] / self.counts[0]
        return out

    def evaluate_codes(self, codes: np.ndarray):
        codes = np.asarray(codes)
        sums = np.empty((3, len(codes), 4))
        mask = np.empty(codes.shape)  # one 0.0/1.0 mask, refilled per group
        for k in range(3):
            np.equal(codes, k, out=mask, casting="unsafe")
            np.matmul(mask, self.group_columns[k], out=sums[k])
        # freed before the kernel allocates: held to the end of the call,
        # it slowed these batches by about a third through page faults
        del mask
        t, zy, ysq, g = np.moveaxis(sums, 2, 0)
        return self._from_group_sums(t, g, zy, ysq)

    def evaluate_index(self, idx: np.ndarray):
        """Both estimators for the rows of an index matrix.

        Each group's column block is copied to a contiguous array once and
        gathered from with ``take``, so every per-row sum reads the same
        values in the same order as a fancy-index gather of the block.
        Rows are independent: evaluating a matrix in row chunks gives the
        rows of evaluating it whole.
        """
        n_a, n_b, _ = self.sizes.counts()
        bounds = (0, n_a, n_a + n_b, self.n)
        sums = np.empty((3, len(idx), 4))
        for k in range(3):
            block = np.ascontiguousarray(idx[:, bounds[k] : bounds[k + 1]])
            np.stack([x.take(block).sum(axis=1) for x in self.group_columns[k].T], axis=1, out=sums[k])
        t, zy, ysq, g = np.moveaxis(sums, 2, 0)
        return self._from_group_sums(t, g, zy, ysq)
