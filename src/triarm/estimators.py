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
  :func:`mr_via_normal_equations` is its one-row call.

Both return the same :class:`MREstimate` contract, including the
conventional ("nominal") covariance matrix, which randomization does
not actually justify; calibrating it is the point of the package.
"""

import math
from dataclasses import dataclass

import numpy as np

from .assignment import Assignment, GroupSizes, _check_group
from .population import moment_set

#: An assignment is singular when the mean square of the within-group
#: centered covariate falls below this.  True singularity (covariate in
#: the span of the group dummies) is exact; the slack absorbs roundoff.
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

    def effect(self, group: str) -> float:
        return float(self.as_vector()[_check_group(group)])


@dataclass(frozen=True)
class MREstimate(EffectEstimate):
    """Covariate-adjusted estimates plus the pieces behind them.

    ``q_hat`` is the adjustment slope (residual response on residual
    covariate), which is also the covariate coefficient of the full
    four-column regression (``z_coefficient``).  The routes are checked
    against each other, and both against generic least squares, in the
    tests.  ``residual_sq_e``, ``residual_sq_f`` and ``residual_ef`` are
    |e|^2, |f|^2 and e.f.  ``sigma_hat_sq`` and ``nominal_cov`` are None
    when n <= 4 (no residual degrees of freedom).
    """

    q_hat: float
    sigma_hat_sq: float | None
    nominal_cov: np.ndarray | None
    residual_sq_e: float
    residual_sq_f: float
    residual_ef: float
    n: int
    sizes: GroupSizes

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


def effect_difference(est, s: str, t: str) -> float:
    """effect(t) - effect(s); the estimate of the t-versus-s contrast."""
    if s == t:
        raise ValueError(f"groups must differ, got {s!r} twice")
    return est.effect(t) - est.effect(s)


def _xtx_inverse(counts: np.ndarray, zbar: np.ndarray, f_sq: np.ndarray) -> np.ndarray:
    """Closed-form (X'X)^-1 per row; ``f_sq`` is the covariate row's Schur complement."""
    inv = np.empty((f_sq.shape[0], 4, 4))
    inv[:, :3, :3] = (zbar[:, :, None] * zbar[:, None, :]) / f_sq[:, None, None]
    idx = np.arange(3)
    inv[:, idx, idx] += 1.0 / counts
    inv[:, :3, 3] = inv[:, 3, :3] = -zbar / f_sq[:, None]
    inv[:, 3, 3] = 1.0 / f_sq
    return inv


def _group_sum_regression(t, g, u, ysq, zsq, counts, n, want_nominal=False) -> dict:
    """Both estimators for m assignments from their raw group sums.

    ``t`` and ``g`` are (m, 3) per-group sums of Y and z, ``u`` and
    ``ysq`` are (m,) sums of zY and Y^2, ``zsq`` is the sum of z^2 and
    ``counts`` the float group counts.  Rows whose design is singular
    come back with ``valid`` False and NaN estimates.  ``sigma_hat_sq``
    (and so ``nominal_cov``) is NaN when n <= 4.
    """
    ybar = t / counts
    zbar = g / counts
    f_sq = zsq - (g * g / counts).sum(axis=1)
    valid = f_sq > SINGULARITY_TOL * n
    safe_f = np.where(valid, f_sq, np.nan)
    ef = u - (g * t / counts).sum(axis=1)
    q = ef / safe_f
    e_sq = ysq - (t * t / counts).sum(axis=1)
    if n > 4:
        # a residual sum of squares: clamp the roundoff of the subtraction at 0
        sigma_sq = np.maximum(e_sq - q * q * f_sq, 0.0) / (n - 4)
    else:
        sigma_sq = np.full(len(q), np.nan)
    out = {
        "itt": ybar,
        "mr": ybar - q[:, None] * zbar,
        "q_hat": q,
        "sigma_hat_sq": sigma_sq,
        "valid": valid,
        "e_sq": e_sq,
        "f_sq": f_sq,
        "ef": ef,
    }
    if want_nominal:
        out["nominal_cov"] = sigma_sq[:, None, None] * _xtx_inverse(counts, zbar, safe_f)
    return out


def _assemble(asg: Assignment, effects, q_hat, sigma_sq, nominal, e_sq, f_sq, ef) -> MREstimate:
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
        residual_ef=float(ef),
        n=asg.n,
        sizes=asg.sizes,
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
    return _assemble(asg, ybar - q_hat * zbar, q_hat, sigma_sq, nominal, float(e @ e), f_sq, ef)


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
        t[None], g[None], np.array([z @ Y]), np.array([Y @ Y]), z @ z, counts, asg.n, True
    )
    if not fit["valid"][0]:
        raise SingularDesignError()
    keys = ("mr", "q_hat", "sigma_hat_sq", "nominal_cov", "e_sq", "f_sq", "ef")
    return _assemble(asg, *(fit[key][0] for key in keys))


class BatchEvaluator:
    """Vectorized evaluation of both estimators over many assignments.

    Precomputes the per-population products once; each call then needs
    only group sums, either from label codes (enumeration) or from an
    index matrix whose leading columns are the A then B then C members
    (sampling).  Rows whose design is singular come back with ``valid``
    False and NaN estimates; callers decide whether to drop or redraw.
    Built with ``q_tilde``, results also carry the scaled lead term
    ``zeta``.
    """

    def __init__(self, pop, sizes: GroupSizes, q_tilde: float | None = None):
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
        # a BLAS dot, not an fsum: it fixes the kernel's output bits
        self.z_sum_sq = float(pop.z @ pop.z)
        self.q_tilde = q_tilde

    def _from_group_sums(self, t, g, zy, ysq, want_nominal):
        # zy: per-group sums of zY; its A column is also the group-A mean
        # of az that the Monte Carlo concentration check reads
        u = zy[:, 0] + zy[:, 1] + zy[:, 2]
        out = _group_sum_regression(
            t, g, u, ysq, self.z_sum_sq, self.counts, self.n, want_nominal
        )
        out["sum_az_a"] = zy[:, 0] / self.counts[0]
        if self.q_tilde is not None:
            dev = out["itt"] - self.truth
            out["zeta"] = np.sqrt(self.n) * (dev - self.q_tilde * (g / self.counts))
        return out

    def evaluate_codes(self, codes: np.ndarray, want_nominal=False):
        codes = np.asarray(codes)
        z = self.z
        t = np.empty((codes.shape[0], 3))
        g = np.empty_like(t)
        zy = np.empty_like(t)
        ysq = np.zeros(codes.shape[0])
        for k in range(3):
            mask = (codes == k).astype(np.float64)
            w = np.column_stack([self.responses[k], self.products[k], self.squares[k], z])
            sums = mask @ w
            t[:, k] = sums[:, 0]
            zy[:, k] = sums[:, 1]
            ysq += sums[:, 2]
            g[:, k] = sums[:, 3]
        return self._from_group_sums(t, g, zy, ysq, want_nominal)

    def evaluate_index(self, idx: np.ndarray, want_nominal=False):
        """Both estimators for the rows of an index matrix.

        Each group's column block is copied to a contiguous array once and
        gathered from with ``take``, so every per-row sum reads the same
        values in the same order as a fancy-index gather of the block.
        Rows are independent: evaluating a matrix in row chunks gives the
        rows of evaluating it whole.
        """
        n_a, n_b, _ = self.sizes.counts()
        bounds = (0, n_a, n_a + n_b, self.n)
        t = np.empty((idx.shape[0], 3))
        g = np.empty_like(t)
        zy = np.empty_like(t)
        ysq = np.zeros(idx.shape[0])
        for k in range(3):
            block = np.ascontiguousarray(idx[:, bounds[k] : bounds[k + 1]])
            t[:, k] = self.responses[k].take(block).sum(axis=1)
            zy[:, k] = self.products[k].take(block).sum(axis=1)
            ysq += self.squares[k].take(block).sum(axis=1)
            g[:, k] = self.z.take(block).sum(axis=1)
        return self._from_group_sums(t, g, zy, ysq, want_nominal)
