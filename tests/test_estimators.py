import math
import warnings

import numpy as np
import pytest

from triarm import (
    Assignment,
    BatchEvaluator,
    GroupSizes,
    Population,
    SingularDesignError,
    effect_difference,
    enumerate_assignments,
    itt_estimates,
    moment_set,
    mr_estimates,
    mr_via_normal_equations,
    normalize_z,
    observed_response,
)

TABLE_ASG = Assignment.from_labels("ABCCCC")


def random_instance(rng, n=None):
    """Random population + assignment with a comfortably regular design."""
    n = n or int(rng.integers(6, 13))
    pop = Population(*rng.uniform(-5, 5, size=(4, n)))
    counts = [1, 1, 1]
    for _ in range(n - 3):
        counts[int(rng.integers(0, 3))] += 1
    codes = np.repeat([0, 1, 2], counts)
    codes = codes[rng.permutation(n)]
    return pop, Assignment(codes)


def lstsq_reference(z, Y, asg):
    """Independent oracle: generic least squares on the design matrix."""
    u, v, w = (d.astype(float) for d in asg.dummies)
    design = np.column_stack([u, v, w, z])
    beta, *_ = np.linalg.lstsq(design, Y, rcond=None)
    return beta


class TestITT:
    def test_table_case(self, table_pop):
        y = observed_response(table_pop, TABLE_ASG)
        est = itt_estimates(y, TABLE_ASG)
        np.testing.assert_allclose(est.as_vector(), [0, 1, 4], atol=1e-15)

    def test_equal_responses_assignment_free(self):
        x = np.arange(6.0)
        pop = Population(x, x, x, x)
        vals = {
            tuple(itt_estimates(observed_response(pop, Assignment.from_labels(s)), Assignment.from_labels(s)).as_vector())
            for s in ("AABBCC", "CCBBAA")
        }
        # same multiset of group means is not required, but each estimate
        # only depends on which subjects landed where
        assert len(vals) == 2

    def test_unbiased_over_enumeration(self, table_pop):
        sizes = GroupSizes(2, 2, 2)
        total = np.zeros(3)
        count = 0
        for asg in enumerate_assignments(sizes):
            y = observed_response(table_pop, asg)
            total += itt_estimates(y, asg).as_vector()
            count += 1
        np.testing.assert_allclose(total / count, [4 / 3, 7 / 3, 10 / 3], atol=1e-13)


class TestMREstimates:
    def test_table_case(self, table_pop):
        y = observed_response(table_pop, TABLE_ASG)
        est = mr_estimates(table_pop.z, y, TABLE_ASG)
        assert est.q_hat == pytest.approx(1 / 3, abs=1e-15)
        np.testing.assert_allclose(est.as_vector(), [0, 1, 4], atol=1e-14)
        assert est.z_coefficient == pytest.approx(est.q_hat, abs=1e-10)

    def test_zero_group_means_collapse_to_itt(self):
        rng = np.random.default_rng(3)
        # covariate chosen so each group's mean is exactly zero
        z = np.array([0.0, 0.0, -1.0, 1.0, -2.0, 0.0, 2.0])
        asg = Assignment.from_labels("AABBCCC")
        pop = Population(*rng.uniform(-4, 4, size=(3, 7)), z)
        y = observed_response(pop, asg)
        est = mr_estimates(z, y, asg)
        np.testing.assert_allclose(est.as_vector(), itt_estimates(y, asg).as_vector(), atol=1e-12)

    def test_singular_design(self):
        pop = Population([1, 2, 3, 4], [1, 2, 3, 4], [1, 2, 3, 4], [1, 1, 2, 2])
        asg = Assignment.from_labels("ABCC")
        y = observed_response(pop, asg)
        with pytest.raises(SingularDesignError, match="singular design"):
            mr_estimates(pop.z, y, asg)
        with pytest.raises(SingularDesignError):
            mr_via_normal_equations(pop.z, y, asg)

    def test_agreement_between_routes(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            pop, asg = random_instance(rng)
            y = observed_response(pop, asg)
            one = mr_estimates(pop.z, y, asg)
            two = mr_via_normal_equations(pop.z, y, asg)
            np.testing.assert_allclose(one.as_vector(), two.as_vector(), atol=1e-10)
            assert one.q_hat == pytest.approx(two.q_hat, abs=1e-10)
            assert one.sigma_hat_sq == pytest.approx(two.sigma_hat_sq, abs=1e-10)

    def test_against_generic_least_squares(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            pop, asg = random_instance(rng)
            y = observed_response(pop, asg)
            est = mr_estimates(pop.z, y, asg)
            beta = lstsq_reference(pop.z, y, asg)
            np.testing.assert_allclose(est.as_vector(), beta[:3], atol=1e-9)
            assert est.z_coefficient == pytest.approx(beta[3], abs=1e-9)


class TestInvarianceProperties:
    def test_regression_shift_by_design_columns(self):
        # adding X @ theta to the response shifts the estimate by theta
        rng = np.random.default_rng(21)
        for _ in range(300):
            pop, asg = random_instance(rng)
            y = observed_response(pop, asg)
            theta = rng.uniform(-5, 5, size=4)
            u, v, w = (d.astype(float) for d in asg.dummies)
            shifted = y + theta[0] * u + theta[1] * v + theta[2] * w + theta[3] * pop.z
            base = mr_estimates(pop.z, y, asg)
            moved = mr_estimates(pop.z, shifted, asg)
            np.testing.assert_allclose(
                moved.as_vector(), base.as_vector() + theta[:3], atol=1e-10
            )
            assert moved.z_coefficient == pytest.approx(
                base.z_coefficient + theta[3], abs=1e-10
            )

    def test_z_coefficient_equals_residual_slope(self):
        # the covariate coefficient from the bordered solve equals
        # e.f/|f|^2 computed from explicit residual vectors
        rng = np.random.default_rng(22)
        for _ in range(300):
            pop, asg = random_instance(rng)
            y = observed_response(pop, asg)
            est = mr_via_normal_equations(pop.z, y, asg)
            counts = asg.sizes.counts()
            ybar = np.bincount(asg.codes, weights=y, minlength=3) / counts
            zbar = np.bincount(asg.codes, weights=pop.z, minlength=3) / counts
            e = y - ybar[asg.codes]
            f = pop.z - zbar[asg.codes]
            assert est.z_coefficient == pytest.approx(float(e @ f) / float(f @ f), abs=1e-10)

    def test_response_shifts_move_effects(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            pop, asg = random_instance(rng)
            shifts = rng.uniform(-4, 4, size=3)
            moved = Population(pop.a + shifts[0], pop.b + shifts[1], pop.c + shifts[2], pop.z)
            base = mr_estimates(pop.z, observed_response(pop, asg), asg)
            est = mr_estimates(pop.z, observed_response(moved, asg), asg)
            np.testing.assert_allclose(est.as_vector(), base.as_vector() + shifts, atol=1e-10)

    def test_z_scaling(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            pop, asg = random_instance(rng)
            y = observed_response(pop, asg)
            k = rng.uniform(0.1, 5.0) * rng.choice([-1, 1])
            base = mr_estimates(pop.z, y, asg)
            scaled = mr_estimates(k * pop.z, y, asg)
            assert scaled.q_hat == pytest.approx(base.q_hat / k, abs=1e-10)
            np.testing.assert_allclose(scaled.as_vector(), base.as_vector(), atol=1e-10)

    def test_z_translation(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            pop, asg = random_instance(rng)
            y = observed_response(pop, asg)
            k = rng.uniform(-5, 5)
            base = mr_estimates(pop.z, y, asg)
            moved = mr_estimates(pop.z + k, y, asg)
            assert moved.q_hat == pytest.approx(base.q_hat, abs=1e-10)
            # effects shift by the common offset -q*k; differences survive
            np.testing.assert_allclose(
                moved.as_vector(), base.as_vector() - base.q_hat * k, atol=1e-10
            )
            assert effect_difference(moved, "A", "C") == pytest.approx(
                effect_difference(base, "A", "C"), abs=1e-10
            )

    def test_squared_response_identity(self):
        # |Y|^2/n equals the fraction-weighted group means of the
        # squared responses: the dummies are orthogonal
        rng = np.random.default_rng(26)
        for _ in range(100):
            pop, asg = random_instance(rng)
            y = observed_response(pop, asg)
            lhs = float(y @ y) / pop.n
            fractions = asg.sizes.fractions()
            squares = (pop.a**2, pop.b**2, pop.c**2)
            rhs = sum(
                fr * sq[asg.codes == k].mean()
                for k, (fr, sq) in enumerate(zip(fractions, squares))
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestNominalCovariance:
    def test_table_sigma_hat(self, table_pop):
        y = observed_response(table_pop, TABLE_ASG)
        est = mr_estimates(table_pop.z, y, TABLE_ASG)
        assert est.sigma_hat_sq == pytest.approx(8 / 3, abs=1e-12)

    def test_perfect_fit_zero_sigma(self):
        rng = np.random.default_rng(31)
        pop, asg = random_instance(rng, n=8)
        u, v, w = (d.astype(float) for d in asg.dummies)
        y = 2.0 * u - 1.0 * v + 0.5 * w + 3.0 * pop.z
        est = mr_estimates(pop.z, y, asg)
        assert est.sigma_hat_sq == pytest.approx(0.0, abs=1e-12)

    def test_residual_variance_never_negative(self):
        # constant responses fit exactly: ΣY² - Σt²/n_k - q²|f|² cancels
        # to roundoff of either sign, and a sum of squares is clamped at 0
        pop, _ = normalize_z(
            Population([1.0] * 6, [2.0] * 6, [3.0] * 6, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        )
        codes = np.array([a.codes for a in enumerate_assignments(GroupSizes(2, 2, 2))])
        out = BatchEvaluator(pop, GroupSizes(2, 2, 2)).evaluate_codes(codes, want_nominal=True)
        assert np.all(out["sigma_hat_sq"] >= 0.0)
        assert np.all(out["nominal_cov"][:, np.arange(4), np.arange(4)] >= 0.0)

    def test_orthogonality_identity(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            pop, asg = random_instance(rng)
            y = observed_response(pop, asg)
            est = mr_estimates(pop.z, y, asg)
            counts = asg.sizes.counts()
            ybar = np.bincount(asg.codes, weights=y, minlength=3) / counts
            zbar = np.bincount(asg.codes, weights=pop.z, minlength=3) / counts
            e = y - ybar[asg.codes]
            f = pop.z - zbar[asg.codes]
            r = e - est.q_hat * f
            direct = float(r @ r)
            via_identity = est.residual_sq_e - est.q_hat**2 * est.residual_sq_f
            assert direct == pytest.approx(via_identity, abs=1e-10)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            pop, asg = random_instance(rng)
            y = observed_response(pop, asg)
            est = mr_estimates(pop.z, y, asg)
            np.testing.assert_allclose(est.nominal_cov, est.nominal_cov.T, atol=1e-12)
            assert np.linalg.eigvalsh(est.nominal_cov).min() >= -1e-9

    def test_against_generic_inverse(self):
        # independent oracle: sigma^2 (X'X)^-1 via dense inversion of the
        # explicitly assembled design cross-product
        rng = np.random.default_rng(34)
        for _ in range(100):
            pop, asg = random_instance(rng)
            y = observed_response(pop, asg)
            est = mr_estimates(pop.z, y, asg)
            u, v, w = (d.astype(float) for d in asg.dummies)
            design = np.column_stack([u, v, w, pop.z])
            residuals = y - design @ np.linalg.lstsq(design, y, rcond=None)[0]
            sigma_sq = float(residuals @ residuals) / (pop.n - 4)
            expected = sigma_sq * np.linalg.inv(design.T @ design)
            assert est.sigma_hat_sq == pytest.approx(sigma_sq, abs=1e-9)
            np.testing.assert_allclose(est.nominal_cov, expected, atol=1e-8)

    def test_insufficient_degrees_of_freedom(self):
        pop = Population([1, 2, 3, 4], [0, 1, 0, 1], [2, 2, 1, 1], [0.3, -0.3, 1.0, -1.0])
        asg = Assignment.from_labels("ABCC")
        est = mr_estimates(pop.z, observed_response(pop, asg), asg)
        assert est.sigma_hat_sq is None and est.nominal_cov is None


class TestEffectDifference:
    def test_from_itt(self, table_pop):
        y = observed_response(table_pop, TABLE_ASG)
        est = itt_estimates(y, TABLE_ASG)
        assert effect_difference(est, "A", "C") == pytest.approx(4.0)

    def test_same_group_rejected(self, table_pop):
        y = observed_response(table_pop, TABLE_ASG)
        with pytest.raises(ValueError, match="differ"):
            effect_difference(itt_estimates(y, TABLE_ASG), "B", "B")


class TestBatchEvaluator:
    def test_matches_scalar_routes(self):
        rng = np.random.default_rng(41)
        pop, _ = random_instance(rng, n=9)
        sizes = GroupSizes(2, 3, 4)
        base = np.repeat([0, 1, 2], [2, 3, 4]).astype(np.int8)
        codes = np.array([base[rng.permutation(9)] for _ in range(50)])
        out = BatchEvaluator(pop, sizes).evaluate_codes(codes, want_nominal=True)
        for i in range(codes.shape[0]):
            asg = Assignment(codes[i])
            y = observed_response(pop, asg)
            est = mr_estimates(pop.z, y, asg)
            itt = itt_estimates(y, asg)
            np.testing.assert_allclose(out["mr"][i], est.as_vector(), atol=1e-11)
            np.testing.assert_allclose(out["itt"][i], itt.as_vector(), atol=1e-12)
            assert out["q_hat"][i] == pytest.approx(est.q_hat, abs=1e-11)
            assert out["sigma_hat_sq"][i] == pytest.approx(est.sigma_hat_sq, abs=1e-11)
            np.testing.assert_allclose(out["nominal_cov"][i], est.nominal_cov, atol=1e-10)

    def test_truth_is_the_moment_set_means(self):
        rng = np.random.default_rng(43)
        pop, _ = random_instance(rng, n=11)
        truth = BatchEvaluator(pop, GroupSizes(3, 4, 4)).truth
        np.testing.assert_array_equal(truth, moment_set(pop).means[:3])
        assert truth.tolist() == [math.fsum(x.tolist()) / pop.n for x in (pop.a, pop.b, pop.c)]

    @pytest.mark.parametrize("name, scale", [("z", 1e200), ("c", 1e154)])
    def test_square_overflow_names_variable(self, name, scale):
        # every moment is finite; the squares, or n times their sum, are not
        columns = {v: np.arange(1.0, 7.0) for v in "abcz"}
        columns[name] = np.full(6, scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"sum of squares of {name} is not finite"):
                BatchEvaluator(Population(**columns), GroupSizes(2, 2, 2))

    def test_index_and_codes_paths_agree(self):
        rng = np.random.default_rng(42)
        pop, _ = random_instance(rng, n=8)
        sizes = GroupSizes(2, 3, 3)
        idx = np.array([rng.permutation(8) for _ in range(40)])
        ev = BatchEvaluator(pop, sizes)
        by_index = ev.evaluate_index(idx)
        codes = np.empty((40, 8), dtype=np.int8)
        for r in range(40):
            codes[r, idx[r, :2]] = 0
            codes[r, idx[r, 2:5]] = 1
            codes[r, idx[r, 5:]] = 2
        by_codes = ev.evaluate_codes(codes)
        np.testing.assert_allclose(by_index["mr"], by_codes["mr"], atol=1e-12)
        np.testing.assert_allclose(by_index["itt"], by_codes["itt"], atol=1e-12)
