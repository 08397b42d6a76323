import itertools
import math
import os
import platform
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import triarm.assignment
from triarm import (
    Assignment,
    BatchEvaluator,
    GroupSizes,
    Population,
    SingularDesignError,
    enumerate_assignments,
    itt_estimates,
    moment_set,
    mr_estimates,
    mr_via_normal_equations,
    normalize_z,
    observed_response,
)
from triarm.assignment import _TABLE_POSITIONS, iter_code_batches
from triarm.estimators import SINGULARITY_TOL, _group_sum_regression, nominal_covariance

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
            moved_a, _, moved_c = moved.as_vector()
            base_a, _, base_c = base.as_vector()
            assert moved_c - moved_a == pytest.approx(base_c - base_a, abs=1e-10)

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
        [batch] = iter_code_batches(GroupSizes(2, 2, 2))
        ev = BatchEvaluator(pop, GroupSizes(2, 2, 2))
        out = ev.evaluate_codes(batch)
        nominal_cov = nominal_covariance(out, ev.counts)
        assert np.all(out["sigma_hat_sq"] >= 0.0)
        assert np.all(nominal_cov[:, np.arange(4), np.arange(4)] >= 0.0)

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


class TestBatchEvaluator:
    def test_matches_scalar_routes(self):
        rng = np.random.default_rng(41)
        pop, _ = random_instance(rng, n=9)
        sizes = GroupSizes(2, 3, 4)
        base = np.repeat([0, 1, 2], [2, 3, 4]).astype(np.int8)
        codes = np.array([base[rng.permutation(9)] for _ in range(50)])
        ev = BatchEvaluator(pop, sizes)
        out = ev.evaluate_sums(mask_sums(pop, codes))
        nominal_cov = nominal_covariance(out, ev.counts)
        for i in range(codes.shape[0]):
            asg = Assignment(codes[i])
            y = observed_response(pop, asg)
            est = mr_estimates(pop.z, y, asg)
            itt = itt_estimates(y, asg)
            np.testing.assert_allclose(out["mr"][i], est.as_vector(), atol=1e-11)
            np.testing.assert_allclose(out["itt"][i], itt.as_vector(), atol=1e-12)
            assert out["q_hat"][i] == pytest.approx(est.q_hat, abs=1e-11)
            assert out["sigma_hat_sq"][i] == pytest.approx(est.sigma_hat_sq, abs=1e-11)
            np.testing.assert_allclose(nominal_cov[i], est.nominal_cov, atol=1e-10)

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
        by_codes = ev.evaluate_sums(mask_sums(pop, codes))
        assert by_index.keys() == by_codes.keys()
        for key in by_index:
            np.testing.assert_allclose(by_index[key], by_codes[key], atol=1e-12, err_msg=key)

    def test_bits_match_per_group_reference(self, monkeypatch):
        # Random populations at n = 6..15, then one whose arm A responses
        # are all -0.0: numpy's sums and the table sums start from +0.0,
        # so its group sums come out as +0.0 and its g*t terms as -0.0
        # wherever g < 0; the evaluator must keep exactly those signs.
        # 97-row batches cut prefix runs.
        monkeypatch.setattr(triarm.assignment, "_BATCH_ROWS", 97)
        rng = np.random.default_rng(44)
        cases = []
        for n in range(6, 16):
            sizes = GroupSizes(*rng.multinomial(n - 3, [1 / 3] * 3) + 1)
            cases.append((Population(*rng.uniform(-5, 5, size=(4, n))), sizes))
        zeros = Population([-0.0] * 6, [1.0, -2.0, 0.5, 3.0, -1.0, 2.0], [2.0] * 6, np.arange(6.0) - 2)
        cases.append((zeros, GroupSizes(1, 1, 4)))
        for pop, sizes in cases:
            ev = BatchEvaluator(pop, sizes)
            idx = np.array([rng.permutation(pop.n) for _ in range(60)])
            checks = [(ev.evaluate_index(idx), per_group_reference(ev, pop, idx=idx))]
            for batch in itertools.islice(iter_code_batches(sizes), 3):
                checks.append((ev.evaluate_codes(batch), per_group_reference(ev, pop, codes=batch.codes)))
            for got, want in checks:
                assert_same_output(got, want)

    # 5,5,5 and 2,3,10 have no middle positions, 2,2,14 has 2 and 2,2,16
    # has 4, one chunk; 97-row and 1-row batches cut prefix runs
    @pytest.mark.parametrize("batch_rows, batches", [(4096, 8), (97, 60), (1, 300)])
    @pytest.mark.parametrize(
        "sizes, mode",
        [
            ("5,5,5", "all"),
            ("5,5,5", "a-before-b"),
            ("2,3,10", "all"),
            ("2,2,14", "all"),
            ("2,2,14", "a-before-b"),
            ("2,2,16", "all"),
            ("2,2,16", "a-before-b"),
        ],
    )
    def test_enumerated_bits_match_per_group_reference(self, monkeypatch, sizes, mode, batch_rows, batches):
        monkeypatch.setattr(triarm.assignment, "_BATCH_ROWS", batch_rows)
        sizes = GroupSizes(*map(int, sizes.split(",")))
        pop = Population(*np.random.default_rng(sizes.n).uniform(-5, 5, size=(4, sizes.n)))
        ev = BatchEvaluator(pop, sizes)
        # every batch of the smaller designs; the first ones of the rest
        for batch in itertools.islice(iter_code_batches(sizes, mode), batches):
            want = per_group_reference(ev, pop, codes=batch.codes)
            assert_same_output(ev.evaluate_codes(batch), want)
            # the reference sums are group sums: the mask products agree to roundoff
            np.testing.assert_allclose(
                table_order_sums(pop, batch.codes), mask_sums(pop, batch.codes), rtol=1e-13, atol=1e-13
            )

    def test_exact_engine_does_not_depend_on_blas_kernel(self, tmp_path):
        # Evaluates every enumerated batch at 5,5,5 (n = 15), 2,2,14 (n = 18)
        # and 2,2,16 (n = 20) under the default OpenBLAS kernel and under the
        # forced Prescott kernel.  The group sums, and every output computed
        # from them alone, must keep their bytes.  mr and q_hat also read
        # z_sum_sq, a BLAS dot whose bits do depend on the kernel today, so
        # they are not compared.
        if platform.machine().lower() not in ("x86_64", "amd64"):
            pytest.skip("OPENBLAS_CORETYPE names x86-64 kernels")
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            pytest.skip("numpy does not report its BLAS build (numpy < 1.26)")
        if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
            pytest.skip(f"numpy links {blas.get('name')!r}, not a DYNAMIC_ARCH OpenBLAS")
        # Prescott needs SSE3, which numpy's own x86-64 baseline requires:
        # a CPU that imports numpy can run it.
        root = Path(__file__).resolve().parent.parent
        script = textwrap.dedent(
            """
            import sys
            import numpy as np
            from workloads import generate_population
            from triarm import BatchEvaluator, GroupSizes, Population, normalize_z
            from triarm.assignment import iter_code_batches
            keys = ("itt", "zbar", "az_a", "e_sq")
            out = {}
            for sizes in ((5, 5, 5), (2, 2, 14), (2, 2, 16)):
                sizes = GroupSizes(*sizes)
                pop, _ = normalize_z(Population(**generate_population(5, sizes.n)))
                ev = BatchEvaluator(pop, sizes)
                res = [ev.evaluate_codes(batch) for batch in iter_code_batches(sizes)]
                for k in keys:
                    out[f"{sizes.n}_{k}"] = np.concatenate([r[k] for r in res])
            np.savez(sys.argv[1], **out)
            """
        )
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
        outputs = []
        for coretype in (None, "Prescott"):
            path = tmp_path / f"{coretype}.npz"
            run_env = env if coretype is None else dict(env, OPENBLAS_CORETYPE=coretype)
            proc = subprocess.run(
                [sys.executable, "-c", script, str(path)], env=run_env, capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            with np.load(path) as arrays:
                outputs.append({key: arrays[key] for key in arrays.files})
        default, prescott = outputs
        assert default["15_itt"].shape == (756_756, 3)
        assert default["18_itt"].shape == (18_360, 3)
        assert default["20_itt"].shape == (29_070, 3)
        for key, value in default.items():
            differ = np.count_nonzero(value.view(np.int64) != prescott[key].view(np.int64))
            assert differ == 0, f"{key}: {differ} elements differ between BLAS kernels"


def assert_same_output(got, want):
    """Same keys, same bits and same signs of zero, NaN where NaN."""
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert np.array_equal(got[key], value, equal_nan=True), key
        np.testing.assert_array_equal(np.signbit(got[key]), np.signbit(value), key)


def operand_columns(pop, k):
    """Group k's per-subject values of Y, zY, Y^2 and z."""
    y = (pop.a, pop.b, pop.c)[k]
    return (y, y * pop.z, y**2, pop.z)


def mask_sums(pop, codes):
    """(4, 3, m) group sums of arbitrary label ``codes``: 0/1-mask matrix products."""
    sums = np.empty((4, 3, len(codes)))
    for k in range(3):
        sums[:, k] = np.column_stack(operand_columns(pop, k)).T @ (codes == k).T.astype(float)
    return sums


def table_order_sums(pop, codes):
    """(4, 3, m) group sums of enumerated ``codes`` in the exact engine's order.

    Each row's positions fall into the last ``tail``, the first ``head``
    and chunks of at most ``_TABLE_POSITIONS`` in between, in that order;
    each part's sums start at +0.0 and add the group's members in
    position order, and the parts' sums are added in that order.
    """
    n = codes.shape[1]
    head = min(n // 2, _TABLE_POSITIONS)
    tail = min(n - head, _TABLE_POSITIONS)
    parts = [range(n - tail, n), range(head)]
    parts += [range(lo, min(lo + _TABLE_POSITIONS, n - tail)) for lo in range(head, n - tail, _TABLE_POSITIONS)]
    total = None
    for part in parts:
        sums = np.zeros((4, 3, len(codes)))
        for pos in part:
            for k in range(3):
                member = codes[:, pos] == k
                for q, x in enumerate(operand_columns(pop, k)):
                    sums[q, k] = np.where(member, sums[q, k] + x[pos], sums[q, k])
        total = sums if total is None else total + sums
    return total


def per_group_reference(ev, pop, codes=None, idx=None):
    """``BatchEvaluator`` output built from separate per-group sum routes.

    With enumerated ``codes``, the sums are :func:`table_order_sums`; with
    ``idx``, each is a ``take(...).sum(axis=1)`` gather of that group's
    contiguous columns.
    """
    if codes is not None:
        sums = table_order_sums(pop, codes)
    else:
        sums = np.empty((4, 3, len(idx)))
        for k in range(3):
            lo = int(ev.counts[:k].sum())
            block = np.ascontiguousarray(idx[:, lo : lo + int(ev.counts[k])])
            for q, x in enumerate(operand_columns(pop, k)):
                sums[q, k] = x.take(block).sum(axis=1)
    t, zy, ysq, g = (np.ascontiguousarray(s.T) for s in sums)
    u = zy[:, 0] + zy[:, 1] + zy[:, 2]  # no zero start, as the evaluator adds it
    out = rowwise_group_sum_regression(t, g, u, ysq.sum(axis=1), pop.z @ pop.z, ev.counts, pop.n)
    out["az_a"] = zy[:, 0] / ev.counts[0]
    return out


def rowwise_group_sum_regression(t, g, u, ysq, zsq, counts, n):
    """The group-sum kernel on (m, 3) sums, each sum over the groups written out.

    Means multiply by ``1.0 / counts``; each of ``g*zbar``, ``g*ybar`` and
    ``t*ybar`` is summed as ``0.0 + x0*y0 + x1*y1 + x2*y2``.
    """

    def over_groups(x, y):
        return 0.0 + x[:, 0] * y[:, 0] + x[:, 1] * y[:, 1] + x[:, 2] * y[:, 2]

    inv = 1.0 / counts
    ybar = t * inv
    zbar = g * inv
    f_sq = zsq - over_groups(g, zbar)
    valid = f_sq > SINGULARITY_TOL * n
    ef = u - over_groups(g, ybar)
    q = ef / np.where(valid, f_sq, np.nan)
    e_sq = ysq - over_groups(t, ybar)
    if n > 4:
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


#: 18 values whose sums of three hit signed zeros, subnormals, overflow,
#: infinities and NaN
SPECIAL_VALUES = [
    0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 7.0, 1e-16, -1e-16,
    1e-300, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan,
]

GROUP_SUMS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e150, -1e150]),
    st.floats(min_value=-1e150, max_value=1e150),
)


def assert_same_kernel_output(t, g, u, ysq, zsq, counts, n):
    with np.errstate(all="ignore"):
        expected = rowwise_group_sum_regression(t, g, u, ysq, zsq, counts, n)
        got = _group_sum_regression(tuple(t.T), tuple(g.T), u, ysq, zsq, counts, n)
        expected["nominal_cov"] = nominal_covariance(expected, counts)
        got["nominal_cov"] = nominal_covariance(got, counts)
    assert got.keys() == expected.keys()
    for key, want in expected.items():
        np.testing.assert_array_equal(got[key], want, err_msg=key)
        np.testing.assert_array_equal(np.signbit(got[key]), np.signbit(want), err_msg=key)


class TestGroupSumKernel:
    """The column kernel gives the bits of the row-wise kernel with its sums written out."""

    def test_numpy_sums_three_from_a_zero_start(self):
        # the evaluator's ``0.0 + A + B + C`` sum of Y^2 rests on this order
        rows = np.array(list(itertools.product(SPECIAL_VALUES, repeat=3)))
        with np.errstate(all="ignore"):
            expected = rows.sum(axis=1)
            got = 0.0 + rows[:, 0] + rows[:, 1] + rows[:, 2]
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))

    def test_einsum_sums_three_products_from_a_zero_start(self):
        # the kernel's einsum contractions rest on this order: each product
        # rounded on its own, then +0.0 + p0 + p1 + p2.  The random rows
        # fail on a numpy build that fuses the multiply and the add.
        rows = np.array(list(itertools.product(SPECIAL_VALUES, repeat=3))).T
        rng = np.random.default_rng(45)
        noise = rng.normal(size=(3, 10_000))
        pairs = [(rows, rows), (rows, rows[::-1].copy()), (noise, noise * (1.0 / 3.0))]
        for x, y in pairs:
            with np.errstate(all="ignore"):
                expected = 0.0 + x[0] * y[0] + x[1] * y[1] + x[2] * y[2]
                got = np.einsum("km,km->m", x, y)
            np.testing.assert_array_equal(got, expected)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))

    def test_single_rows_match_rowwise_kernel(self):
        # a one-column (3, 1) contraction, as a one-row batch or
        # mr_via_normal_equations forms it, keeps the order of many columns
        rng = np.random.default_rng(46)
        counts = np.array([2.0, 3.0, 4.0])
        for _ in range(300):
            t, g = rng.normal(size=(2, 1, 3))
            u, ysq = rng.normal(size=(2, 1))
            assert_same_kernel_output(t, g, u, ysq + 30.0, 40.0, counts, 9)

    def test_negative_zero_terms(self):
        # every g * t / counts term is -0.0: the row-wise sum is +0.0, so
        # ef = -0.0 - 0.0 stays -0.0 and so do q_hat and its products
        t = np.array([[1.0, 2.0, 3.0]])
        g = np.array([[-0.0, -0.0, -0.0]])
        assert_same_kernel_output(
            t, g, np.array([-0.0]), np.array([14.0]), 1.0, np.array([1.0, 2.0, 3.0]), 6
        )

    @settings(max_examples=200)
    @given(data=st.data(), m=st.integers(1, 5), sizes=st.tuples(*[st.integers(1, 4)] * 3))
    def test_matches_rowwise_kernel(self, data, m, sizes):
        t, g = (data.draw(arrays(np.float64, (m, 3), elements=GROUP_SUMS)) for _ in range(2))
        u, ysq = (data.draw(arrays(np.float64, m, elements=GROUP_SUMS)) for _ in range(2))
        zsq = data.draw(GROUP_SUMS)
        counts = np.array(sizes, dtype=float)
        assert_same_kernel_output(t, g, u, ysq, zsq, counts, sum(sizes))
