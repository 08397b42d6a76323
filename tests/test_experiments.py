import csv
import threading
import time
import warnings

import numpy as np
import pytest

import triarm.experiments
from triarm import (
    GroupSizes,
    Population,
    SingularDesignError,
    contrast_symmetry_deviation,
    exact_distribution,
    itt_pair_variance,
    make_additive_population,
    make_interaction_population,
    make_orthogonal_population,
    moment_set,
    monte_carlo,
    normalize_z,
    order_checks,
    prop1_moments,
)
from triarm.assignment import assignment_count
from triarm.experiments import _Moments, _process_in_order
from triarm.scenarios import (
    conditional_constancy_population,
    curved_response_population,
    random_additive_population,
    random_conditional_constancy_population,
)

from conftest import contrast_var


class TestExactEngine:
    def test_unbalanced_table_numbers(self, table_pop):
        summary = exact_distribution(table_pop, GroupSizes(1, 1, 4))
        assert summary.assignment_count == 30
        assert summary.singular_count == 0
        np.testing.assert_allclose(summary.truth, [4 / 3, 7 / 3, 10 / 3], atol=1e-14)
        np.testing.assert_allclose(
            summary.mr_mean, [2.189473684210526, 3.189473684210526, 2.905263157894737], atol=1e-12
        )
        assert summary.mr_z_coef_mean == pytest.approx(-1 / 95, abs=1e-14)
        # swap symmetry: the B-A average difference over all labelings
        # equals the true difference exactly
        assert summary.mr_mean[1] - summary.mr_mean[0] == pytest.approx(1.0, abs=1e-12)

    def test_half_enumeration_mode(self, table_pop):
        summary = exact_distribution(table_pop, GroupSizes(1, 1, 4), mode="a-before-b")
        assert summary.assignment_count == 15
        np.testing.assert_allclose(summary.mr_mean[0], 4 / 15, atol=1e-12)
        assert summary.mr_z_coef_mean == pytest.approx(-1 / 95, abs=1e-13)

    def test_itt_unbiased_everywhere(self, table_pop):
        summary = exact_distribution(table_pop, GroupSizes(2, 2, 2))
        np.testing.assert_allclose(summary.itt_bias, 0.0, atol=1e-12)
        np.testing.assert_allclose(summary.itt_mean, summary.truth, atol=1e-12)

    def test_itt_cov_matches_closed_forms(self, table_pop):
        sizes = GroupSizes(2, 2, 2)
        summary = exact_distribution(table_pop, sizes)
        for i, (x, g) in enumerate(zip("abc", "ABC")):
            got = prop1_moments(table_pop, sizes, x, x, (g, "A" if g != "A" else "B"))
            assert summary.itt_cov[i, i] == pytest.approx(got.variance, abs=1e-12)
        assert contrast_var(summary.itt_cov) == pytest.approx(
            itt_pair_variance(table_pop, sizes, ("A", "C")), abs=1e-12
        )

    def test_balanced_additive_unbiased(self, table_pop):
        pop, _ = normalize_z(table_pop)
        summary = exact_distribution(pop, GroupSizes(2, 2, 2), keep_table=True)
        np.testing.assert_allclose(summary.mr_bias, 0.0, atol=1e-12)
        for pair in (("A", "B"), ("A", "C"), ("B", "C")):
            assert contrast_symmetry_deviation(summary, pair) <= 1e-12

    def test_conditional_constancy_unbiased(self):
        pop, _ = normalize_z(conditional_constancy_population())
        summary = exact_distribution(pop, GroupSizes(2, 2, 2))
        assert summary.singular_count == 0
        np.testing.assert_allclose(summary.mr_bias, 0.0, atol=1e-12)

    def test_singular_assignments_counted(self):
        pop = Population(
            [1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 2.0, 3.0], [5.0, 6.0, 7.0, 8.0], [1.0, 1.0, 2.0, 2.0]
        )
        summary = exact_distribution(pop, GroupSizes(1, 1, 2))
        # the covariate is constant on {1,2} and {3,4}; only those two
        # pair choices for the big group are singular
        assert summary.assignment_count == 12
        assert summary.singular_count == 4

    def test_all_singular_raises(self):
        pop = Population([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(SingularDesignError, match="all assignments"):
            exact_distribution(pop, GroupSizes(1, 1, 1))

    def test_threads_do_not_change_results(self, table_pop):
        a = exact_distribution(table_pop, GroupSizes(2, 2, 2), threads=1)
        b = exact_distribution(table_pop, GroupSizes(2, 2, 2), threads=3)
        np.testing.assert_array_equal(a.mr_mean, b.mr_mean)
        np.testing.assert_array_equal(a.mr_cov, b.mr_cov)

    def test_table_and_dump(self, table_pop, tmp_path):
        path = tmp_path / "dump.csv"
        summary = exact_distribution(
            table_pop, GroupSizes(1, 1, 4), keep_table=True, dump_path=path
        )
        assert len(summary.table.labels) == 30
        assert summary.table.labels[0] == "ABCCCC"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "assignment"
        assert len(rows) == 31
        # full-precision round trip of the first dumped adjusted estimate
        assert float(rows[1][4]) == summary.table.mr[0, 0]

    @pytest.mark.parametrize("mode", ["all", "a-before-b"])
    def test_enumerates_through_module_attribute(self, table_pop, monkeypatch, mode):
        # per-layer timings rebind ``experiments.iter_code_batches``; an
        # engine that stopped calling through it would time nothing
        original = triarm.experiments.iter_code_batches
        rows = []

        def counting(*args, **kwargs):
            for batch in original(*args, **kwargs):
                rows.append(len(batch))
                yield batch

        monkeypatch.setattr(triarm.experiments, "iter_code_batches", counting)
        sizes = GroupSizes(2, 2, 2)
        summary = exact_distribution(table_pop, sizes, mode=mode)
        assert rows and sum(rows) == summary.assignment_count == assignment_count(sizes, mode)


class TestProcessInOrder:
    @pytest.mark.parametrize("threads", [2, 3])
    def test_failure_cancels_queued_jobs(self, threads):
        # job 0 fails at once; the others hold their worker for a while,
        # so by the time the failure is seen every worker is busy and the
        # rest of the 2 * threads + 1 submitted jobs are still queued
        started = []
        lock = threading.Lock()

        def compute(job):
            with lock:
                started.append(job)
            if job == 0:
                raise RuntimeError("job 0 failed")
            time.sleep(0.5)
            return job

        with pytest.raises(RuntimeError, match="job 0 failed"):
            _process_in_order(range(20), compute, lambda res: None, threads)
        assert len(started) <= 1 + threads


class TestSymmetryHelper:
    def test_requires_table(self, table_pop):
        summary = exact_distribution(table_pop, GroupSizes(2, 2, 2))
        with pytest.raises(ValueError, match="keep_table"):
            contrast_symmetry_deviation(summary)

    def test_detects_asymmetry(self):
        rng = np.random.default_rng(2)
        pop = Population(*rng.uniform(-3, 3, size=(4, 6)))
        pop, _ = normalize_z(pop)
        summary = exact_distribution(pop, GroupSizes(1, 1, 4), keep_table=True)
        # unbalanced design, generic population: distribution is skewed
        assert contrast_symmetry_deviation(summary) > 1e-6


@pytest.mark.filterwarnings("ignore:q_tilde")
class TestMonteCarlo:
    def test_same_seed_identical(self, table_pop):
        sizes = GroupSizes(2, 2, 2)
        a = monte_carlo(table_pop, sizes, reps=5000, seed=123)
        b = monte_carlo(table_pop, sizes, reps=5000, seed=123)
        np.testing.assert_array_equal(a.mr_mean, b.mr_mean)
        np.testing.assert_array_equal(a.mr_cov, b.mr_cov)
        np.testing.assert_array_equal(a.zeta_skewness, b.zeta_skewness)

    def test_threads_do_not_change_results(self, table_pop):
        sizes = GroupSizes(2, 2, 2)
        a = monte_carlo(table_pop, sizes, reps=20_000, seed=5, threads=1)
        b = monte_carlo(table_pop, sizes, reps=20_000, seed=5, threads=3)
        for field in ("itt_mean", "mr_cov", "mean_nominal_cov", "zeta_kurtosis"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_reps_validated(self, table_pop):
        with pytest.raises(ValueError, match="at least 2"):
            monte_carlo(table_pop, GroupSizes(2, 2, 2), reps=1, seed=0)

    def test_itt_bias_within_four_se(self, table_pop):
        mc = monte_carlo(table_pop, GroupSizes(2, 2, 2), reps=50_000, seed=9)
        assert np.all(np.abs(mc.itt_bias) <= 4.0 * mc.itt_se)

    def test_matches_exact_distribution(self, table_pop):
        sizes = GroupSizes(2, 2, 2)
        exact = exact_distribution(table_pop, sizes)
        mc = monte_carlo(table_pop, sizes, reps=100_000, seed=10)
        assert np.all(np.abs(mc.itt_mean - exact.itt_mean) <= 4.0 * mc.itt_se)
        assert np.all(np.abs(mc.mr_mean - exact.mr_mean) <= 4.0 * mc.mr_se)

    def test_singular_draws_redrawn(self):
        # covariate constant inside the two natural pairs: singular draws
        # occur with probability 1/3 and must be redrawn, not dropped
        pop = Population(
            [1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 2.0, 3.0], [5.0, 6.0, 7.0, 8.0], [1.0, 1.0, 2.0, 2.0]
        )
        mc = monte_carlo(pop, GroupSizes(1, 1, 2), reps=3000, seed=4)
        assert mc.singular_redraws > 0
        assert np.all(np.isfinite(mc.mr_mean))

    def test_dump_written(self, table_pop, tmp_path):
        path = tmp_path / "mc.csv"
        mc = monte_carlo(table_pop, GroupSizes(2, 2, 2), reps=250, seed=1, dump_path=path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "replicate"
        assert len(rows) == 251
        assert mc.replicates == 250

    def test_zero_variance_lead_term_gives_nan_quietly(self):
        pop, _ = normalize_z(
            Population([1.0] * 6, [2.0] * 6, [3.0] * 6, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mc = monte_carlo(pop, GroupSizes(2, 2, 2), reps=1000, seed=1)
        assert np.all(np.isnan(mc.zeta_skewness))
        assert np.all(np.isnan(mc.zeta_kurtosis))


class TestMomentsAccumulator:
    # Tolerances sit 10-50x above the error measured in double precision.  With
    # the offset, the inputs themselves carry eps * 1e4 absolute error;
    # the raw-power-sum rebuild of the third moment misses by ~1e-3 there.
    @pytest.mark.parametrize("offset, rtol", [(0.0, 1e-13), (1e4, 1e-9)])
    def test_uneven_batches_match_two_pass(self, offset, rtol):
        rng = np.random.default_rng(0)
        x = rng.gamma(2.0, size=(1000, 3)) + offset
        acc = _Moments(3)
        for part in np.split(x, [1, 8, 8, 508]):  # includes an empty batch
            acc.add(part)
        d = x - x.mean(axis=0)
        assert acc.count == 1000
        np.testing.assert_allclose(acc.mean, x.mean(axis=0), rtol=1e-14)
        np.testing.assert_allclose(acc.m2, d.T @ d, rtol=rtol)
        np.testing.assert_allclose(acc.m3, (d**3).sum(axis=0), rtol=rtol)
        np.testing.assert_allclose(acc.m4, (d**4).sum(axis=0), rtol=rtol)


class TestPatternPopulations:
    def test_orthogonal_moments_exact(self):
        ms = moment_set(make_orthogonal_population(8, var_b=1.0))
        np.testing.assert_allclose(ms.covariance, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(ms.means, 0.0, atol=1e-15)

    def test_orthogonal_var_b(self):
        ms = moment_set(make_orthogonal_population(8, var_b=0.25))
        assert ms.var("b") == pytest.approx(0.25, abs=1e-12)
        assert ms.var("a") == pytest.approx(1.0, abs=1e-15)
        assert abs(ms.cov("a", "b")) <= 1e-15

    def test_non_multiple_of_eight_rejected(self):
        with pytest.raises(ValueError, match="multiple of 8"):
            make_orthogonal_population(12)

    def test_additive_population_structure(self):
        pop = make_additive_population(16, z_correlation=0.6)
        ms = moment_set(pop)
        assert ms.cov("a", "z") == pytest.approx(0.6, abs=1e-12)
        assert ms.var("a") == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(pop.b - pop.a, 1.0, atol=1e-15)

    def test_interaction_population_structure(self):
        pop = make_interaction_population(24, var_b=5 / 6)
        ms = moment_set(pop)
        assert ms.var("z") == pytest.approx(1.0, abs=1e-12)
        assert ms.var("b") == pytest.approx(5 / 6, abs=1e-12)
        assert abs(ms.cov("a", "b")) <= 1e-12
        np.testing.assert_allclose(pop.z, pop.a + pop.b + pop.c, atol=1e-15)


class TestRandomScenarioPopulations:
    def test_random_additive_normalized(self):
        rng = np.random.default_rng(6)
        pop = random_additive_population(rng, 9)
        ms = moment_set(pop)
        assert abs(ms.mean("z")) <= 1e-12
        assert ms.var("z") == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(pop.b - pop.a, (pop.b - pop.a)[0], atol=1e-12)

    def test_random_conditional_constancy(self):
        rng = np.random.default_rng(7)
        pop = random_conditional_constancy_population(rng)
        for column in (pop.a, pop.b, pop.c):
            assert column[:3].mean() == pytest.approx(column.mean(), abs=1e-12)
            assert column[3:].mean() == pytest.approx(column.mean(), abs=1e-12)


class TestVarianceCalibration:
    """Monte Carlo juxtaposition of empirical and conventional variances."""

    def test_nominal_too_big_with_full_b_variance(self, mc_orthogonal_full):
        mc = mc_orthogonal_full
        ratio = contrast_var(mc.mean_nominal_cov[:3, :3]) / contrast_var(mc.mr_cov)
        assert ratio == pytest.approx(8 / 6, rel=0.05)

    def test_nominal_too_small_with_small_b_variance(self, mc_orthogonal_small_b):
        mc = mc_orthogonal_small_b
        ratio = contrast_var(mc.mean_nominal_cov[:3, :3]) / contrast_var(mc.mr_cov)
        assert ratio == pytest.approx(5 / 6, rel=0.05)

    def test_residual_variance_converges(self, mc_orthogonal_full):
        assert mc_orthogonal_full.mean_sigma_hat_sq == pytest.approx(1.0, rel=0.02)

    def test_normality_of_lead_term(self, mc_normal_check):
        mc = mc_normal_check
        assert np.all(np.abs(mc.zeta_skewness) <= 0.1)
        assert np.all(np.abs(mc.zeta_kurtosis - 3.0) <= 0.2)

    def test_adjustment_helps_additive(self, mc_additive):
        mc = mc_additive
        assert contrast_var(mc.mr_cov) < contrast_var(mc.itt_cov)

    def test_adjustment_hurts_interaction(self, mc_interaction):
        mc = mc_interaction
        assert contrast_var(mc.mr_cov) > contrast_var(mc.itt_cov)


class TestOrderChecks:
    def test_additive_base_unbiased_at_every_m(self, table_pop):
        base, _ = normalize_z(table_pop)
        report = order_checks(base, GroupSizes(2, 2, 2), (5, 10), reps=20_000, seed=2)
        np.testing.assert_allclose(report.k, 0.0, atol=1e-12)
        for row in report.rows:
            assert np.all(np.abs(row.bias_scaled) <= row.bias_gate)

    def test_curved_base_bias_matches_k(self):
        base = curved_response_population()
        report = order_checks(base, GroupSizes(2, 2, 2), (20, 40), reps=50_000, seed=2)
        for row in report.rows:
            assert row.bias_ok

    def test_concentration_shrinks(self, order_report_frozen):
        devs = [row.max_dev_az for row in order_report_frozen.rows]
        assert devs[-1] < devs[0]

    def test_covariance_approaches_limit(self, order_report_frozen):
        devs = [row.cov_deviation for row in order_report_frozen.rows]
        assert devs[-1] < devs[0]

    def test_residual_variance_approaches_limit(self, order_report_frozen):
        rows = order_report_frozen.rows
        assert rows[-1].sigma_hat_mean == pytest.approx(order_report_frozen.sigma_sq, rel=0.02)

    def test_replicated_population_sizes(self, table_pop):
        base, _ = normalize_z(table_pop)
        report = order_checks(base, GroupSizes(2, 2, 2), (3,), reps=100, seed=0)
        assert report.rows[0].n == 18
