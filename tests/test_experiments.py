import concurrent.futures
import csv
import dataclasses
import functools
import itertools
import os
import platform
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest

import triarm.experiments
from triarm import (
    Assignment,
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
from triarm.assignment import CodeBatch, assignment_count, enumerate_assignments, worker_generator
from triarm.cli import main
from triarm.estimators import BatchEvaluator, nominal_covariance
from triarm.experiments import _batch_plan, _Moments, _process_in_order
from triarm.scenarios import (
    conditional_constancy_population,
    curved_response_population,
    random_additive_population,
    random_conditional_constancy_population,
)

from conftest import contrast_var
from test_estimators import mask_sums


def reference_dump(path, first_column, batches):
    """The dump of ``batches``, written row by row by ``csv.writer``.

    ``batches`` are the result dicts the engine dumped, in order.  Exact
    rows are keyed by the label sequences the engine passed with them,
    Monte Carlo rows by replicate index; every value is written as
    ``repr(float(v))``.
    """
    written = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [first_column, "itt_a", "itt_b", "itt_c", "mr_a", "mr_b", "mr_c", "q_hat", "sigma_hat_sq"]
        )
        for res in batches:
            rows = len(res["q_hat"])
            if first_column == "assignment":
                keys = res["keys"]
            else:
                keys = range(written, written + rows)
            written += rows
            for i, key in enumerate(keys):
                writer.writerow(
                    [key]
                    + [repr(float(v)) for v in res["itt"][i]]
                    + [repr(float(v)) for v in res["mr"][i]]
                    + [repr(float(res["q_hat"][i])), repr(float(res["sigma_hat_sq"][i]))]
                )


def fixed_batches(monkeypatch, rows):
    """Make ``monte_carlo`` plan ``rows``-row batches instead of its formula's."""

    def plan(reps, n):
        for start in range(0, reps, rows):
            yield start // rows, min(rows, reps - start)

    monkeypatch.setattr(triarm.experiments, "_batch_plan", plan)


@pytest.fixture()
def dumped_batches(monkeypatch):
    """Copies of the batches, with their keys, the engines pass to ``experiments._dump_rows``."""
    original = triarm.experiments._dump_rows
    batches = []

    def recording(fh, keys, res):
        batches.append({"keys": list(keys), **{k: np.copy(v) for k, v in res.items()}})
        return original(fh, keys, res)

    monkeypatch.setattr(triarm.experiments, "_dump_rows", recording)
    return batches


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
        sizes = GroupSizes(2, 2, 2)
        summary = exact_distribution(pop, sizes)
        np.testing.assert_allclose(summary.mr_bias, 0.0, atol=1e-12)
        for pair in (("A", "B"), ("A", "C"), ("B", "C")):
            assert contrast_symmetry_deviation(pop, sizes, pair) <= 1e-12

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

    def test_table_and_dump(self, table_pop, tmp_path):
        path = tmp_path / "dump.csv"
        sizes = GroupSizes(1, 1, 4)
        summary = exact_distribution(table_pop, sizes, dump_path=path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "assignment"
        assert len(rows) == 1 + summary.assignment_count == 31
        assert rows[1][0] == "ABCCCC"
        # full-precision round trip of the first dumped adjusted estimate
        codes = Assignment.from_labels(rows[1][0]).codes[None, :]
        first = BatchEvaluator(table_pop, sizes).evaluate_sums(mask_sums(table_pop, codes))
        assert float(rows[1][4]) == first["mr"][0, 0]

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

    def test_only_the_dump_forms_label_codes(self, monkeypatch, tmp_path):
        # the estimators read the batches' table rows; label codes are
        # formed for the dump's row keys alone.  n = 18 at 1,1,16 runs
        # one middle chunk of 2 positions.
        def refuse(batch):
            raise AssertionError("label codes formed")

        monkeypatch.setattr(CodeBatch, "codes", property(refuse))
        pop = Population(*np.random.default_rng(7).normal(size=(4, 18)))
        sizes = GroupSizes(1, 1, 16)
        assert exact_distribution(pop, sizes).assignment_count == 306
        assert contrast_symmetry_deviation(pop, sizes) >= 0.0
        with pytest.raises(AssertionError, match="label codes formed"):
            exact_distribution(pop, sizes, dump_path=tmp_path / "dump.csv")


def fancy_evaluate_index(evaluator, idx):
    """``BatchEvaluator.evaluate_index`` by fancy indexing with strided column blocks."""
    n_a, n_b, _ = evaluator.sizes.counts()
    blocks = (idx[:, :n_a], idx[:, n_a : n_a + n_b], idx[:, n_a + n_b :])
    sums = [[x[block].sum(axis=1) for x, block in zip(quantity, blocks)] for quantity in evaluator.operands]
    return evaluator.evaluate_sums(np.array(sums))


def whole_batch_monte_carlo(monkeypatch, pop, sizes, reps, seed, **kwargs):
    """``monte_carlo`` with every batch computed by the whole-batch algorithm.

    Each round tiles all the rows it draws at once, permutes them with
    one ``permuted`` call and gathers by fancy indexing; singular rows are
    redrawn the same way and written back in place.  The engine's batch
    plan, merge, summary and dump code are kept.
    """
    evaluator = BatchEvaluator(pop, sizes)

    def compute(job):
        index, size = job
        rng = worker_generator(seed, index)
        res, bad, drawn = None, np.arange(size), 0
        while bad.size:
            idx = np.tile(np.arange(pop.n), (bad.size, 1))
            rng.permuted(idx, axis=1, out=idx)
            drawn += bad.size
            patch = fancy_evaluate_index(evaluator, idx)
            if res is None:
                res = patch
            else:
                for key, arr in patch.items():
                    res[key][bad] = arr
            bad = bad[~patch["valid"]]
        res["nominal_cov"] = nominal_covariance(res, evaluator.counts)
        res["redraws"] = drawn - size
        return res

    def in_order(jobs, _compute, _threads):
        for job in jobs:
            yield compute(job)

    with monkeypatch.context() as patched:
        patched.setattr(triarm.experiments, "_process_in_order", in_order)
        return monte_carlo(pop, sizes, reps, seed, **kwargs)


def assert_same_summary(a, b):
    for field in dataclasses.fields(a):
        np.testing.assert_array_equal(getattr(a, field.name), getattr(b, field.name), field.name)


class TestChunkedMonteCarlo:
    """Chunked draws and ``take`` gathers give the whole-batch results bit for bit."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_matches_whole_batch(self, monkeypatch, tmp_path, threads):
        rng = np.random.default_rng(8)
        pop, _ = normalize_z(Population(*rng.uniform(-3, 3, size=(4, 100))))
        sizes = GroupSizes(30, 40, 30)
        reference = whole_batch_monte_carlo(
            monkeypatch, pop, sizes, 10_000, 21, dump_path=tmp_path / "reference.csv"
        )
        rows = []
        evaluate_index = BatchEvaluator.evaluate_index

        def recording(self, idx, **kwargs):
            rows.append(len(idx))
            return evaluate_index(self, idx, **kwargs)

        monkeypatch.setattr(BatchEvaluator, "evaluate_index", recording)
        path = tmp_path / "chunked.csv"
        chunked = monte_carlo(pop, sizes, 10_000, 21, threads=threads, dump_path=path)
        chunk = triarm.experiments._DRAW_CHUNK_ELEMENTS // pop.n

        def chunks(size):
            return [min(chunk, size - start) for start in range(0, size, chunk)]

        # batches of 4096, 4096 and 1808 rows, each drawn in chunk-row pieces
        assert sorted(rows) == sorted(chunks(4096) * 2 + chunks(1808))
        assert_same_summary(chunked, reference)
        assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.filterwarnings("ignore:q_tilde")
    def test_redraws_match_whole_batch(self, monkeypatch, tmp_path):
        # the test_singular_draws_redrawn population, drawn 3 rows at a time
        pop = Population(
            [1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 2.0, 3.0], [5.0, 6.0, 7.0, 8.0], [1.0, 1.0, 2.0, 2.0]
        )
        sizes = GroupSizes(1, 1, 2)
        reference = whole_batch_monte_carlo(
            monkeypatch, pop, sizes, 3000, 4, dump_path=tmp_path / "reference.csv"
        )
        monkeypatch.setattr(triarm.experiments, "_DRAW_CHUNK_ELEMENTS", 3 * pop.n)
        path = tmp_path / "chunked.csv"
        chunked = monte_carlo(pop, sizes, 3000, 4, dump_path=path)
        assert chunked.singular_redraws > 0
        assert_same_summary(chunked, reference)
        assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_running_batch_memory(self):
        rng = np.random.default_rng(8)
        pop, _ = normalize_z(Population(*rng.uniform(-3, 3, size=(4, 800))))
        tracemalloc.start()
        try:
            monte_carlo(pop, GroupSizes(200, 400, 200), 5000, 1, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Two 2,500-row batches.  While the second draws: one 81-row index
        # chunk (518 KB), its largest group block (259 KB) and one gather
        # from it (259 KB) and the batch's per-row results (283 KB): 1.32 MB,
        # 1.74 MB measured.  The merged first batch is freed by then; kept,
        # it added 603 KB with its nominal covariances (2.4 MB measured).
        assert peak < 2.2e6

    @pytest.mark.parametrize("n, sizes", [(5, (1, 2, 2)), (100, (30, 40, 30)), (800, (200, 400, 200))])
    def test_evaluate_index_matches_fancy_gathers(self, n, sizes):
        rng = np.random.default_rng(n)
        pop, _ = normalize_z(Population(*rng.uniform(-3, 3, size=(4, n))))
        sizes = GroupSizes(*sizes)
        evaluator = BatchEvaluator(pop, sizes)
        idx = rng.permuted(np.tile(np.arange(n), (50, 1)), axis=1)
        taken = evaluator.evaluate_index(idx)
        fancy = fancy_evaluate_index(evaluator, idx)
        assert taken.keys() == fancy.keys()
        for key in taken:
            assert np.array_equal(taken[key], fancy[key], equal_nan=True), key


class TestDumpBytes:
    # the dump is formatted many rows at a time; its bytes must stay those
    # of the row-by-row csv.writer reference
    @pytest.mark.parametrize("mode", ["all", "a-before-b"])
    def test_exact_dump_matches_reference(self, tmp_path, dumped_batches, mode):
        rng = np.random.default_rng(4)
        pop, _ = normalize_z(Population(*rng.uniform(-3, 3, size=(4, 11))))
        path = tmp_path / "dump.csv"
        sizes = GroupSizes(4, 4, 3)
        summary = exact_distribution(pop, sizes, mode=mode, dump_path=path)
        reference = tmp_path / "reference.csv"
        reference_dump(reference, "assignment", dumped_batches)
        assert len(dumped_batches) > 1
        assert path.read_bytes() == reference.read_bytes()
        with open(reference, newline="") as fh:
            keys = [row[0] for row in csv.reader(fh)][1:]
        assert keys == [asg.label_string for asg in enumerate_assignments(sizes, mode)]
        assert len(keys) == summary.assignment_count

    def test_singular_rows_dump_nan(self, tmp_path, dumped_batches):
        # z repeats 0, 1, 2 in both halves: some pairs make the design singular
        pop = Population(
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            [2.0, 1.0, 0.0, 3.0, 5.0, 4.0],
            [0.5, 1.5, 3.0, 2.0, 1.0, 0.0],
            [0.0, 1.0, 2.0, 0.0, 1.0, 2.0],
        )
        path = tmp_path / "dump.csv"
        summary = exact_distribution(pop, GroupSizes(2, 2, 2), mode="a-before-b", dump_path=path)
        reference_dump(tmp_path / "reference.csv", "assignment", dumped_batches)
        assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()
        lines = path.read_text().splitlines()
        nan_rows = [line for line in lines if line.endswith(",nan,nan,nan,nan,nan")]
        assert summary.singular_count > 0
        assert len(nan_rows) == summary.singular_count

    @pytest.mark.filterwarnings("ignore:q_tilde")
    def test_monte_carlo_dump_matches_reference(
        self, table_pop, tmp_path, dumped_batches, monkeypatch
    ):
        path = tmp_path / "mc.csv"
        fixed_batches(monkeypatch, 300)
        monte_carlo(table_pop, GroupSizes(2, 2, 2), reps=1000, seed=3, dump_path=path)
        reference_dump(tmp_path / "reference.csv", "replicate", dumped_batches)
        assert len(dumped_batches) == 4
        assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_repeated_special_itt_values_match_reference(self, tmp_path):
        # ITT texts are formatted once per distinct bit pattern: values that
        # compare equal (0.0, -0.0) or never equal (NaNs) must keep their own text
        nans = np.array([0x7FF8000000000001, -0x0008000000000000], dtype=np.int64).view(np.float64)
        special = np.array([0.0, -0.0, *nans, np.inf, -np.inf, 5e-324, 1e308, 0.1, 1 / 3, -2.5])
        rng = np.random.default_rng(11)
        rows = 200  # crosses several dump chunks
        res = {
            "itt": rng.choice(special, size=(rows, 3)),
            "mr": rng.choice(special, size=(rows, 3)),
            "q_hat": rng.normal(size=rows),
            "sigma_hat_sq": rng.choice(special, size=rows),
        }
        assert rows > 2 * triarm.experiments._DUMP_CHUNK_ROWS
        path = tmp_path / "dump.csv"
        with triarm.experiments._open_dump(path, "replicate") as fh:
            triarm.experiments._dump_rows(fh, range(rows), res)
        reference_dump(tmp_path / "reference.csv", "replicate", [res])
        text = path.read_text()
        assert ",-0.0," in text and ",0.0," in text and ",5e-324," in text
        assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()


class TestProcessInOrder:
    @pytest.mark.parametrize(
        "threads, failing",
        [
            pytest.param(2, "job", id="2"),
            pytest.param(3, "job", id="3"),
            pytest.param(2, "consumer", id="consumer-2"),
        ],
    )
    def test_failure_cancels_queued_jobs(self, threads, failing):
        # job 0 fails at once, or returns at once and the consumer fails on
        # it; the others hold their worker for a while, so by the time the
        # failure is seen every worker is busy and the rest of the
        # 2 * threads + 1 submitted jobs are still queued
        started = []
        lock = threading.Lock()

        def compute(job):
            with lock:
                started.append(job)
            if job == 0 and failing == "job":
                raise RuntimeError("job 0 failed")
            if job:
                time.sleep(0.5)
            return job

        results = _process_in_order(range(20), compute, threads)
        with pytest.raises(RuntimeError, match="job 0 failed"), closing(results):
            for res in results:
                raise RuntimeError(f"job {res} failed in the consumer")
        assert len(started) <= 1 + threads


class TestBatchPlan:
    def test_plan_is_lazy(self):
        # 10**16 reps: a planned list of batches would not fit in memory
        assert list(itertools.islice(_batch_plan(10**16, 6), 2)) == [(0, 4096), (1, 4096)]

    @pytest.mark.parametrize(
        "reps, n, sizes",
        [
            (300, 20_000, [128, 128, 44]),  # the 128-row floor
            (9000, 6, [4096, 4096, 808]),  # the 4096-row cap, partial last batch
            (10_000, 800, [2500] * 4),  # in between: 2_000_000 // n
        ],
    )
    def test_batches(self, reps, n, sizes):
        assert list(_batch_plan(reps, n)) == list(enumerate(sizes))


class TestThreadCap:
    """``--threads`` above the usable CPUs starts no more workers than CPUs."""

    @staticmethod
    def record_pools(monkeypatch):
        sizes = []
        real = concurrent.futures.ThreadPoolExecutor

        def recording(max_workers):
            sizes.append(max_workers)
            return real(max_workers=max_workers)

        # _process_in_order imports the pool class when it starts one
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
        return sizes

    @pytest.mark.filterwarnings("ignore:q_tilde")
    def test_pool_capped_at_usable_cpus(self, table_pop, monkeypatch):
        sizes = self.record_pools(monkeypatch)
        fixed_batches(monkeypatch, 128)
        run = functools.partial(monte_carlo, table_pop, GroupSizes(2, 2, 2), 2000, 4)
        capped = run(threads=10**6)
        usable = triarm.experiments._usable_cpus()
        assert sizes == ([usable] if usable > 1 else [])
        serial = run(threads=1)
        np.testing.assert_array_equal(capped.mr_cov, serial.mr_cov)

    def test_enumerate_builds_no_pool(self, tmp_path, monkeypatch, capsys):
        sizes = self.record_pools(monkeypatch)
        monkeypatch.setattr(triarm.experiments, "_usable_cpus", lambda: 3)
        path = tmp_path / "pop.csv"
        path.write_text("a,b,c,z\n0,1,2,0\n0,1,2,0\n0,1,2,0\n2,3,4,-2\n2,3,4,-2\n4,5,6,4\n")
        argv = ["enumerate", str(path), "--sizes", "2,2,2", "--format", "json", "--threads", "3"]
        assert main(argv) == 0
        assert sizes == []

    def test_look_ahead_window_capped(self, monkeypatch):
        sizes = self.record_pools(monkeypatch)
        monkeypatch.setattr(triarm.experiments, "_usable_cpus", lambda: 3)
        pulled, merged, in_flight = [], [], []

        def jobs():
            for job in range(40):
                pulled.append(job)
                yield job

        for res in _process_in_order(jobs(), lambda job: job, 10**6):
            in_flight.append(len(pulled) - len(merged))
            merged.append(res)
        assert sizes == [3]
        assert merged == list(range(40))
        assert max(in_flight) == 2 * 3 + 1


class TestSymmetryHelper:
    def test_detects_asymmetry(self):
        rng = np.random.default_rng(2)
        pop = Population(*rng.uniform(-3, 3, size=(4, 6)))
        pop, _ = normalize_z(pop)
        # unbalanced design, generic population: distribution is skewed
        assert contrast_symmetry_deviation(pop, GroupSizes(1, 1, 4)) > 1e-6

    def test_all_singular_raises(self):
        pop = Population([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(SingularDesignError, match="all assignments are singular"):
            contrast_symmetry_deviation(pop, GroupSizes(1, 1, 1))

    @pytest.mark.parametrize(
        "pair, message", [(("A", "A"), "groups must be distinct"), (("A", "D"), "unknown group 'D'")]
    )
    def test_bad_pair_raises(self, table_pop, pair, message):
        with pytest.raises(ValueError, match=message):
            contrast_symmetry_deviation(table_pop, GroupSizes(2, 2, 2), pair)


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

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_validated(self, table_pop, monkeypatch, threads):
        monkeypatch.setattr(triarm.experiments, "worker_generator", None)  # nothing may be drawn
        with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
            monte_carlo(table_pop, GroupSizes(2, 2, 2), reps=50, seed=1, threads=threads)

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

    @pytest.mark.parametrize("threads", [2, 3])
    def test_failure_stops_running_batches(self, monkeypatch, threads):
        # Every draw of three singletons is singular, so every batch fails
        # after MAX_REDRAW_ROUNDS rounds.  Batch 0 evaluates at full speed,
        # the others slowly, so batch 0 fails first while they still run;
        # each may finish the round it is in, and no batch may start another.
        current = threading.local()
        events = []
        make_generator = triarm.experiments.worker_generator
        evaluate_index = BatchEvaluator.evaluate_index

        def generator(seed, index):
            current.batch = index
            return make_generator(seed, index)

        def slow_after_batch_0(self, idx, **kwargs):
            events.append(("evaluate", current.batch))
            if current.batch:
                time.sleep(0.002)
            return evaluate_index(self, idx, **kwargs)

        class RecordedError(SingularDesignError):
            def __init__(self, message):
                events.append(("failed", current.batch))
                super().__init__(message)

        monkeypatch.setattr(triarm.experiments, "worker_generator", generator)
        monkeypatch.setattr(BatchEvaluator, "evaluate_index", slow_after_batch_0)
        monkeypatch.setattr(triarm.experiments, "SingularDesignError", RecordedError)
        pop = Population([1.0, 2.0, 0.0], [2.0, 3.0, 1.0], [3.0, 1.0, 2.0], [0.5, -1.0, 2.0])
        fixed_batches(monkeypatch, 8)
        with pytest.raises(SingularDesignError, match="in batch 0 were singular"):
            monte_carlo(pop, GroupSizes(1, 1, 1), reps=160, seed=1, threads=threads)
        assert events.count(("evaluate", 0)) == 1 + triarm.experiments.MAX_REDRAW_ROUNDS
        after = events[events.index(("failed", 0)) :]
        assert sum(kind == "evaluate" for kind, _ in after) <= threads - 1

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
    @staticmethod
    def fed(x, order):
        acc = _Moments(3, order=order)
        for part in np.split(x, [1, 8, 8, 508]):  # includes an empty batch
            acc.add(part)
        return acc

    # Tolerances sit 10-50x above the error measured in double precision.  With
    # the offset, the inputs themselves carry eps * 1e4 absolute error;
    # the raw-power-sum rebuild of the third moment misses by ~1e-3 there.
    @pytest.mark.parametrize("offset, rtol", [(0.0, 1e-13), (1e4, 1e-9)])
    def test_uneven_batches_match_two_pass(self, offset, rtol):
        rng = np.random.default_rng(0)
        x = rng.gamma(2.0, size=(1000, 3)) + offset
        acc = self.fed(x, 4)
        d = x - x.mean(axis=0)
        assert acc.count == 1000
        np.testing.assert_allclose(acc.mean, x.mean(axis=0), rtol=1e-14)
        np.testing.assert_allclose(acc.m2, d.T @ d, rtol=rtol)
        np.testing.assert_allclose(acc.m3, (d**3).sum(axis=0), rtol=rtol)
        np.testing.assert_allclose(acc.m4, (d**4).sum(axis=0), rtol=rtol)

    @pytest.mark.parametrize("offset", [0.0, 1e4])
    def test_lower_orders_keep_the_same_bits(self, offset):
        x = np.random.default_rng(0).gamma(2.0, size=(1000, 3)) + offset
        first, second, fourth = (self.fed(x, order) for order in (1, 2, 4))
        assert first.m2 is None and first.m3 is None and first.m4 is None
        assert second.m3 is None and second.m4 is None
        assert first.count == second.count == fourth.count == 1000
        np.testing.assert_array_equal(first.mean, fourth.mean)
        np.testing.assert_array_equal(second.mean, fourth.mean)
        np.testing.assert_array_equal(second.m2, fourth.m2)


    def test_merge_does_not_depend_on_blas_kernel(self, tmp_path):
        # _Moments after 50 random 4,096-row batches, and the exact engine's
        # itt_cov at 5,5,5, under the default OpenBLAS kernel and under the
        # forced Prescott kernel: the co-moments must keep their bytes.
        # At n = 15 the mask products agree across kernels too, and itt_cov
        # reads no other BLAS result.
        if platform.machine().lower() not in ("x86_64", "amd64"):
            pytest.skip("OPENBLAS_CORETYPE names x86-64 kernels")
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            pytest.skip("numpy does not report its BLAS build (numpy < 1.26)")
        if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
            pytest.skip(f"numpy links {blas.get('name')!r}, not a DYNAMIC_ARCH OpenBLAS")
        root = Path(__file__).resolve().parent.parent
        script = textwrap.dedent(
            """
            import sys
            import numpy as np
            from workloads import generate_population
            from triarm import GroupSizes, Population, exact_distribution, normalize_z
            from triarm.experiments import _Moments
            rng = np.random.default_rng(46)
            acc = _Moments(3, order=4)
            for _ in range(50):
                acc.add(rng.normal(size=(4096, 3)) * [1.0, 3.0, 0.5] + [0.0, 2.0, -1.0])
            pop, _ = normalize_z(Population(**generate_population(5, 15)))
            itt_cov = exact_distribution(pop, GroupSizes(5, 5, 5)).itt_cov
            np.savez(sys.argv[1], mean=acc.mean, m2=acc.m2, m3=acc.m3, m4=acc.m4, itt_cov=itt_cov)
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
        for key, value in default.items():
            differ = np.count_nonzero(value.view(np.int64) != prescott[key].view(np.int64))
            assert differ == 0, f"{key}: {differ} elements differ between BLAS kernels"


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
