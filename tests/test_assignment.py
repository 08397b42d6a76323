import itertools
import math

import numpy as np
import pytest

import triarm.assignment
from triarm import (
    Assignment,
    EnumerationLimitError,
    GroupSizes,
    Population,
    assignment_count,
    enumerate_assignments,
    group_mean,
    master_generator,
    moment_set,
    observed_response,
    prop1_moments,
    random_assignment,
    worker_generator,
)
from triarm.assignment import _a_before_b_starts, _unrank, iter_code_batches


def _next_multiset_permutation(codes: list) -> bool:
    # classic in-place next-permutation; keeps lexicographic order
    i = len(codes) - 2
    while i >= 0 and codes[i] >= codes[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = len(codes) - 1
    while codes[j] <= codes[i]:
        j -= 1
    codes[i], codes[j] = codes[j], codes[i]
    codes[i + 1 :] = reversed(codes[i + 1 :])
    return True


def reference_code_batches(sizes, mode, batch_size):
    """The batches of ``iter_code_batches``, stepping one permutation at a time."""
    current = [0] * sizes.n_a + [1] * sizes.n_b + [2] * sizes.n_c
    batch = []
    while True:
        if mode == "all" or current.index(0) < current.index(1):
            batch.append(current.copy())
            if len(batch) == batch_size:
                yield np.array(batch, dtype=np.int8)
                batch = []
        if not _next_multiset_permutation(current):
            break
    if batch:
        yield np.array(batch, dtype=np.int8)


def _small_cases(max_n):
    for n_a, n_b, n_c in itertools.product(range(1, max_n - 1), repeat=3):
        if n_a + n_b + n_c <= max_n:
            yield GroupSizes(n_a, n_b, n_c), "all"
            if n_a == n_b:
                yield GroupSizes(n_a, n_b, n_c), "a-before-b"


class TestGroupSizes:
    def test_rejects_zero_group(self):
        with pytest.raises(ValueError, match="positive"):
            GroupSizes(0, 3, 3)

    def test_size_mismatch_message(self):
        with pytest.raises(ValueError, match="size mismatch"):
            GroupSizes(2, 2, 3).validate_for(6)

    def test_fractions(self):
        np.testing.assert_allclose(GroupSizes(1, 1, 4).fractions(), [1 / 6, 1 / 6, 4 / 6])


class TestAssignment:
    def test_label_round_trip(self):
        asg = Assignment.from_labels("ABCCBA")
        assert asg.label_string == "ABCCBA"
        assert asg.sizes == GroupSizes(2, 2, 2)
        np.testing.assert_array_equal(asg.group_indices("B"), [1, 4])

    def test_dummies_partition(self):
        asg = Assignment.from_labels("ACBCCB")
        u, v, w = asg.dummies
        np.testing.assert_array_equal(u.astype(int) + v.astype(int) + w.astype(int), 1)

    def test_missing_group_rejected(self):
        with pytest.raises(ValueError):
            Assignment.from_labels("AABB")


class TestRandomAssignment:
    def test_deterministic_given_seed(self):
        sizes = GroupSizes(2, 2, 2)
        a = random_assignment(sizes, master_generator(42))
        b = random_assignment(sizes, master_generator(42))
        assert a.label_string == b.label_string

    def test_worker_streams_differ(self):
        firsts = [worker_generator(42, stream).bit_generator.random_raw() for stream in range(8)]
        assert len(set(firsts)) == 8
        sizes = GroupSizes(2, 2, 2)
        a = random_assignment(sizes, worker_generator(42, 0))
        b = random_assignment(sizes, worker_generator(42, 1))
        assert a.label_string != b.label_string

    def test_counts_respected(self):
        asg = random_assignment(GroupSizes(3, 4, 5), master_generator(0))
        assert asg.sizes == GroupSizes(3, 4, 5)

    def test_marginal_frequencies_uniform(self):
        # P(subject i in A) = n_A / n = 1/3 for every subject
        sizes = GroupSizes(2, 2, 2)
        rng = master_generator(7)
        hits = np.zeros(6)
        draws = 90_000
        for _ in range(draws):
            hits += random_assignment(sizes, rng).codes == 0
        np.testing.assert_allclose(hits / draws, 1 / 3, atol=0.01)


class TestEnumeration:
    def test_counts(self):
        assert assignment_count(GroupSizes(1, 1, 4)) == 30
        assert assignment_count(GroupSizes(2, 2, 2)) == 90
        assert assignment_count(GroupSizes(1, 1, 4), "a-before-b") == 15

    def test_a_before_b_requires_equal_sizes(self):
        with pytest.raises(ValueError, match="n_A == n_B"):
            assignment_count(GroupSizes(1, 2, 3), "a-before-b")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown enumeration mode"):
            assignment_count(GroupSizes(1, 1, 4), "some")

    def test_limit_guard_reports_count(self):
        with pytest.raises(EnumerationLimitError) as err:
            list(enumerate_assignments(GroupSizes(10, 10, 10), limit=10**6))
        assert err.value.count == 5_550_996_791_340

    def test_lexicographic_no_duplicates(self):
        for sizes in (GroupSizes(1, 1, 4), GroupSizes(2, 2, 2), GroupSizes(2, 3, 3)):
            labels = [a.label_string for a in enumerate_assignments(sizes)]
            assert len(labels) == assignment_count(sizes)
            assert labels == sorted(labels)
            assert len(set(labels)) == len(labels)

    # one-row batches cost a full unranking pass per row (8 s up to n = 9)
    @pytest.mark.parametrize("batch_size, max_n", [(1, 7), (7, 9), (4096, 9)])
    def test_unranking_matches_reference_loop(self, batch_size, max_n):
        # every size triple up to max_n, in both modes: same batch
        # boundaries, shapes, dtype and codes as stepping permutations
        for sizes, mode in _small_cases(max_n):
            expected = list(reference_code_batches(sizes, mode, batch_size))
            got = list(iter_code_batches(sizes, mode, batch_size=batch_size))
            assert [b.shape for b in got] == [b.shape for b in expected], (sizes, mode)
            for g, e in zip(got, expected):
                assert g.dtype == np.int8
                np.testing.assert_array_equal(g, e)

    @pytest.mark.parametrize("limit", [10**40, 10**60])
    def test_int64_rank_ceiling_guard(self, limit, monkeypatch):
        # 120!/(40!)^3 is about 1.2e55: beyond 10**40 the user limit
        # trips, beyond 2**63 / 120 the int64 rank arithmetic would
        sizes = GroupSizes(40, 40, 40)
        unranked = []
        monkeypatch.setattr(triarm.assignment, "_unrank", lambda *args: unranked.append(args))
        with pytest.raises(EnumerationLimitError) as err:
            next(iter_code_batches(sizes, limit=limit))
        assert unranked == []
        count, ceiling = assignment_count(sizes), (2**63 - 1) // 120
        assert err.value.count == count
        assert err.value.limit == (limit if limit < count else ceiling)
        assert ("int64" in str(err.value)) == (limit > count)

    def test_unranking_exact_just_below_int64_ceiling(self):
        # count * n is 0.97 * 2**63 for (12, 14, 14) and 3.1 * 2**63 for
        # (13, 14, 14).  Relabeling x -> 2 - x reverses lexicographic
        # order, so the last ranks of a design are the first ranks of its
        # mirror, read backwards.
        sizes = GroupSizes(12, 14, 14)
        total = assignment_count(sizes)
        first = next(iter_code_batches(sizes, limit=total))
        np.testing.assert_array_equal(first, next(reference_code_batches(sizes, "all", 4096)))
        last = _unrank(sizes, total, np.arange(total - 50, total, dtype=np.int64))
        mirror = next(reference_code_batches(GroupSizes(14, 14, 12), "all", 50))
        np.testing.assert_array_equal(last, 2 - mirror[::-1])
        with pytest.raises(EnumerationLimitError, match="int64"):
            next(iter_code_batches(GroupSizes(13, 14, 14), limit=10**40))

    def test_a_before_b_exact_just_below_int64_ceiling(self):
        # (14, 14, 12) has all label sequences times n at 0.97 * 2**63;
        # kept ranks map to full ranks up to the last kept sequence
        sizes = GroupSizes(14, 14, 12)
        total, count = assignment_count(sizes), assignment_count(sizes, "a-before-b")
        first = next(iter_code_batches(sizes, "a-before-b", limit=count))
        np.testing.assert_array_equal(first, next(reference_code_batches(sizes, "a-before-b", 4096)))
        # the last kept sequence closes block C^12 A, just before the
        # comb(27, 14) sequences C^12 B ... that end the full order
        last_rank = count - 1 + _a_before_b_starts(sizes)[-1]
        assert last_rank == total - math.comb(27, 14) - 1
        last = _unrank(sizes, total, np.array([last_rank], dtype=np.int64))
        assert Assignment(last[0]).label_string == "C" * 12 + "A" + "B" * 14 + "A" * 13
        for row in (*first, *last):
            assert row[row != 2][0] == 0
        with pytest.raises(EnumerationLimitError, match="int64") as err:
            next(iter_code_batches(GroupSizes(14, 14, 13), "a-before-b", limit=10**40))
        assert err.value.count == assignment_count(GroupSizes(14, 14, 13), "a-before-b")
        assert err.value.limit == (2**63 - 1) // 41 // 2

    def test_a_before_b_subset(self):
        sizes = GroupSizes(1, 1, 4)
        subset = {a.label_string for a in enumerate_assignments(sizes, "a-before-b")}
        full = {a.label_string for a in enumerate_assignments(sizes)}
        assert len(subset) == 15 and subset < full
        assert all(s.index("A") < s.index("B") for s in subset)


class TestObservedResponse:
    def test_table_example(self, table_pop):
        asg = Assignment.from_labels("ABCCCC")
        np.testing.assert_array_equal(observed_response(table_pop, asg), [0, 1, 2, 4, 4, 6])

    def test_singleton_groups(self):
        pop = Population([1, 2, 3], [4, 5, 6], [7, 8, 9], [0.1, 0.2, 0.3])
        np.testing.assert_array_equal(
            observed_response(pop, Assignment.from_labels("ABC")), [1, 5, 9]
        )

    def test_equal_responses_ignore_assignment(self):
        x = np.arange(6.0)
        pop = Population(x, x, x, x)
        for labels in ("AABBCC", "CCBBAA", "ABCABC"):
            np.testing.assert_array_equal(
                observed_response(pop, Assignment.from_labels(labels)), x
            )

    def test_length_mismatch(self, table_pop):
        with pytest.raises(ValueError, match="length mismatch"):
            observed_response(table_pop, Assignment.from_labels("ABC"))


class TestGroupMean:
    def test_table_group_c(self, table_pop):
        asg = Assignment.from_labels("ABCCCC")
        y = observed_response(table_pop, asg)
        assert group_mean(y, asg, "C") == pytest.approx(4.0)

    def test_singleton(self, table_pop):
        asg = Assignment.from_labels("ABCCCC")
        assert group_mean(table_pop.z, asg, "A") == 0.0

    def test_constant_sequence(self):
        asg = Assignment.from_labels("ABCCCC")
        for g in "ABC":
            assert group_mean(np.full(6, 3.25), asg, g) == pytest.approx(3.25)


def _group_mean_series(pop, sizes):
    """(count, 12) matrix of group means of a,b,c,z over all assignments."""
    rows = []
    for asg in enumerate_assignments(sizes):
        rows.append(
            [group_mean(pop.variable(v), asg, g) for g in "ABC" for v in "abcz"]
        )
    return np.array(rows)


class TestAgainstClosedForms:
    """Exhaustive enumeration agrees with the exact sampling moments."""

    def _check(self, pop, sizes):
        series = _group_mean_series(pop, sizes)
        count = series.shape[0]
        ms = moment_set(pop)
        means = series.mean(axis=0)
        centered = series - means
        emp_cov = centered.T @ centered / count
        n = pop.n
        fractions = sizes.fractions()
        for gi in range(3):
            for vi, v in enumerate("abcz"):
                assert abs(means[gi * 4 + vi] - ms.mean(v)) <= 1e-12
        for gi in range(3):
            for gj in range(3):
                for vi, x in enumerate("abcz"):
                    for vj, y in enumerate("abcz"):
                        if gi == gj:
                            expected = (
                                (1 - fractions[gi]) / fractions[gi] * ms.cov(x, y) / (n - 1)
                            )
                        else:
                            expected = -ms.cov(x, y) / (n - 1)
                        assert abs(emp_cov[gi * 4 + vi, gj * 4 + vj] - expected) <= 1e-12

    def test_table_population(self, table_pop):
        self._check(table_pop, GroupSizes(2, 2, 2))

    def test_random_population(self):
        rng = np.random.default_rng(5)
        pop = Population(*rng.uniform(-5, 5, size=(4, 7)))
        self._check(pop, GroupSizes(2, 2, 3))

    def test_cross_covariance_independent_of_fractions(self, table_pop):
        a = prop1_moments(table_pop, GroupSizes(1, 1, 4), "a", "b", ("A", "B"))
        b = prop1_moments(table_pop, GroupSizes(2, 2, 2), "a", "b", ("A", "B"))
        assert a.cross_covariance == pytest.approx(b.cross_covariance, abs=1e-15)
