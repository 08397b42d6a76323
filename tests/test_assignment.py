import collections
import csv
import itertools
import math
import statistics

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
    monte_carlo,
    moment_set,
    normalize_z,
    observed_response,
    prop1_moments,
    worker_generator,
)
from triarm.assignment import _a_before_b_starts, _unrank, _unrank_tables, iter_code_batches


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


def reference_unrank(sizes, total, rank):
    """Label codes of int64 ranks, one unranking pass per position."""
    n, rows = sizes.n, len(rank)
    rank = rank.copy()
    left = np.full(rows, total, dtype=np.int64)
    n_a = np.full(rows, sizes.n_a, dtype=np.int64)
    n_b = np.full(rows, sizes.n_b, dtype=np.int64)
    codes = np.empty((rows, n), dtype=np.int8)
    for pos in range(n):
        m = n - pos
        with_a = left * n_a // m
        with_b = left * n_b // m
        with_ab = with_a + with_b
        past_a = rank >= with_a
        past_b = rank >= with_ab
        codes[:, pos] = past_a
        codes[:, pos] += past_b
        rank -= np.where(past_b, with_ab, np.where(past_a, with_a, 0))
        left = np.where(past_b, left - with_ab, np.where(past_a, with_b, with_a))
        n_a -= ~past_a
        n_b -= past_a & ~past_b
    return codes


def _small_cases(max_n):
    for n_a, n_b, n_c in itertools.product(range(1, max_n - 1), repeat=3):
        if n_a + n_b + n_c <= max_n:
            yield GroupSizes(n_a, n_b, n_c), "all"
            if n_a == n_b:
                yield GroupSizes(n_a, n_b, n_c), "a-before-b"


def _boundary_ranks(sizes, mode, tables):
    """Sorted full ranks of the mode's sequences: every prefix start and
    the rank before it, the first and last 4,096 and 5,000 random ones."""
    count = assignment_count(sizes, mode)
    # prefix starts as ranks of the mode: kept block k begins at full
    # rank 2 * starts[k], after starts[k] kept and as many dropped ones
    edges = np.unique(np.concatenate([tables.starts, tables.starts[1:] - 1]))
    starts = _a_before_b_starts(sizes) if mode == "a-before-b" else np.zeros(1, np.int64)
    block = np.searchsorted(2 * starts, edges, side="right") - 1
    kept = edges - starts[block]
    kept = kept[kept < np.append(starts[1:], count)[block]]
    rng = np.random.default_rng(2024)
    kept = np.unique(
        np.concatenate(
            [
                np.arange(min(4096, count)),
                np.arange(max(count - 4096, 0), count),
                kept,
                rng.integers(0, count, 5000),
            ]
        )
    )
    return kept + starts[np.searchsorted(starts, kept, side="right") - 1]


class TestGroupSizes:
    def test_rejects_zero_group(self):
        with pytest.raises(ValueError, match="positive"):
            GroupSizes(0, 3, 3)

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_rejects_non_finite_size(self, value):
        with pytest.raises(ValueError, match="positive integer"):
            GroupSizes(value, 1, 1)

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

    def test_dummies_partition(self):
        asg = Assignment.from_labels("ACBCCB")
        u, v, w = asg.dummies
        np.testing.assert_array_equal(u.astype(int) + v.astype(int) + w.astype(int), 1)

    def test_missing_group_rejected(self):
        with pytest.raises(ValueError):
            Assignment.from_labels("AABB")

    # an int8 cast would read these as 0, 1, 2, 2 and 0, 1, 2
    @pytest.mark.parametrize("codes", [[0, 1, 258, -254], [0, 1, 2.7]], ids=["wrapped", "truncated"])
    def test_rejects_codes_an_int8_cast_would_narrow(self, codes):
        with pytest.raises(ValueError, match="0, 1 or 2"):
            Assignment(np.array(codes))


class TestRandomAssignment:
    """Random assignments as the Monte Carlo engine draws them."""

    def test_worker_streams_differ(self):
        firsts = [worker_generator(42, stream).bit_generator.random_raw() for stream in range(8)]
        assert len(set(firsts)) == 8

    def test_engine_draws_uniform(self, tmp_path):
        # a = 2**i, b = 64 a and c = 4096 a, so 2 itt_a and 2 itt_b / 64 are
        # exactly the bit masks of the A and B members; no labeling is singular
        a = 2.0 ** np.arange(6)
        pop, _ = normalize_z(Population(a, 64 * a, 4096 * a, [-2, -1, 0, 0, 1, 2]))
        sizes = GroupSizes(2, 2, 2)
        reps = 9000
        path = tmp_path / "draws.csv"
        monte_carlo(pop, sizes, reps, 11, dump_path=path)
        with open(path, newline="") as fh:
            seen = collections.Counter(
                (2 * float(row["itt_a"]), 2 * float(row["itt_b"]) / 64) for row in csv.DictReader(fh)
            )
        bits = 2 ** np.arange(6)
        labelings = [
            (float(bits @ asg.dummies[0]), float(bits @ asg.dummies[1]))
            for asg in enumerate_assignments(sizes)
        ]
        assert len(labelings) == 90 and set(seen) <= set(labelings)
        expected = reps / len(labelings)
        chi_sq = sum((seen[key] - expected) ** 2 / expected for key in labelings)
        # the 1 - 1e-6 quantile of chi-square with 89 df, by Wilson-Hilferty
        df = len(labelings) - 1
        h = 2 / (9 * df)
        gate = df * (1 - h + statistics.NormalDist().inv_cdf(1 - 1e-6) * math.sqrt(h)) ** 3
        assert chi_sq < gate


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

    # one-row batches cost a table lookup and a comparison per row (1.6 s
    # up to n = 9, against 0.2 s up to n = 7)
    @pytest.mark.parametrize("batch_size, max_n", [(1, 7), (7, 9), (4096, 9)])
    def test_unranking_matches_reference_loop(self, monkeypatch, batch_size, max_n):
        # every size triple up to max_n, in both modes: same batch
        # boundaries, shapes, dtype and codes as stepping permutations
        monkeypatch.setattr(triarm.assignment, "_BATCH_ROWS", batch_size)
        for sizes, mode in _small_cases(max_n):
            expected = list(reference_code_batches(sizes, mode, batch_size))
            got = [batch.codes for batch in iter_code_batches(sizes, mode)]
            assert [b.shape for b in got] == [b.shape for b in expected], (sizes, mode)
            for g, e in zip(got, expected):
                assert g.dtype == np.int8
                np.testing.assert_array_equal(g, e)

    # n = 16, 17, 24, 34 and 32: the middle loop between the two
    # 8-position tables runs for 0, 1, 8, 18 and 16 positions (middle
    # chunks of 8, 8 and 2 at n = 34, of 8 and 8 at n = 32)
    @pytest.mark.parametrize(
        "sizes, mode",
        [
            ((6, 5, 5), "all"),
            ((5, 5, 6), "a-before-b"),
            ((6, 6, 5), "all"),
            ((6, 6, 5), "a-before-b"),
            ((8, 8, 8), "all"),
            ((8, 8, 8), "a-before-b"),
            ((2, 2, 30), "all"),
            ((2, 2, 30), "a-before-b"),
            ((1, 1, 30), "all"),
            ((1, 1, 30), "a-before-b"),
        ],
    )
    def test_tables_at_their_cap_match_reference_unrank(self, sizes, mode):
        sizes = GroupSizes(*sizes)
        n, total = sizes.n, assignment_count(sizes)
        tables = _unrank_tables(sizes)
        assert tables.prefixes.shape[1] == tables.suffixes.shape[1] == 8
        assert [chunk.start for chunk in tables.chunks] == list(range(8, n - 8, 8))
        rank = _boundary_ranks(sizes, mode, tables)
        given = rank.copy()
        batch = _unrank(sizes, tables, rank)
        got = batch.codes
        assert len(batch) == len(rank) and len(batch.keys) == len(tables.chunks)
        np.testing.assert_array_equal(rank, given)
        np.testing.assert_array_equal(got, reference_unrank(sizes, total, rank))
        if mode == "a-before-b":
            assert (np.argmax(got != 2, axis=1) == np.argmax(got == 0, axis=1)).all()

    # n = 15, 17 and 24: the middle loop runs for 0, 1 and 8 positions
    @pytest.mark.parametrize("sizes, mode", [((5, 5, 5), "all"), ((6, 6, 5), "all"), ((8, 8, 8), "a-before-b")])
    def test_unrank_pieces_cut_at_prefix_boundaries(self, sizes, mode):
        # _unrank reads each prefix's rows as one run of ascending ranks;
        # consecutive pieces of 1, 2, 97 and 4,096 rows in turn lie inside
        # one prefix, start or end on a prefix start, or span hundreds of
        # prefixes
        sizes = GroupSizes(*sizes)
        tables = _unrank_tables(sizes)
        rank = _boundary_ranks(sizes, mode, tables)
        expected = reference_unrank(sizes, assignment_count(sizes), rank)
        widths = itertools.cycle((1, 2, 97, 4096))
        lo, opening, closing = 0, 0, 0
        while lo < len(rank):
            hi = lo + next(widths)
            piece = rank[lo:hi]
            given = piece.copy()
            np.testing.assert_array_equal(_unrank(sizes, tables, piece).codes, expected[lo:hi])
            np.testing.assert_array_equal(piece, given)
            opening += np.isin(piece[0], tables.starts)
            closing += np.isin(piece[-1] + 1, tables.starts)
            lo = hi
        assert opening > 0 and closing > 0

    @pytest.mark.parametrize("limit", [10**40, 10**60])
    def test_int64_rank_ceiling_guard(self, limit, monkeypatch):
        # 120!/(40!)^3 is about 1.2e55: beyond 10**40 the user limit
        # trips, beyond 2**63 / 120 the int64 rank arithmetic would, and
        # so would the tables' completion counts
        sizes = GroupSizes(40, 40, 40)
        unranked, tabled = [], []
        monkeypatch.setattr(triarm.assignment, "_unrank", lambda *args: unranked.append(args))
        monkeypatch.setattr(triarm.assignment, "_unrank_tables", lambda *args: tabled.append(args))
        with pytest.raises(EnumerationLimitError) as err:
            next(iter_code_batches(sizes, limit=limit))
        assert unranked == [] and tabled == []
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
        first = next(iter_code_batches(sizes, limit=total)).codes
        np.testing.assert_array_equal(first, next(reference_code_batches(sizes, "all", 4096)))
        tables = _unrank_tables(sizes)
        assert len(tables.prefixes) <= 3**8 and len(tables.suffixes) <= 3**8
        last = _unrank(sizes, tables, np.arange(total - 50, total, dtype=np.int64)).codes
        mirror = next(reference_code_batches(GroupSizes(14, 14, 12), "all", 50))
        np.testing.assert_array_equal(last, 2 - mirror[::-1])
        with pytest.raises(EnumerationLimitError, match="int64"):
            next(iter_code_batches(GroupSizes(13, 14, 14), limit=10**40))

    def test_a_before_b_exact_just_below_int64_ceiling(self):
        # (14, 14, 12) has all label sequences times n at 0.97 * 2**63;
        # kept ranks map to full ranks up to the last kept sequence
        sizes = GroupSizes(14, 14, 12)
        total, count = assignment_count(sizes), assignment_count(sizes, "a-before-b")
        first = next(iter_code_batches(sizes, "a-before-b", limit=count)).codes
        np.testing.assert_array_equal(first, next(reference_code_batches(sizes, "a-before-b", 4096)))
        # the last kept sequence closes block C^12 A, just before the
        # comb(27, 14) sequences C^12 B ... that end the full order
        last_rank = count - 1 + _a_before_b_starts(sizes)[-1]
        assert last_rank == total - math.comb(27, 14) - 1
        last = _unrank(sizes, _unrank_tables(sizes), np.array([last_rank], dtype=np.int64)).codes
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
