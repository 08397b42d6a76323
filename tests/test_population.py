import csv
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from triarm import (
    GroupSizes,
    Population,
    PopulationFormatError,
    additive_effects,
    center_responses,
    condition_report,
    load_population,
    moment_set,
    normalize_z,
    replicate,
)
from triarm.population import VARIABLES, is_normalized_z, z_moments


def write_csv(tmp_path, text, name="pop.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def reference_load_population(path) -> Population:
    """The cell-by-cell loader that ``load_population`` must match.

    Every cell is stripped, parsed and checked in turn, so the first bad
    cell in file order is the one reported.
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

        columns = {name: [] for name in VARIABLES}
        row_index = 0
        for row in reader:
            if not row or all(not cell.strip() for cell in row):
                continue
            row_index += 1
            if len(row) != len(names):
                raise PopulationFormatError(
                    f"row {row_index}: expected {len(names)} cells, found {len(row)}",
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
                columns[name].append(value)
        if row_index == 0:
            raise PopulationFormatError("empty body")
    return Population(*(columns[name] for name in VARIABLES))


_PADDING = st.sampled_from(["", " ", "  ", "\t", "\u2003", "\x0b"])
_NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["-0.0", "1e-320", "1_0", ".5", "5.", "+3", "1E5", "1e308"]),
)
_BAD_TEXT = st.sampled_from(
    ["", " ", "x", "0x10", "nan", "NaN", "inf", "-Infinity", "1e999", "-1e999", "1..2", "\u2003"]
)
_GOOD_CELL = st.tuples(_PADDING, _NUMBER_TEXT, _PADDING).map("".join)
_CELL = st.one_of(_GOOD_CELL, st.tuples(_PADDING, _BAD_TEXT, _PADDING).map("".join))


@st.composite
def population_csv_texts(draw):
    """CSV texts mixing good rows with blank, ragged and bad ones."""
    names = draw(st.permutations(VARIABLES))
    header = ",".join(draw(_PADDING) + name + draw(_PADDING) for name in names)
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        kinds = ["good"] * 8 + ["blank", "empty cells", "ragged", "mixed", "mixed"]
        kind = draw(st.sampled_from(kinds))
        if kind == "good":
            rows.append(",".join(draw(st.tuples(*(_GOOD_CELL,) * 4))))
        elif kind == "blank":
            rows.append(draw(_PADDING))
        elif kind == "empty cells":
            rows.append(",".join(draw(st.lists(_PADDING, min_size=2, max_size=5))))
        elif kind == "ragged":
            rows.append(",".join(draw(st.lists(_NUMBER_TEXT, min_size=1, max_size=6))))
        else:
            rows.append(",".join(draw(st.lists(_CELL, min_size=4, max_size=4))))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return bom + end.join([header, *rows]) + draw(st.sampled_from(["", end]))


def _load_outcome(loader, path):
    try:
        pop = loader(path)
    except PopulationFormatError as exc:
        return ("error", str(exc), exc.row, exc.column)
    return ("ok", *(pop.variable(name).tobytes() for name in VARIABLES))


class TestLoad:
    def test_table_values(self, tmp_path):
        path = write_csv(
            tmp_path,
            "a,b,c,z\n0,1,2,0\n0,1,2,0\n0,1,2,0\n2,3,4,-2\n2,3,4,-2\n4,5,6,4\n",
        )
        pop = load_population(path)
        assert pop.n == 6
        np.testing.assert_array_equal(pop.a, [0, 0, 0, 2, 2, 4])
        np.testing.assert_array_equal(pop.z, [0, 0, 0, -2, -2, 4])

    def test_column_order_free(self, tmp_path):
        path = write_csv(tmp_path, "z,c,a,b\n1,3,1,2\n-1,4,2,3\n0,5,3,4\n")
        pop = load_population(path)
        np.testing.assert_array_equal(pop.a, [1, 2, 3])
        np.testing.assert_array_equal(pop.z, [1, -1, 0])

    def test_byte_order_mark_accepted(self, tmp_path):
        path = write_csv(tmp_path, "\ufeffa,b,c,z\n1,2,3,4\n5,6,7,8\n")
        pop = load_population(path)
        np.testing.assert_array_equal(pop.a, [1, 5])
        np.testing.assert_array_equal(pop.z, [4, 8])

    def test_header_only_is_empty_body(self, tmp_path):
        with pytest.raises(PopulationFormatError, match="empty body"):
            load_population(write_csv(tmp_path, "a,b,c,z\n"))

    def test_nan_cell_named(self, tmp_path):
        with pytest.raises(PopulationFormatError, match="row 2, column 'c'"):
            load_population(write_csv(tmp_path, "a,b,c,z\n1,2,3,4\n1,2,NaN,4\n"))

    def test_non_numeric_cell_named(self, tmp_path):
        with pytest.raises(PopulationFormatError, match="row 1, column 'b'.*'x'"):
            load_population(write_csv(tmp_path, "a,b,c,z\n1,x,3,4\n"))

    def test_missing_column(self, tmp_path):
        with pytest.raises(PopulationFormatError, match="missing column 'b'"):
            load_population(write_csv(tmp_path, "a,c,z\n1,3,4\n"))

    def test_unexpected_column(self, tmp_path):
        with pytest.raises(PopulationFormatError, match="unexpected column 'q'"):
            load_population(write_csv(tmp_path, "a,b,c,z,q\n1,2,3,4,5\n"))

    def test_ragged_row(self, tmp_path):
        with pytest.raises(PopulationFormatError, match="row 2"):
            load_population(write_csv(tmp_path, "a,b,c,z\n1,2,3,4\n1,2,3\n"))

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(text=population_csv_texts())
    # str.strip() removes U+001F but float() rejects it: the fast path
    # misses this cell and the cell-by-cell parse must accept it
    @example(text="a,b,c,z\n\x1f1.5,2,3,4\n")
    def test_matches_reference_loader(self, tmp_path, text):
        # bit-equal columns, or the same message, row and column
        path = write_csv(tmp_path, text)
        assert _load_outcome(load_population, path) == _load_outcome(
            reference_load_population, path
        )


class TestPopulation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            Population([1, np.nan], [1, 2], [1, 2], [1, 2])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="same length"):
            Population([1, 2], [1, 2, 3], [1, 2], [1, 2])

    def test_arrays_read_only(self, table_pop):
        with pytest.raises(ValueError):
            table_pop.a[0] = 9.0


class TestMoments:
    def test_table_means(self, table_pop):
        ms = moment_set(table_pop)
        assert ms.mean("a") == pytest.approx(4 / 3, abs=1e-15)
        assert ms.mean("b") == pytest.approx(7 / 3, abs=1e-15)
        assert ms.mean("c") == pytest.approx(10 / 3, abs=1e-15)

    def test_table_var_and_cov(self, table_pop):
        ms = moment_set(table_pop)
        assert ms.var("a") == pytest.approx(20 / 9, abs=1e-14)
        assert ms.cov("a", "z") == pytest.approx(4 / 3, abs=1e-14)

    def test_constant_population_all_zero(self):
        pop = Population(*(np.full(4, 5.0) for _ in range(4)))
        ms = moment_set(pop)
        np.testing.assert_allclose(ms.covariance, 0.0, atol=1e-15)
        np.testing.assert_allclose(ms.product_covariances, 0.0, atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(*(st.floats(-10, 10) for _ in range(4))), min_size=1, max_size=20
        )
    )
    def test_cov_equals_product_minus_means(self, rows):
        cols = np.array(rows, dtype=float).T
        pop = Population(*cols)
        ms = moment_set(pop)
        names = ("a", "b", "c", "z")
        for i, x in enumerate(names):
            for j, y in enumerate(names):
                direct = float(np.mean(cols[i] * cols[j]) - cols[i].mean() * cols[j].mean())
                assert abs(ms.cov(x, y) - direct) <= 1e-12

    def test_computed_once_per_population(self, table_pop):
        ms = moment_set(table_pop)
        assert moment_set(table_pop) is ms
        assert not ms.covariance.flags.writeable

    def test_cauchy_schwarz_bound(self, table_pop):
        ms = moment_set(table_pop)
        for x in "abcz":
            for y in "abcz":
                assert abs(ms.cov(x, y)) <= math.sqrt(ms.var(x) * ms.var(y)) + 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_product_means_are_exact_means_of_products(self, seed):
        rng = np.random.default_rng(seed)
        pop = Population(*(rng.normal(3.0, 2.0, size=40) for _ in range(4)))
        ms = moment_set(pop)
        for k, x in enumerate((pop.a, pop.b, pop.c)):
            assert ms.product_means[k] == math.fsum((x * pop.z).tolist()) / pop.n
        assert not ms.product_means.flags.writeable


class TestOverflow:
    """A sum past the float range is refused, naming what overflowed."""

    @staticmethod
    def pop(a=(1.0, 2.0, 3.0), b=(2.0, 3.0, 4.0), c=(3.0, 4.0, 5.0), z=(1.0, 2.0, 4.0)):
        return Population(a, b, c, z)

    @pytest.mark.parametrize(
        "kwargs, named",
        [
            ({"b": (1e308, 1e308, 1.0)}, "the mean of b"),
            ({"a": (1e200, -1e200, 3.0)}, "the variance of a"),
            ({"a": (1e150, 1e150, 1e150), "z": (1e159, 1e159, 1e159)}, "the mean of az"),
            ({"a": (1e150, -1e150, 0.0), "z": (1e150, -1e150, 0.0)}, "the covariance of az and z"),
        ],
    )
    def test_moment_set_names_variable(self, kwargs, named):
        with pytest.raises(ValueError, match=f"^{named} is not finite"):
            moment_set(self.pop(**kwargs))

    @pytest.mark.parametrize(
        "z, named", [((1e308, 1e308, 1.0), "the mean of z"), ((1e200, -1e200, 0.0), "the mean square of z")]
    )
    def test_z_moments_name_variable(self, z, named):
        pop = self.pop(z=z)
        with pytest.raises(ValueError, match=f"^{named} is not finite"):
            is_normalized_z(pop)

    def test_fourth_moment_may_overflow(self):
        ms = moment_set(self.pop(a=(1e100, -1e100, 3.0)))
        assert ms.fourth_abs_moments[0] == math.inf
        assert math.isfinite(ms.var("a"))

    def test_fourth_moment_sum_overflow_is_inf(self):
        # each fourth power is finite, their sum is not
        ms = moment_set(self.pop(a=(1e77, 1e77, 1e77)))
        assert ms.fourth_abs_moments[0] == math.inf


class TestZMoments:
    def test_table_pair(self, table_pop):
        assert z_moments(table_pop) == (0.0, 4.0)


class TestNormalizeZ:
    def test_table_scaling(self, table_pop):
        normalized, zmap = normalize_z(table_pop)
        np.testing.assert_allclose(normalized.z, [0, 0, 0, -1, -1, 2], atol=1e-15)
        assert zmap.shift == 0.0
        assert zmap.scale == pytest.approx(2.0)

    def test_result_is_normalized(self, table_pop):
        normalized, _ = normalize_z(table_pop)
        ms = moment_set(normalized)
        assert abs(ms.mean("z")) <= 1e-12
        assert ms.var("z") == pytest.approx(1.0, abs=1e-12)

    def test_idempotent(self, table_pop):
        once, _ = normalize_z(table_pop)
        twice, zmap = normalize_z(once)
        np.testing.assert_allclose(twice.z, once.z, atol=1e-12)
        assert zmap.shift == pytest.approx(0.0, abs=1e-12)
        assert zmap.scale == pytest.approx(1.0, abs=1e-12)

    def test_constant_z_rejected(self):
        pop = Population([1, 2, 3], [1, 2, 3], [1, 2, 3], [3, 3, 3])
        with pytest.raises(ValueError, match="zero variance covariate"):
            normalize_z(pop)

    def test_responses_untouched(self, table_pop):
        normalized, _ = normalize_z(table_pop)
        np.testing.assert_array_equal(normalized.a, table_pop.a)


class TestCenterResponses:
    def test_table_case(self, table_pop):
        centered, means = center_responses(table_pop)
        np.testing.assert_allclose(means, [4 / 3, 7 / 3, 10 / 3], atol=1e-15)
        expected = np.array([-4 / 3, -4 / 3, -4 / 3, 2 / 3, 2 / 3, 8 / 3])
        for column in (centered.a, centered.b, centered.c):
            np.testing.assert_allclose(column, expected, atol=1e-15)
        np.testing.assert_array_equal(centered.z, table_pop.z)

    def test_means_are_the_moment_set_means(self, table_pop):
        _, means = center_responses(table_pop)
        assert means == tuple(moment_set(table_pop).means[:3])

    def test_idempotent(self, table_pop):
        once, _ = center_responses(table_pop)
        again, means = center_responses(once)
        np.testing.assert_allclose(means, 0.0, atol=1e-12)
        np.testing.assert_allclose(again.a, once.a, atol=1e-15)


class TestReplicate:
    def test_identity_for_m_1(self, table_pop):
        assert replicate(table_pop, 1) is table_pop

    def test_preserves_moments(self, table_pop):
        big = replicate(table_pop, 10)
        assert big.n == 60
        assert moment_set(big).var("a") == pytest.approx(20 / 9, abs=1e-12)
        assert moment_set(big).mean("z") == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.tuples(*(st.floats(-10, 10) for _ in range(4))), min_size=1, max_size=20),
        st.integers(1, 100),
    )
    def test_commutes_with_moment_set(self, rows, m):
        pop = Population(*np.array(rows, dtype=float).T)
        a = moment_set(pop)
        b = moment_set(replicate(pop, m))
        np.testing.assert_allclose(b.covariance, a.covariance, atol=1e-12)
        np.testing.assert_allclose(b.means, a.means, atol=1e-12)

    def test_rejects_bad_factor(self, table_pop):
        with pytest.raises(ValueError):
            replicate(table_pop, 0)


class TestAdditivity:
    def test_table_is_additive(self, table_pop):
        assert additive_effects(table_pop)

    def test_perturbation_breaks_it(self, table_pop):
        b = table_pop.b.copy()
        b[2] += 0.5
        assert not additive_effects(Population(table_pop.a, b, table_pop.c, table_pop.z))


class TestConditionReport:
    def test_raw_z_not_scaled(self, table_pop):
        report = condition_report(table_pop, GroupSizes(2, 2, 2))
        assert report.z_centered_ok
        assert not report.z_scaled_ok
        assert report.mean_sq_z == pytest.approx(4.0)

    def test_normalized_z_ok(self, table_pop):
        normalized, _ = normalize_z(table_pop)
        report = condition_report(normalized, GroupSizes(1, 1, 4))
        assert report.z_centered_ok and report.z_scaled_ok
        assert report.fractions_ok

    def test_fourth_moment_bound(self, table_pop):
        report = condition_report(table_pop, GroupSizes(2, 2, 2))
        # c has the largest fourth moments in the table population
        assert report.fourth_moment_bound == pytest.approx(float(np.mean(table_pop.c**4)))

    def test_size_mismatch_rejected(self, table_pop):
        with pytest.raises(ValueError, match="size mismatch"):
            condition_report(table_pop, GroupSizes(2, 2, 3))
