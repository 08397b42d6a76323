import csv
import math
import os
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from triarm import (
    Population,
    PopulationFormatError,
    center_responses,
    load_population,
    moment_set,
    normalize_z,
    population,
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
# what numpy's reader takes too: float() alone accepts underscores
_PLAIN_NUMBER_TEXT = _NUMBER_TEXT.filter(lambda text: "_" not in text)
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


@st.composite
def well_formed_csv_texts(draw):
    """CSV texts whose body rows all hold four plain numbers, with empty lines between."""
    names = draw(st.permutations(VARIABLES))
    header = ",".join(draw(_PADDING) + name + draw(_PADDING) for name in names)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    cell = st.tuples(_PADDING, _PLAIN_NUMBER_TEXT, _PADDING).map("".join)
    rows = draw(st.lists(st.tuples(cell, cell, cell, cell).map(",".join), min_size=1, max_size=40))
    rows = [row + end * draw(st.integers(0, 1)) for row in rows]
    return end.join([header, *rows]) + draw(st.sampled_from(["", end]))


def _load_outcome(loader, path):
    try:
        pop = loader(path)
    except PopulationFormatError as exc:
        return ("error", str(exc), exc.row, exc.column)
    return ("ok", *(pop.variable(name).tobytes() for name in VARIABLES))


@pytest.fixture()
def field_limit():
    """A ``csv.field_size_limit`` no load sets, so a load that leaves its own shows."""
    limit = 100_000
    previous = csv.field_size_limit(limit)
    yield limit
    csv.field_size_limit(previous)


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
        # with no warning: numpy's reader warns "input contained no data"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
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
    # str.strip() removes U+001F but float() alone rejects it: the cell
    # is stripped before it is parsed, so it must load
    @example(text="a,b,c,z\n\x1f1.5,2,3,4\n")
    # boundaries of numpy's reader: each must fall back, or agree
    @example(text='a,b,c,z\n"1.5",2,3,4\n')
    @example(text="a,b,c,z\n1,2,3,4\n  \n , , \n5,6,7,8\n")
    @example(text="a,b,c,z\r1,2,3,4\r5,6,7,8\r")
    @example(text="a,b,c,z\n1,2,3,4,\n")
    @example(text="a,b,c,z\n1,2,3,4\n#5,6,7,8\n")
    @example(text="a,b,c,z\n1,2,3\n4,5,6\n")
    @example(text="a,b,c,z\n1,2,3,4\nnan,2,3,4\n")
    @example(text="a,b,c,z\n1,1e400,3,4\n")
    @example(text="a,b,c,z\n\u20031.5\u2003,2,\x1c3\x1c,4\n")
    @example(text="a,b,c,z\n\u0661,2,3,4\n")
    @example(text="a,b,c,z\n1_0,2,3,4\n")
    @example(text="\ufeffa,b,c,z\n1,2,3,4\n")
    @example(text="a,b,c,z\n1,2,3,4")
    @example(text="a,b,c,z\n1,2,3,4\n\n\n5,6,7,8\n")
    @example(text='a,b,c,"z\n"\n1,2,3,4\n')
    def test_matches_reference_loader(self, tmp_path, text):
        # bit-equal columns, or the same message, row and column
        path = write_csv(tmp_path, text)
        assert _load_outcome(load_population, path) == _load_outcome(
            reference_load_population, path
        )

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(text=well_formed_csv_texts())
    def test_well_formed_matches_reference_loader(self, tmp_path, text):
        path = write_csv(tmp_path, text)
        assert _load_outcome(load_population, path) == _load_outcome(
            reference_load_population, path
        )

    def test_random_bits_round_trip(self, tmp_path):
        # 2,000 rows of random doubles, a quarter of them subnormal,
        # written with repr: loading must give back every bit
        bits = np.random.default_rng(20).integers(0, 2**64, size=(2000, 4), dtype=np.uint64)
        bits[::4] &= np.uint64(0x800F_FFFF_FFFF_FFFF)
        values = bits.view(np.float64)
        values[~np.isfinite(values)] = 1.0
        lines = [",".join(map(repr, row)) for row in values.tolist()]
        path = write_csv(tmp_path, "\n".join(["a,b,c,z", *lines]) + "\n")
        pop = load_population(path)
        for i, name in enumerate(VARIABLES):
            assert pop.variable(name).tobytes() == values[:, i].tobytes()
        assert _load_outcome(load_population, path) == _load_outcome(
            reference_load_population, path
        )

    def test_well_formed_file_skips_row_loop(self, tmp_path, monkeypatch):
        def refuse(reader, names):
            raise AssertionError("a well-formed file reached the csv row loop")

        monkeypatch.setattr(population, "_csv_body", refuse)
        pop = load_population(write_csv(tmp_path, "z,c,a,b\n1, 3 ,1,2\r\n\r\n-1,4,2,3\n"))
        np.testing.assert_array_equal(pop.a, [1, 2])
        np.testing.assert_array_equal(pop.z, [1, -1])

    # a cell past csv's default field limit of 131,072 characters
    LONG_PADDING = " " * 140_000

    @pytest.mark.parametrize(
        "text, twin",
        [
            # numpy reads the body; the header goes through csv
            (f"a,b,c,{LONG_PADDING}z\n1,2,3,4\n5,6,7,8\n", "a,b,c,z\n1,2,3,4\n5,6,7,8\n"),
            # the quoted cell sends the whole body to the row loop
            (
                f'a,b,c,z\n{LONG_PADDING}1,2,3,4\n"5",6,7,8\n2,3,4,9\n',
                "a,b,c,z\n1,2,3,4\n5,6,7,8\n2,3,4,9\n",
            ),
        ],
        ids=["header", "fallback body"],
    )
    def test_long_cell_loads_like_short_twin(self, tmp_path, field_limit, text, twin):
        long_path = write_csv(tmp_path, text, "long.csv")
        short_path = write_csv(tmp_path, twin, "short.csv")
        assert _load_outcome(load_population, long_path) == _load_outcome(
            load_population, short_path
        )
        assert csv.field_size_limit() == field_limit

    def test_field_limit_restored_after_error(self, tmp_path, field_limit):
        path = write_csv(tmp_path, f'a,b,c,z\n{self.LONG_PADDING}1,2,3,4\n"x",6,7,8\n')
        with pytest.raises(PopulationFormatError, match="row 2, column 'a'"):
            load_population(path)
        assert csv.field_size_limit() == field_limit

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd on this platform")
    @pytest.mark.parametrize(
        "text",
        ["\ufeffa,b,c,z\r\n1,2,3,4\r\n5,6,7,8\r\n", 'a,b,c,z\n1,2,3,4\n"5",6,7,8\n2,3,4,9\n'],
        ids=["well formed", "quoted cell"],
    )
    def test_pipe_loads_like_regular_file(self, tmp_path, text):
        read_end, write_end = os.pipe()
        # far below a pipe's buffer, so the write never blocks
        os.write(write_end, text.encode("utf-8"))
        os.close(write_end)
        try:
            piped = _load_outcome(load_population, f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert piped == _load_outcome(load_population, write_csv(tmp_path, text))


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

    @pytest.mark.parametrize(
        "lookup",
        [
            lambda pop: pop.variable("q"),
            lambda pop: moment_set(pop).mean("q"),
            lambda pop: moment_set(pop).var("q"),
            lambda pop: moment_set(pop).cov("a", "q"),
        ],
        ids=["variable", "mean", "var", "cov"],
    )
    def test_unknown_variable_named(self, table_pop, lookup):
        with pytest.raises(ValueError, match=r"unknown variable 'q'; expected one of \('a', 'b'"):
            lookup(table_pop)

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


def reference_mean(values, label=None):
    """The population mean as ``math.fsum`` gives it, outcomes included."""
    try:
        mean = math.fsum(values.tolist()) / values.size
    except OverflowError:
        mean = math.inf
    except ValueError:
        mean = math.nan
    if label is not None and not math.isfinite(mean):
        raise ValueError(f"{label} is not finite: the population's values are too large")
    return mean


def _sum_outcome(function, values):
    """``float.hex`` of the result, or the exception's type and message; numpy warnings raise."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return float.hex(function(values))
        except (OverflowError, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}"


#: Lengths around the exact-sum kernel's size cutoff and around the
#: steps of its ``2**m >= n + 2``.
_SUM_LENGTHS = (1000, 1001, 1022, 1023, 1024, 2046, 2047, 4094, 999, 3, 1)


@st.composite
def sum_arrays(draw):
    """Arrays to sum: magnitudes from subnormal to ``2**1020``, exact
    cancellation, signed zeros, all zeros, inf and NaN.

    The elements come from a numpy generator seeded by one drawn
    integer, so a long array costs a few draws.
    """
    n = draw(st.one_of(st.sampled_from(_SUM_LENGTHS), st.integers(1000, 3000)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # log2 of the largest magnitude, and how many binades below it values reach
    top = draw(
        st.one_of(
            st.sampled_from((0, 1000, 1008, 1010, 1012, 1014, 1020, -1022, -1074)),
            st.integers(-1074, 1020),
        )
    )
    span = draw(st.one_of(st.sampled_from((0, 1, 30, 60, 300)), st.integers(0, 2094)))
    exponents = rng.integers(max(top - span, -1074), top, n, endpoint=True)
    values = np.ldexp(rng.uniform(0.5, 1.0, n), exponents)
    sign = draw(st.sampled_from(("+", "-", "mixed")))
    if sign == "-":
        values = -values
    elif sign == "mixed":
        values *= rng.choice([-1.0, 1.0], n)
    if draw(st.booleans()):  # pairs x, -x
        half = n // 2
        values[half : 2 * half] = -values[:half]
        rng.shuffle(values)
    zeros = draw(st.sampled_from(("none", "none", "none", "some", "all")))
    if zeros != "none":
        where = rng.random(n) < (0.1 if zeros == "some" else 1.0)
        values[where] = rng.choice(draw(st.sampled_from(([0.0], [-0.0], [0.0, -0.0]))), where.sum())
    specials = draw(
        st.sampled_from(((),) * 8 + ((math.inf,), (-math.inf,), (math.nan,), (math.inf, -math.inf)))
    )
    values[rng.integers(0, n, len(specials))] = list(specials)
    return values


def double_range_terms(n):
    """``n`` mixed-sign terms, magnitudes from the least subnormal to ``2**999``."""
    rng = np.random.default_rng(0)
    values = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(-1074, 1000, n))
    return values * rng.choice([-1.0, 1.0], n)


class TestExactSum:
    """The extraction kernel against ``math.fsum``: the same bits, or the same outcome."""

    @settings(max_examples=500, deadline=None)
    @given(values=sum_arrays())
    @example(values=np.full(1000, -0.0))
    # fsum's running sum overflows though the total does not
    @example(values=np.array([1e308, 1e308, -1e308] * 400))
    # x, -x pairs at n = 2**10 - 2 whose kernel exponent is at, then one past, the bound
    @example(values=np.ldexp(np.tile([0.75, -0.75], 511), 1010))
    @example(values=np.ldexp(np.tile([0.75, -0.75], 511), 1011))
    @example(values=np.concatenate([np.full(1500, 1e-300), [math.inf]]))
    def test_matches_fsum(self, values):
        assert _sum_outcome(population._exact_sum, values) == _sum_outcome(
            lambda v: math.fsum(v.tolist()), values
        )
        assert _sum_outcome(population._exact_mean, values) == _sum_outcome(reference_mean, values)
        assert _sum_outcome(
            lambda v: population._exact_mean(v, "the mean of x"), values
        ) == _sum_outcome(lambda v: reference_mean(v, "the mean of x"), values)

    @pytest.mark.parametrize(
        "values, full_length_fsums",
        [
            pytest.param(np.random.default_rng(0).normal(3.0, 2.0, 999), 1, id="999-1"),
            pytest.param(np.random.default_rng(0).normal(3.0, 2.0, 5000), 0, id="5000-0"),
            # magnitudes over the whole double range, mixed signs: 53 levels
            pytest.param(double_range_terms(5000), 0, id="5000-double-range-0"),
        ],
    )
    def test_kernel_runs_from_the_cutoff(self, monkeypatch, values, full_length_fsums):
        lengths = []

        def fsum(terms):
            terms = list(terms)
            lengths.append(len(terms))
            return math.fsum(terms)

        monkeypatch.setattr(population, "math", SimpleNamespace(**{**vars(math), "fsum": fsum}))
        assert population._exact_sum(values) == math.fsum(values.tolist())
        assert lengths.count(values.size) == full_length_fsums
        assert len(lengths) == 1


def wide_population(seed, shifted):
    """5,000 rows: a column shifted by 1e8 and one spanning 1e-30 to 1e30 in magnitude.

    ``shifted`` names the shifted column; the next one in a, b, c, z
    (cyclically) is the wide one.
    """
    rng = np.random.default_rng(seed)
    n = 5000
    columns = {name: rng.normal(1.0, 2.0, n) for name in VARIABLES}
    columns["z"] += 0.5 * columns["c"]
    columns[shifted] += 1e8
    wide = VARIABLES[(VARIABLES.index(shifted) + 1) % 4]
    columns[wide] = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-30, 30, n)
    return Population(*(columns[name] for name in VARIABLES))


def _bits(values):
    return [float(x).hex() for x in np.ravel(values)]


_WIDE_CASES = pytest.mark.parametrize("seed, shifted", [(1, "a"), (2, "c"), (3, "z")])


class TestMomentsAboveCutoff:
    """Moments of 5,000-row populations, bit for bit against ``math.fsum``."""

    @_WIDE_CASES
    def test_moment_set(self, seed, shifted):
        pop = wide_population(seed, shifted)
        columns = [pop.variable(name) for name in VARIABLES]
        means = [reference_mean(x) for x in columns]
        cov = [
            [reference_mean((x - mx) * (y - my)) for y, my in zip(columns, means)]
            for x, mx in zip(columns, means)
        ]
        products = [x * pop.z for x in columns[:3]]
        product_means = [reference_mean(xz) for xz in products]
        product_covs = [
            reference_mean((xz - m) * (pop.z - means[3])) for xz, m in zip(products, product_means)
        ]
        ms = moment_set(pop)
        assert _bits(ms.means) == _bits(means)
        assert _bits(ms.covariance) == _bits(cov)
        assert _bits(ms.product_means) == _bits(product_means)
        assert _bits(ms.product_covariances) == _bits(product_covs)
        assert _bits(ms.fourth_abs_moments) == _bits([reference_mean(np.abs(x) ** 4) for x in columns])

    @_WIDE_CASES
    def test_z_moments(self, seed, shifted):
        pop = wide_population(seed, shifted)
        want = (reference_mean(pop.z), reference_mean(pop.z * pop.z))
        assert _bits(z_moments(pop)) == _bits(want)

    @_WIDE_CASES
    def test_centered_product_covariances(self, seed, shifted):
        pop = wide_population(seed, shifted)
        means = moment_set(pop).means
        want = []
        for x, m in zip((pop.a, pop.b, pop.c), means[:3]):
            xz = (x - m) * pop.z
            want.append(reference_mean((xz - reference_mean(xz)) * (pop.z - means[3])))
        assert _bits(population.centered_product_covariances(pop)) == _bits(want)

    @_WIDE_CASES
    def test_normalize_z(self, seed, shifted):
        pop = wide_population(seed, shifted)
        _, zmap = normalize_z(pop)
        shift = reference_mean(pop.z)
        scale = math.sqrt(reference_mean((pop.z - shift) * (pop.z - shift)))
        assert _bits([zmap.shift, zmap.scale]) == _bits([shift, scale])


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

    def test_small_scale_normalizes_like_unit_scale(self):
        # the zero-variance test is relative to z's own magnitude
        shape = np.array([1.0, 4.0, 2.0, 9.0, 13.0, 11.0])
        small, large = (normalize_z(Population(shape, shape, shape, s * shape))[0].z for s in (1e-13, 1e-3))
        np.testing.assert_allclose(small, large, rtol=0, atol=1e-15)

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

    # 10**20 overflows int64; 6 * 10**18 subjects fit in it, their bytes do not
    @pytest.mark.parametrize("factor", [10**18, 10**20])
    def test_factor_too_large_to_tile_named(self, table_pop, factor):
        message = f"replication factor {factor} is too large: {6 * factor} subjects"
        with pytest.raises(ValueError, match=message):
            replicate(table_pop, factor)
