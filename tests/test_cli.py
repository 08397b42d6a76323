import contextlib
import csv
import io
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import triarm
from triarm import GroupSizes, load_population, normalize_z, population, q_tilde, theory_report
from triarm.cli import main


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text):
    """Parse a report as RFC 8259 JSON: NaN and Infinity are errors."""
    return json.loads(text, parse_constant=_reject_constant)


def write_population(tmp_path, text, name="pop.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_cli_process(*argv, timeout=60):
    """Run the CLI in a fresh interpreter, killed after ``timeout`` seconds."""
    env = dict(os.environ)
    src = str(Path(triarm.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "triarm.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


@pytest.fixture()
def table_csv(tmp_path):
    path = tmp_path / "table1.csv"
    path.write_text(
        "a,b,c,z\n0,1,2,0\n0,1,2,0\n0,1,2,0\n2,3,4,-2\n2,3,4,-2\n4,5,6,4\n",
        encoding="utf-8",
    )
    return str(path)


def write_population_csv(path, pop):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["a", "b", "c", "z"])
        for row in zip(pop.a, pop.b, pop.c, pop.z):
            writer.writerow([repr(float(v)) for v in row])
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_report_values(self, capsys, table_csv):
        code, out, err = run_cli(capsys, "analyze", table_csv, "--sizes", "2,2,2", "--format", "json")
        assert code == 0
        report = strict_json(out)
        assert report["q_tilde"] == pytest.approx(2 / 3, abs=1e-14)
        np.testing.assert_allclose(report["bias_k"], 0.0, atol=1e-12)
        assert report["gamma"]["verdict"] == "adjustment helps"
        assert "covariate normalized" in err

    def test_json_round_trip_exact(self, capsys, table_csv):
        code, out, _ = run_cli(capsys, "analyze", table_csv, "--sizes", "2,2,2", "--format", "json")
        report = strict_json(out)
        pop, _ = normalize_z(load_population(table_csv))
        expected = theory_report(pop, GroupSizes(2, 2, 2), ("A", "C"))
        assert report["q_tilde"] == expected.q_tilde  # bit-exact round trip
        assert report["sigma"] == expected.sigma.tolist()

    def test_csv_round_trip_exact(self, capsys, table_csv):
        code, out, _ = run_cli(capsys, "analyze", table_csv, "--sizes", "2,2,2", "--format", "csv")
        rows = dict()
        for key, value in csv.reader(io.StringIO(out)):
            rows[key] = value
        pop, _ = normalize_z(load_population(table_csv))
        assert float(rows["q_tilde"]) == q_tilde(pop, GroupSizes(2, 2, 2))
        expected = theory_report(pop, GroupSizes(2, 2, 2), ("A", "C"))
        assert float(rows["sigma[0][0]"]) == expected.sigma[0, 0]

    def test_size_mismatch_exit_2(self, capsys, table_csv):
        code, out, err = run_cli(capsys, "analyze", table_csv, "--sizes", "2,2,3")
        assert code == 2
        assert "size mismatch" in err

    def test_require_policy_rejects_raw_z(self, capsys, table_csv):
        code, _, err = run_cli(
            capsys, "analyze", table_csv, "--sizes", "2,2,2", "--normalize", "require"
        )
        assert code == 2
        assert "not normalized" in err

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_off_policy_warns(self, capsys, table_csv):
        code, out, err = run_cli(
            capsys, "analyze", table_csv, "--sizes", "2,2,2", "--normalize", "off"
        )
        assert code == 0
        assert "raw scale" in err

    @pytest.mark.parametrize(
        "command, flags",
        [("analyze", ()), ("simulate", ("--reps", "200", "--seed", "1"))],
    )
    def test_off_policy_warns_once(self, table_csv, command, flags):
        result = run_cli_process(
            command, table_csv, "--sizes", "2,2,2", "--normalize", "off", *flags
        )
        assert result.returncode == 0
        lines = result.stderr.splitlines()
        assert len([line for line in lines if "not normalized" in line]) == 1
        assert "UserWarning" not in result.stderr

    def test_off_policy_unrealizable_names_covariate(self, capsys, tmp_path):
        s = np.array([-1.5, -0.5, 0.0, 0.5, 1.5, 0.0])
        pop = triarm.Population(s, 2.0 * s, -s, 50.0 + 12.0 * s)
        path = write_population_csv(tmp_path / "raw.csv", pop)
        code, out, err = run_cli(capsys, "analyze", path, "--sizes", "2,2,2", "--normalize", "off")
        assert code == 2
        assert out == ""
        assert "covariate z has mean 50.0 and mean square" in err
        assert "need 0 and 1" in err

    def test_normalization_decided_once_per_population(self, capsys, table_csv, monkeypatch):
        decided = []
        real = population._compute_z_moments

        def counting(pop):
            decided.append(pop)
            return real(pop)

        monkeypatch.setattr(population, "_compute_z_moments", counting)
        code, _, _ = run_cli(capsys, "analyze", table_csv, "--sizes", "2,2,2")
        assert code == 0
        # once for the raw population, once for its normalized copy:
        # normalize_z reads the raw pair instead of summing z again
        assert len(decided) == 2
        assert decided[0] is not decided[1]

    def test_response_shift_invariant(self, capsys, tmp_path, linear_response_population):
        reports = []
        for shift in (0.0, 1e5):
            path = write_population_csv(tmp_path / f"shift{shift:g}.csv", linear_response_population(shift))
            code, out, err = run_cli(capsys, "analyze", path, "--sizes", "150,300,150", "--format", "json")
            assert code == 0, err
            reports.append(strict_json(out))
        base, shifted = reports
        for key in ("sigma", "sigma_sq", "nominal_asymptotic"):
            np.testing.assert_allclose(shifted[key], base[key], rtol=1e-11, atol=0)
        assert shifted["gamma"]["value"] == pytest.approx(base["gamma"]["value"], rel=1e-11, abs=0)

    def test_neutral_verdict_for_orthogonal_covariate(self, capsys, tmp_path):
        from triarm import make_orthogonal_population

        pop = make_orthogonal_population(8)
        path = tmp_path / "orth.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "b", "c", "z"])
            for row in zip(pop.a, pop.b, pop.c, pop.z):
                writer.writerow([repr(float(v)) for v in row])
        code, out, _ = run_cli(
            capsys, "analyze", str(path), "--sizes", "2,4,2", "--pair", "A,C", "--format", "json"
        )
        assert code == 0
        report = strict_json(out)
        assert report["q"] == 0.0
        assert report["gamma"]["verdict"] == "adjustment neutral"

    def test_threads_env_default(self, capsys, table_csv, monkeypatch):
        monkeypatch.setenv("TRIARM_THREADS", "2")
        code, out, _ = run_cli(capsys, "analyze", table_csv, "--sizes", "2,2,2")
        assert code == 0

    def test_threads_env_not_an_integer_exit_2(self, capsys, table_csv, monkeypatch):
        monkeypatch.setenv("TRIARM_THREADS", "abc")
        code, _, err = run_cli(capsys, "analyze", table_csv, "--sizes", "2,2,2")
        assert code == 2
        assert err.startswith("error: TRIARM_THREADS")

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_2(self, capsys, table_csv, threads):
        code, out, err = run_cli(
            capsys, "simulate", table_csv, "--sizes", "2,2,2", "--reps", "100", "--seed", "1",
            "--threads", threads,
        )
        assert code == 2
        assert out == ""
        assert f"--threads must be at least 1, got {threads}" in err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_env_below_one_exit_2(self, capsys, table_csv, monkeypatch, threads):
        monkeypatch.setenv("TRIARM_THREADS", threads)
        code, out, err = run_cli(
            capsys, "simulate", table_csv, "--sizes", "2,2,2", "--reps", "100", "--seed", "1"
        )
        assert code == 2
        assert out == ""
        assert err == f"error: TRIARM_THREADS must be at least 1, got {threads}\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--sizes", "1,2"], "--sizes expects three comma-separated counts, got '1,2'"),
            (["--sizes", "a,b,c"], "bad --sizes 'a,b,c': invalid literal for int()"),
            (["--sizes", "2,2,2", "--pair", "A"], "--pair expects two of A,B,C, got 'A'"),
            (["--sizes", "2,2,2", "--pair", "B,B"], "--pair expects two distinct groups, got 'B,B'"),
        ],
    )
    def test_bad_sizes_or_pair_exit_2(self, capsys, table_csv, flags, message):
        code, out, err = run_cli(capsys, "analyze", table_csv, *flags)
        assert code == 2
        assert out == ""
        assert f"error: {message}" in err
        assert "Traceback" not in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "/nonexistent.csv", "--sizes", "2,2,2")
        assert code == 2
        assert "error:" in err

    def test_header_only_prints_only_the_error(self, tmp_path):
        # numpy's reader warns "input contained no data" before the fallback
        path = write_population(tmp_path, "a,b,c,z\n")
        result = run_cli_process("analyze", path, "--sizes", "1,1,1")
        assert result.returncode == 2
        assert result.stderr == "error: empty body\n"
        assert result.stdout == ""

    def test_replicate_flag(self, capsys, table_csv):
        code, out, _ = run_cli(
            capsys,
            "analyze",
            table_csv,
            "--sizes", "4,4,4",
            "--replicate", "2",
            "--format", "json",
        )
        assert code == 0
        assert strict_json(out)["n"] == 12

    @pytest.mark.parametrize("command", ["analyze", "enumerate", "simulate"])
    @pytest.mark.parametrize("factor", ["0", "-2"])
    def test_replicate_below_one_exit_2(self, capsys, table_csv, command, factor):
        extra = ("--reps", "100", "--seed", "1") if command == "simulate" else ()
        code, out, err = run_cli(
            capsys, command, table_csv, "--sizes", "2,2,2", "--replicate", factor, *extra
        )
        assert code == 2
        assert out == ""
        assert f"--replicate must be at least 1, got {factor}" in err

    # only inputs refused before anything is allocated: a mismatched size
    # check, or a tiling numpy refuses outright (n past int64, or bytes
    # past its largest array); a factor such as 10**9 would really allocate
    HUGE = str(10**20)

    @pytest.mark.parametrize("command", ["analyze", "enumerate", "simulate"])
    def test_replicate_checked_against_sizes_before_tiling(self, capsys, table_csv, command):
        extra = ("--reps", "100", "--seed", "1") if command == "simulate" else ()
        code, out, err = run_cli(
            capsys, command, table_csv, "--sizes", "2,2,2", "--replicate", self.HUGE, *extra
        )
        assert code == 2
        assert out == ""
        assert err == f"error: size mismatch: group sizes sum to 6, population has {6 * 10**20} subjects\n"

    @pytest.mark.parametrize("command", ["analyze", "enumerate", "simulate"])
    def test_replicate_too_large_to_tile_exit_2(self, capsys, table_csv, command):
        extra = ("--reps", "100", "--seed", "1") if command == "simulate" else ()
        # 10**20 overflows int64; 6 * 10**18 subjects fit in it, their bytes do not
        for factor in (10**20, 10**18):
            sizes = ",".join([str(2 * factor)] * 3)
            code, out, err = run_cli(
                capsys, command, table_csv, "--sizes", sizes, "--replicate", str(factor), *extra
            )
            assert code == 2
            assert out == ""
            assert err.startswith(f"error: --replicate {factor} is too large")
            assert "Traceback" not in err


class TestDumpTarget:
    """FILE appears only on success; a failed run keeps an earlier file."""

    RUNS = {
        # 30 rows at (10,10,10) trip the enumeration limit: exit 3
        "enumerate-limit": (
            "\n".join(["a,b,c,z"] + [f"{i},{i % 7},{i % 5},{i % 3}" for i in range(30)]),
            ("enumerate", "--sizes", "10,10,10"),
            3,
        ),
        # every assignment of three singletons is singular: exit 2
        "simulate-singular": (
            "a,b,c,z\n1,2,3,0.5\n2,3,1,-1\n0,1,2,2",
            ("simulate", "--sizes", "1,1,1", "--reps", "1000", "--seed", "1"),
            2,
        ),
        "enumerate-singular": (
            "a,b,c,z\n1,2,3,0.5\n2,3,1,-1\n0,1,2,2",
            ("enumerate", "--sizes", "1,1,1"),
            2,
        ),
    }

    @pytest.mark.parametrize("earlier", [b"earlier dump\r\n", None], ids=["earlier", "none"])
    @pytest.mark.parametrize("run", list(RUNS))
    def test_failed_run_keeps_file(self, capsys, tmp_path, run, earlier):
        body, (command, *flags), exit_code = self.RUNS[run]
        path = write_population(tmp_path, body + "\n")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        dump = out_dir / "rows.csv"
        if earlier is not None:
            dump.write_bytes(earlier)
        code, out, err = run_cli(capsys, command, path, *flags, "--dump", str(dump))
        assert code == exit_code
        assert out == ""
        assert "error:" in err
        left = sorted(p.name for p in out_dir.iterdir())
        assert left == ([] if earlier is None else ["rows.csv"])
        if earlier is not None:
            assert dump.read_bytes() == earlier

    def test_success_replaces_earlier_file(self, capsys, table_csv, tmp_path):
        dump = tmp_path / "rows.csv"
        dump.write_bytes(b"earlier dump\r\n")
        code, _, _ = run_cli(
            capsys, "enumerate", table_csv, "--sizes", "1,1,4", "--dump", str(dump)
        )
        assert code == 0
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []
        assert dump.read_bytes().startswith(b"assignment,itt_a,")
        assert dump.read_bytes().count(b"\r\n") == 31

    def test_symlink_target_replaced_link_kept(self, capsys, table_csv, tmp_path):
        (tmp_path / "real").mkdir()
        link = tmp_path / "rows.csv"
        link.symlink_to(tmp_path / "real" / "rows.csv")
        code, _, _ = run_cli(
            capsys, "enumerate", table_csv, "--sizes", "1,1,4", "--dump", str(link)
        )
        assert code == 0
        assert link.is_symlink()
        assert (tmp_path / "real" / "rows.csv").read_bytes().count(b"\r\n") == 31

    def test_pipe_written_not_replaced(self, capsys, table_csv, tmp_path):
        # a device or pipe (say /dev/null) must never be renamed over
        fifo = tmp_path / "rows.pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        code, _, _ = run_cli(
            capsys, "enumerate", table_csv, "--sizes", "1,1,4", "--dump", str(fifo)
        )
        reader.join(timeout=30)
        assert code == 0
        assert not reader.is_alive()
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert received[0].count(b"\r\n") == 31
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.pipe", "table1.csv"]

    def test_missing_directory_names_file(self, capsys, table_csv, tmp_path):
        (tmp_path / "d").mkdir()
        (tmp_path / "dlink").symlink_to(tmp_path / "d")
        # a symlink to a directory, and a directory given with its slash,
        # are named as given, not as the resolved directory
        cases = [
            (str(tmp_path / "missing" / "rows.csv"), "No such file or directory"),
            (str(tmp_path / "dlink"), "Is a directory"),
            (str(tmp_path / "d") + os.sep, "Is a directory"),
        ]
        for dump, reason in cases:
            code, _, err = run_cli(
                capsys, "enumerate", table_csv, "--sizes", "1,1,4", "--dump", dump
            )
            assert code == 2
            assert f"{reason}: '{dump}'" in err

    @pytest.mark.parametrize(
        "flags",
        [("enumerate",), ("simulate", "--reps", "100", "--seed", "1")],
        ids=["enumerate", "simulate"],
    )
    def test_empty_path_exit_2(self, capsys, table_csv, tmp_path, monkeypatch, flags):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        command, *extra = flags
        code, out, err = run_cli(
            capsys, command, table_csv, "--sizes", "2,2,2", *extra, "--dump", ""
        )
        assert code == 2
        assert out == ""
        assert err == "error: dump path must not be empty, got ''\n"
        assert os.getcwd() == str(work)
        assert list(work.iterdir()) == []

    def test_empty_path_refused_by_engines(self, table_csv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        pop, sizes = normalize_z(load_population(table_csv))[0], GroupSizes(2, 2, 2)
        with pytest.raises(ValueError, match="dump path must not be empty"):
            triarm.exact_distribution(pop, sizes, dump_path="")
        with pytest.raises(ValueError, match="dump path must not be empty"):
            triarm.monte_carlo(pop, sizes, reps=100, seed=1, dump_path="")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["table1.csv"]


class TestEnumerate:
    def test_counts_and_zero_bias_rendering(self, capsys, table_csv):
        code, out, _ = run_cli(capsys, "enumerate", table_csv, "--sizes", "2,2,2")
        assert code == 0
        assert "assignment_count: 90" in out
        assert "bias: [0.0000, 0.0000, 0.0000]" in out

    def test_unbalanced_count(self, capsys, table_csv):
        code, out, _ = run_cli(
            capsys, "enumerate", table_csv, "--sizes", "1,1,4", "--format", "json"
        )
        report = strict_json(out)
        assert report["assignment_count"] == 30
        assert report["mode"] == "all"

    def test_guard_exit_3(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "big.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "b", "c", "z"])
            for row in rng.uniform(-5, 5, size=(30, 4)):
                writer.writerow([repr(float(v)) for v in row])
        code, _, err = run_cli(capsys, "enumerate", str(path), "--sizes", "10,10,10")
        assert code == 3
        assert "5550996791340" in err

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_limit_below_one_exit_2(self, capsys, table_csv, limit):
        code, out, err = run_cli(
            capsys, "enumerate", table_csv, "--sizes", "2,2,2", "--limit", limit
        )
        assert code == 2
        assert out == ""
        assert f"--limit must be at least 1, got {limit}" in err

    def test_dump_file(self, capsys, table_csv, tmp_path):
        dump = tmp_path / "rows.csv"
        code, _, _ = run_cli(
            capsys, "enumerate", table_csv, "--sizes", "1,1,4", "--dump", str(dump)
        )
        assert code == 0
        with open(dump, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "assignment"
        assert len(rows) == 31

    def test_dump_byte_identical_across_threads(self, capsys, tmp_path):
        # (4, 4, 3) has 11,550 assignments: three exact-engine batches
        rng = np.random.default_rng(5)
        rows = [",".join(map(repr, row)) for row in rng.uniform(-3, 3, (11, 4)).tolist()]
        path = write_population(tmp_path, "\n".join(["a,b,c,z"] + rows) + "\n")
        dumps = set()
        for threads in ("1", "2", "3"):
            dump = tmp_path / f"rows-{threads}.csv"
            code, _, _ = run_cli(
                capsys, "enumerate", path, "--sizes", "4,4,3", "--threads", threads,
                "--dump", str(dump),
            )
            assert code == 0
            dumps.add(dump.read_bytes())
        assert len(dumps) == 1
        assert dumps.pop().count(b"\r\n") == 1 + 11_550


class TestRowPermutation:
    """Metamorphic relations: the order of the CSV's rows must not matter.

    Every population sum is exactly rounded, so ``analyze`` must print the
    same bytes.  ``enumerate`` visits the same set of labelings in another
    order, so its counts and truth are equal and its moments agree to
    roundoff.
    """

    def test_analyze_stdout_identical(self, capsys, tmp_path):
        # a spans 1e-30 to 1e30 in magnitude with mixed signs, so its exact
        # power sums take many extraction levels
        rng = np.random.default_rng(7)
        columns = rng.normal(1.0, 2.0, size=(4, 5000))
        columns[0] = rng.choice([-1.0, 1.0], 5000) * 10.0 ** rng.uniform(-30, 30, 5000)
        path = tmp_path / "pop.csv"  # both orders are written here, so the reports name one path
        outputs = []
        for order in (np.arange(5000), rng.permutation(5000)):
            write_population_csv(path, population.Population(*columns[:, order]))
            for fmt in ("table", "json"):
                code, out, err = run_cli(
                    capsys, "analyze", str(path), "--sizes", "1250,2500,1250", "--format", fmt
                )
                assert code == 0, err
                outputs.append(out)
        assert outputs[2:] == outputs[:2]

    def test_enumerate_moments_agree(self, capsys, tmp_path):
        rng = np.random.default_rng(8)
        columns = rng.normal([[2.0], [3.0], [1.0], [50.0]], [[1.0], [1.5], [1.2], [12.0]], (4, 12))
        reports = []
        for name, order in (("rows", np.arange(12)), ("permuted", rng.permutation(12))):
            path = write_population_csv(tmp_path / f"{name}.csv", population.Population(*columns[:, order]))
            code, out, err = run_cli(capsys, "enumerate", path, "--sizes", "4,4,4", "--format", "json")
            assert code == 0, err
            reports.append(strict_json(out))
        base, permuted = reports
        for key in ("truth", "assignment_count", "singular_count"):
            assert permuted[key] == base[key], key
        # Each labeling's group sums add the same values in another order,
        # and the merge adds the 34,650 rows in another order: both move a
        # result by a few ulps of the values it is built from, which are of
        # the order of the arms' spread.  1e-12 times the largest arm
        # standard deviation s (s^2 for covariances, which carry squared
        # units) is about 4,500 ulps: far above that roundoff, far below
        # any real disagreement, and it scales with the data.
        s = max(float(np.std(columns[k])) for k in range(3))
        for estimator in ("itt", "mr"):
            for key, tol in (("mean", 1e-12 * s), ("cov", 1e-12 * s * s)):
                np.testing.assert_allclose(
                    permuted[estimator][key], base[estimator][key], rtol=0, atol=tol,
                    err_msg=f"{estimator} {key}",
                )


class TestSimulate:
    def test_dump_byte_identical_across_threads(self, capsys, table_csv, tmp_path):
        # 10,000 replicates at n = 6 make three Monte Carlo batches
        dumps = set()
        for threads in ("1", "2", "3"):
            dump = tmp_path / f"reps-{threads}.csv"
            code, _, _ = run_cli(
                capsys, "simulate", table_csv, "--sizes", "2,2,2", "--reps", "10000",
                "--seed", "7", "--threads", threads, "--dump", str(dump),
            )
            assert code == 0
            dumps.add(dump.read_bytes())
        assert len(dumps) == 1
        assert dumps.pop().count(b"\r\n") == 1 + 10_000

    def test_byte_identical_across_threads_and_reruns(self, capsys, table_csv):
        outputs = set()
        for threads in ("1", "2", "3", "1"):
            code, out, _ = run_cli(
                capsys,
                "simulate",
                table_csv,
                "--sizes", "2,2,2",
                "--reps", "2000",
                "--seed", "7",
                "--threads", threads,
                "--format", "json",
            )
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_seed_changes_output(self, capsys, table_csv):
        outs = []
        for seed in ("7", "8"):
            _, out, _ = run_cli(
                capsys,
                "simulate", table_csv,
                "--sizes", "2,2,2", "--reps", "500", "--seed", seed, "--format", "json",
            )
            outs.append(out)
        assert outs[0] != outs[1]

    def test_single_rep_exit_2(self, capsys, table_csv):
        code, _, err = run_cli(
            capsys, "simulate", table_csv, "--sizes", "2,2,2", "--reps", "1", "--seed", "0"
        )
        assert code == 2
        assert err == "error: --reps must be at least 2, got 1\n"

    def test_reps_checked_before_csv_is_read(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.csv")
        code, out, err = run_cli(
            capsys, "simulate", missing, "--sizes", "2,2,2", "--reps", "1", "--seed", "0"
        )
        assert code == 2
        assert out == ""
        assert err == "error: --reps must be at least 2, got 1\n"

    def test_seed_below_zero_exit_2(self, capsys, table_csv, tmp_path):
        # checked before the CSV is read: a missing file gives the same error
        for path in (table_csv, str(tmp_path / "missing.csv")):
            code, out, err = run_cli(
                capsys, "simulate", path, "--sizes", "2,2,2", "--reps", "100", "--seed", "-1"
            )
            assert code == 2
            assert out == ""
            assert err == "error: --seed must be at least 0, got -1\n"

    def test_comparison_section(self, capsys, table_csv):
        _, out, _ = run_cli(
            capsys,
            "simulate", table_csv,
            "--sizes", "2,2,2", "--reps", "4000", "--seed", "3", "--format", "json",
        )
        report = strict_json(out)
        section = report["nominal_vs_empirical"]["A-C"]
        assert set(section) == {"empirical_mr_var", "mean_nominal_var", "ratio", "empirical_itt_var"}
        assert section["ratio"] == pytest.approx(
            section["mean_nominal_var"] / section["empirical_mr_var"]
        )

    def test_undefined_residual_variance_is_null(self, capsys, tmp_path):
        # n = 4 leaves no residual degrees of freedom
        path = write_population(
            tmp_path, "a,b,c,z\n1,2,3,0.5\n2,3,1,-1\n0,1,2,2\n1,0,0,0.3\n"
        )
        code, out, _ = run_cli(
            capsys, "simulate", path, "--sizes", "1,1,2", "--reps", "500", "--seed", "1",
            "--format", "json",
        )
        assert code == 0
        report = strict_json(out)
        assert report["mr"]["mean_sigma_hat_sq"] is None
        assert all(v is None for row in report["mean_nominal_cov"] for v in row)

    def test_zero_response_variance_is_null(self, capsys, tmp_path):
        # constant responses: the lead term never varies, so its
        # skewness and kurtosis are undefined
        path = write_population(
            tmp_path, "a,b,c,z\n1,2,3,0\n1,2,3,1\n1,2,3,2\n1,2,3,3\n1,2,3,4\n1,2,3,5\n"
        )
        code, out, _ = run_cli(
            capsys, "simulate", path, "--sizes", "2,2,2", "--reps", "1000", "--seed", "1",
            "--format", "json",
        )
        assert code == 0
        report = strict_json(out)
        assert report["zeta"]["skewness"] == [None, None, None]
        assert report["zeta"]["kurtosis"] == [None, None, None]

    def test_roundoff_variance_gives_no_ratio(self, capsys, tmp_path):
        # constant responses: the adjusted estimates vary by roundoff only
        # (empirical contrast variance ~1e-34), so the residual variance
        # must not go negative and no nominal/empirical ratio is defined
        path = write_population(
            tmp_path, "a,b,c,z\n1,2,3,0\n1,2,3,1\n1,2,3,2\n1,2,3,3\n1,2,3,4\n1,2,3,5\n"
        )
        code, out, _ = run_cli(
            capsys, "simulate", path, "--sizes", "2,2,2", "--reps", "1000", "--seed", "1",
            "--format", "json",
        )
        assert code == 0
        report = strict_json(out)
        assert report["mr"]["mean_sigma_hat_sq"] >= 0.0
        for pair in report["nominal_vs_empirical"].values():
            assert pair["mean_nominal_var"] >= 0.0
            assert pair["ratio"] is None

    @pytest.mark.parametrize(
        "body, flags",
        [
            # every assignment of three subjects to three groups is singular
            ("1,2,3,0.5\n2,3,1,-1\n0,1,2,2\n", ("--sizes", "1,1,1")),
            # not exactly collinear, but below the singularity threshold
            (
                "1,2,3,0\n2,3,1,0\n0,1,2,0\n3,1,2,0\n1,1,1,0\n2,2,0,1e-7\n",
                ("--sizes", "2,2,2", "--normalize", "off"),
            ),
        ],
        ids=["three-singletons", "near-collinear"],
    )
    def test_always_singular_design_exit_2(self, tmp_path, body, flags):
        path = write_population(tmp_path, "a,b,c,z\n" + body)
        result = run_cli_process(
            "simulate", path, *flags, "--reps", "1000", "--seed", "1", "--format", "json"
        )
        assert result.returncode == 2
        assert "error: singular design" in result.stderr
        assert "fraction 1" in result.stderr
        assert result.stdout == ""


#: Rows whose population sums leave the float range, by what overflows.
OVERFLOW_BODIES = {
    # fsum of b and of c overflows
    "mean": "1e308,1e308,1e308,1\n-1e308,1e308,1e308,2\n1e308,-1e308,1e308,3\n"
    "1,2,3,4\n5,6,7,5\n8,9,1,6\n",
    # a's mean is finite, its squared deviations are not
    "variance": "1e200,2,3,1\n-1e200,3,4,2\n3,4,5,3\n4,5,6,4\n5,6,7,5\n6,7,8,6\n",
    # only the fourth absolute moment of a overflows
    "fourth": "1e100,2,3,1\n-1e100,3,4,2\n3,4,5,3\n4,5,6,4\n5,6,7,5\n6,7,8,6\n",
    # every moment of a is finite, its squares are not
    "square": "1e200,2,3,1\n1e200,3,4,2\n1e200,4,5,3\n1e200,5,6,4\n1e200,6,7,5\n1e200,7,8,6\n",
}

_OVERFLOW_COMMANDS = {
    "analyze": (),
    "enumerate": (),
    "simulate": ("--reps", "50", "--seed", "1"),
}


class TestOverflow:
    @pytest.mark.parametrize("command", list(_OVERFLOW_COMMANDS))
    @pytest.mark.parametrize(
        "body, named", [("mean", "the mean of b"), ("variance", "the variance of a")]
    )
    def test_overflow_exit_2(self, tmp_path, command, body, named):
        path = write_population(tmp_path, "a,b,c,z\n" + OVERFLOW_BODIES[body])
        result = run_cli_process(
            command, path, "--sizes", "2,2,2", *_OVERFLOW_COMMANDS[command], "--format", "json"
        )
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert f"error: {named} is not finite" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("command", list(_OVERFLOW_COMMANDS))
    def test_fourth_moment_overflow_exit_0(self, tmp_path, command):
        path = write_population(tmp_path, "a,b,c,z\n" + OVERFLOW_BODIES["fourth"])
        result = run_cli_process(
            command, path, "--sizes", "2,2,2", *_OVERFLOW_COMMANDS[command], "--format", "json"
        )
        assert result.returncode == 0
        assert "Traceback" not in result.stderr
        assert "RuntimeWarning" not in result.stderr
        report = strict_json(result.stdout)
        if command == "analyze":
            assert report["moments"]["fourth_abs_moments"]["a"] is None
            assert report["moments"]["fourth_abs_moments"]["b"] is not None
            assert report["gamma"]["value"] is not None


    @pytest.mark.parametrize("command", list(_OVERFLOW_COMMANDS))
    def test_square_overflow_refused_by_engines(self, tmp_path, command):
        path = write_population(tmp_path, "a,b,c,z\n" + OVERFLOW_BODIES["square"])
        result = run_cli_process(
            command, path, "--sizes", "2,2,2", *_OVERFLOW_COMMANDS[command], "--format", "json"
        )
        assert "Traceback" not in result.stderr
        assert "RuntimeWarning" not in result.stderr
        if command == "analyze":
            # the closed forms never form the squares
            assert result.returncode == 0
            strict_json(result.stdout)
        else:
            assert result.returncode == 2
            assert "error: n times the sum of squares of a is not finite" in result.stderr
            assert result.stdout == ""

    @pytest.mark.parametrize("body", list(OVERFLOW_BODIES))
    def test_analyze_outcome_past_exact_sum_cutoff(self, tmp_path, capsys, monkeypatch, body):
        # 200 copies make n = 1,200, long enough for the population sums to
        # run their extraction kernel: its guards, not its size cutoff, must
        # keep math.fsum's outcomes
        assert 6 * 200 >= population._EXACT_SUM_MIN_SIZE
        path = write_population(tmp_path, "a,b,c,z\n" + OVERFLOW_BODIES[body])
        argv = ("analyze", path, "--sizes", "400,400,400", "--replicate", "200", "--format", "json")
        scaled = run_cli_process(*argv)
        small = run_cli_process("analyze", path, "--sizes", "2,2,2", "--format", "json")
        expected = small.stderr
        if body == "mean":
            # fsum's running sum over 200 copies of a leaves the float range,
            # though a's mean does not, so a is named before b
            expected = expected.replace("the mean of b", "the mean of a")
        assert (scaled.returncode, scaled.stderr) == (small.returncode, expected)
        monkeypatch.setattr(population, "_EXACT_SUM_MIN_SIZE", sys.maxsize)
        assert run_cli(capsys, *argv) == (scaled.returncode, scaled.stdout, scaled.stderr)


class TestReproduce:
    @pytest.mark.parametrize("scenario", ["example2", "example3", "example4", "theorem5", "theorem6"])
    def test_scenarios_pass(self, capsys, scenario):
        code, out, _ = run_cli(capsys, "reproduce", "--scenario", scenario, "--format", "json")
        assert code == 0
        report = strict_json(out)
        assert report["passed"] is True
        assert report["discrepancy"] is False

    def test_table_format(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--scenario", "theorem5", "--format", "table")
        assert code == 0
        lines = out.splitlines()
        start = lines.index("rows:")
        assert lines[start + 1] == "  label                  computed  reference  tolerance  status"
        assert lines[start + 2].split() == ["bias_a", "0.0000", "0.0000", "1e-12", "pass"]
        # an info row leaves its reference and tolerance cells blank
        assert lines[start + 6] == "  singular_count         0                               info"
        assert lines[-2:] == [
            "notes:",
            "  - balanced design + additive effects: adjusted estimator unbiased",
        ]

    def test_table2_discrepancy_note(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--scenario", "table2", "--format", "json")
        assert code == 0
        report = strict_json(out)
        assert report["passed"] is True
        assert report["discrepancy"] is True
        assert any("discrepancy" in note for note in report["notes"])
        by_label = {row["label"]: row for row in report["rows"]}
        assert by_label["all:effect_c"]["status"] == "pass"
        assert by_label["all:z_coef"]["status"] == "pass"
        assert by_label["all:effect_a"]["status"] == "discrepancy"

    def test_threads_help_gives_range(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["reproduce", "--help"])
        assert err.value.code == 0
        assert "at least 1" in capsys.readouterr().out

    def test_unknown_scenario_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["reproduce", "--scenario", "bogus"])
        assert err.value.code == 2
        assert "table2" in capsys.readouterr().err


# cells whose squares, products or fourth powers leave the double range
_EXTREME_CELLS = ["1e100", "-1e100", "1e154", "1e200"]
_CELL_VALUES = st.one_of(st.integers(-5, 5).map(str), st.floats(-10, 10, allow_nan=False).map(repr))
# past csv's default field limit of 131,072 characters
_LONG_PADDING = " " * 140_000
# at most one edge per case, so that most cases run to the end
_EDGES = ["none"] * 6 + [
    "duplicate rows",
    "constant z",
    "collinear z",
    "extreme column",
    "ragged row",
    "zero group",
    "size mismatch",
    "one group of one",
    "limit",
    "one rep",
    "require normalized",
    "a-before-b",
    "NUL cell",
]


@st.composite
def cli_cases(draw):
    """A tiny population CSV, one subcommand's argv for it, and a thread count above 1."""
    edge = draw(st.sampled_from(_EDGES))
    n = draw(st.integers(3, 8))
    rows = [draw(st.lists(_CELL_VALUES, min_size=4, max_size=4)) for _ in range(n)]
    for row in rows:
        if edge == "duplicate rows":
            row[:] = rows[0]
        elif edge == "constant z":
            row[3] = rows[0][3]
        elif edge == "collinear z":
            row[3] = row[0]
        elif edge == "extreme column":
            row[0] = draw(st.sampled_from(_EXTREME_CELLS))
    if edge == "ragged row":
        rows[-1].append("1")
    header = ["a", "b", "c", "z"]
    if edge == "NUL cell":
        row = draw(st.sampled_from([header, *rows]))
        k = draw(st.integers(0, 3))
        row[k] = draw(st.sampled_from(["\x00", "\x00" + row[k], row[k] + "\x00"]))
    # padded, quoted and BOM-led files read like plain ones
    if draw(st.integers(0, 19)) == 19:  # Hypothesis favours 0: the rare branch is the top
        rows[0][0] = _LONG_PADDING + rows[0][0]
    for row in rows:
        if draw(st.booleans()):
            k = draw(st.integers(0, 3))
            row[k] = f'"{row[k]}"'
    bom = draw(st.sampled_from(["", "\ufeff"]))
    text = bom + "\n".join(map(",".join, [header, *rows])) + "\n"

    command = draw(st.sampled_from(["analyze", "enumerate", "simulate"]))
    replicate = draw(st.integers(1, 3))
    total = n * replicate
    if edge == "zero group":
        sizes = (0, 1, total - 1)
    elif edge == "size mismatch":
        sizes = (1, 1, total - 1)
    elif edge == "one group of one":
        sizes = draw(st.permutations([1, 1, total - 2]))
    else:
        first = draw(st.integers(1, total - 2))
        second = draw(st.integers(1, total - first - 1))
        sizes = (first, second, total - first - second)
    argv = [
        command,
        "POP",
        "--sizes",
        ",".join(map(str, sizes)),
        "--replicate",
        str(replicate),
        "--normalize",
        "require" if edge == "require normalized" else draw(st.sampled_from(["auto", "off"])),
        "--format",
        draw(st.sampled_from(["table", "csv", "json"])),
    ]
    if command == "enumerate":
        limit = draw(st.sampled_from([0, 1, 20])) if edge == "limit" else 2000
        argv += ["--limit", str(limit), "--mode", "a-before-b" if edge == "a-before-b" else "all"]
    elif command == "simulate":
        reps = 1 if edge == "one rep" else draw(st.integers(2, 50))
        argv += ["--reps", str(reps), "--seed", str(draw(st.integers(0, 3)))]
    return text, argv, draw(st.integers(2, 3))


def _run_main_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestAnyInput:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(case=cli_cases())
    # a long cell in a file that the csv row loop parses
    @example(
        case=(
            f'a,b,c,z\n{_LONG_PADDING}1,2,3,4\n"5",6,7,8\n2,3,4,9\n',
            ["analyze", "POP", "--sizes", "1,1,1", "--format", "json"],
            2,
        )
    )
    def test_clean_exit_and_thread_independent_stdout(self, tmp_path, case):
        text, argv, threads = case
        path = write_population(tmp_path, text)
        argv = [path if arg == "POP" else arg for arg in argv]
        code, out, err = _run_main_captured([*argv, "--threads", "1"])
        assert code in (0, 2, 3), err
        assert "Traceback" not in err
        if code == 0 and "json" in argv:
            strict_json(out)
        assert _run_main_captured([*argv, "--threads", str(threads)])[:2] == (code, out)
