"""Tests of the benchmark itself: inputs, checks and trace arithmetic.

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -p no:cacheprovider

The file name keeps these tests out of the package's own test run.
"""

import functools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (also puts the package sources on sys.path)
import triarm.cli  # noqa: E402
from tracing import Tracer, layer_metrics, self_times  # noqa: E402
from worker import _run_command  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    check_dump,
    command_argv,
    command_problems,
    generate_population,
    write_population,
)

SMALL_ROWS = 280  # assignments of sizes (3,3,2) in mode a-before-b


@pytest.fixture
def work():
    run.WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _small_population(work, seed=3, n=8):
    columns = generate_population(seed, n)
    path = work / f"pop-{seed}-{n}.csv"
    write_population(path, columns)
    return columns, path


def _small_enumerate(csv_path, dump_path):
    return [
        "enumerate", str(csv_path), "--sizes", "3,3,2", "--mode", "a-before-b",
        "--threads", "1", "--format", "json", "--dump", str(dump_path),
    ]  # fmt: skip


def _command(argv):
    record = _run_command(triarm.cli, argv)
    record["kind"] = "timed"
    return record


def _checked(check, records, columns):
    for record in records:
        record["problems"] = command_problems(record, check, columns)
    return run.check_records(records)


def test_generator_is_seed_deterministic(work):
    for workload in WORKLOADS.values():
        if workload.n > 1000:
            continue
        paths = []
        for i, seed in enumerate((7, 7, 8)):
            path = work / f"{workload.name}-{i}.csv"
            write_population(path, generate_population(seed, workload.n))
            paths.append(path)
        first, again, other = (p.read_bytes() for p in paths)
        assert first == again
        assert first != other
        assert command_argv(workload, paths[0], 7, "d") == command_argv(workload, paths[0], 7, "d")
    simulate = WORKLOADS["simulate-800"]
    assert command_argv(simulate, "p", 7) != command_argv(simulate, "p", 8)


def test_corrupted_dump_row_counts_as_failure(work):
    columns, csv_path = _small_population(work)
    records = [_command(_small_enumerate(csv_path, work / f"dump-{i}.csv")) for i in range(2)]
    check = functools.partial(check_dump, expected_rows=SMALL_ROWS)
    assert _checked(check, records, columns) == [[], []]

    dump = Path(records[1]["argv"][-1])
    lines = dump.read_text(encoding="utf-8").splitlines()
    cells = lines[5].split(",")
    cells[5] = repr(float(cells[5]) + 1e-3)  # mr_b of one assignment
    lines[5] = ",".join(cells)
    dump.write_text("\n".join(lines) + "\n", encoding="utf-8")
    problems = _checked(check, records, columns)
    assert problems[0] == []
    assert any("mr_b" in p for p in problems[1])
    assert sum(1 for p in problems if p) / len(problems) == 0.5


def test_nan_in_json_counts_as_failure(work):
    columns, csv_path = _small_population(work)
    record = _command(_small_enumerate(csv_path, work / "dump.csv"))
    check = functools.partial(check_dump, expected_rows=SMALL_ROWS)
    assert _checked(check, [record], columns) == [[]]
    report = json.loads(record["stdout"])
    record["stdout"] = record["stdout"].replace(repr(report["mr"]["z_coef_mean"]), "NaN", 1)
    [problems] = _checked(check, [record], columns)
    assert problems and problems[0].startswith("invalid JSON")


def test_failed_exit_and_exception_count_as_failure(work):
    columns, csv_path = _small_population(work)
    bad_sizes = _small_enumerate(csv_path, work / "dump.csv")
    bad_sizes[bad_sizes.index("3,3,2")] = "3,3,3"
    record = _command(bad_sizes)
    assert record["exit"] == 2
    check = functools.partial(check_dump, expected_rows=SMALL_ROWS)
    [problems] = _checked(check, [record], columns)
    assert problems and problems[0].startswith("exit code 2")


def test_self_times_sum_to_root_wall(work):
    _, csv_path = _small_population(work)
    tracer = Tracer()
    tracer.install()
    try:
        record = _command(_small_enumerate(csv_path, work / "dump.csv"))
    finally:
        tracer.uninstall()
    assert record["exit"] == 0
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"]
    names = {s.name for s in tracer.spans}
    assert {
        "population.load_population",
        "experiments.exact_distribution",
        "assignment.enum",
        "estimators.evaluate_codes",
        "experiments.dump_rows",
    } <= names
    own = self_times(tracer.spans)
    assert all(v >= 0.0 for v in own.values())
    assert sum(own.values()) == pytest.approx(roots[0].duration, rel=1e-9, abs=1e-9)
    layers = layer_metrics(tracer.spans, threads=1, dump_bytes=0)
    assert layers["assignment.enum_rows"] == SMALL_ROWS
    assert layers["estimators.eval_rows"] == SMALL_ROWS


def test_pool_thread_spans_belong_to_engine(work):
    _, csv_path = _small_population(work, n=16)
    argv = [
        "simulate", str(csv_path), "--sizes", "4,8,4", "--reps", "10000", "--seed", "5",
        "--threads", "2", "--format", "json",
    ]  # fmt: skip
    tracer = Tracer()
    tracer.install()
    try:
        record = _command(argv)
    finally:
        tracer.uninstall()
    assert record["exit"] == 0
    [engine] = [s for s in tracer.spans if s.name == "experiments.monte_carlo"]
    draws = [s for s in tracer.spans if s.name == "assignment.draw"]
    assert draws and all(s.parent == engine.id for s in draws)
    layers = layer_metrics(tracer.spans, threads=2, dump_bytes=0)
    assert layers["assignment.draw_rows"] == 10000
    assert 0.0 < layers["experiments.parallel_eff"] <= 1.0


def test_uninstall_restores_every_attribute():
    import triarm.experiments
    import triarm.theory
    from triarm.estimators import BatchEvaluator

    before = (
        triarm.cli.main,
        triarm.cli.load_population,
        triarm.theory.moment_set,
        triarm.experiments.iter_code_batches,
        BatchEvaluator.evaluate_index,
    )
    tracer = Tracer()
    tracer.install()
    assert triarm.cli.main is not before[0]
    tracer.uninstall()
    after = (
        triarm.cli.main,
        triarm.cli.load_population,
        triarm.theory.moment_set,
        triarm.experiments.iter_code_batches,
        BatchEvaluator.evaluate_index,
    )
    assert after == before


def test_fails_without_program_sources(work):
    lone = work / "lone"
    shutil.copytree(run.HERE, lone / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", lone / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "enumerate-15",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=lone, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
