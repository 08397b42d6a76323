"""The benchmark's tracer still wraps every layer boundary it names.

``perfbench/tracing.py`` rebinds ``iter_code_batches`` wherever the
package names it, wraps ``BatchEvaluator.evaluate_codes`` and
``evaluate_index`` by name, and counts ``len()`` of each yielded batch
and of each evaluated batch as rows.  A renamed method or a batch without
a length would make every traced benchmark run fail.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from triarm import GroupSizes, assignment_count
from triarm.cli import main
from triarm.estimators import BatchEvaluator

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.fixture
def population(tmp_path):
    rng = np.random.default_rng(7)
    rows = rng.normal(size=(6, 4)).tolist()
    path = tmp_path / "pop.csv"
    path.write_text("a,b,c,z\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows))
    return path


def traced(argv):
    """The spans of one ``main(argv)`` run under the tracer; the run must exit 0."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(argv) == 0
    finally:
        tracer.uninstall()
    return tracer.spans


def rows(spans, name):
    # the last ``next()`` of an enumeration counts no rows
    return sum(s.counts.get("rows", 0) for s in spans if s.name == name)


@pytest.mark.parametrize("dump", [False, True])
def test_enumerate_rows_are_counted(population, tmp_path, capsys, dump):
    argv = ["enumerate", str(population), "--sizes", "2,2,2", "--format", "json"]
    if dump:
        argv += ["--dump", str(tmp_path / "dump.csv")]
    spans = traced(argv)
    count = assignment_count(GroupSizes(2, 2, 2))
    assert rows(spans, "assignment.enum") == count
    assert rows(spans, "estimators.evaluate_codes") == count
    if dump:
        assert rows(spans, "experiments.dump_rows") == count


def test_simulate_evaluations_are_spanned(population, capsys):
    argv = ["simulate", str(population), "--sizes", "2,2,2", "--reps", "300", "--threads", "2", "--seed", "3"]
    spans = traced(argv)
    assert rows(spans, "estimators.evaluate_index") >= 300


def test_uninstall_restores_the_evaluator():
    before = dict(vars(BatchEvaluator))
    tracer = tracing.Tracer()
    tracer.install()
    assert vars(BatchEvaluator)["evaluate_codes"] is not before["evaluate_codes"]
    tracer.uninstall()
    assert dict(vars(BatchEvaluator)) == before
