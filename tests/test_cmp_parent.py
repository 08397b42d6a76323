"""The numeric comparison of ``scripts/cmp_parent.py --numeric``."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "cmp_parent.py"
_SPEC = importlib.util.spec_from_file_location("cmp_parent", _PATH)
cmp_parent = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cmp_parent)

REPORT = {"assignment_count": 34650, "mode": "all", "itt": {"bias": [1e-17, 0.25, -3.5]}}
DUMP = b"assignment,itt_a,q_hat\r\nAABC,1.5,0.25\r\nABCA,2.0,nan\r\n"


def run(report=REPORT, dump=DUMP, stderr=b"", code=0):
    return json.dumps(report, indent=2).encode(), stderr, code, dump


def changed(path, value):
    report = json.loads(json.dumps(REPORT))
    *parents, last = path
    target = report
    for key in parents:
        target = target[key]
    target[last] = value
    return report


def test_one_ulp_passes_and_is_reported():
    after = changed(("itt", "bias", 1), float(np.nextafter(0.25, 1.0)))
    problems, summary = cmp_parent.compare_numeric(run(), run(after), spread=1.0)
    assert problems == []
    assert summary.startswith("stdout: 1 of 3 floats differ, at most 1 ulps")


def test_dump_float_within_bound_passes():
    dump = DUMP.replace(b"0.25\r\n", b"0.25000000000000006\r\n")
    problems, summary = cmp_parent.compare_numeric(run(), run(dump=dump), spread=1.0)
    assert problems == []
    assert summary.startswith("dump: 1 of 4 floats differ")


@pytest.mark.parametrize(
    "after, problem",
    [
        (run(changed(("assignment_count",), 34651)), "stdout keys, shapes, integers, strings"),
        (run(changed(("mode",), "a-before-b")), "stdout keys, shapes, integers, strings"),
        (run(changed(("itt", "bias", 2), None)), "stdout keys, shapes, integers, strings"),
        (run(dump=DUMP.replace(b"ABCA", b"ABAC")), "dump keys, shapes, integers, strings"),
        (run(dump=DUMP.replace(b"nan", b"0.5")), "non-finite values differ"),
        (run(code=3), "exit code"),
        (run(stderr=b"error: singular design\n"), "stderr"),
        (run(changed(("itt", "bias", 1), 0.25 + 2e-12)), "a float moved by"),
    ],
    ids=["count", "label", "null", "dump-label", "dump-nan", "exit-code", "stderr", "beyond-bound"],
)
def test_other_changes_fail(after, problem):
    problems, _ = cmp_parent.compare_numeric(run(), after, spread=1.0)
    assert any(text.startswith(problem) for text in problems), problems


def test_changed_table_output_fails():
    before = (b"itt:\n  bias: [0.0000]\n", b"", 0, None)
    after = (b"itt:\n  bias: [0.0001]\n", b"", 0, None)
    problems, _ = cmp_parent.compare_numeric(before, after, spread=1.0)
    assert problems == ["stdout differs and is not strict JSON"]
