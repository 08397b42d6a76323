"""triarm benchmark: end-to-end and per-layer metrics on seeded workloads.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S        # every workload, both modes

Run from the repository root (the program is imported from ``src/``).
For one workload it

1. writes the seeded population CSV to a temporary directory under
   ``.perfbench/``;
2. starts a fresh worker process that runs the workload's command
   through ``triarm.cli.main`` until it has run for ``--seconds``
   seconds, untraced with ``--trace 0``, alternating untraced and
   traced with ``--trace 1``, and checks each command's output right
   after it, outside the timed region;
3. with ``--trace 0``, times set-up in several more fresh processes;
4. prints each metric with its unit, writes a results file to
   ``.perfbench/results/`` and prints one JSON line last:
   ``{"correct", "attempted", "failed", "metrics"}``.

Times of single-threaded commands and of set-up are in reference
seconds.  The host is shared, and its speed for interpreted code swings
by up to about 1.7x within seconds, so raw wall times of one program
differ by more than any useful bound from one run to the next.  These
commands and the set-up probes therefore run pinned to one CPU, on
which a fixed calibration block (``worker.calibrate``) is timed while
they run or just around them.  Each time is reported as
``CALIBRATION_REF_S * wall / calibration``: the time it would take on a
host where that block takes ``CALIBRATION_REF_S``.  The multi-threaded
``simulate-800`` keeps both CPUs busy itself, so no calibration beside
it measures the host alone; its ``wall_s`` is the raw median.  Raw
medians are printed and kept in the results file too.

A command fails if it exits non-zero, raises, prints a traceback, emits
JSON that a strict parser rejects, or fails its workload check.  The
exit status is 0 only when every command passed.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

from tracing import COUNT_METRICS  # noqa: E402
from worker import calibrate, pin_to_one_cpu  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    command_argv,
    generate_population,
    invariance_argvs,
    write_population,
)

#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_PROBES = 11
#: Seconds the calibration block takes on the reference host: about its
#: median on one vCPU of the shared 2-vCPU cloud host the bounds were
#: set on.
CALIBRATION_REF_S = 0.001
#: Calibration blocks timed before and after each set-up probe.
SETUP_CALIBRATION_BLOCKS = 10
#: Timed commands per run at least, however long each takes.
MIN_REPS = 3
#: Seconds a worker may take beyond ``--seconds`` before it is stopped.
WORKER_SLACK_S = 120

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "assignment.enum_s": "s",
    "assignment.enum_rows": "count",
    "assignment.enum_rows_per_s": "1/s",
    "assignment.draw_s": "s",
    "assignment.draw_rows": "count",
    "estimators.eval_s": "s",
    "estimators.eval_rows": "count",
    "estimators.valid_frac": "ratio",
    "experiments.dump_s": "s",
    "experiments.dump_bytes": "B",
    "experiments.self_s": "s",
    "experiments.parallel_eff": "ratio",
    "population.load_s": "s",
    "population.load_rows_per_s": "1/s",
    "population.moment_set_calls": "count",
    "population.moment_set_s": "s",
    "theory.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}

#: Which end-to-end metric each per-layer metric should move, and where.
LAYER_MAP = {
    "assignment.enum_s": ("wall_s", ["enumerate-15", "enumerate-dump"]),
    "assignment.enum_rows": ("wall_s", ["enumerate-15", "enumerate-dump"]),
    "assignment.enum_rows_per_s": ("wall_s", ["enumerate-15"]),
    "assignment.draw_s": ("wall_s", ["simulate-800"]),
    "assignment.draw_rows": ("wall_s", ["simulate-800"]),
    "estimators.eval_s": ("wall_s", ["simulate-800", "enumerate-15"]),
    "estimators.eval_rows": ("wall_s", ["simulate-800", "enumerate-15"]),
    "estimators.valid_frac": ("wall_s", ["simulate-800"]),
    "experiments.dump_s": ("wall_s", ["enumerate-dump"]),
    "experiments.dump_bytes": ("wall_s", ["enumerate-dump"]),
    "experiments.self_s": ("wall_s", ["enumerate-15", "simulate-800", "enumerate-dump"]),
    "experiments.parallel_eff": ("wall_s", ["simulate-800"]),
    "population.load_s": ("setup_s", ["analyze-100k"]),
    "population.load_rows_per_s": ("setup_s", ["analyze-100k"]),
    "population.moment_set_calls": ("wall_s", ["analyze-100k"]),
    "population.moment_set_s": ("wall_s", ["analyze-100k"]),
    "theory.self_s": ("wall_s", ["analyze-100k"]),
    "cli.self_s": ("wall_s", list(WORKLOADS)),
    "trace.overhead_frac": ("wall_s", list(WORKLOADS)),
}


def check_records(records) -> list:
    """Problems per record, same order; an empty list means the command passed.

    Each record carries the problems its own check found.  Beyond them,
    timed and traced commands must print the same stdout, check
    commands (run at different thread counts) must agree with each
    other, and traced counts must repeat.
    """
    problems = [list(r["problems"]) for r in records]
    reference = None
    for record, found in zip(records, problems):
        if record["kind"] == "check":
            continue
        if reference is None:
            reference = record["stdout"]
        elif record["stdout"] != reference:
            found.append("stdout differs from the first command's")
    checks = [(r, p) for r, p in zip(records, problems) if r["kind"] == "check"]
    if len(checks) >= 2 and any(r["stdout"] != checks[0][0]["stdout"] for r, _ in checks[1:]):
        checks[-1][1].append("stdout depends on --threads")
    traced = [(r, p) for r, p in zip(records, problems) if r["kind"] == "traced"]
    for record, found in traced[1:]:
        for name in COUNT_METRICS:
            if record["layers"][name] != traced[0][0]["layers"][name]:
                found.append(f"trace count {name} does not repeat")
    return problems


def _setup_seconds(csv_path: Path) -> list:
    """(set-up seconds, calibration seconds) of each fresh-process probe.

    This process and the probes it starts share one CPU meanwhile, so
    the calibration measures the CPU the probes run on.
    """
    times = []
    allowed = pin_to_one_cpu()
    try:
        for _ in range(SETUP_PROBES):
            times.append(_setup_probe(csv_path))
    finally:
        os.sched_setaffinity(0, allowed)
    return times


def _setup_probe(csv_path: Path) -> tuple:
    before = calibrate(SETUP_CALIBRATION_BLOCKS)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "setup", str(SRC), str(csv_path)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    cal = (before + calibrate(SETUP_CALIBRATION_BLOCKS)) / 2
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"], cal


def _wall_median(pairs) -> float:
    """Median of (seconds, calibration) pairs, in reference seconds.

    Without calibrations (multi-threaded commands) it is the median of
    the raw seconds.
    """
    if any(cal is None for _, cal in pairs):
        return statistics.median(wall for wall, _ in pairs)
    return CALIBRATION_REF_S * statistics.median(wall / cal for wall, cal in pairs)


def _median_metric(records, name):
    return statistics.median(r["layers"][name] for r in records if r["kind"] == "traced")


def run_workload(name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    workload = WORKLOADS[name]
    columns = generate_population(seed, workload.n)
    csv_path = tmp / f"{name}.csv"
    write_population(csv_path, columns)
    spec = {
        "src": str(SRC),
        "workload": name,
        "seed": seed,
        "argv": command_argv(workload, csv_path, seed, tmp / f"{name}-dump-{{rep}}.csv"),
        "seconds": seconds,
        "min_reps": 2 * MIN_REPS if trace else MIN_REPS,
        "trace": trace,
        "threads": workload.threads,
        "check_argvs": invariance_argvs(workload, csv_path, seed) if workload.seeded else [],
        "out": str(tmp / f"{name}-records.json"),
    }
    spec_path = tmp / f"{name}-spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "run", str(spec_path)],
        timeout=seconds + WORKER_SLACK_S,
        check=True,
    )
    result = json.loads(Path(spec["out"]).read_text(encoding="utf-8"))
    records = result["records"]
    problems = check_records(records)
    failed = sum(1 for p in problems if p)

    untraced = [(r["wall_s"], r["cal_s"]) for r in records if r["kind"] == "timed"]
    raw = {"wall_s": statistics.median(w for w, _ in untraced)}
    if trace:
        traced = [(r["wall_s"], r["cal_s"]) for r in records if r["kind"] == "traced"]
        values = {m: _median_metric(records, m) for m in PER_LAYER if m != "trace.overhead_frac"}
        values["trace.overhead_frac"] = _wall_median(traced) / _wall_median(untraced) - 1
        units = PER_LAYER
    else:
        setup = _setup_seconds(csv_path)
        raw["setup_s"] = statistics.median(w for w, _ in setup)
        values = {
            "wall_s": _wall_median(untraced),
            "setup_s": _wall_median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END

    return {
        "workload": name,
        "why": workload.why,
        "argv": [a.replace(str(tmp) + os.sep, "") for a in spec["argv"]],
        "input_rows": workload.n,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": len(records),
        "failed": failed,
        "error_rate": failed / len(records),
        "problems": [
            {"kind": r["kind"], "argv": r["argv"], "problems": p}
            for r, p in zip(records, problems)
            if p
        ],
        "walls_s": [w for w, _ in untraced],
        "calibrations_s": [c for _, c in untraced],
        "raw_medians_s": raw,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
        "spans": result["spans"],
    }


def _environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _print_metrics(prefix: str, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"{prefix}{name} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "triarm" / "cli.py").is_file():
        print(f"error: no triarm sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]

    WORK.mkdir(exist_ok=True)
    (WORK / "results").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    results = []
    try:
        for name, trace in runs:
            results.append(run_workload(name, args.seed, args.seconds, trace, tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    env = _environment()
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else f"{res['workload']}/"
        print(f"# {res['workload']} seed={res['seed']} trace={int(res['trace'])}: "
              f"{res['attempted']} commands, {res['failed']} failed")
        for entry in res["problems"]:
            print(f"#   FAILED {entry['kind']}: {'; '.join(entry['problems'])}")
        _print_metrics(prefix, res["metrics"])
        for metric, value in res["raw_medians_s"].items():
            print(f"#   raw median {metric} = {value:.6g} s")
        print(f"{prefix}error_rate = {res['error_rate']:.6g} ratio")
        for metric, m in res["metrics"].items():
            metrics[prefix + metric] = m
        out = WORK / "results" / f"{res['workload']}-seed{res['seed']}-trace{int(res['trace'])}.json"
        out.write_text(
            json.dumps({**res, "environment": env, "layer_map": LAYER_MAP}, indent=1),
            encoding="utf-8",
        )

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
