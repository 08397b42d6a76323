"""Byte-identity check of the command-line tool against another commit.

Usage::

    python3 scripts/cmp_parent.py REF [--numeric]

Extracts ``git archive REF`` into a temporary directory and runs one fixed
list of ``triarm`` commands with that tree's ``src`` and with the working
tree's.  The list covers:

* the four benchmark workloads on their seed-5 populations
  (``perfbench/workloads.py``), with ``simulate`` at the benchmark's
  reduced replicate count and ``--threads`` 1 and 2;
* ``simulate`` on a 4-subject population whose draws are often singular,
  so batches redraw, and ``enumerate`` on it (n <= 4: no residual degrees
  of freedom, so ``sigma_hat_sq`` is ``null``);
* ``simulate --threads 2 --dump`` on a 24-subject population whose
  covariate is 1 on two subjects and 0 on the rest: at sizes 2,2,20 about
  1 draw in 138 is singular, and each 4,096-row batch spans two index
  chunks, so redraw rounds write rows that are not contiguous;
* ``enumerate`` in both modes with ``--dump``, ``analyze`` with
  ``--replicate`` and ``simulate`` on the raw covariate
  (``--normalize off``), all on a 12-subject population;
* ``enumerate`` in both modes with ``--dump`` on an 18-subject
  population at sizes 2,2,14 (18,360 and 9,180 rows): every other
  ``enumerate`` here has n <= 15, where the unranking tables cover all
  positions, and at n = 18 the per-position loop runs for the 2
  positions between them;
* ``analyze`` on a 5,000-subject population whose ``a`` spans 1e-30 to
  1e30 in magnitude, so the exact sums of its powers take many levels;
* ``reproduce`` for every scenario;
* ``--help`` at the top level and for each subcommand, and the usage
  error ``reproduce --scenario nope``, which pin the help text, the
  listed scenario names and the exit codes.

For each command it compares stdout, stderr, the exit code and the dump
file's bytes, prints every command that differs, and exits 1 if any does.
Both trees read the same input files and write to the same dump path, so
paths in the output agree.  Both trees' commands also get the caller's
environment, so a BLAS kernel forced for the whole script, as in
``OPENBLAS_CORETYPE=Prescott python3 scripts/cmp_parent.py HEAD``,
compares like with like.  Everything is written to the temporary
directory, which is removed at the end; nothing is written inside the
repository, bytecode caches included.  Takes about 15 s on a two-core
host.

``--numeric`` checks a declared bit change instead of byte identity.  A
command whose bytes differ passes only when its exit code and stderr are
identical and its stdout is strict JSON on both sides (a table rounds its
numbers, so a changed table fails): the two documents and the two dump
CSVs must have the same keys, shapes, integers, strings, null values and
row labels, and every float may move by at most ``NUMERIC_BOUND`` times
the data's spread.  The spread is the largest population standard
deviation of the arms ``a``, ``b`` and ``c`` in the command's input CSV
(1 for ``reproduce``, whose populations are built in).  For each such
command it prints how many floats differ, the largest difference in ulps
(counted through zero, so a tiny value that changes sign counts many) and
the largest difference over the spread, and it exits 1 if any command
fails.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import (  # noqa: E402
    WORKLOADS,
    command_argv,
    generate_population,
    invariance_argvs,
    write_population,
)

SEED = 5

#: Under ``--numeric`` a float may differ by this fraction of the data's
#: spread: the exact engines' gate (``scenarios.BIAS_TOL``), far above the
#: few ulps by which a reordered sum moves a result, far below any real
#: disagreement.
NUMERIC_BOUND = 1e-12
SCENARIOS = ("table2", "example2", "example3", "example4", "theorem5", "theorem6")

#: The 4-subject population of ``test_redraws_match_whole_batch``: at sizes
#: 1,1,2 many draws are singular.
SINGULAR_COLUMNS = {
    "a": [1.0, 2.0, 3.0, 4.0],
    "b": [0.0, 1.0, 2.0, 3.0],
    "c": [5.0, 6.0, 7.0, 8.0],
    "z": [1.0, 1.0, 2.0, 2.0],
}


def _write_csv(path: Path, columns: dict) -> Path:
    rows = zip(*(columns[k] for k in "abcz"))
    path.write_text("a,b,c,z\n" + "".join(f"{a!r},{b!r},{c!r},{z!r}\n" for a, b, c, z in rows))
    return path


def sparse_z_columns(seed: int, n: int) -> dict:
    """Normal ``a``, ``b``, ``c`` and ``z = (1, 1, 0, ..., 0)``.

    At sizes 2,2,(n - 4) a draw is singular when both ones fall in A or
    both in B: 2 of the C(n, 2) placements.
    """
    rng = np.random.default_rng(seed)
    columns = {name: rng.normal(1.0, 2.0, n).tolist() for name in "abc"}
    columns["z"] = [1.0, 1.0] + [0.0] * (n - 2)
    return columns


def wide_columns(seed: int, n: int) -> dict:
    """Normal columns, except ``a``: magnitudes 10**U(-30, 30), mixed signs."""
    rng = np.random.default_rng(seed)
    columns = {name: rng.normal(1.0, 2.0, n) for name in "abcz"}
    columns["a"] = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-30, 30, n)
    return {name: values.tolist() for name, values in columns.items()}


def command_list(work: Path) -> list:
    """The fixed commands as ``(argv, dump_path or None)``, inputs written to ``work``."""
    dump = work / "dump.csv"
    commands = []
    for workload in WORKLOADS.values():
        csv_path = work / f"{workload.name}.csv"
        write_population(csv_path, generate_population(SEED, workload.n))
        if workload.seeded:
            commands.extend((argv, None) for argv in invariance_argvs(workload, csv_path, SEED))
        else:
            argv = command_argv(workload, csv_path, SEED, dump)
            commands.append((argv, dump if workload.dump else None))
    singular = str(_write_csv(work / "singular4.csv", SINGULAR_COLUMNS))
    for argv in (
        ["simulate", singular, "--sizes", "1,1,2", "--reps", "3000", "--seed", "4"],
        ["enumerate", singular, "--sizes", "1,1,2"],
    ):
        commands.append((argv + ["--format", "json", "--dump", str(dump)], dump))
    sparse = str(_write_csv(work / "sparse24.csv", sparse_z_columns(SEED, 24)))
    argv = ["simulate", sparse, "--sizes", "2,2,20", "--reps", "10000", "--threads", "2"]
    commands.append((argv + ["--seed", "4", "--dump", str(dump)], dump))
    small = work / "small12.csv"
    write_population(small, generate_population(SEED, 12))
    for mode in ("all", "a-before-b"):
        argv = ["enumerate", str(small), "--sizes", "4,4,4", "--mode", mode, "--dump", str(dump)]
        commands.append((argv, dump))
    commands.append((["analyze", str(small), "--sizes", "12,12,12", "--replicate", "3"], None))
    middle = work / "middle18.csv"
    write_population(middle, generate_population(SEED, 18))
    for mode in ("all", "a-before-b"):
        argv = ["enumerate", str(middle), "--sizes", "2,2,14", "--mode", mode, "--dump", str(dump)]
        commands.append((argv, dump))
    argv = ["simulate", str(small), "--sizes", "4,4,4", "--normalize", "off", "--reps", "3000"]
    commands.append((argv + ["--seed", "4"], None))
    wide = str(_write_csv(work / "wide5000.csv", wide_columns(SEED, 5000)))
    commands.append((["analyze", wide, "--sizes", "1250,2500,1250", "--format", "json"], None))
    for name in SCENARIOS:
        commands.append((["reproduce", "--scenario", name, "--format", "json"], None))
    for sub in ([], ["analyze"], ["enumerate"], ["simulate"], ["reproduce"]):
        commands.append((sub + ["--help"], None))
    commands.append((["reproduce", "--scenario", "nope"], None))
    return commands


def run(src: Path, argv: list, dump, cwd: Path) -> tuple:
    """(stdout, stderr, exit code, dump bytes) of one command run on ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "triarm.cli", *argv], cwd=cwd, env=env, capture_output=True
    )
    dumped = None
    if dump is not None and dump.exists():
        dumped = dump.read_bytes()
        dump.unlink()
    return proc.stdout, proc.stderr, proc.returncode, dumped


def _json_parts(text: bytes):
    """A strict JSON document as (skeleton, floats).

    The skeleton lists ``(path, kind, value)`` for every node, with each
    float's value left out; the floats come in the same order.
    """
    skeleton, floats = [], []

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    def walk(obj, path):
        if isinstance(obj, dict):
            skeleton.append((path, "object", len(obj)))
            for key, value in obj.items():
                walk(value, f"{path}.{key}")
        elif isinstance(obj, list):
            skeleton.append((path, "array", len(obj)))
            for i, value in enumerate(obj):
                walk(value, f"{path}[{i}]")
        elif isinstance(obj, float):
            skeleton.append((path, "float", None))
            floats.append(obj)
        else:
            skeleton.append((path, type(obj).__name__, obj))

    walk(json.loads(text, parse_constant=refuse), "")
    return skeleton, floats


def _dump_parts(data: bytes):
    """A dump CSV as (skeleton, floats): header and row labels, then every value cell."""
    lines = data.decode("utf-8").split("\r\n")
    rows = [line.split(",") for line in lines[1:-1]]
    width = len(lines[0].split(","))
    if lines[-1] or any(len(row) != width for row in rows):
        raise ValueError("not a dump CSV")
    floats = np.array([row[1:] for row in rows], dtype=np.float64).ravel()
    return [lines[0], [row[0] for row in rows]], floats


def _float_report(before, after, spread):
    """(problems, summary) for two equally long float sequences."""
    a = np.asarray(before, dtype=np.float64)
    b = np.asarray(after, dtype=np.float64)
    differ = a.view(np.int64) != b.view(np.int64)
    if not differ.any():
        return [], f"0 of {a.size} floats differ"
    a, b = a[differ], b[differ]
    if not (np.isfinite(a) & np.isfinite(b)).all():
        count = np.count_nonzero(~np.isfinite(a) | ~np.isfinite(b))
        return [f"non-finite values differ at {count} positions"], ""

    def ordered(x):  # float64 bits as integers in the floats' order, -0.0 at 0
        bits = int(np.float64(x).view(np.int64))
        return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)

    ulps = max(abs(ordered(x) - ordered(y)) for x, y in zip(a.tolist(), b.tolist()))
    worst = float(np.max(np.abs(a - b))) / spread
    summary = (
        f"{a.size} of {differ.size} floats differ, at most {ulps} ulps "
        f"and {worst:.2e} of the spread {spread:.4g}"
    )
    problems = [f"a float moved by {worst:.2e} of the spread"] if worst > NUMERIC_BOUND else []
    return problems, summary


def compare_numeric(before, after, spread: float):
    """(problems, summary) of one command's two runs, each (stdout, stderr, exit code, dump).

    ``problems`` is empty when the runs differ only by floats within
    ``NUMERIC_BOUND`` of ``spread``.
    """
    problems = [name for name, x, y in zip(("stderr", "exit code"), before[1:3], after[1:3]) if x != y]
    compared, floats = [], []
    for name, split, kind, x, y in (
        ("stdout", _json_parts, "strict JSON", before[0], after[0]),
        ("dump", _dump_parts, "a dump CSV", before[3], after[3]),
    ):
        if x == y:
            continue
        if x is None or y is None:
            problems.append(f"{name} written on one side only")
            continue
        try:
            (skeleton_x, floats_x), (skeleton_y, floats_y) = split(x), split(y)
        except ValueError:
            problems.append(f"{name} differs and is not {kind}")
            continue
        if skeleton_x != skeleton_y:
            problems.append(f"{name} keys, shapes, integers, strings or labels differ")
            continue
        compared.append(name)
        floats.append((floats_x, floats_y))
    if not floats:
        return problems, ""
    float_problems, summary = _float_report(
        np.concatenate([x for x, _ in floats]), np.concatenate([y for _, y in floats]), spread
    )
    return problems + float_problems, f"{', '.join(compared)}: {summary}"


def data_spread(argv: list) -> float:
    """Largest population standard deviation of ``a``, ``b``, ``c`` in the command's input CSV."""
    if argv[0] not in ("analyze", "enumerate", "simulate"):
        return 1.0
    columns = np.loadtxt(argv[1], delimiter=",", skiprows=1, usecols=(0, 1, 2), ndmin=2)
    return float(np.std(columns, axis=0).max())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare triarm's output with another commit's.")
    parser.add_argument("ref", help="the commit to compare against, as git names it")
    parser.add_argument(
        "--numeric",
        action="store_true",
        help=f"accept float differences within {NUMERIC_BOUND:g} of the data's spread",
    )
    args = parser.parse_args(argv)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.ref], capture_output=True)
    if archive.returncode != 0:
        sys.stderr.write(archive.stderr.decode(errors="replace"))
        return 2
    with tempfile.TemporaryDirectory(prefix="cmp_parent.") as tmp:
        tmp = Path(tmp)
        parent = tmp / "parent"
        parent.mkdir()
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive.stdout, check=True)
        work = tmp / "work"
        work.mkdir()
        commands = command_list(work)
        differ = failed = 0
        for cmd, dump in commands:
            before = run(parent / "src", cmd, dump, work)
            after = run(ROOT / "src", cmd, dump, work)
            parts = [
                name
                for name, a, b in zip(("stdout", "stderr", "exit code", "dump"), before, after)
                if a != b
            ]
            if not parts:
                continue
            differ += 1
            line = f"({', '.join(parts)}): triarm {' '.join(cmd)}"
            if not args.numeric:
                print(f"DIFFERS {line}")
                continue
            problems, summary = compare_numeric(before, after, data_spread(cmd))
            failed += bool(problems)
            print(f"{'FAILS' if problems else 'WITHIN'} {line}")
            for text in problems + ([summary] if summary else []):
                print(f"    {text}")
    print(f"{differ} of {len(commands)} commands differ from {args.ref}")
    if args.numeric:
        print(f"{failed} of them fail the numeric check (bound {NUMERIC_BOUND:g} of the spread)")
        return 1 if failed else 0
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
