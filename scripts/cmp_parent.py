"""Byte-identity check of the command-line tool against another commit.

Usage::

    python3 scripts/cmp_parent.py REF

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
"""

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


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 scripts/cmp_parent.py REF", file=sys.stderr)
        return 2
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", args[0]], capture_output=True)
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
        differ = 0
        for cmd, dump in commands:
            before = run(parent / "src", cmd, dump, work)
            after = run(ROOT / "src", cmd, dump, work)
            parts = [
                name
                for name, a, b in zip(("stdout", "stderr", "exit code", "dump"), before, after)
                if a != b
            ]
            if parts:
                differ += 1
                print(f"DIFFERS ({', '.join(parts)}): triarm {' '.join(cmd)}")
    print(f"{differ} of {len(commands)} commands differ from {args[0]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
