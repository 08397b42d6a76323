"""Workload definitions: seeded inputs, command lines and output checks.

Each workload is one ``triarm`` command on one generated population.
The population is continuous-valued, so no assignment is singular, and
its covariate is on a raw scale, so every command pays the
normalization that real inputs need.  Inputs depend only on the
benchmark seed: the same seed writes byte-identical CSV files.

Checks take the parsed JSON report of one command and return a list of
problems; an empty list means the output is correct.  The worker runs
them right after each command, outside the timed region, so that each
dump file can be deleted once it has been checked.
"""

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PAIRS = (("A", "B"), ("A", "C"), ("B", "C"))
ARMS = ("A", "B", "C")
MR_COLUMNS = ("mr_a", "mr_b", "mr_c")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a CLI command on a generated population.

    ``command`` is the subcommand followed by its flags; the population
    CSV is inserted after the subcommand and ``--format json`` appended.
    ``seeded`` adds ``--seed`` derived from the benchmark seed, ``dump``
    adds ``--dump`` to a fresh file per command.
    """

    name: str
    n: int
    command: tuple
    why: str
    seeded: bool = False
    dump: bool = False

    @property
    def threads(self) -> int:
        if "--threads" in self.command:
            return int(self.command[self.command.index("--threads") + 1])
        return 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="enumerate-15",
            n=15,
            command=("enumerate", "--sizes", "5,5,5", "--mode", "all", "--threads", "1"),
            why="exact engine generation hot path, single-threaded: 756,756 assignments; "
            "no CSV cost, no closed forms, no dump",
        ),
        Workload(
            name="simulate-800",
            n=800,
            command=("simulate", "--sizes", "200,400,200", "--reps", "100000", "--threads", "2"),
            seeded=True,
            why="Monte Carlo engine: permutation draw and evaluation split about evenly, "
            "thread pool and ordered merge",
        ),
        Workload(
            name="analyze-100k",
            n=100_000,
            command=("analyze", "--sizes", "25000,50000,25000"),
            why="closed forms on a 100,000-row CSV: population parse and exact moments plus "
            "theory; bypasses all three engine layers",
        ),
        Workload(
            name="enumerate-dump",
            n=14,
            command=("enumerate", "--sizes", "5,5,4", "--mode", "a-before-b", "--threads", "1"),
            dump=True,
            why="exact engine dominated by per-row dump output, with the a-before-b half filter: "
            "126,126 rows",
        ),
    )
}

#: Commands that must produce the same stdout at every thread count.
#: Run once per simulate workload, untimed.
INVARIANCE_REPS = "10000"
INVARIANCE_THREADS = ("1", "2")


def _rng(seed: int, n: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, n])))


def generate_population(seed: int, n: int) -> dict:
    """Continuous population with nonlinear, arm-specific responses.

    The covariate sits on a raw scale (mean 50, sd 12), so the CLI's
    automatic normalization always runs.  ``b`` is quadratic in the
    covariate, which keeps the adjusted estimator's bias coefficient away
    from zero.
    """
    rng = _rng(seed, n)
    z0 = rng.standard_normal(n)
    e = rng.standard_normal((3, n))
    return {
        "a": 2.0 + 1.1 * z0 + 0.7 * e[0],
        "b": 2.5 + 0.6 * z0 + 0.5 * z0 * z0 + 0.9 * e[1],
        "c": 1.0 - 0.4 * z0 + 1.2 * e[2],
        "z": 50.0 + 12.0 * z0,
    }


def simulate_seed(seed: int) -> int:
    """Master seed passed to ``simulate``, derived from the benchmark seed."""
    return int(np.random.SeedSequence([seed, 1]).generate_state(1)[0])


def write_population(path: Path, columns: dict) -> None:
    # repr round-trips every float exactly, so the CLI reads back the same values
    lines = ["a,b,c,z"]
    lines.extend(
        f"{a!r},{b!r},{c!r},{z!r}"
        for a, b, c, z in zip(*(columns[k].tolist() for k in ("a", "b", "c", "z")))
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def command_argv(workload: Workload, csv_path: Path, seed: int, dump_path=None) -> list:
    argv = [workload.command[0], str(csv_path), *workload.command[1:], "--format", "json"]
    if workload.seeded:
        argv += ["--seed", str(simulate_seed(seed))]
    if workload.dump:
        argv += ["--dump", str(dump_path)]
    return argv


def invariance_argvs(workload: Workload, csv_path: Path, seed: int) -> list:
    """Untimed reduced-replicate commands that must agree byte for byte."""
    base = command_argv(workload, csv_path, seed)
    base[base.index("--reps") + 1] = INVARIANCE_REPS
    out = []
    for threads in INVARIANCE_THREADS:
        argv = list(base)
        argv[argv.index("--threads") + 1] = threads
        out.append(argv)
    return out


def _reject_constant(text):
    raise ValueError(f"non-standard JSON constant {text}")


def parse_report(stdout: str):
    """Parse a report with a strict JSON parser (no NaN or Infinity)."""
    return json.loads(stdout, parse_constant=_reject_constant)


def command_problems(record, check, columns) -> list:
    """Problems of one command record; an empty list means it passed.

    A command fails if it raised, exited non-zero, printed a traceback,
    emitted JSON that a strict parser rejects, or fails ``check``.
    """
    if record["error"] is not None:
        return ["raised: " + record["error"].strip().splitlines()[-1]]
    if record["exit"] != 0:
        return [f"exit code {record['exit']}: {record['stderr'].strip()[-300:]}"]
    if "Traceback" in record["stderr"]:
        return ["traceback on stderr"]
    try:
        report = parse_report(record["stdout"])
    except ValueError as exc:
        return [f"invalid JSON: {exc}"]
    return check(report, columns, record["argv"])


def _contrast(cov, s, t):
    i, j = ARMS.index(s), ARMS.index(t)
    return cov[i][i] + cov[j][j] - 2.0 * cov[i][j]


def _population(columns: dict):
    from triarm.population import Population, normalize_z

    pop, _ = normalize_z(Population(columns["a"], columns["b"], columns["c"], columns["z"]))
    return pop


def check_enumerate_15(report, columns, argv):
    from triarm.assignment import GroupSizes
    from triarm.theory import itt_pair_variance

    problems = []
    if report["assignment_count"] != 756_756:
        problems.append(f"assignment_count {report['assignment_count']} != 756756")
    bias = max(abs(x) for x in report["itt"]["bias"])
    if not bias <= 1e-12:
        problems.append(f"ITT bias {bias!r} exceeds 1e-12")
    pop = _population(columns)
    sizes = GroupSizes(*report["sizes"])
    for s, t in PAIRS:
        got = _contrast(report["itt"]["cov"], s, t)
        want = itt_pair_variance(pop, sizes, (s, t))
        if not abs(got - want) <= 1e-12 * abs(want):
            problems.append(f"ITT {s}-{t} variance {got!r} != closed form {want!r}")
    return problems


def check_simulate(report, columns, argv):
    problems = []
    reps = int(argv[argv.index("--reps") + 1])
    if report["replicates"] != reps:
        problems.append(f"replicates {report['replicates']} != {reps}")
    for arm, bias, se in zip(ARMS, report["itt"]["bias"], report["itt"]["se"]):
        if not abs(bias) <= 5.0 * se:
            problems.append(f"ITT bias of {arm} {bias!r} exceeds 5 s.e. ({se!r})")
    return problems


def neyman_pair_variance(x, y, n_s, n_t) -> float:
    """Var of a difference of two group means under complete randomization.

    Neyman's form with divisor n - 1: S_x^2/n_s + S_y^2/n_t - S_{x-y}^2/n.
    It shares no code or algebra with ``theory.itt_pair_variance``.
    """
    n = x.size
    return float(np.var(x, ddof=1) / n_s + np.var(y, ddof=1) / n_t - np.var(x - y, ddof=1) / n)


def check_analyze(report, columns, argv):
    problems = []
    counts = report["sizes"]
    n = sum(counts)
    weighted = math.fsum(c / n * k for c, k in zip(counts, report["bias_k"]))
    if not abs(weighted) <= 1e-12:
        problems.append(f"fraction-weighted bias_k sum {weighted!r} exceeds 1e-12")
    response = dict(zip(ARMS, ("a", "b", "c")))
    size = dict(zip(ARMS, counts))
    for s, t in PAIRS:
        got = report["itt_pair_variance"][f"{s}-{t}"]
        want = neyman_pair_variance(columns[response[s]], columns[response[t]], size[s], size[t])
        if not abs(got - want) <= 1e-9 * abs(want):
            problems.append(f"itt_pair_variance {s}-{t} {got!r} != numpy {want!r}")
    return problems


def check_dump(report, columns, argv, expected_rows=126_126):
    problems = []
    if report["assignment_count"] != expected_rows:
        problems.append(f"assignment_count {report['assignment_count']} != {expected_rows}")
    path = argv[argv.index("--dump") + 1]
    sums = {name: [] for name in MR_COLUMNS}
    rows = 0
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        positions = {name: header.index(name) for name in MR_COLUMNS if name in header}
        if len(positions) != len(MR_COLUMNS):
            return problems + [f"dump header {header!r} lacks {MR_COLUMNS}"]
        for line, row in enumerate(reader, start=2):
            rows += 1
            if len(row) != len(header):
                problems.append(f"dump line {line}: {len(row)} cells, header has {len(header)}")
                continue
            try:
                values = [float(cell) for cell in row[1:]]
            except ValueError:
                problems.append(f"dump line {line}: a cell does not parse as a float")
                continue
            if not all(math.isfinite(v) for v in values):
                problems.append(f"dump line {line}: non-finite value")
                continue
            for name, pos in positions.items():
                sums[name].append(values[pos - 1])
    if rows != expected_rows:
        problems.append(f"dump has {rows} rows, expected {expected_rows}")
    elif not problems:
        for name, want in zip(MR_COLUMNS, report["mr"]["mean"]):
            got = math.fsum(sums[name]) / rows
            if not abs(got - want) <= 1e-12:
                problems.append(f"dump mean of {name} {got!r} != summary mr.mean {want!r}")
    return problems


CHECKS = {
    "enumerate-15": check_enumerate_15,
    "simulate-800": check_simulate,
    "analyze-100k": check_analyze,
    "enumerate-dump": check_dump,
}
