"""Command-line driver.

Four subcommands: ``analyze`` (closed-form report), ``enumerate``
(exact distribution), ``simulate`` (Monte Carlo) and ``reproduce``
(built-in scenarios).  Reports go to stdout; diagnostics and warnings go
to stderr.  Exit codes: 0 success, 2 usage or validation error, 3
resource guard exceeded.

Every command is deterministic given its full flag set: machine formats
carry full-precision floats, the table format rounds to four decimals,
and engine output is independent of ``--threads``.
"""

import argparse
import dataclasses
import json
import math
import os
import sys
import warnings

import numpy as np

from .assignment import (
    DEFAULT_ENUMERATION_LIMIT,
    ENUMERATION_MODES,
    GROUP_CODES,
    GROUPS,
    EnumerationLimitError,
    GroupSizes,
)
from .experiments import exact_distribution, monte_carlo
from .population import (
    VARIABLES,
    PopulationFormatError,
    is_normalized_z,
    load_population,
    normalize_z,
    replicate,
)
from .scenarios import SCENARIO_NAMES, run_scenario
from .theory import PAIRS, theory_report

#: Least accepted value of each integer flag, checked in this order
#: before any subcommand reads its population.
_FLAG_MINIMUMS = {"threads": 1, "seed": 0, "reps": 2, "limit": 1, "replicate": 1}

#: ``simulate`` reports the nominal/empirical ``ratio`` as undefined when
#: the empirical contrast standard deviation is at most this fraction of
#: the largest absolute response: each estimate carries roundoff of about
#: n * 2.2e-16 of that scale, so such a spread is roundoff, not sampling.
RATIO_RTOL = 1e-10


def _plain(obj):
    """Convert report values to JSON/CSV-friendly python containers.

    Undefined (non-finite) numbers become None: null in JSON, which has
    no NaN, an empty cell in CSV and ``None`` in tables.
    """
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _flatten(prefix, obj, rows):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, obj))


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _render_csv(report) -> str:
    import csv as _csv
    import io

    rows = []
    _flatten("", _plain(report), rows)
    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in rows:
        writer.writerow([key, _csv_cell(value)])
    return buf.getvalue()


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        text = f"{value:.4f}"
        return "0.0000" if text == "-0.0000" else text
    return str(value)


def _dict_rows_table(rows, indent) -> list:
    keys = list(rows[0].keys())

    def cell(row, key):
        value = row.get(key)
        if value is None:
            return ""
        if key == "tolerance":
            return f"{value:g}"
        return _fmt(value)

    cells = [[cell(row, key) for key in keys] for row in rows]
    widths = [max(len(key), max(len(c[i]) for c in cells)) for i, key in enumerate(keys)]
    lines = [indent + "  ".join(key.ljust(widths[i]) for i, key in enumerate(keys)).rstrip()]
    for c in cells:
        lines.append(indent + "  ".join(c[i].ljust(widths[i]) for i in range(len(keys))).rstrip())
    return lines


def _render_table(report) -> str:
    lines = []

    def walk(obj, indent=""):
        for key, value in obj.items():
            if isinstance(value, dict):
                lines.append(f"{indent}{key}:")
                walk(value, indent + "  ")
            elif isinstance(value, list) and value and isinstance(value[0], dict):
                lines.append(f"{indent}{key}:")
                lines.extend(_dict_rows_table(value, indent + "  "))
            elif isinstance(value, list) and value and isinstance(value[0], list):
                lines.append(f"{indent}{key}:")
                for row in value:
                    lines.append(indent + "  [" + ", ".join(_fmt(v) for v in row) + "]")
            elif isinstance(value, list) and value and isinstance(value[0], str):
                lines.append(f"{indent}{key}:")
                for item in value:
                    lines.append(f"{indent}  - {item}")
            elif isinstance(value, list):
                lines.append(f"{indent}{key}: [" + ", ".join(_fmt(v) for v in value) + "]")
            else:
                lines.append(f"{indent}{key}: {_fmt(value)}")

    walk(_plain(report))
    return "\n".join(lines) + "\n"


def _render(report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_plain(report), indent=2, allow_nan=False) + "\n"
    if fmt == "csv":
        return _render_csv(report)
    return _render_table(report)


def _parse_sizes(text: str) -> GroupSizes:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--sizes expects three comma-separated counts, got {text!r}")
    try:
        return GroupSizes(*(int(p) for p in parts))
    except ValueError as exc:
        raise ValueError(f"bad --sizes {text!r}: {exc}") from None


def _parse_pair(text: str) -> tuple[str, str]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2 or any(p not in GROUPS for p in parts):
        raise ValueError(f"--pair expects two of A,B,C, got {text!r}")
    return parts[0], parts[1]


def _default_threads() -> int:
    text = os.environ.get("TRIARM_THREADS", "1")
    try:
        threads = int(text)
    except ValueError:
        raise ValueError(f"TRIARM_THREADS must be an integer, got {text!r}") from None
    if threads < 1:
        raise ValueError(f"TRIARM_THREADS must be at least 1, got {threads}")
    return threads


def _prepare_population(args):
    pop = load_population(args.population)
    sizes = _parse_sizes(args.sizes)
    n = pop.n * args.replicate
    sizes.validate_for(n)  # before tiling, so a mismatched factor allocates nothing
    try:
        pop = replicate(pop, args.replicate)
    except (OverflowError, MemoryError):
        raise ValueError(
            f"--replicate {args.replicate} is too large: {n} subjects do not fit in memory"
        ) from None
    notes = []
    applied = None
    if is_normalized_z(pop):
        pass
    elif args.normalize == "off":
        notes.append("warning: covariate is not normalized; running on the raw scale")
    elif args.normalize == "require":
        raise ValueError("covariate is not normalized to mean 0 and mean square 1")
    else:
        pop, applied = normalize_z(pop)
        notes.append(
            f"note: covariate normalized: z -> (z - {applied.shift!r}) / {applied.scale!r}"
        )
    z_map = None if applied is None else {"shift": applied.shift, "scale": applied.scale}
    return pop, sizes, z_map, notes


def _moment_section(ms):
    return {
        "means": {x: ms.mean(x) for x in VARIABLES},
        "covariance": ms.covariance,
        "product_covariances": {
            "az,z": ms.product_covariances[0],
            "bz,z": ms.product_covariances[1],
            "cz,z": ms.product_covariances[2],
        },
        "fourth_abs_moments": {x: ms.fourth_abs_moments[i] for i, x in enumerate(VARIABLES)},
    }


def _cmd_analyze(args):
    pop, sizes, z_map, notes = _prepare_population(args)
    pair = _parse_pair(args.pair)
    rep = theory_report(pop, sizes, pair)
    gain = rep.gain
    report = {
        "command": "analyze",
        "population": args.population,
        "n": pop.n,
        "sizes": sizes.counts(),
        "z_normalization": z_map,
        "moments": _moment_section(rep.moments),
        "q_tilde": rep.q_tilde,
        "bias_k": rep.bias,
        "itt_pair_variance": rep.itt_variances,
        "q": rep.q,
        "sigma": rep.sigma,
        "sigma_sq": rep.sigma_sq,
        "nominal_asymptotic": rep.nominal,
        "gamma": {
            "pair": f"{pair[0]}-{pair[1]}",
            "value": gain.gamma,
            "coefficient": gain.coefficient,
            "verdict": f"adjustment {gain.verdict}",
        },
    }
    return report, notes


def _contrast(matrix, s, t):
    return float(matrix[s, s] + matrix[t, t] - 2.0 * matrix[s, t])


def _cmd_enumerate(args):
    pop, sizes, z_map, notes = _prepare_population(args)
    summary = exact_distribution(pop, sizes, mode=args.mode, limit=args.limit, dump_path=args.dump)
    report = {
        "command": "enumerate",
        "population": args.population,
        "n": pop.n,
        "sizes": sizes.counts(),
        "mode": args.mode,
        "z_normalization": z_map,
        "assignment_count": summary.assignment_count,
        "singular_count": summary.singular_count,
        "truth": summary.truth,
        "itt": {"mean": summary.itt_mean, "bias": summary.itt_bias, "cov": summary.itt_cov},
        "mr": {
            "mean": summary.mr_mean,
            "bias": summary.mr_bias,
            "cov": summary.mr_cov,
            "z_coef_mean": summary.mr_z_coef_mean,
        },
    }
    return report, notes


def _cmd_simulate(args):
    pop, sizes, z_map, notes = _prepare_population(args)
    summary = monte_carlo(
        pop,
        sizes,
        reps=args.reps,
        seed=args.seed,
        threads=args.threads,
        dump_path=args.dump,
    )
    comparison = {}
    scale = max(float(np.abs(y).max()) for y in (pop.a, pop.b, pop.c))
    roundoff_var = (RATIO_RTOL * scale) ** 2
    for s, t in PAIRS:
        si, ti = GROUP_CODES[s], GROUP_CODES[t]
        empirical = _contrast(summary.mr_cov, si, ti)
        nominal = _contrast(summary.mean_nominal_cov[:3, :3], si, ti)
        comparison[f"{s}-{t}"] = {
            "empirical_mr_var": empirical,
            "mean_nominal_var": nominal,
            "ratio": nominal / empirical if empirical > roundoff_var else float("nan"),
            "empirical_itt_var": _contrast(summary.itt_cov, si, ti),
        }
    report = {
        "command": "simulate",
        "population": args.population,
        "n": pop.n,
        "sizes": sizes.counts(),
        "z_normalization": z_map,
        "replicates": summary.replicates,
        "seed": args.seed,
        "singular_redraws": summary.singular_redraws,
        "truth": summary.truth,
        "q_tilde": summary.q_tilde,
        "itt": {
            "mean": summary.itt_mean,
            "bias": summary.itt_bias,
            "se": summary.itt_se,
            "cov": summary.itt_cov,
        },
        "mr": {
            "mean": summary.mr_mean,
            "bias": summary.mr_bias,
            "se": summary.mr_se,
            "cov": summary.mr_cov,
            "mean_q_hat": summary.mean_q_hat,
            "mean_sigma_hat_sq": summary.mean_sigma_hat_sq,
        },
        "mean_nominal_cov": summary.mean_nominal_cov,
        "nominal_vs_empirical": comparison,
        "zeta": {
            "mean": summary.zeta_mean,
            "cov": summary.zeta_cov,
            "skewness": summary.zeta_skewness,
            "kurtosis": summary.zeta_kurtosis,
        },
        "max_abs_dev_az_a": summary.max_abs_dev_az_a,
    }
    return report, notes


def _cmd_reproduce(args):
    result = run_scenario(args.scenario)
    report = {
        "command": "reproduce",
        "scenario": result.scenario,
        "passed": result.passed,
        "discrepancy": result.discrepancy,
        "rows": [dataclasses.asdict(row) for row in result.rows],
        "notes": result.notes,
    }
    return report, []


def _add_population_flags(parser):
    parser.add_argument("population", help="population CSV (columns a,b,c,z)")
    parser.add_argument("--sizes", required=True, help="group sizes n_A,n_B,n_C")
    parser.add_argument(
        "--normalize",
        choices=("auto", "require", "off"),
        default="auto",
        help="covariate normalization policy (default auto)",
    )
    parser.add_argument(
        "--replicate",
        type=int,
        default=1,
        metavar="M",
        help="duplicate every subject M >= 1 times first (default 1)",
    )


def _add_output_flags(parser):
    parser.add_argument(
        "--format", choices=("table", "csv", "json"), default="table", help="output format"
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker cap for the Monte Carlo engine, at least 1 (default $TRIARM_THREADS "
        "or 1); results never depend on it",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triarm",
        description="Finite-population calibration of regression adjustment "
        "in three-arm randomized experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="closed-form moments, bias and gain report")
    _add_population_flags(p)
    _add_output_flags(p)
    p.add_argument("--pair", default="A,C", help="contrast pair for the gain verdict (default A,C)")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("enumerate", help="exact distribution over all assignments")
    _add_population_flags(p)
    _add_output_flags(p)
    p.add_argument("--mode", choices=ENUMERATION_MODES, default="all")
    p.add_argument(
        "--limit", type=int, default=DEFAULT_ENUMERATION_LIMIT, help="max assignments (default %(default)d)"
    )
    p.add_argument("--dump", metavar="FILE", help="write per-assignment estimates to FILE as CSV")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("simulate", help="seeded Monte Carlo distribution summary")
    _add_population_flags(p)
    _add_output_flags(p)
    p.add_argument("--reps", type=int, required=True, help="number of replicates (>= 2)")
    p.add_argument("--seed", type=int, required=True, help="master seed (>= 0)")
    p.add_argument("--dump", metavar="FILE", help="write per-replicate estimates to FILE as CSV")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("reproduce", help="run a built-in verification scenario")
    p.add_argument("--scenario", required=True, choices=SCENARIO_NAMES)
    _add_output_flags(p)
    p.set_defaults(handler=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.threads is None:
            args.threads = _default_threads()
        for flag, least in _FLAG_MINIMUMS.items():
            value = getattr(args, flag, least)
            if value < least:
                raise ValueError(f"--{flag} must be at least {least}, got {value}")
        with warnings.catch_warnings():
            # the policy note from _prepare_population already says this
            warnings.filterwarnings("ignore", ".*covariate z is not normalized", UserWarning)
            report, notes = args.handler(args)
    except EnumerationLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PopulationFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for note in notes:
        print(note, file=sys.stderr)
    sys.stdout.write(_render(report, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
