"""Seed sweep of the Monte Carlo-backed acceptance gates.

Usage::

    PYTHONPATH=src python scripts/seed_sweep.py

Re-runs the Monte Carlo behind acceptance criteria 7, 8 and 9
(``tests/test_acceptance.py``) at other seeds and reports, for every gate,
how many seeds pass it and its worst margin.  Criterion 7 (the frozen
``order_checks`` configuration of ``tests/conftest.py``) is swept over
seeds 0-11; criteria 8 and 9 over seeds 100-107, each seed feeding every
fixture of the criterion.  The gates, sizes and replicate counts are the
acceptance suite's; nothing here changes them, and Tier-1 never runs this
script.  It takes about 100 s on a two-core host (103 s wall with Python
3.11 and numpy 2.4).

A margin is the fraction of a gate left unused: 1 - |error| / allowed
error for a tolerance gate, the distance to the nearer end over the half
width for the slope range, and the relative gap for an ordering gate.
A negative margin is a failure.
"""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from conftest import (  # noqa: E402
    ORDER_CHECK_M,
    ORDER_CHECK_REPS,
    ORDER_CHECK_SCALE,
    THREADS,
    contrast_var,
)
from triarm import (  # noqa: E402
    GroupSizes,
    adjustment_gain,
    make_additive_population,
    make_interaction_population,
    make_orthogonal_population,
    monte_carlo,
    order_checks,
    plugin_spec,
)
from triarm.scenarios import curved_response_population  # noqa: E402

ORDER_SEEDS = range(0, 12)
CALIBRATION_SEEDS = range(100, 108)
CALIBRATION_REPS = 100_000


def _tolerance(error, allowed):
    return 1.0 - abs(error) / allowed


def criterion_7(seed):
    report = order_checks(
        curved_response_population(linear_scale=ORDER_CHECK_SCALE),
        GroupSizes(2, 2, 2),
        ORDER_CHECK_M,
        reps=ORDER_CHECK_REPS,
        seed=seed,
        threads=THREADS,
    )
    margins = {}
    for row in report.rows:
        # bias gate: |(n - 1) bias + K| <= 4 (n - 1) se, per component
        margins[f"7 bias m={row.m}"] = float(
            np.min(1.0 - np.abs(row.bias_scaled - row.bias_target) / row.bias_gate)
        )
    margins["7 slope in [-1.75, -0.75]"] = (0.5 - abs(report.slope + 1.25)) / 0.5
    return margins


def criteria_8_9(seed):
    orthogonal = GroupSizes(200, 400, 200)
    full = monte_carlo(
        make_orthogonal_population(800), orthogonal, CALIBRATION_REPS, seed=seed, threads=THREADS
    )
    small = monte_carlo(
        make_orthogonal_population(800, var_b=0.25),
        orthogonal,
        CALIBRATION_REPS,
        seed=seed,
        threads=THREADS,
    )
    additive_pop = make_additive_population(800, z_correlation=0.6)
    additive = monte_carlo(additive_pop, orthogonal, CALIBRATION_REPS, seed=seed, threads=THREADS)
    interaction = monte_carlo(
        make_interaction_population(960),
        GroupSizes(320, 320, 320),
        CALIBRATION_REPS,
        seed=seed,
        threads=THREADS,
    )

    def ratio(mc):
        return contrast_var(mc.mean_nominal_cov[:3, :3]) / contrast_var(mc.mr_cov)

    predicted = adjustment_gain(plugin_spec(additive_pop, orthogonal)).gain(800)
    itt_var, mr_var = contrast_var(additive.itt_cov), contrast_var(additive.mr_cov)
    inter_itt, inter_mr = contrast_var(interaction.itt_cov), contrast_var(interaction.mr_cov)
    return {
        "8 sigma_hat_sq within 0.02 of 1": _tolerance(full.mean_sigma_hat_sq - 1.0, 0.02),
        "8 ratio within 5% of 8/6": _tolerance(ratio(full) - 8 / 6, 0.05 * 8 / 6),
        "8 ratio within 5% of 5/6": _tolerance(ratio(small) - 5 / 6, 0.05 * 5 / 6),
        "9 additive: mr var < itt var": (itt_var - mr_var) / itt_var,
        "9 additive gap within 10%": _tolerance(itt_var - mr_var - predicted, 0.10 * predicted),
        "9 interaction: mr var > itt var": (inter_mr - inter_itt) / inter_mr,
    }


def sweep(label, seeds, run):
    results = {}
    clean = 0
    for seed in seeds:
        margins = run(seed)
        worst = min(margins, key=margins.get)
        clean += margins[worst] >= 0.0
        print(f"{label} seed {seed:3d}: worst margin {margins[worst]:+.3f} ({worst})", flush=True)
        for gate, margin in margins.items():
            results.setdefault(gate, []).append((margin, seed))
    print(f"{label}: every gate passes at {clean} of {len(seeds)} seeds", flush=True)
    return results


def main():
    results = sweep("criterion 7", ORDER_SEEDS, criterion_7)
    results.update(sweep("criteria 8-9", CALIBRATION_SEEDS, criteria_8_9))
    width = max(len(gate) for gate in results)
    print()
    print(f"{'gate'.ljust(width)}  passed  worst margin (seed)")
    for gate, runs in results.items():
        passed = sum(margin >= 0.0 for margin, _ in runs)
        worst, seed = min(runs)
        print(f"{gate.ljust(width)}  {passed:2d}/{len(runs):<2d}   {worst:+.3f} ({seed})")


if __name__ == "__main__":
    main()
