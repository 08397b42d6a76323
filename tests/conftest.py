"""Shared fixtures.

The Monte Carlo summaries used by both the property tests and the
acceptance suite are expensive (1e5+ replicates at n in the hundreds),
so they are computed once per session here.  Every engine call is
deterministic given its seed, so sharing results does not couple tests.
"""

import numpy as np
import pytest
from hypothesis import settings

from triarm import (
    GroupSizes,
    Population,
    make_additive_population,
    make_interaction_population,
    make_orthogonal_population,
    monte_carlo,
    order_checks,
)
from triarm.scenarios import curved_response_population, demo_population

THREADS = 2

# every @given test draws the same examples on every run (derandomize
# also turns off the example database); each keeps its max_examples
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def table_pop():
    return demo_population()


@pytest.fixture(scope="session")
def mc_orthogonal_full():
    pop = make_orthogonal_population(800)
    return monte_carlo(pop, GroupSizes(200, 400, 200), reps=100_000, seed=11, threads=THREADS)


@pytest.fixture(scope="session")
def mc_orthogonal_small_b():
    pop = make_orthogonal_population(800, var_b=0.25)
    return monte_carlo(pop, GroupSizes(200, 400, 200), reps=100_000, seed=11, threads=THREADS)


@pytest.fixture(scope="session")
def mc_additive():
    pop = make_additive_population(800, z_correlation=0.6)
    return monte_carlo(pop, GroupSizes(200, 400, 200), reps=100_000, seed=12, threads=THREADS)


@pytest.fixture(scope="session")
def mc_interaction():
    pop = make_interaction_population(960, var_b=5.0 / 6.0)
    return monte_carlo(pop, GroupSizes(320, 320, 320), reps=100_000, seed=13, threads=THREADS)


@pytest.fixture(scope="session")
def mc_normal_check():
    pop = make_orthogonal_population(2000)
    return monte_carlo(pop, GroupSizes(500, 1000, 500), reps=100_000, seed=14, threads=THREADS)


#: Frozen configuration for the second-order bias diagnostics: the
#: curved-response base with damped linear arms keeps the m=10 residual
#: inside its four-standard-error gate while staying far enough above
#: the Monte Carlo noise floor for the decay slope to be identifiable.
ORDER_CHECK_SEED = 3
ORDER_CHECK_M = (10, 40, 160)
ORDER_CHECK_REPS = 200_000
ORDER_CHECK_SCALE = 0.3


@pytest.fixture(scope="session")
def order_report_frozen():
    base = curved_response_population(linear_scale=ORDER_CHECK_SCALE)
    return order_checks(
        base,
        GroupSizes(2, 2, 2),
        ORDER_CHECK_M,
        reps=ORDER_CHECK_REPS,
        seed=ORDER_CHECK_SEED,
        threads=THREADS,
    )


@pytest.fixture(scope="session")
def linear_response_population():
    """Build the 600-row population a = s, b = 2s, c = -s, z = s + noise.

    Every response is shifted by the argument; z is left raw.  The
    closed forms of the shifted populations must match the unshifted
    one, which exposes any cancellation against the response means.
    """

    def build(shift: float) -> Population:
        rng = np.random.default_rng(0)
        s = rng.standard_normal(600)
        z = s + rng.standard_normal(600)
        return Population(s + shift, 2.0 * s + shift, -s + shift, z)

    return build


def contrast_var(cov: np.ndarray, s: int = 0, t: int = 2) -> float:
    return float(cov[s, s] + cov[t, t] - 2.0 * cov[s, t])
