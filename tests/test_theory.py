from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from triarm import (
    AsymptoticSpec,
    GroupSizes,
    Population,
    adjustment_gain,
    bias_k,
    center_responses,
    enumerate_assignments,
    exact_distribution,
    group_mean,
    itt_pair_variance,
    moment_set,
    nominal_asymptotics,
    normalize_z,
    plugin_spec,
    prop1_moments,
    q_limit,
    q_tilde,
    replicate,
    sigma_matrix,
    theory_report,
)
from triarm import population
from triarm.scenarios import (
    additive_spec,
    covariate_sum_spec,
    curved_response_population,
    identity_spec,
)


@pytest.fixture()
def norm_table(table_pop):
    pop, _ = normalize_z(table_pop)
    return pop


def exact_group_mean_moments(values_x, values_y, sizes):
    """Fraction-exact sampling moments of x over A and y over A/B.

    Brute force over index subsets; independent of the package's own
    enumeration and float arithmetic.
    """
    n = len(values_x)
    x = [Fraction(v).limit_denominator(10**9) for v in values_x]
    y = [Fraction(v).limit_denominator(10**9) for v in values_y]
    xs, ys_same, ys_cross = [], [], []
    for a_set in combinations(range(n), sizes.n_a):
        rest = [i for i in range(n) if i not in a_set]
        for b_set in combinations(rest, sizes.n_b):
            xa = sum(x[i] for i in a_set) / sizes.n_a
            ya = sum(y[i] for i in a_set) / sizes.n_a
            yb = sum(y[i] for i in b_set) / sizes.n_b
            xs.append(xa)
            ys_same.append(ya)
            ys_cross.append(yb)
    count = len(xs)
    mean = sum(xs) / count
    mean_same = sum(ys_same) / count
    mean_cross = sum(ys_cross) / count
    var = sum((v - mean) ** 2 for v in xs) / count
    cov_same = sum((u - mean) * (v - mean_same) for u, v in zip(xs, ys_same)) / count
    cov_cross = sum((u - mean) * (v - mean_cross) for u, v in zip(xs, ys_cross)) / count
    return float(mean), float(var), float(cov_same), float(cov_cross)


class TestGroupMeanMoments:
    def test_table_against_fraction_oracle(self, table_pop):
        sizes = GroupSizes(2, 2, 2)
        mean, var, cov_same, cov_cross = exact_group_mean_moments(table_pop.a, table_pop.b, sizes)
        got = prop1_moments(table_pop, sizes, "a", "b", ("A", "B"))
        assert got.mean == pytest.approx(mean, abs=1e-14)
        assert got.variance == pytest.approx(var, abs=1e-14)
        assert got.within_covariance == pytest.approx(cov_same, abs=1e-14)
        assert got.cross_covariance == pytest.approx(cov_cross, abs=1e-14)
        # frozen values: mean 4/3, var (1/5)*2*(20/9), cross -(1/5)(20/9)
        assert got.mean == pytest.approx(4 / 3, abs=1e-15)
        assert got.variance == pytest.approx(8 / 9, abs=1e-14)
        assert got.cross_covariance == pytest.approx(-4 / 9, abs=1e-14)

    def test_random_population_oracle(self):
        rng = np.random.default_rng(8)
        values = np.round(rng.uniform(-5, 5, size=(4, 6)), 3)
        pop = Population(*values)
        sizes = GroupSizes(1, 2, 3)
        mean, var, cov_same, cov_cross = exact_group_mean_moments(pop.c, pop.z, sizes)
        got = prop1_moments(pop, sizes, "c", "z", ("A", "B"))
        assert got.mean == pytest.approx(mean, abs=1e-13)
        assert got.variance == pytest.approx(var, abs=1e-13)
        assert got.within_covariance == pytest.approx(cov_same, abs=1e-13)
        assert got.cross_covariance == pytest.approx(cov_cross, abs=1e-13)

    def test_normalized_z_cross_covariance(self, norm_table):
        got = prop1_moments(norm_table, GroupSizes(2, 2, 2), "z", "z", ("A", "B"))
        assert got.cross_covariance == pytest.approx(-1 / 5, abs=1e-14)

    def test_same_group_rejected(self, table_pop):
        with pytest.raises(ValueError, match="distinct"):
            prop1_moments(table_pop, GroupSizes(2, 2, 2), "a", "b", ("A", "A"))


class TestITTPairVariance:
    def test_table_value(self, table_pop):
        v = itt_pair_variance(table_pop, GroupSizes(2, 2, 2), ("A", "C"))
        assert v == pytest.approx(8 / 3, abs=1e-14)

    def test_matches_enumeration(self, table_pop):
        summary = exact_distribution(table_pop, GroupSizes(2, 2, 2))
        enumerated = summary.itt_cov[0, 0] + summary.itt_cov[2, 2] - 2 * summary.itt_cov[0, 2]
        assert itt_pair_variance(table_pop, GroupSizes(2, 2, 2), ("A", "C")) == pytest.approx(
            enumerated, abs=1e-12
        )

    def test_constant_responses(self):
        pop = Population(np.ones(6), np.ones(6), np.ones(6), np.arange(6.0))
        assert itt_pair_variance(pop, GroupSizes(2, 2, 2)) == pytest.approx(0.0, abs=1e-15)

    def test_unknown_group_rejected(self, table_pop):
        with pytest.raises(ValueError, match="unknown group"):
            itt_pair_variance(table_pop, GroupSizes(2, 2, 2), ("A", "D"))

    def test_symmetric_in_pair(self, table_pop):
        sizes = GroupSizes(1, 2, 3)
        assert itt_pair_variance(table_pop, sizes, ("A", "C")) == pytest.approx(
            itt_pair_variance(table_pop, sizes, ("C", "A")), abs=1e-15
        )


class TestQTilde:
    def test_table_both_sizes(self, norm_table):
        assert q_tilde(norm_table, GroupSizes(2, 2, 2)) == pytest.approx(2 / 3, abs=1e-14)
        assert q_tilde(norm_table, GroupSizes(1, 1, 4)) == pytest.approx(2 / 3, abs=1e-14)

    def test_odd_in_z(self, norm_table):
        flipped = Population(norm_table.a, norm_table.b, norm_table.c, -norm_table.z)
        assert q_tilde(flipped, GroupSizes(2, 2, 2)) == pytest.approx(-2 / 3, abs=1e-14)

    def test_warns_on_raw_z(self, table_pop):
        with pytest.warns(UserWarning, match="not normalized"):
            q_tilde(table_pop, GroupSizes(2, 2, 2))

    @pytest.mark.parametrize("seed", range(4))
    def test_reads_the_product_means(self, seed):
        rng = np.random.default_rng(seed)
        pop, _ = normalize_z(Population(*(rng.normal(1.0, 2.0, size=30) for _ in range(4))))
        sizes = GroupSizes(6, 15, 9)
        product_means = moment_set(pop).product_means
        assert q_tilde(pop, sizes) == float(np.dot(sizes.fractions(), product_means))


class TestBiasK:
    def test_equal_responses_zero(self):
        x = np.array([1.0, -2.0, 0.5, 3.0, -1.0, -1.5])
        z = np.array([0.0, 0.0, 0.0, -1.0, -1.0, 2.0])
        pop = Population(x, x, x, z)
        np.testing.assert_allclose(bias_k(pop, GroupSizes(2, 2, 2)), 0.0, atol=1e-15)

    def test_additive_population_zero(self, norm_table):
        for sizes in (GroupSizes(2, 2, 2), GroupSizes(1, 1, 4), GroupSizes(1, 2, 3)):
            np.testing.assert_allclose(bias_k(norm_table, sizes), 0.0, atol=1e-12)

    def test_curved_population_frozen_values(self):
        pop = curved_response_population()
        k = bias_k(pop, GroupSizes(2, 2, 2))
        np.testing.assert_allclose(k, [-8 / 9, -8 / 9, 16 / 9], atol=1e-13)

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        pop = curved_response_population()
        shifted = Population(pop.a + 5.0, pop.b - 3.0, pop.c + 11.0, pop.z)
        np.testing.assert_allclose(
            bias_k(pop, GroupSizes(2, 2, 2)),
            bias_k(shifted, GroupSizes(2, 2, 2)),
            atol=1e-12,
        )

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_matches_centered_population_route(self, offset):
        # bias_k centers the product covariances itself; it must equal, bit
        # for bit, the product covariances of the centered population
        rng = np.random.default_rng(21)
        raw = rng.normal(size=(4, 50)) + [[offset], [-offset], [3.0], [0.0]]
        pop, _ = normalize_z(Population(*raw))
        sizes = GroupSizes(10, 25, 15)
        prod_cov = moment_set(center_responses(pop)[0]).product_covariances
        old = prod_cov - float(np.dot(sizes.fractions(), prod_cov))
        assert np.array_equal(bias_k(pop, sizes), old)

    def test_matches_enumeration_identity(self):
        # K equals (n-1) times the average, over all assignments, of the
        # centered-product group-mean combination times the covariate
        # group mean; both sides exact
        pop = curved_response_population()
        sizes = GroupSizes(2, 2, 2)
        centered, _ = center_responses(pop)
        products = [centered.a * pop.z, centered.b * pop.z, centered.c * pop.z]
        product_means = [p.mean() for p in products]
        fractions = sizes.fractions()
        total = np.zeros(3)
        count = 0
        for asg in enumerate_assignments(sizes):
            q_check = sum(
                fr * (group_mean(products[k], asg, g) - product_means[k])
                for k, (fr, g) in enumerate(zip(fractions, "ABC"))
            )
            z_means = np.array([group_mean(pop.z, asg, g) for g in "ABC"])
            total += q_check * z_means
            count += 1
        oracle = (pop.n - 1) * total / count
        np.testing.assert_allclose(bias_k(pop, sizes), oracle, atol=1e-12)


#: Covariance of (a, b, c, z) with constant responses and a unit covariate.
ZERO_RESPONSES = np.diag([0.0, 0.0, 0.0, 1.0])


class TestAsymptoticSpec:
    def test_fraction_sum_enforced(self):
        with pytest.raises(ValueError, match="sum to 1"):
            AsymptoticSpec(np.array([0.5, 0.5, 0.5]), ZERO_RESPONSES)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError, match="positive"):
            AsymptoticSpec(np.array([-0.2, 0.6, 0.6]), ZERO_RESPONSES)

    def test_unrealizable_moments_rejected(self):
        # |corr| > 1 between a and z
        cov = np.diag([1.0, 0.0, 0.0, 1.0])
        cov[0, 3] = cov[3, 0] = 2.0
        with pytest.raises(ValueError, match="not realizable"):
            AsymptoticSpec(np.full(3, 1 / 3), cov)

    @pytest.mark.parametrize(
        "fractions, cov, match",
        [
            ([0.5, 0.5], ZERO_RESPONSES, "shapes"),
            ([0.25, 0.5, 0.25], ZERO_RESPONSES[:3, :3], "shapes"),
            ([0.25, 0.5, 0.25], ZERO_RESPONSES + np.triu(np.full((4, 4), 0.1), 1), "symmetric"),
            ([0.25, 0.5, 0.25], 2.0 * ZERO_RESPONSES, "equal to 1"),
        ],
    )
    def test_matrix_layout_enforced(self, fractions, cov, match):
        with pytest.raises(ValueError, match=match):
            AsymptoticSpec(np.array(fractions), cov)

    def test_arrays_are_read_only_copies(self):
        cov = ZERO_RESPONSES.copy()
        spec = AsymptoticSpec(np.array([0.25, 0.5, 0.25]), cov)
        cov[0, 0] = 5.0
        assert spec.covariance[0, 0] == 0.0
        assert not spec.covariance.flags.writeable and not spec.fractions.flags.writeable


class TestSigmaMatrix:
    def test_identity_covariances(self):
        sigma, q = sigma_matrix(identity_spec())
        assert q == 0.0
        assert sigma[0, 0] == pytest.approx(3.0, abs=1e-12)
        assert sigma[2, 2] == pytest.approx(3.0, abs=1e-12)
        assert sigma[0, 2] == pytest.approx(0.0, abs=1e-12)
        contrast = sigma[0, 0] + sigma[2, 2] - 2 * sigma[0, 2]
        assert contrast == pytest.approx(6.0, abs=1e-12)

    def test_all_zero_moments(self):
        sigma, q = sigma_matrix(AsymptoticSpec(np.array([0.25, 0.5, 0.25]), ZERO_RESPONSES))
        assert q == 0.0
        np.testing.assert_allclose(sigma, 0.0, atol=1e-15)

    def test_exactly_symmetric(self):
        # random realizable specs: (a, b, c, z) covariance L L^T with z
        # rescaled to unit variance
        rng = np.random.default_rng(5)
        for _ in range(300):
            low = rng.normal(size=(4, 4))
            cov = low @ low.T
            cov /= np.sqrt(np.outer([1, 1, 1, cov[3, 3]], [1, 1, 1, cov[3, 3]]))
            cov[3, 3] = 1.0  # the scaling leaves it within roundoff of 1
            p = rng.uniform(0.1, 1.0, size=3)
            sigma, _ = sigma_matrix(AsymptoticSpec(p / p.sum(), cov))
            assert np.array_equal(sigma, sigma.T)

    def test_additive_diagonal(self):
        q, var = 0.4, 1.3
        spec = additive_spec(q, (0.2, 0.5, 0.3), var)
        sigma, q_got = sigma_matrix(spec)
        assert q_got == pytest.approx(q, abs=1e-14)
        for i, p in enumerate((0.2, 0.5, 0.3)):
            assert sigma[i, i] == pytest.approx((1 - p) / p * (var - q * q), abs=1e-12)


class TestNominalAsymptotics:
    def test_identity_case(self):
        nom = nominal_asymptotics(identity_spec())
        assert nom.sigma_sq == pytest.approx(1.0, abs=1e-14)
        assert nom.covariance[0, 0] + nom.covariance[2, 2] == pytest.approx(8.0, abs=1e-12)

    def test_small_b_variance(self):
        nom = nominal_asymptotics(identity_spec(var_b=0.25))
        assert nom.sigma_sq == pytest.approx(5 / 8, abs=1e-14)
        assert nom.covariance[0, 0] + nom.covariance[2, 2] == pytest.approx(5.0, abs=1e-12)

    def test_degenerate_spec_zero(self):
        nom = nominal_asymptotics(AsymptoticSpec(np.array([0.25, 0.5, 0.25]), ZERO_RESPONSES))
        assert nom.sigma_sq == 0.0


class TestAdjustmentGain:
    def test_additive_formula_random_draws(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            q = rng.uniform(-1.0, 1.0)
            raw = rng.uniform(0.2, 1.0, size=3)
            p = raw / raw.sum()
            var = q * q + rng.uniform(0.1, 2.0)
            gain = adjustment_gain(additive_spec(q, tuple(p), var))
            assert gain.gamma == pytest.approx(q * q * (p[0] + p[2]), abs=1e-12)
            assert gain.gamma >= -1e-12

    def test_boundary_spec(self):
        gain = adjustment_gain(covariate_sum_spec(2.0 / 3.0))
        assert abs(gain.gamma) <= 1e-12
        assert gain.verdict == "neutral"

    def test_interior_spec(self):
        gain = adjustment_gain(covariate_sum_spec(5.0 / 6.0))
        assert gain.gamma == pytest.approx(-1 / 27, abs=1e-12)
        assert gain.verdict == "hurts"
        assert gain.gain(27) == pytest.approx(gain.gamma * 9 / 27, abs=1e-15)

    def test_sign_flip_of_z_invariant(self):
        spec = covariate_sum_spec(5.0 / 6.0)
        signs = np.array([1.0, 1.0, 1.0, -1.0])
        flipped = AsymptoticSpec(spec.fractions, spec.covariance * np.outer(signs, signs))
        assert adjustment_gain(flipped).gamma == pytest.approx(
            adjustment_gain(spec).gamma, abs=1e-14
        )

    def test_same_group_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            adjustment_gain(identity_spec(), ("A", "A"))


class TestPluginSpec:
    def test_table_q(self, norm_table):
        spec = plugin_spec(norm_table, GroupSizes(2, 2, 2))
        assert q_limit(spec) == pytest.approx(2 / 3, abs=1e-14)

    def test_replication_invariant(self, norm_table):
        sizes = GroupSizes(2, 2, 2)
        base = plugin_spec(norm_table, sizes)
        for m in (2, 5, 17):
            again = plugin_spec(replicate(norm_table, m), sizes.scaled(m))
            assert np.array_equal(again.fractions, base.fractions)
            np.testing.assert_allclose(again.covariance, base.covariance, rtol=0, atol=1e-12)

    def test_round_trip_finite(self, norm_table):
        sigma, q = sigma_matrix(plugin_spec(norm_table, GroupSizes(1, 2, 3)))
        assert np.all(np.isfinite(sigma)) and np.isfinite(q)

    @pytest.mark.parametrize("shift", [1e4, 1e5])
    def test_response_shift_invariant(self, linear_response_population, shift):
        sizes = GroupSizes(150, 300, 150)
        base, _ = normalize_z(linear_response_population(0.0))
        shifted, _ = normalize_z(linear_response_population(shift))
        want, got = plugin_spec(base, sizes), plugin_spec(shifted, sizes)
        np.testing.assert_allclose(sigma_matrix(got)[0], sigma_matrix(want)[0], rtol=1e-11, atol=0)
        assert nominal_asymptotics(got).sigma_sq == pytest.approx(
            nominal_asymptotics(want).sigma_sq, rel=1e-11, abs=0
        )
        assert adjustment_gain(got).gamma == pytest.approx(
            adjustment_gain(want).gamma, rel=1e-11, abs=0
        )

    def test_raw_covariate_unrealizable_names_moments(self):
        s = np.array([-1.5, -0.5, 0.0, 0.5, 1.5, 0.0])
        pop = Population(s, 2.0 * s, -s, 50.0 + 12.0 * s)
        with pytest.warns(UserWarning, match="not normalized"):
            with pytest.raises(ValueError, match=r"covariate z has mean 50\.0 .*need 0 and 1"):
                plugin_spec(pop, GroupSizes(2, 2, 2))


class TestTheoryReport:
    def test_assembles_consistently(self, norm_table):
        rep = theory_report(norm_table, GroupSizes(2, 2, 2), ("A", "C"))
        assert rep.q_tilde == pytest.approx(2 / 3, abs=1e-14)
        np.testing.assert_allclose(rep.bias, 0.0, atol=1e-12)
        assert rep.itt_variances["A-C"] == pytest.approx(
            itt_pair_variance(norm_table, GroupSizes(2, 2, 2), ("A", "C")), abs=1e-15
        )
        # additive population with q != 0: adjustment helps
        assert rep.gain.verdict == "helps"

    def test_one_moment_pass_per_population(self, table_pop, monkeypatch):
        built = []
        real = population.MomentSet

        def counting(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(population, "MomentSet", counting)
        pop, _ = normalize_z(table_pop)
        rep = theory_report(pop, GroupSizes(2, 2, 2), ("A", "C"))
        assert len(built) == 1
        assert rep.moments is moment_set(pop)

    def test_additive_gain_consistency(self, norm_table):
        # for additive populations the asymptotic contrast variance of
        # the adjusted estimator is the unadjusted one minus the gain
        sizes = GroupSizes(2, 2, 2)
        rep = theory_report(norm_table, sizes, ("A", "C"))
        adjusted = rep.sigma[0, 0] + rep.sigma[2, 2] - 2 * rep.sigma[0, 2]
        ms = moment_set(norm_table)
        unadjusted = (
            2 * ms.var("a") + 2 * ms.var("c") + 2 * ms.cov("a", "c")
        )
        assert adjusted == pytest.approx(
            unadjusted - rep.gain.coefficient, abs=1e-10
        )
