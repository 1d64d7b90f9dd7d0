import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import kstest, multivariate_normal, spearmanr

from crl_lab import contrast, mixing, spurious
from crl_lab.errors import CapacityError, SampleSizeError, SingularityError
from crl_lab.rng import spawn


class TestAnalyticGaussianDarmois:
    def setup_method(self):
        self.rho = 0.5
        self.cov = np.array([[1.0, self.rho], [self.rho, 1.0]])
        self.d = spurious.AnalyticGaussianDarmois(np.zeros(2), self.cov)

    def test_stage_two_closed_form(self):
        rng = spawn(0, "grid")
        x = rng.standard_normal((200, 2))
        u = self.d.forward(x)
        expected = ndtr((x[:, 1] - self.rho * x[:, 0])
                        / np.sqrt(1 - self.rho**2))
        np.testing.assert_allclose(u[:, 1], expected, atol=1e-8)

    def test_det_jacobian_equals_joint_density(self):
        rng = spawn(1, "grid")
        x = rng.standard_normal((100, 2))
        J = self.d.jacobian(x)
        dens = multivariate_normal(np.zeros(2), self.cov).pdf(x)
        np.testing.assert_allclose(np.linalg.det(J), dens, atol=1e-8)

    def test_jacobian_lower_triangular_with_conditional_densities(self):
        rng = spawn(2, "grid")
        x = rng.standard_normal((50, 2))
        J = self.d.jacobian(x)
        assert np.all(J[:, 0, 1] == 0.0)
        p1 = np.exp(-0.5 * x[:, 0] ** 2) / np.sqrt(2 * np.pi)
        np.testing.assert_allclose(J[:, 0, 0], p1, atol=1e-10)
        sig = np.sqrt(1 - self.rho**2)
        z = (x[:, 1] - self.rho * x[:, 0]) / sig
        p2 = np.exp(-0.5 * z * z) / (np.sqrt(2 * np.pi) * sig)
        np.testing.assert_allclose(J[:, 1, 1], p2, atol=1e-10)

    def test_round_trip_through_mixing_wrapper(self):
        f_d = mixing.Inverted(self.d)
        rng = spawn(3, "grid")
        u = rng.uniform(0.02, 0.98, (100, 2))
        np.testing.assert_allclose(self.d.forward(f_d.forward(u)), u, atol=1e-6)

    def test_output_in_unit_cube(self):
        rng = spawn(4, "grid")
        u = self.d.forward(rng.standard_normal((500, 2)) * 2)
        assert np.all((u > 0) & (u < 1))

    def test_singular_covariance_rejected(self):
        with pytest.raises(SingularityError):
            spurious.AnalyticGaussianDarmois(np.zeros(2), np.ones((2, 2)))


class TestEmpiricalDarmois:
    def test_identity_stages_for_independent_uniforms(self):
        u = spawn(5, "u").uniform(0, 1, size=(50_000, 2))
        d = spurious.EmpiricalDarmois(u, max_reference=50_000)
        grid = np.stack([np.linspace(0.02, 0.98, 60)] * 2, axis=1)
        assert np.max(np.abs(d.forward(grid) - grid)) < 0.02

    def test_pushforward_jointly_uniform(self):
        rng = spawn(78, "g")
        L = np.linalg.cholesky(np.array([[1.0, 0.6], [0.6, 1.5]]))
        x = rng.standard_normal((50_000, 2)) @ L.T
        d = spurious.EmpiricalDarmois(x, max_reference=50_000)
        fresh = rng.standard_normal((2000, 2)) @ L.T
        push = d.forward(fresh)
        n = push.shape[0]
        for i in range(2):
            assert kstest(push[:, i], "uniform").statistic < 1.36 / np.sqrt(n)
        assert abs(spearmanr(push[:, 0], push[:, 1]).statistic) < 3 / np.sqrt(n)

    def test_jacobian_triangular(self):
        x = spawn(6, "x").standard_normal((2000, 2))
        d = spurious.EmpiricalDarmois(x)
        J = d.jacobian(x[:100])
        assert np.max(np.abs(J[:, 0, 1])) < 1e-6

    def test_jacobian_matches_finite_differences(self):
        rng = spawn(7, "x")
        x = rng.standard_normal((3000, 2))
        d = spurious.EmpiricalDarmois(x)
        probes = x[:10]
        J = d.jacobian(probes)
        h = 1e-5
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd = (d.forward(probes + e) - d.forward(probes - e)) / (2 * h)
            np.testing.assert_allclose(J[:, :, j], fd, atol=1e-5)

    def test_invert_round_trip(self):
        x = spawn(8, "x").standard_normal((3000, 2))
        d = spurious.EmpiricalDarmois(x)
        u = d.forward(x[:50])
        np.testing.assert_allclose(d.forward(d.inverse(u)), u, atol=1e-8)

    def test_own_derivative_is_the_gradient_entry(self):
        x = spawn(9, "x").standard_normal((1500, 3))
        d = spurious.EmpiricalDarmois(x)
        for i in range(3):
            val, own = d._stage(i, x[:40], deriv="own")
            val_full, grad = d._stage(i, x[:40], deriv="full")
            assert np.array_equal(val, val_full)
            assert np.array_equal(own, grad[:, i])

    def test_inverse_equals_newton_on_the_full_gradient(self):
        x = spawn(10, "x").standard_normal((1500, 3))
        d = spurious.EmpiricalDarmois(x)
        u = d.forward(spawn(11, "x").standard_normal((40, 3)))
        expected = np.zeros_like(u)
        for i in range(3):
            def stage(xi):
                expected[:, i] = xi
                val, grad = d._stage(i, expected, deriv="full")
                return val, grad[:, i]

            pad = 12 * d._h_own[i]
            expected[:, i] = mixing.monotone_solve(
                stage, u[:, i], np.full(40, np.median(d.ref[:, i])),
                np.full(40, d.ref[:, i].min() - pad),
                np.full(40, d.ref[:, i].max() + pad), 1e-10, 200, "stage")
        assert np.array_equal(d.inverse(u), expected)

    def test_inverse_equals_the_loop_that_recomputes_the_weights(self):
        # the inverse computes each stage's weights once; here every Newton
        # step recomputes them from x[:, :i]
        x = spawn(12, "x").standard_normal((1500, 3))
        d = spurious.EmpiricalDarmois(x)
        u = d.forward(spawn(13, "x").standard_normal((300, 3)))
        expected = np.zeros_like(u)
        for i in range(3):
            def stage(xi):
                expected[:, i] = xi
                return d._stage(i, expected, deriv="own")

            pad = 12 * d._h_own[i]
            expected[:, i] = mixing.monotone_solve(
                stage, u[:, i], np.full(300, np.median(d.ref[:, i])),
                np.full(300, d.ref[:, i].min() - pad),
                np.full(300, d.ref[:, i].max() + pad), 1e-10, 200, "stage")
        assert np.array_equal(d.inverse(u), expected)

    def test_conditioning_bandwidth_equals_the_broadcast_median(self):
        x = spawn(14, "x").standard_normal((1700, 3))
        d = spurious.EmpiricalDarmois(x)
        m = d.ref.shape[0]
        for i in (1, 2):
            sub = d.ref[:: max(1, m // 500), :i]
            d2 = np.sum((sub[:, None, :] - sub[None, :, :]) ** 2, axis=-1)
            med = float(np.sqrt(np.median(d2[np.triu_indices(sub.shape[0], k=1)])))
            assert d._h_cond[i] == max(med, 1e-3) * m ** (-1.0 / (4 + i))

    def test_sample_size_guard(self):
        with pytest.raises(SampleSizeError):
            spurious.EmpiricalDarmois(np.zeros((500, 2)))
        with pytest.raises(SampleSizeError):
            spurious.EmpiricalDarmois(spawn(0, "x").standard_normal((2000, 2)),
                                      max_reference=500)

    def test_dimension_guard(self):
        with pytest.raises(CapacityError):
            spurious.EmpiricalDarmois(np.zeros((2000, 4)))


class TestDarmoisContrast:
    def test_darmois_of_dependent_mixture_scores_positive(self):
        # orthogonal non-trivial mixing of two non-Gaussian sources: the true
        # map has zero contrast while its Darmois solution scores > 0
        rng = spawn(123, "demo")
        u = rng.uniform(0, 1, size=(40_000, 2))
        x = u @ mixing.rotation_2d(np.pi / 4).T
        d = spurious.EmpiricalDarmois(x)
        vals = contrast.local_ima_from_jacobian(np.linalg.inv(d.jacobian(x[:8000])))
        est = vals.mean()
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert est - 3 * se > 0.02


class TestMpa:
    def test_identity_rotation_is_identity(self):
        marg = [spurious.UniformMarginal(0, 1)] * 2
        mpa = spurious.MpaMap(np.eye(2), marg)
        s = spawn(9, "s").uniform(0.01, 0.99, (200, 2))
        np.testing.assert_allclose(mpa.forward(s), s, atol=1e-12)

    def test_gaussian_source_permutation_rotation(self):
        marg = [spurious.GaussianMarginal(0, 1)] * 2
        mpa = spurious.MpaMap(np.array([[0.0, 1.0], [1.0, 0.0]]), marg)
        s = spawn(10, "s").standard_normal((300, 2))
        np.testing.assert_allclose(mpa.forward(s), s[:, [1, 0]], atol=1e-9)

    def test_uniform_marginals_preserved_under_rotation(self):
        marg = [spurious.UniformMarginal(0, 1)] * 2
        mpa = spurious.MpaMap(mixing.rotation_2d(np.pi / 4), marg)
        n = 10_000
        s = spawn(11, "s").uniform(0, 1, (n, 2))
        z = mpa.forward(s)
        for i in range(2):
            assert kstest(z[:, i], "uniform").statistic < 1.36 / np.sqrt(n)

    def test_measure_preservation_generic_rotation_and_source(self):
        # level-0.01 KS with N = 10^4 (critical constant 1.628)
        n = 10_000
        marg = [spurious.GaussianMarginal(0.5, 1.2),
                spurious.GaussianMarginal(-1.0, 0.7)]
        mpa = spurious.MpaMap(mixing.rotation_2d(1.234), marg)
        rng = spawn(12, "s")
        s = np.column_stack([0.5 + 1.2 * rng.standard_normal(n),
                             -1.0 + 0.7 * rng.standard_normal(n)])
        z = mpa.forward(s)
        for i, m in enumerate(marg):
            assert kstest(z[:, i], lambda v, m=m: m.cdf(v)).statistic \
                < 1.628 / np.sqrt(n)

    def test_jacobian_matches_finite_differences(self):
        marg = [spurious.UniformMarginal(0, 1), spurious.GaussianMarginal(0, 1)]
        mpa = spurious.MpaMap(mixing.rotation_2d(0.6), marg)
        s0 = np.array([0.43, 0.21])
        h = 1e-6
        fd = np.zeros((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            fd[:, j] = (mpa.forward(s0 + e) - mpa.forward(s0 - e)) / (2 * h)
        np.testing.assert_allclose(mpa.jacobian(s0), fd, atol=1e-7)

    def test_tail_clamp_warns(self):
        marg = [spurious.UniformMarginal(0, 1)] * 2
        mpa = spurious.MpaMap(mixing.rotation_2d(0.3), marg)
        with pytest.warns(RuntimeWarning, match="clamped"):
            mpa.forward(np.array([[1.5, 0.5]]))

    def test_empirical_marginal_round_trip(self):
        samples = spawn(13, "emp").standard_normal(5000) * 1.4 + 0.3
        m = spurious.EmpiricalMarginal(samples)
        u = np.linspace(0.05, 0.95, 19)
        np.testing.assert_allclose(m.cdf(m.ppf(u)), u, atol=1e-9)


class TestMpaAngleStructure:
    def test_quarter_turn_composes_to_reparametrization(self):
        # rotation by pi/2 turns the MPA into permutation + element-wise flip,
        # so the composed contrast collapses to the conformal map's zero
        mix = mixing.random_moebius(2, seed=7)
        marg = [spurious.UniformMarginal(0, 1)] * 2
        sampler = contrast.box_sampler([1e-6, 1e-6], [1 - 1e-6, 1 - 1e-6])
        for theta, positive in [(np.pi / 2, False), (np.pi / 4, True)]:
            mpa = spurious.MpaMap(mixing.rotation_2d(theta), marg)
            est = contrast.global_ima(mixing.Composition([mpa, mix]), sampler,
                                      n_mc=20_000, seed=3)
            if positive:
                assert est.value - 3 * est.stderr > 0
            else:
                assert abs(est.value) <= 3 * est.stderr + 1e-12
