import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crl_lab import mixing, spurious
from crl_lab.errors import ConvergenceError, DomainError
from crl_lab.rng import spawn


def fd_jacobian(m, s, h=1e-5):
    n = s.size
    J = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        J[:, j] = (m.forward(s + e) - m.forward(s - e)) / (2 * h)
    return J


class TestPolar:
    def test_forward_at_unit_angle_zero(self):
        polar = mixing.PolarToCartesian()
        np.testing.assert_allclose(polar.forward(np.array([1.0, 0.0])), [1.0, 0.0])

    def test_jacobian_at_unit_angle_zero(self):
        # hand evaluation of [[cos, -r sin], [sin, r cos]]
        polar = mixing.PolarToCartesian()
        np.testing.assert_allclose(polar.jacobian(np.array([1.0, 0.0])),
                                   np.eye(2), atol=1e-15)

    def test_inverse_of_unit_x(self):
        polar = mixing.PolarToCartesian()
        np.testing.assert_allclose(polar.inverse(np.array([1.0, 0.0])), [1.0, 0.0])

    def test_domain_error(self):
        with pytest.raises(DomainError):
            mixing.PolarToCartesian().forward(np.array([-0.5, 0.1]))

    def test_columns_orthogonal_everywhere(self):
        rng = spawn(3, "polar")
        s = np.column_stack([rng.uniform(0.1, 5, 200), rng.uniform(0, 2 * np.pi, 200)])
        J = mixing.PolarToCartesian().jacobian(s)
        dots = np.einsum("mi,mi->m", J[:, :, 0], J[:, :, 1])
        assert np.max(np.abs(dots)) < 1e-12


class TestElementwise:
    def test_cubic_example(self):
        m = mixing.Elementwise([("cubic",), ("cubic",)])
        np.testing.assert_allclose(m.forward(np.array([1.0, -1.0])), [2.0, -2.0])

    @given(st.lists(st.floats(-20, 20), min_size=2, max_size=2))
    @settings(max_examples=50, deadline=None)
    def test_cubic_inverse_round_trip(self, vals):
        m = mixing.Elementwise([("cubic",), ("affine", -2.0, 1.0)])
        s = np.array(vals)
        np.testing.assert_allclose(m.inverse(m.forward(s)), s, atol=1e-9)

    def test_jacobian_diagonal(self):
        m = mixing.Elementwise([("cubic",), ("sinh",)])
        s = np.array([0.5, -1.2])
        J = m.jacobian(s)
        assert J[0, 1] == 0 and J[1, 0] == 0
        np.testing.assert_allclose(J, fd_jacobian(m, s), rtol=1e-6)


class TestPermutation:
    def test_inverse_is_inverse_permutation(self):
        p = mixing.Permutation((2, 0, 1))
        s = np.array([1.0, 2.0, 3.0])
        x = p.forward(s)
        np.testing.assert_array_equal(x, [3.0, 1.0, 2.0])
        np.testing.assert_array_equal(p.inverse(x), s)

    def test_jacobian_is_permutation_matrix(self):
        p = mixing.Permutation((1, 0))
        np.testing.assert_array_equal(p.jacobian(np.zeros(2)),
                                      [[0.0, 1.0], [1.0, 0.0]])


class TestMoebius:
    def test_identity_parameters(self):
        m = mixing.Moebius(np.zeros(2), np.zeros(2), np.eye(2), 1.0, invert=False)
        rng = spawn(0, "probe")
        s = rng.uniform(-1, 1, (50, 2))
        np.testing.assert_allclose(m.forward(s), s)
        np.testing.assert_allclose(m.inverse(s), s)

    def test_round_trip_and_conformality(self):
        m = mixing.random_moebius(3, seed=5)
        rng = spawn(1, "probe")
        s = rng.uniform(0, 1, (500, 3))
        np.testing.assert_allclose(m.inverse(m.forward(s)), s, atol=1e-10)
        J = m.jacobian(s)
        JtJ = np.swapaxes(J, 1, 2) @ J
        lam = np.trace(JtJ, axis1=1, axis2=2) / 3
        off = JtJ - lam[:, None, None] * np.eye(3)
        assert np.max(np.abs(off) / lam[:, None, None]) < 1e-8

    def test_jacobian_matches_finite_differences(self):
        m = mixing.random_moebius(2, seed=9)
        rng = spawn(2, "probe")
        for s in rng.uniform(0, 1, (20, 2)):
            np.testing.assert_allclose(m.jacobian(s), fd_jacobian(m, s),
                                       rtol=1e-5, atol=1e-7)

    def test_center_excluded_from_domain(self):
        m = mixing.Moebius(np.zeros(2), np.zeros(2), np.eye(2), 1.0, invert=True)
        with pytest.raises(DomainError):
            m.forward(np.zeros(2))


class TestInvertibleMlp:
    def test_round_trip(self):
        m = mixing.random_invertible_mlp(3, 3, seed=42)
        rng = spawn(3, "probe")
        s = rng.standard_normal((100, 3))
        assert np.max(np.abs(m.inverse(m.forward(s)) - s)) < 1e-8

    def test_jacobian_against_central_differences(self):
        m = mixing.random_invertible_mlp(3, 3, seed=42)
        rng = spawn(4, "probe")
        probes = rng.standard_normal((100, 3))
        J = m.jacobian(probes)
        worst = 0.0
        for j in range(3):
            e = np.zeros(3)
            e[j] = 1e-5
            fd = (m.forward(probes + e) - m.forward(probes - e)) / 2e-5
            worst = max(worst, float(np.max(np.abs(J[:, :, j] - fd)
                                            / (np.abs(fd) + 1.0))))
        assert worst < 1e-5

    def test_leaky_tanh_inverse_precision(self):
        m = mixing.random_invertible_mlp(2, 4, seed=7)
        rng = spawn(5, "probe")
        x = m.forward(rng.standard_normal((50, 2)) * 3)
        s = m.inverse(x)
        assert np.max(np.abs(m.forward(s) - x)) < 1e-8


class TestComposition:
    def test_chain_rule(self):
        maps = [mixing.Elementwise([("cubic",), ("affine", 0.5, -1.0)]),
                mixing.random_moebius(2, seed=3),
                mixing.Permutation((1, 0))]
        comp = mixing.Composition(maps)
        rng = spawn(6, "probe")
        for s in rng.uniform(0.05, 0.6, (10, 2)):
            J = comp.jacobian(s)
            cur, expected = s, np.eye(2)
            for m in maps:
                expected = m.jacobian(cur) @ expected
                cur = m.forward(cur)
            np.testing.assert_allclose(J, expected, atol=1e-8)

    def test_round_trip(self):
        comp = mixing.Composition([
            mixing.random_invertible_mlp(2, 2, seed=1),
            mixing.Elementwise([("sinh",), ("cubic",)]),
        ])
        rng = spawn(7, "probe")
        s = rng.standard_normal((40, 2))
        np.testing.assert_allclose(comp.inverse(comp.forward(s)), s, atol=1e-8)


class TestInverted:
    def test_jacobian_is_matrix_inverse_at_preimage(self):
        m = mixing.random_invertible_mlp(2, 3, seed=11)
        inv = mixing.Inverted(m)
        rng = spawn(8, "probe")
        s = rng.standard_normal((10, 2))
        x = m.forward(s)
        np.testing.assert_allclose(inv.jacobian(x),
                                   np.linalg.inv(m.jacobian(s)), atol=1e-8)
        np.testing.assert_allclose(inv.forward(x), s, atol=1e-9)


def _mlp_inverse_one_step():
    mlp = mixing.random_invertible_mlp(2, 2, seed=3)
    mlp._act_inverse(np.linspace(-4.0, 4.0, 9), max_iter=1)


def _ppf_one_step():
    m = spurious.EmpiricalMarginal(spawn(4, "emp").standard_normal(500))
    m.ppf(np.linspace(0.05, 0.95, 9), max_iter=1)


def _darmois_inverse_one_step():
    x = spawn(5, "x").standard_normal((1000, 2))
    d = spurious.EmpiricalDarmois(x)
    d._inverse(d.forward(x[:9]), max_iter=1)


@pytest.mark.parametrize("solve", [_mlp_inverse_one_step, _ppf_one_step,
                                   _darmois_inverse_one_step])
def test_monotone_solve_reports_residual_when_out_of_steps(solve):
    with pytest.raises(ConvergenceError, match="did not converge") as err:
        solve()
    assert np.isfinite(err.value.residual) and err.value.residual > 0


class TestSerialization:
    @pytest.mark.parametrize("factory", [
        lambda: mixing.PolarToCartesian(),
        lambda: mixing.Elementwise([("cubic",), ("affine", 2.0, -0.5)]),
        lambda: mixing.Permutation((1, 0)),
        lambda: mixing.random_moebius(2, seed=13),
        lambda: mixing.random_invertible_mlp(2, 2, seed=14),
        lambda: mixing.Composition([mixing.Permutation((1, 0)),
                                    mixing.random_moebius(2, seed=15)]),
    ])
    def test_round_trip(self, factory):
        m = factory()
        clone = mixing.mixing_from_dict(m.to_dict())
        rng = spawn(9, "probe")
        s = rng.uniform(0.1, 0.9, (20, m.n))
        np.testing.assert_array_equal(m.forward(s), clone.forward(s))

    @given(st.sampled_from(["polar", "elementwise", "permutation", "moebius",
                            "invertible-mlp", "mpa", "inverted", "composition",
                            "darmois-gaussian", "darmois-empirical"]),
           st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_from_dict_reproduces_every_variant(self, variant, seed):
        m = _random_variant(variant, seed)
        clone = mixing.mixing_from_dict(m.to_dict())
        s = spawn(seed, "probe").uniform(0.1, 0.9, (12, m.n))
        x = m.forward(s)
        np.testing.assert_array_equal(clone.forward(s), x)
        np.testing.assert_array_equal(clone.inverse(x), m.inverse(x))
        np.testing.assert_array_equal(clone.jacobian(s), m.jacobian(s))


def _random_variant(variant, seed):
    """A two-dimensional map of the given variant with seeded parameters."""
    rng = spawn(seed, "variant")
    if variant == "polar":
        return mixing.PolarToCartesian()
    if variant == "elementwise":
        kinds = [("identity",), ("cubic",), ("sinh",),
                 ("affine", float(rng.uniform(0.5, 2.0)), float(rng.normal()))]
        return mixing.Elementwise([kinds[i] for i in rng.integers(0, 4, 2)])
    if variant == "permutation":
        return mixing.Permutation(rng.permutation(2))
    if variant == "moebius":
        return mixing.random_moebius(2, seed)
    if variant == "invertible-mlp":
        return mixing.random_invertible_mlp(2, int(rng.integers(1, 4)), seed,
                                            bias_scale=0.5)
    if variant == "inverted":
        return mixing.Inverted(mixing.random_moebius(2, seed))
    if variant == "darmois-gaussian":
        A = rng.standard_normal((2, 2))
        return spurious.AnalyticGaussianDarmois(rng.normal(size=2),
                                                A @ A.T + 0.1 * np.eye(2))
    if variant == "darmois-empirical":
        A = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
        rows = int(rng.integers(1000, 3001))
        return spurious.EmpiricalDarmois(rng.standard_normal((rows, 2)) @ A.T)
    mpa = spurious.MpaMap(
        mixing.rotation_2d(rng.uniform(0, 2 * np.pi)),
        [spurious.UniformMarginal(0, 1),
         spurious.EmpiricalMarginal(rng.uniform(0, 1, 200))])
    if variant == "mpa":
        return mpa
    return mixing.Composition([mpa, mixing.random_moebius(2, seed)])
