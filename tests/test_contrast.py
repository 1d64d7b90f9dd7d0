import numpy as np
import pytest
from scipy.integrate import quad

from crl_lab import contrast, mixing
from crl_lab.errors import ConfigError
from crl_lab.mixing import MixingMap
from crl_lab.rng import spawn


def shear_map():
    """Linear map [[1, 1], [0, 1]]: column norms 1 and sqrt(2), det 1."""
    return mixing.InvertibleMlp([np.array([[1.0, 1.0], [0.0, 1.0]])],
                                [np.zeros(2)])


class TestLocalIma:
    def test_orthogonal_columns_give_zero(self):
        polar = mixing.PolarToCartesian()
        rng = spawn(0, "probes")
        s = np.column_stack([rng.uniform(0.2, 4, 100),
                             rng.uniform(0, 2 * np.pi, 100)])
        assert np.max(np.abs(contrast.local_ima(polar, s))) < 1e-10

    def test_shear_half_log_two(self):
        val = contrast.local_ima(shear_map(), np.array([0.4, -1.3]))
        assert val == pytest.approx(0.5 * np.log(2.0), abs=1e-12)

    def test_left_rotation_invariance(self):
        base = shear_map()
        rot = mixing.Moebius(np.zeros(2), np.zeros(2), mixing.rotation_2d(1.1),
                             1.0, invert=False)
        composed = mixing.Composition([base, rot])
        rng = spawn(1, "probes")
        s = rng.standard_normal((50, 2))
        np.testing.assert_allclose(contrast.local_ima(composed, s),
                                   contrast.local_ima(base, s), atol=1e-8)

    def test_right_reparametrization_invariance_seed_transported(self):
        # value-level equality at transported points (permutation + diffeo)
        base = mixing.random_moebius(2, seed=5)
        reparam = mixing.Composition([
            mixing.Permutation((1, 0)),
            mixing.Elementwise([("affine", 0.7, 0.1), ("cubic",)]),
        ])
        tilde = mixing.Composition([reparam, base])
        rng = spawn(2, "probes")
        s = rng.uniform(0.05, 0.95, (100, 2))
        s_pre = reparam.inverse(s)
        np.testing.assert_allclose(contrast.local_ima(tilde, s_pre),
                                   contrast.local_ima(base, s), atol=1e-8)

    def test_nonnegativity_raw(self):
        mlp = mixing.random_invertible_mlp(3, 3, seed=3)
        rng = spawn(3, "probes")
        raw = contrast.local_ima(mlp, rng.standard_normal((500, 3)), clamp=False)
        assert np.all(raw >= -1e-10)


class TestGlobalIma:
    def test_polar_is_zero(self):
        est = contrast.global_ima(
            mixing.PolarToCartesian(),
            contrast.box_sampler([1e-9, 0.0], [3.0, 2 * np.pi]),
            n_mc=100_000, seed=0)
        assert abs(est.value) <= 3 * est.stderr

    def test_polar_raw_estimate_is_rounding_only(self):
        # c01's configuration without the clamp: the raw per-point contrast
        # of the polar map is zero up to rounding, whose bias (about -2e-17
        # against a stderr near 4e-19) a 3*stderr check would reject, so the
        # allowance is an explicit rounding bound
        est = contrast.global_ima(
            mixing.PolarToCartesian(),
            contrast.box_sampler([1e-9, 0.0], [3.0, 2 * np.pi]),
            n_mc=100_000, seed=1, clamp=False)
        assert abs(est.value) <= 1e-15

    def test_conformal_maps_zero_for_any_source(self):
        m = mixing.random_moebius(2, seed=8)
        for k, sampler in enumerate([
            contrast.box_sampler([0.0, 0.0], [1.0, 1.0]),
            contrast.gaussian_sampler(np.array([0.3, 0.4]), 0.1 * np.eye(2)),
        ]):
            est = contrast.global_ima(m, sampler, n_mc=20_000, seed=k)
            assert abs(est.value) <= max(3 * est.stderr, 1e-10)

    def test_linear_orthogonal_mixing_zero(self):
        rot = mixing.Moebius(np.zeros(2), np.zeros(2),
                             mixing.rotation_2d(np.pi / 4), 1.0, invert=False)
        est = contrast.global_ima(rot, contrast.box_sampler([0, 0], [1, 1]),
                                  n_mc=10_000, seed=1)
        assert est.value == 0.0

    def test_estimate_reproducible(self):
        m = mixing.random_invertible_mlp(2, 3, seed=4)
        sampler = contrast.gaussian_sampler(np.zeros(2), np.eye(2))
        a = contrast.global_ima(m, sampler, n_mc=30_000, seed=9)
        b = contrast.global_ima(m, sampler, n_mc=30_000, seed=9)
        assert a == b


class _SquareOnUnit(MixingMap):
    """1D map f(s) = s^2 on (0,1); enough structure for the IGCI example."""

    n = 1

    def _forward(self, s):
        return s * s

    def _jacobian(self, s):
        return (2.0 * s)[:, :, None]


class TestIgci:
    def test_uniform_source_gives_zero(self):
        m = mixing.random_invertible_mlp(2, 2, seed=6)
        est = contrast.igci_contrast(
            m, contrast.box_sampler([0, 0], [1, 1]),
            ([0.0, 0.0], [1.0, 1.0]), n_mc=50_000, seed=2)
        assert abs(est.value) <= 3 * est.stderr

    def test_linear_map_exactly_zero(self):
        est = contrast.igci_contrast(
            shear_map(), contrast.gaussian_sampler(np.zeros(2), np.eye(2)),
            ([-2.0, -2.0], [2.0, 2.0]), n_mc=20_000, seed=3)
        assert est.value == 0.0

    def test_quadratic_map_matches_quadrature_oracle(self):
        # p(s) = 2s on (0,1); draw via inverse CDF u -> sqrt(u)
        def sampler(rng, size):
            return np.sqrt(rng.uniform(0, 1, (size, 1)))

        oracle = (quad(lambda s: 2 * s * np.log(2 * s), 0, 1)[0]
                  - quad(lambda s: np.log(2 * s), 0, 1)[0])
        est = contrast.igci_contrast(_SquareOnUnit(), sampler,
                                     ([0.0], [1.0]), n_mc=200_000, seed=4)
        assert est.value == pytest.approx(oracle, abs=3 * est.stderr)
        assert oracle == pytest.approx(0.5, abs=1e-9)

    def test_unbounded_domain_rejected(self):
        with pytest.raises(ConfigError):
            contrast.igci_contrast(shear_map(),
                                   contrast.box_sampler([0, 0], [1, 1]),
                                   ([0.0, 0.0], [np.inf, 1.0]), n_mc=100, seed=0)


class TestContrastEstimate:
    def test_invariants(self):
        with pytest.raises(ValueError):
            contrast.ContrastEstimate(np.nan, 0.1, 10, 0)
        with pytest.raises(ValueError):
            contrast.ContrastEstimate(0.0, -0.1, 10, 0)

    def test_singular_jacobian_reported_with_count(self):
        bad = mixing.InvertibleMlp([np.ones((2, 2))], [np.zeros(2)])
        with pytest.raises(Exception, match="singular"):
            contrast.global_ima(bad, contrast.box_sampler([0, 0], [1, 1]),
                                n_mc=100, seed=0)


class TestGlobalReparametrizationBlindness:
    def test_value_equal_under_seed_transported_sources(self):
        # the global contrast of the reparametrized pair, driven by the same
        # base draws pushed through the reparametrization, equals the baseline
        base = mixing.random_moebius(2, seed=12)
        reparam = mixing.Composition([
            mixing.Permutation((1, 0)),
            mixing.Elementwise([("affine", 1.4, -0.2), ("cubic",)]),
        ])
        tilde = mixing.Composition([reparam, base])
        source = contrast.box_sampler([0.0, 0.0], [1.0, 1.0])

        def transported(rng, size):
            return reparam.inverse(source(rng, size))

        a = contrast.global_ima(base, source, n_mc=20_000, seed=7)
        b = contrast.global_ima(tilde, transported, n_mc=20_000, seed=7)
        assert b.value == pytest.approx(a.value, abs=3 * np.hypot(a.stderr, b.stderr) + 1e-8)
