import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crl_lab import metrics, mixing
from crl_lab.errors import DegenerateColumnError, SampleSizeError
from crl_lab.rng import spawn


class TestMcc:
    def test_identity(self):
        z = spawn(0, "z").standard_normal((500, 3))
        score, perm = metrics.mcc(z, z)
        assert score == pytest.approx(1.0)
        assert perm == (0, 1, 2)

    def test_permuted_and_scaled(self):
        z = spawn(1, "z").standard_normal((500, 3))
        z_hat = np.column_stack([-2.0 * z[:, 2], 0.5 * z[:, 0], 3.0 * z[:, 1]])
        score, perm = metrics.mcc(z_hat, z)
        assert score == pytest.approx(1.0)
        assert perm == (2, 0, 1)

    def test_independent_columns_score_low(self):
        # MC oracle: max over assignments of |corr| of independent columns
        # concentrates near sqrt(2/N); 0.05 is ~4 sigma at N = 10^4
        rng = spawn(2, "z")
        score, _ = metrics.mcc(rng.standard_normal((10_000, 2)),
                               rng.standard_normal((10_000, 2)))
        assert score < 0.05

    def test_rank_mode_monotone_invariance_exact(self):
        z = spawn(3, "z").standard_normal((300, 2))
        z_hat = np.column_stack([np.exp(z[:, 1]), z[:, 0] ** 3])
        score, perm = metrics.mcc(z_hat, z, mode="rank")
        assert score == pytest.approx(1.0)
        assert perm == (1, 0)

    @given(st.floats(0.1, 5.0), st.floats(-3.0, 3.0))
    @settings(max_examples=20, deadline=None)
    def test_pearson_affine_invariance(self, a, b):
        z = spawn(4, "z").standard_normal((200, 2))
        score, _ = metrics.mcc(a * z + b, z)
        assert score == pytest.approx(1.0)

    def test_degenerate_column(self):
        z = spawn(5, "z").standard_normal((100, 2))
        z_hat = z.copy()
        z_hat[:, 1] = 7.0
        with pytest.raises(DegenerateColumnError):
            metrics.mcc(z_hat, z)


class TestKrr:
    def test_recovers_near_identity(self):
        rng = spawn(6, "x")
        x = rng.standard_normal((800, 3))
        y = x + 1e-6 * rng.standard_normal((800, 3))
        assert metrics.krr_r2(x, y) >= 0.99

    def test_independent_targets_near_zero(self):
        rng = spawn(7, "x")
        x = rng.standard_normal((800, 3))
        y = rng.standard_normal((800, 2))
        assert metrics.krr_r2(x, y) <= 0.05

    def test_nonlinear_target(self):
        rng = spawn(8, "x")
        x = rng.uniform(-2, 2, (1500, 2))
        y = np.sin(x[:, :1]) * x[:, 1:] + 0.01 * rng.standard_normal((1500, 1))
        assert metrics.krr_r2(x, y) > 0.95

    def test_deterministic_given_seed(self):
        rng = spawn(9, "x")
        x = rng.standard_normal((400, 2))
        y = np.tanh(x) + 0.1 * rng.standard_normal((400, 2))
        cfg = metrics.KrrConfig(seed=5)
        assert metrics.krr_r2(x, y, cfg) == metrics.krr_r2(x, y, cfg)

    def test_blocks(self):
        rng = spawn(10, "x")
        x = rng.standard_normal((600, 2))
        out = metrics.krr_r2(x, {"self": x, "noise": rng.standard_normal((600, 1))})
        assert out["self"] > 0.99 and out["noise"] < 0.05

    def test_sample_size_guard(self):
        with pytest.raises(SampleSizeError):
            metrics.krr_r2(np.zeros((100, 2)), np.zeros((100, 1)))

    def test_non_finite_input_rejected(self):
        x = spawn(15, "x").standard_normal((300, 2))
        y = x[:, :1].copy()
        x[5, 0] = np.nan
        with pytest.raises(ValueError, match="features"):
            metrics.krr_r2(x, y)
        with pytest.raises(ValueError, match="block 'target'"):
            metrics.krr_r2(y, x)

    @pytest.mark.parametrize("kwargs", [
        {"ridge_grid": ()},
        {"ridge_grid": (1e-3, 0.0)},
        {"ridge_grid": (-1.0,)},
        {"ridge_grid": (np.inf,)},
        {"ridge_grid": (np.nan,)},
        {"split_fraction": 0.0},
        {"split_fraction": 1.0},
        {"split_fraction": 1.5},
        {"bandwidth_pairs": 1},
    ])
    def test_invalid_config(self, kwargs):
        with pytest.raises(ValueError):
            metrics.KrrConfig(**kwargs)

    def test_peak_memory_within_two_training_kernels(self):
        # the inner search holds the inner kernel and the copy a fit consumes
        # (0.64 m_train^2 entries each) and the validation kernel (0.16):
        # 1.44 x 8 m_train^2 bytes plus small temporaries
        rng = spawn(11, "x")
        x = rng.standard_normal((2500, 3))
        y = np.tanh(x[:, :2])
        m_train = int(round(metrics.KrrConfig().split_fraction * 2500))
        tracemalloc.start()
        try:
            metrics.krr_r2(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * 8 * m_train ** 2


class TestKrrSolve:
    @staticmethod
    def _broadcast_rbf(a, b, gamma):
        d2 = (np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
              - 2.0 * a @ b.T)
        return np.exp(-np.maximum(d2, 0.0) / (2.0 * gamma * gamma))

    @pytest.mark.parametrize("na,nb", [(600, 600), (300, 700), (5, 3)])
    def test_rbf_equals_broadcast_formula(self, na, nb):
        rng = spawn(12, "x")
        a = rng.standard_normal((na, 3))
        b = a.copy() if na == nb else rng.standard_normal((nb, 3))
        assert np.array_equal(metrics._rbf(a, b, 0.7),
                              self._broadcast_rbf(a, b, 0.7))

    @pytest.mark.parametrize("lam", metrics.KrrConfig().ridge_grid)
    def test_fit_predict_matches_solve(self, lam):
        rng = spawn(13, "x")
        x = rng.standard_normal((500, 3))
        x_te = rng.standard_normal((100, 3))
        y = np.column_stack([np.sin(x[:, 0]), x[:, 1] * x[:, 2]])
        K = self._broadcast_rbf(x, x, 1.0)
        K_te = self._broadcast_rbf(x_te, x, 1.0)
        expected = K_te @ np.linalg.solve(K + lam * np.eye(500), y)
        got = metrics._fit_predict(K.copy(), K_te, y, lam)
        np.testing.assert_allclose(got, expected, rtol=1e-8)

    def test_ridge_floor_fallback(self):
        # all-ones kernel: the second pivot is exactly zero, so both
        # Cholesky and LU fail on it without the floor
        m = 40
        rng = spawn(14, "x")
        K_te = rng.standard_normal((10, m))
        y = rng.standard_normal((m, 2))
        with pytest.warns(RuntimeWarning, match="ridge floor"):
            got = metrics._fit_predict(np.ones((m, m)), K_te, y, 0.0)
        floored = np.ones((m, m)) + 1e-6 * m * np.eye(m)
        np.testing.assert_allclose(got, K_te @ np.linalg.solve(floored, y),
                                   rtol=1e-8)


class TestAmariIndex:
    def test_scaled_permutation_is_zero(self):
        P = np.array([[0.0, -3.0], [0.5, 0.0]])
        assert metrics.amari_index(P) == pytest.approx(0.0)

    def test_quarter_rotation_is_one(self):
        R = mixing.rotation_2d(np.pi / 4)
        assert metrics.amari_index(R) == pytest.approx(1.0)

    def test_two_equal_magnitude_entries_positive(self):
        P = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert metrics.amari_index(P) > 0


class TestNonlinearAmari:
    def setup_method(self):
        self.f = mixing.random_moebius(2, seed=21)
        self.samples = spawn(11, "s").uniform(0.1, 0.9, (200, 2))

    def test_true_inverse_is_zero(self):
        val = metrics.nonlinear_amari(self.f, mixing.Inverted(self.f), self.samples)
        assert abs(val) < 1e-8

    def test_reparametrized_inverse_is_zero(self):
        reparam = mixing.Composition([
            mixing.Elementwise([("cubic",), ("affine", -0.5, 2.0)]),
            mixing.Permutation((1, 0)),
        ])
        unmix = mixing.Composition([mixing.Inverted(self.f), reparam])
        val = metrics.nonlinear_amari(self.f, unmix, self.samples)
        assert abs(val) < 1e-8

    def test_rotated_inverse_is_positive(self):
        # hand evaluation: the composed Jacobian is a pi/4 rotation, index 1
        rot = mixing.Moebius(np.zeros(2), np.zeros(2),
                             mixing.rotation_2d(np.pi / 4), 1.0, invert=False)
        unmix = mixing.Composition([mixing.Inverted(self.f), rot])
        val = metrics.nonlinear_amari(self.f, unmix, self.samples)
        assert val > 0.1


class TestMetricReport:
    def test_validation(self):
        with pytest.raises(ValueError):
            metrics.MetricReport(seed=0, config_hash="x", mcc=1.5)
        with pytest.raises(ValueError):
            metrics.MetricReport(seed=0, config_hash="x", amari=-1.0)

    def test_serialization(self):
        rep = metrics.MetricReport(seed=3, config_hash="abc", mcc=0.9,
                                   mcc_permutation=(1, 0),
                                   r2_per_block={"content": 0.99})
        d = rep.to_dict()
        assert d["mcc"] == 0.9 and d["r2_per_block"]["content"] == 0.99

    def test_config_hash_stable(self):
        a = metrics.config_hash({"b": 1, "a": [1, 2]})
        b = metrics.config_hash({"a": [1, 2], "b": 1})
        assert a == b and len(a) == 16
