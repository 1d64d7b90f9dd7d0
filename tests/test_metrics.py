import itertools
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


def _weight(C, cols):
    return C[np.arange(C.shape[0]), cols].sum()


def _squares(max_n):
    """Square matrices of n = 1..max_n; integer entries make tied optima common."""
    return st.integers(1, max_n).flatmap(lambda n: st.one_of(
        st.lists(st.floats(0.0, 1.0), min_size=n * n, max_size=n * n),
        st.lists(st.integers(0, 2).map(float), min_size=n * n, max_size=n * n),
    ).map(lambda v: np.array(v).reshape(n, n)))


class TestAssignment:
    @given(_squares(9))
    @settings(max_examples=200, deadline=None)
    def test_matches_scipy(self, C):
        from scipy.optimize import linear_sum_assignment
        n = C.shape[0]
        cols = metrics._max_weight_assignment(C)
        assert sorted(cols) == list(range(n))
        rows, ref = linear_sum_assignment(C, maximize=True)
        best = C[rows, ref].sum()
        assert abs(_weight(C, cols) - best) <= 1e-12
        # the optimum is unique iff banning any one of its matches costs weight
        unique = True
        for i in range(n):
            banned = C.copy()
            banned[i, ref[i]] = -C.sum() - 1.0
            r, c = linear_sum_assignment(banned, maximize=True)
            unique &= bool(banned[r, c].sum() < best - 1e-9)
        if unique:
            assert np.array_equal(cols, ref)

    @given(_squares(6))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force(self, C):
        best = max(_weight(C, list(p))
                   for p in itertools.permutations(range(C.shape[0])))
        assert abs(_weight(C, metrics._max_weight_assignment(C)) - best) <= 1e-12

    def test_constant_matrix_gives_a_permutation(self):
        cols = metrics._max_weight_assignment(np.full((5, 5), 0.3))
        assert sorted(cols) == list(range(5))

    def test_nan_entry_rejected(self):
        C = np.eye(3)
        C[1, 2] = np.nan
        with pytest.raises(ValueError, match="invalid numeric"):
            metrics._max_weight_assignment(C)


def _reference_krr_r2(features, targets, cfg, val_preds):
    """krr_r2 in the form it had before the inner search factored the inner
    kernel in place: a copy of the kernel per ridge value, full validation
    and test kernels, and the bandwidth from the (k, k, d) difference
    tensor.  Kept to check that the one-kernel form is bitwise equal.
    Appends each ridge value's validation prediction to ``val_preds``."""
    from scipy.linalg import cho_factor, cho_solve

    def fit_predict(K_tr, K_te, y_tr, lam):
        K_tr.flat[::K_tr.shape[0] + 1] += lam
        factor = cho_factor(K_tr.T, lower=True, overwrite_a=True, check_finite=False)
        return K_te @ cho_solve(factor, y_tr, check_finite=False)

    x = np.asarray(features, dtype=float)
    blocks = targets if isinstance(targets, dict) else {"target": targets}
    blocks = {k: np.atleast_2d(np.asarray(v, dtype=float).T).T for k, v in blocks.items()}
    rng = spawn(cfg.seed, "krr")
    m = x.shape[0]
    perm = rng.permutation(m)
    n_train = int(round(cfg.split_fraction * m))
    tr, te = perm[:n_train], perm[n_train:]
    n_inner = int(round(cfg.split_fraction * n_train))
    itr, iva = tr[:n_inner], tr[n_inner:]
    k = min(n_train, max(2, cfg.bandwidth_pairs))
    sub = x[tr][rng.choice(n_train, size=k, replace=False)]
    d2 = np.sum((sub[:, None, :] - sub[None, :, :]) ** 2, axis=-1)
    gamma = float(max(np.sqrt(np.median(d2[np.triu_indices(k, k=1)])), 1e-12))
    y_all = np.concatenate([blocks[k] for k in blocks], axis=1)
    mu = y_all[tr].mean(axis=0)
    K_ii = metrics._rbf(x[itr], x[itr], gamma)
    K_vi = metrics._rbf(x[iva], x[itr], gamma)
    best_lam, best_err = None, np.inf
    for lam in cfg.ridge_grid:
        pred = fit_predict(K_ii.copy(), K_vi, y_all[itr] - mu, lam)
        val_preds.append(pred)
        err = float(np.mean((y_all[iva] - mu - pred) ** 2))
        if err < best_err:
            best_lam, best_err = lam, err
    K_tt = metrics._rbf(x[tr], x[tr], gamma)
    K_et = metrics._rbf(x[te], x[tr], gamma)
    pred = fit_predict(K_tt, K_et, y_all[tr] - mu, best_lam) + mu
    out, col = {}, 0
    for k, v in blocks.items():
        out[k] = float(np.mean(metrics._r2(v[te], pred[:, col:col + v.shape[1]])))
        col += v.shape[1]
    return out if isinstance(targets, dict) else out["target"]


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

    # (rows, features, target columns per block, KrrConfig arguments); no
    # row count of a kernel part is a multiple of 256 except in the first
    _PROBLEMS = [
        (2560, 3, (3, 3), {}),
        (200, 2, (1,), {}),
        (777, 3, (3, 3), {"seed": 4}),
        (1000, 1, (2,), {"split_fraction": 0.7}),
        (1313, 4, (1, 2), {"seed": 9, "ridge_grid": (1e-4, 1e-2, 1.0)}),
        (901, 6, (1,), {"bandwidth_pairs": 300}),
        (2111, 3, (3, 3), {"seed": 2, "split_fraction": 0.75}),
    ]

    @pytest.mark.parametrize("rows,d,widths,kwargs", _PROBLEMS)
    def test_equals_the_copy_per_ridge_reference(self, rows, d, widths, kwargs,
                                                 monkeypatch):
        rng = spawn(rows, "x")
        x = rng.standard_normal((rows, d))
        blocks = {f"b{j}": np.tanh(x[:, :w] * (j + 1)) + 0.1 * rng.standard_normal((rows, w))
                  for j, w in enumerate(widths)}
        targets = blocks if len(widths) > 1 else blocks["b0"]
        cfg = metrics.KrrConfig(**kwargs)
        got, expected = [], []
        fit_predict = metrics._fit_predict

        def recording(*args):
            got.append(fit_predict(*args))
            return got[-1]

        monkeypatch.setattr(metrics, "_fit_predict", recording)
        assert metrics.krr_r2(x, targets, cfg) == _reference_krr_r2(x, targets, cfg, expected)
        # a last-bit change in a validation prediction rarely moves the
        # chosen ridge value, so the R^2 alone would not show it
        assert len(got) == len(expected)
        assert all(np.array_equal(g, e) for g, e in zip(got, expected))

    @pytest.mark.parametrize("fraction", [0.999, 0.001])
    def test_empty_split_part_rejected(self, fraction):
        x = spawn(16, "x").standard_normal((200, 2))
        with pytest.raises(SampleSizeError, match="inner train .* test"):
            metrics.krr_r2(x, x[:, :1], metrics.KrrConfig(split_fraction=fraction))

    def test_peak_memory_near_one_training_kernel(self):
        # the training kernel (m_train^2 entries) and one row block of
        # temporaries while it is built; measured 1.139 x 8 m_train^2 bytes
        # at 2,500 rows (1.445 with a kernel copy per ridge value)
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
        assert peak <= 1.2 * 8 * m_train ** 2

    def test_peak_memory_within_two_training_kernels(self):
        # the training kernel (m_train^2 entries) plus row-block temporaries:
        # about 1.14 x 8 m_train^2 bytes
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

    @pytest.mark.parametrize("d", range(1, 7))
    def test_mirror_of_the_transpose_copies_the_upper_triangle_down(self, d):
        # krr_r2 gives the inner kernel's lower triangle the upper one's
        # values, since the factor reads the upper one and an RBF kernel of a
        # point set with itself need not be exactly symmetric (BLAS edge tiles)
        a = spawn(20 + d, "x").standard_normal((1583, d))
        K = metrics._rbf(a, a, 0.9)
        upper, diag = np.triu(K), K.diagonal().copy()
        metrics._mirror(K.T, diag)
        assert np.array_equal(K, K.T)
        assert np.array_equal(np.triu(K), upper)

    @pytest.mark.parametrize("m", [40, 601])
    def test_mirror_rebuilds_kernel_plus_ridge_after_factoring(self, m):
        x = spawn(27, "x").standard_normal((m, 3))
        K = metrics._rbf(x, x, 1.0)
        K.flat[::m + 1] += 1e-3
        diag = K.diagonal().copy()
        metrics._mirror(K.T, diag)
        expected = K.copy()
        metrics._factor(K)
        assert not np.array_equal(K, expected)
        metrics._mirror(K, diag)
        assert np.array_equal(K, expected)

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


class TestMedianDistance:
    @pytest.mark.parametrize("k,d", [(2, 1), (3, 2), (101, 3), (1000, 3), (250, 6)])
    def test_equals_the_broadcast_form(self, k, d):
        x = spawn(30 + k, "x").standard_normal((k, d))
        d2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1)
        expected = float(np.sqrt(np.median(d2[np.triu_indices(k, k=1)])))
        assert metrics.median_distance(x) == expected

    def test_strided_view(self):
        x = spawn(31, "x").standard_normal((900, 3))
        assert metrics.median_distance(x[::3, :2]) == metrics.median_distance(
            np.ascontiguousarray(x[::3, :2]))


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
