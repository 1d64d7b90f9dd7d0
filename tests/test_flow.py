import numpy as np
import pytest

from crl_lab import contrast, flow, mixing
from crl_lab.errors import ConfigError
from crl_lab.rng import spawn


def small_flow(seed=1, jitter=0.3):
    fl = flow.default_bss_flow(2, n_couplings=3, hidden=(8,))
    fl.init_params(seed)
    rng = spawn(seed, "jitter")
    fl.theta = fl.theta + jitter * rng.standard_normal(fl.n_params)
    return fl


class TestInvertibility:
    def test_round_trip(self):
        fl = small_flow()
        x = spawn(2, "x").standard_normal((300, 2)) * 2
        assert fl.round_trip_error(x) < 1e-8

    def test_round_trip_after_every_optimizer_step(self):
        fl = flow.default_bss_flow(2, n_couplings=2, hidden=(8,))
        fl.init_params(3)
        rng = spawn(3, "x")
        data = rng.standard_normal((600, 2))
        probe = rng.standard_normal((64, 2))
        flow.init_whitening(fl, data)
        theta = fl.theta.copy()
        opt = flow.Adam(theta.size, lr=5e-3)
        base = flow.IidNormalBase()
        for step in range(30):
            xb = data[(step * 64) % 512:(step * 64) % 512 + 64]
            _, grad = flow._nll_and_grad(fl, theta, xb, base)
            theta = opt.step(theta, grad)
            z, _, _, _ = fl.encode(probe, theta)
            err = np.max(np.abs(fl.decode(z, theta) - probe))
            assert err < 1e-6

    def test_logdet_additivity(self):
        fl = small_flow()
        x = spawn(4, "x").standard_normal((50, 2))
        _, ld, _, _ = fl.encode(x)
        sign, ld_j = np.linalg.slogdet(fl.encode_jacobian_q(x, fl.theta))
        assert np.all(sign > 0) or np.all(sign < 0)
        np.testing.assert_allclose(ld, ld_j, atol=1e-10)


class TestGradients:
    def test_likelihood_gradient_matches_central_differences(self):
        # ~50-parameter flow, relative error < 1e-4
        fl = flow.FlowModel([flow.CouplingLayer(2, [True, False], (8,)),
                             flow.PermLayer((1, 0)),
                             flow.CouplingLayer(2, [True, False], (4,)),
                             flow.AffineLayer(2)])
        fl.init_params(5)
        rng = spawn(5, "x")
        fl.theta = fl.theta + 0.2 * rng.standard_normal(fl.n_params)
        x = rng.standard_normal((32, 2))
        base = flow.IidNormalBase()
        _, grad = flow._nll_and_grad(fl, fl.theta, x, base)
        fd = np.zeros_like(grad)
        for i in range(fl.n_params):
            e = np.zeros(fl.n_params)
            e[i] = 1e-5
            lp, _ = flow._nll_and_grad(fl, fl.theta + e, x, base)
            lm, _ = flow._nll_and_grad(fl, fl.theta - e, x, base)
            fd[i] = (lp - lm) / 2e-5
        rel = np.max(np.abs(grad - fd) / (np.abs(fd) + 1e-4))
        assert rel < 1e-4

    def test_alignment_gradient_matches_central_differences(self):
        fl = small_flow(seed=6, jitter=0.1)
        rng = spawn(6, "pairs")
        xa = rng.standard_normal((16, 2))
        xb = xa + 0.1 * rng.standard_normal((16, 2))
        _, grad = flow._align_loss_and_grad(fl, fl.theta, xa, xb, 1)
        fd = np.zeros_like(grad)
        for i in range(fl.n_params):
            e = np.zeros(fl.n_params)
            e[i] = 1e-5
            lp, _ = flow._align_loss_and_grad(fl, fl.theta + e, xa, xb, 1)
            lm, _ = flow._align_loss_and_grad(fl, fl.theta - e, xa, xb, 1)
            fd[i] = (lp - lm) / 2e-5
        assert np.max(np.abs(grad - fd) / (np.abs(fd) + 1e-4)) < 1e-4

    def test_infonce_gradient_matches_central_differences(self):
        enc = flow.EncoderMlp((3, 8, 2))
        enc.init_params(7)
        rng = spawn(7, "pairs")
        xa = rng.standard_normal((12, 3))
        xb = xa + 0.2 * rng.standard_normal((12, 3))
        _, grad = flow._info_nce_grad(enc, enc.theta, xa, xb, tau=0.3)
        fd = np.zeros_like(grad)
        for i in range(enc.n_params):
            e = np.zeros(enc.n_params)
            e[i] = 1e-5

            def loss_at(th):
                l, _, _ = flow.info_nce_loss(enc.forward(xa, th)[0],
                                             enc.forward(xb, th)[0], 0.3)
                return l

            fd[i] = (loss_at(enc.theta + e) - loss_at(enc.theta - e)) / 2e-5
        assert np.max(np.abs(grad - fd) / (np.abs(fd) + 1e-4)) < 1e-3

    def test_encoder_jacobian_matches_central_differences(self):
        fl = small_flow(seed=8)
        rng = spawn(8, "x")
        x = rng.standard_normal((20, 2))
        J = fl.encode_jacobian_q(x, fl.theta)
        for j in range(2):
            e = np.zeros(2)
            e[j] = 1e-6
            zp, _, _, _ = fl.encode(x + e)
            zm, _, _, _ = fl.encode(x - e)
            np.testing.assert_allclose(J[:, :, j], (zp - zm) / 2e-6,
                                       atol=1e-7)


def _ima_flow(case):
    """(flow with jittered parameters, probe rows) for each layer mix."""
    rng = spawn(30, "ima-probe")
    if case == "n2":
        fl = flow.default_bss_flow(2, n_couplings=3, hidden=(8,))
        x = rng.standard_normal((16, 2))
    else:
        # a non-contiguous keep mask, and conditioners with no and with two
        # hidden layers
        fl = flow.FlowModel([flow.CouplingLayer(3, [True, False, False], ()),
                             flow.PermLayer((2, 0, 1)),
                             flow.CouplingLayer(3, [True, False, True], (6, 5)),
                             flow.AffineLayer(3)])
        x = rng.standard_normal((16, 3))
    fl.init_params(31)
    fl.theta = fl.theta + 0.3 * spawn(31, "jitter").standard_normal(fl.n_params)
    return fl, x


def _central_difference(fn, theta, h=1e-6):
    out = np.empty_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        out[i] = (fn(theta + e) - fn(theta - e)) / (2 * h)
    return out


class TestImaPenaltyGradient:
    @pytest.mark.parametrize("case", ["n2", "n3"])
    def test_jacobian_carrying_encode_keeps_values_and_logdets(self, case):
        fl, x = _ima_flow(case)
        z, ld, J, _ = fl.encode(x, fl.theta)
        z_j, ld_j, J_j, _ = fl.encode(x, fl.theta, want_jac=True)
        assert J is None and J_j.shape == (x.shape[0], fl.n, fl.n)
        assert np.array_equal(z, z_j)
        assert np.array_equal(ld, ld_j)

    @pytest.mark.parametrize("case", ["n2", "n3"])
    def test_exact_gradient_matches_finite_differences(self, case):
        fl, x = _ima_flow(case)
        theta = fl.theta
        raw = contrast.local_ima_from_jacobian(
            np.linalg.inv(fl.encode_jacobian_q(x, theta)), clamp=False)
        assert np.all(raw > 1e-12)  # away from the clamp
        value, grad = flow.cima_value_and_grad(fl, theta, x)
        assert value == flow.cima_of_decoder(fl, theta, x)

        def rel(ref):
            return np.max(np.abs(grad - ref)) / np.max(np.abs(ref))

        assert rel(flow.cima_fd_grad(fl, theta, x, h_rel=1e-6)) <= 1e-5
        plain = _central_difference(
            lambda th: flow.cima_of_decoder(fl, th, x), theta)
        assert rel(plain) <= 1e-5

    def test_clamped_contrast_has_zero_gradient(self):
        # fresh couplings are the identity, so every Jacobian is diagonal and
        # the contrast sits at its clamped zero
        fl = flow.default_bss_flow(2, n_couplings=2, hidden=(8,))
        fl.init_params(32)
        x = spawn(32, "x").standard_normal((8, 2))
        value, grad = flow.cima_value_and_grad(fl, fl.theta, x)
        assert value == 0.0
        assert not np.any(grad)


class TestLogDensity:
    def test_identity_flow_standard_normal(self):
        fl = flow.FlowModel([flow.AffineLayer(2)])
        val = flow.flow_log_density(fl, flow.IidNormalBase(), np.zeros(2))
        assert val == pytest.approx(-np.log(2 * np.pi))

    def test_affine_doubling(self):
        fl = flow.FlowModel([flow.AffineLayer(1)])
        fl.theta = np.array([np.log(2.0), 0.0])
        val = flow.flow_log_density(fl, flow.IidNormalBase(), np.zeros(1))
        assert val == pytest.approx(-0.5 * np.log(2 * np.pi) - np.log(2.0))

    def test_1d_normalization_quadrature(self):
        fl = flow.FlowModel([flow.AffineLayer(1)])
        fl.theta = np.array([0.25, -0.4])
        g = np.linspace(-8, 8, 2001)
        dens = np.exp(flow.flow_log_density(fl, flow.IidNormalBase(), g[:, None]))
        assert 0.99 <= np.trapezoid(dens, g) <= 1.01


class TestTraining:
    def test_deterministic_trajectory(self):
        rng = spawn(9, "data")
        data = rng.standard_normal((1000, 2)) @ np.array([[1.0, 0.4], [0.0, 0.9]])
        runs = []
        for _ in range(2):
            fl = flow.default_bss_flow(2, n_couplings=2, hidden=(8,))
            fl.init_params(11)
            flow.init_whitening(fl, data)
            cfg = flow.TrainConfig(epochs=4, batch_size=128, seed=13)
            res = flow.train_mle(fl, data, cfg)
            runs.append(res.model.theta.copy())
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_mle_reaches_gaussian_entropy(self):
        # orthogonal mixing of independent scaled Gaussians: the NLL floor is
        # the differential entropy, n/2 log(2 pi e) + sum log sigma_i
        rng = spawn(10, "data")
        sig = np.array([1.0, 0.5])
        s = rng.standard_normal((6000, 2)) * sig
        Q = mixing.random_orthogonal(2, spawn(10, "rot"))
        data = s @ Q.T
        entropy = 0.5 * 2 * np.log(2 * np.pi * np.e) + np.sum(np.log(sig))
        fl = flow.default_bss_flow(2, n_couplings=4, hidden=(8,))
        fl.init_params(12)
        flow.init_whitening(fl, data)
        cfg = flow.TrainConfig(lr=3e-3, epochs=40, batch_size=256, patience=10,
                               seed=14)
        res = flow.train_mle(fl, data, cfg)
        assert res.best_val <= entropy / 1.0 + 0.1 * 2  # within 0.1 nats/dim
        assert res.best_val >= entropy - 0.1 * 2

    def test_train_returns_best_checkpoint(self):
        rng = spawn(11, "data")
        data = rng.standard_normal((600, 2))
        fl = flow.default_bss_flow(2, n_couplings=2, hidden=(8,))
        fl.init_params(15)
        flow.init_whitening(fl, data)
        cfg = flow.TrainConfig(epochs=6, batch_size=128, seed=16)
        res = flow.train_mle(fl, data, cfg)
        vals = [h["val"] for h in res.history]
        assert res.best_val == pytest.approx(min(vals))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            flow.TrainConfig(ima_weight=-1.0)
        with pytest.raises(ValueError):
            flow.TrainConfig(temperature=0.0)
        with pytest.raises(ValueError):
            flow.TrainConfig(batch_size=1)
        with pytest.raises(ValueError):
            flow.TrainConfig(epochs=0)
        for bad in ({"lr": -1e-3}, {"lr": float("nan")}, {"lr": float("inf")},
                    {"val_fraction": 0.0}, {"val_fraction": 1.0},
                    {"val_fraction": 1.5}, {"n_negatives": 1},
                    {"ima_probe": 0}, {"patience": -1}):
            with pytest.raises(ValueError):
                flow.TrainConfig(**bad)
        flow.TrainConfig(lr=0.0, patience=0)  # a frozen model stays legal

    def test_fit_stops_after_patience(self):
        # a constant validation value never improves on the initial one, so
        # the loop stops once patience + 1 epochs have gone by without gain
        cfg = flow.TrainConfig(epochs=50, patience=3)
        res = flow.fit(np.zeros(2), np.arange(10), 4,
                       lambda th, rows: (float(th @ th), 2.0 * th),
                       lambda th: 1.0, cfg)
        assert len(res.history) == 5
        assert res.best_epoch == -1
        assert not res.diverged

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_divergence_aborts_with_last_finite_checkpoint(self):
        rng = spawn(22, "data")
        data = rng.standard_normal((600, 2))
        fl = flow.default_bss_flow(2, n_couplings=2, hidden=(8,))
        fl.init_params(23)
        flow.init_whitening(fl, data)
        cfg = flow.TrainConfig(lr=1e9, epochs=10, batch_size=128, seed=24)
        res = flow.train_mle(fl, data, cfg)
        assert res.diverged
        assert np.all(np.isfinite(res.model.theta))


class TestAlignment:
    def test_constant_encoder_worse_than_random_projection(self):
        # degenerate denominator: all similarities equal, loss is log K
        rng = spawn(12, "pairs")
        xa = rng.standard_normal((64, 4))
        xb = xa + 0.05 * rng.standard_normal((64, 4))
        za = np.full((64, 2), 0.5)
        loss_const, _, _ = flow.info_nce_loss(za, za, tau=0.1)
        assert loss_const == pytest.approx(np.log(64))
        W = spawn(12, "w").standard_normal((4, 2))
        sig = lambda v: 1 / (1 + np.exp(-v))
        loss_rand, _, _ = flow.info_nce_loss(sig(xa @ W), sig(xb @ W), tau=0.1)
        assert loss_rand < loss_const

    def test_content_extractor_achieves_zero_alignment(self):
        # noiseless content-shared pairs: any function of content alone has
        # exactly zero alignment
        from crl_lab import multiview, spurious
        proc = multiview.default_process(n_c=2, n_s=2, seed=3)
        pairs = multiview.sample_pairs(proc, 3000, seed=4)
        c = pairs.z[:, :2]
        d = spurious.EmpiricalDarmois(c[:2000])
        f_inv = mixing.Inverted(proc.mixing)
        g_a = d.forward(f_inv.forward(pairs.x)[:, :2])
        g_b = d.forward(f_inv.forward(pairs.x_tilde)[:, :2])
        alignment = np.mean(np.sum((g_a - g_b) ** 2, axis=1))
        assert alignment < 1e-12  # zero up to the mixing-inversion tolerance

    def test_align_invertible_objective_nonnegative_and_trainable(self):
        from crl_lab import multiview
        proc = multiview.default_process(n_c=1, n_s=1, seed=5)
        pairs = multiview.sample_pairs(proc, 2000, seed=6)
        fl = flow.default_bss_flow(2, n_couplings=2, hidden=(8,))
        fl.init_params(17)
        flow.init_whitening(fl, pairs.x)
        loss0, _ = flow._align_loss_and_grad(fl, fl.theta, pairs.x,
                                             pairs.x_tilde, 1)
        assert loss0 >= 0
        cfg = flow.TrainConfig(lr=3e-3, epochs=15, batch_size=256, patience=10,
                               seed=18)
        res = flow.train_align_invertible(fl, (pairs.x, pairs.x_tilde), cfg, 1)
        assert res.best_val >= 0
        assert res.best_val < loss0

    def test_collapse_warning(self):
        enc = flow.EncoderMlp((2, 4, 1))  # zero-initialized weights
        rng = spawn(13, "pairs")
        xa = rng.standard_normal((300, 2))
        cfg = flow.TrainConfig(lr=0.0, epochs=6, n_negatives=64, seed=19,
                               patience=10)
        with pytest.warns(flow.CollapseWarning):
            res = flow.train_align_maxent(enc, (xa, xa), cfg)
        assert res.collapsed


class _RefCondMlp:
    """Reference: the coupling conditioner as a class of its own (tanh hidden
    layers, linear head), before ``flow.Mlp`` took its place."""

    def __init__(self, widths):
        self.widths = tuple(int(w) for w in widths)
        self.n_params = sum(o * i + o for i, o in
                            zip(self.widths[:-1], self.widths[1:]))

    def unpack(self, theta):
        out, off = [], 0
        for i, o in zip(self.widths[:-1], self.widths[1:]):
            W = theta[off:off + o * i].reshape(o, i)
            off += o * i
            b = theta[off:off + o]
            off += o
            out.append((W, b))
        return out

    def init_params(self, rng):
        theta = np.empty(self.n_params)
        off = 0
        n_layers = len(self.widths) - 1
        for l, (i, o) in enumerate(zip(self.widths[:-1], self.widths[1:])):
            if l == n_layers - 1:
                W = np.zeros((o, i))
            else:
                W = rng.standard_normal((o, i)) / np.sqrt(i)
            theta[off:off + o * i] = W.ravel()
            off += o * i
            theta[off:off + o] = 0.0
            off += o
        return theta

    def forward(self, x, theta, want_jac=False, want_cache=False):
        layers = self.unpack(theta)
        hs, JAs, Jhs = [x], [], [None]
        h, Jh = x, None
        for l, (W, b) in enumerate(layers):
            a = h @ W.T + b
            last = l == len(layers) - 1
            h = a if last else np.tanh(a)
            hs.append(h)
            if want_jac:
                JA = W[None] if Jh is None else W @ Jh
                Jh = JA if last else (1.0 - h * h)[..., None] * JA
                JAs.append(JA)
                Jhs.append(Jh)
        cache = (hs, JAs, Jhs, layers) if want_cache else None
        return h, Jh, cache

    def backward(self, cache, dout, dJ=None):
        hs, JAs, Jhs, layers = cache
        dtheta = np.empty(self.n_params)
        off = self.n_params
        dh = dout
        for l in reversed(range(len(layers))):
            W, _ = layers[l]
            h = hs[l + 1]
            if l == len(layers) - 1:
                da, dJA = dh, dJ
            elif dJ is None:
                da = dh * (1.0 - h * h)
            else:
                q = 1.0 - h * h
                dq = (dJ * JAs[l]).sum(axis=-1)
                da = q * (dh - 2.0 * h * dq)
                dJA = q[..., None] * dJ
            o, i = W.shape
            dW = da.T @ hs[l]
            if dJ is not None:
                dW = dW + (dJA.sum(axis=0) if l == 0 else
                           np.einsum("moi,mhi->oh", dJA, Jhs[l]))
                if l:
                    dJ = W.T @ dJA
            off -= o
            dtheta[off:off + o] = da.sum(axis=0)
            off -= o * i
            dtheta[off:off + o * i] = dW.ravel()
            dh = da @ W
        return dh, dtheta


class _RefEncoderMlp(_RefCondMlp):
    """Reference: the InfoNCE encoder's own init, forward and backward
    (leaky-ReLU hidden layers, sigmoid head), before ``flow.Mlp`` took their
    place."""

    def init_params(self, seed):
        rng = spawn(seed, "encoder-init")
        theta = np.empty(self.n_params)
        off = 0
        for i, o in zip(self.widths[:-1], self.widths[1:]):
            theta[off:off + o * i] = (rng.standard_normal((o, i))
                                      * np.sqrt(2.0 / i)).ravel()
            off += o * i
            theta[off:off + o] = 0.0
            off += o
        return theta

    def forward(self, x, theta, want_cache=False):
        layers = self.unpack(theta)
        hs = [x]
        h = x
        for l, (W, b) in enumerate(layers):
            a = h @ W.T + b
            if l < len(layers) - 1:
                h = np.maximum(a, flow._LEAK * a)
            else:
                h = 1.0 / (1.0 + np.exp(-a))
            hs.append(h)
        return (h, (hs, layers)) if want_cache else h

    def backward(self, cache, dout):
        hs, layers = cache
        dtheta = np.empty(self.n_params)
        off = self.n_params
        dh = dout
        for l in reversed(range(len(layers))):
            W, _ = layers[l]
            h_in, h_out = hs[l], hs[l + 1]
            if l == len(layers) - 1:
                da = dh * h_out * (1.0 - h_out)
            else:
                da = dh * ((h_out > 0) * (1.0 - flow._LEAK) + flow._LEAK)
            o, i = W.shape
            off -= o
            dtheta[off:off + o] = da.sum(axis=0)
            off -= o * i
            dtheta[off:off + o * i] = (da.T @ h_in).ravel()
            dh = da @ W
        return dh, dtheta


_MLP_WIDTHS = [(2, 16, 2), (1, 2), (3, 6, 5, 4)]


def _assert_all_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        assert g is None or np.array_equal(g, w)


class TestMlpEqualsTheNetworksItReplaced:
    @pytest.mark.parametrize("widths", _MLP_WIDTHS)
    def test_conditioner_bitwise(self, widths):
        n = widths[0] + widths[-1] // 2
        layer = flow.CouplingLayer(n, np.arange(n) < widths[0], widths[1:-1])
        assert layer.mlp.widths == widths
        ref = _RefCondMlp(widths)
        theta = layer.init_params(spawn(40, "init"))
        assert np.array_equal(theta, ref.init_params(spawn(40, "init")))
        assert np.array_equal(layer.mlp.pack(layer.mlp.unpack(theta)), theta)
        # off the zero head, so that every layer's gradient is nonzero
        theta = theta + 0.3 * spawn(41, "jitter").standard_normal(theta.size)
        rng = spawn(42, "x")
        x = rng.standard_normal((17, widths[0]))
        dout = rng.standard_normal((17, widths[-1]))
        dJ = rng.standard_normal((17, widths[-1], widths[0]))
        for want_jac, dJ_in in ((False, None), (True, None), (True, dJ)):
            out, J, cache = layer.mlp.forward(x, theta, want_jac, True)
            out_ref, J_ref, cache_ref = ref.forward(x, theta, want_jac, True)
            _assert_all_equal((out, J), (out_ref, J_ref))
            _assert_all_equal(layer.mlp.backward(cache, dout, dJ_in),
                              ref.backward(cache_ref, dout, dJ_in))

    @pytest.mark.parametrize("widths", _MLP_WIDTHS)
    def test_encoder_bitwise(self, widths):
        enc = flow.EncoderMlp(widths)
        ref = _RefEncoderMlp(widths)
        assert np.array_equal(enc.init_params(43), ref.init_params(43))
        theta = enc.theta + 0.3 * spawn(44, "jitter").standard_normal(enc.n_params)
        rng = spawn(45, "x")
        x = rng.standard_normal((17, widths[0]))
        x[0] = 0.0
        dout = rng.standard_normal((17, widths[-1]))
        out, J, cache = enc.forward(x, theta, want_cache=True)
        out_ref, cache_ref = ref.forward(x, theta, want_cache=True)
        assert J is None
        assert np.array_equal(out, out_ref)
        _assert_all_equal(enc.backward(cache, dout),
                          ref.backward(cache_ref, dout))

    @pytest.mark.parametrize("hidden, out", [("leaky", "sigmoid"),
                                             ("tanh", "sigmoid"),
                                             ("leaky", "linear")])
    def test_jacobian_needs_tanh_hidden_and_linear_head(self, hidden, out):
        net = flow.Mlp((2, 4, 3), hidden, out)
        with pytest.raises(ValueError, match="tanh hidden layers"):
            net.forward(np.zeros((5, 2)), np.zeros(net.n_params), want_jac=True)


class _WhereEncoder(flow.EncoderMlp):
    """Reference: the leaky ReLU and its derivative through np.where."""

    def forward(self, x, theta, want_jac=False, want_cache=False):
        layers = self.unpack(theta)
        hs = [x]
        for l, (W, b) in enumerate(layers):
            a = hs[-1] @ W.T + b
            hs.append(np.where(a > 0, a, flow._LEAK * a) if l < len(layers) - 1
                      else 1.0 / (1.0 + np.exp(-a)))
        return hs[-1], None, (hs, layers) if want_cache else None

    def backward(self, cache, dout):
        hs, layers = cache
        grads, dh = [], dout
        for l in reversed(range(len(layers))):
            h_out = hs[l + 1]
            if l == len(layers) - 1:
                da = dh * h_out * (1.0 - h_out)
            else:
                da = dh * np.where(h_out > 0, 1.0, flow._LEAK)
            grads[:0] = [(da.T @ hs[l]).ravel(), da.sum(axis=0)]
            dh = da @ layers[l][0]
        return dh, np.concatenate(grads)


class TestEncoderActivation:
    def test_equals_the_where_form_bitwise(self):
        enc = flow.EncoderMlp((6, 32, 32, 3))
        enc.init_params(31)
        enc.theta = enc.theta + 0.05 * spawn(32, "b").standard_normal(enc.n_params)
        ref = _WhereEncoder(enc.widths, enc.theta)
        rng = spawn(33, "x")
        xa = rng.standard_normal((64, 6))
        xa[0] = 0.0
        xb = xa + 0.2 * rng.standard_normal((64, 6))
        z, _, cache = enc.forward(xa, enc.theta, want_cache=True)
        z_ref, _, cache_ref = ref.forward(xa, ref.theta, want_cache=True)
        assert np.array_equal(z, z_ref)
        dout = rng.standard_normal(z.shape)
        for got, want in zip(enc.backward(cache, dout),
                             ref.backward(cache_ref, dout)):
            assert np.array_equal(got, want)
        loss, grad = flow._info_nce_grad(enc, enc.theta, xa, xb, 0.5)
        loss_ref, grad_ref = flow._info_nce_grad(ref, ref.theta, xa, xb, 0.5)
        assert loss == loss_ref
        assert np.array_equal(grad, grad_ref)


def _eye_info_nce_grad(enc, theta, xa, xb, tau):
    """Reference: the InfoNCE gradient with the diagonal taken off via np.eye."""
    za, _, ca = enc.forward(xa, theta, want_cache=True)
    zb, _, cb = enc.forward(xb, theta, want_cache=True)
    loss, S, lse = flow.info_nce_loss(za, zb, tau)
    K = za.shape[0]
    dS = (np.exp(S - lse[:, None]) - np.eye(K)) / K
    row = dS.sum(axis=1, keepdims=True)
    col = dS.sum(axis=0)[:, None]
    dza = (-2.0 / tau) * (row * za - dS @ zb)
    dzb = (-2.0 / tau) * (col * zb - dS.T @ za)
    return loss, enc.backward(ca, dza)[1] + enc.backward(cb, dzb)[1]


def test_info_nce_grad_equals_the_eye_form_bitwise():
    enc = flow.EncoderMlp((6, 32, 3))
    enc.init_params(34)
    rng = spawn(35, "x")
    xa = rng.standard_normal((128, 6))
    xb = xa + 0.2 * rng.standard_normal((128, 6))
    loss, grad = flow._info_nce_grad(enc, enc.theta, xa, xb, 0.5)
    loss_ref, grad_ref = _eye_info_nce_grad(enc, enc.theta, xa, xb, 0.5)
    assert loss == loss_ref
    assert np.array_equal(grad, grad_ref)


class TestSerialization:
    def test_flow_round_trip(self):
        fl = small_flow(seed=20)
        clone = flow.FlowModel.from_dict(fl.to_dict())
        x = spawn(14, "x").standard_normal((10, 2))
        za, lda, _, _ = fl.encode(x)
        zb, ldb, _, _ = clone.encode(x)
        np.testing.assert_array_equal(za, zb)
        np.testing.assert_array_equal(lda, ldb)

    def test_unknown_layer_kind_is_a_config_error(self):
        d = small_flow(seed=20).to_dict()
        d["layers"].append({"layer": "sigmoid", "n": 2})
        with pytest.raises(ConfigError, match="'sigmoid'.*coupling, "
                                              "permutation, affine"):
            flow.FlowModel.from_dict(d)

    def test_encoder_round_trip(self):
        enc = flow.EncoderMlp((3, 8, 2))
        enc.init_params(21)
        clone = flow.EncoderMlp.from_dict(enc.to_dict())
        x = spawn(15, "x").standard_normal((10, 3))
        np.testing.assert_array_equal(enc.forward(x, enc.theta)[0],
                                      clone.forward(x, clone.theta)[0])
        # dicts that still store the slope load only at the fixed one
        flow.EncoderMlp.from_dict({**enc.to_dict(), "slope": 0.1})
        with pytest.raises(ConfigError, match="slope"):
            flow.EncoderMlp.from_dict({**enc.to_dict(), "slope": 0.2})
