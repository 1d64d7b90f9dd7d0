"""A small trainable normalizing flow and the training objectives.

The flow is a stack of affine coupling layers (tanh conditioner MLPs, scale
squashed through a bounded tanh), fixed permutations, an element-wise affine
layer and an optional sigmoid head.  Likelihood gradients are hand-written
reverse-mode for this fixed layer algebra.  The IMA regularizer depends on
the encoder Jacobian, which a forward-mode recursion carries through the
layers; its exact gradient is the reverse sweep of that recursion
(:func:`cima_value_and_grad`).  :func:`cima_fd_grad` keeps the central
finite-difference gradient as an independent reference.

Every trainer (:func:`train_mle`, :func:`train_align_invertible`,
:func:`train_align_maxent` and ``multienv.fit_candidate``) supplies only its
loss, gradient and validation objective to the one training loop,
:func:`fit`.  Everything is plain numpy; training is deterministic given the
config seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .contrast import RESOLUTION, local_ima_from_jacobian
from .errors import DomainError
from .rng import spawn

_LOG_2PI = float(np.log(2.0 * np.pi))


class CollapseWarning(RuntimeWarning):
    """Encoder output variance stayed below threshold for several epochs."""


# ---------------------------------------------------------------------------
# conditioner MLP (tanh hidden layers, linear output)
# ---------------------------------------------------------------------------


class CondMlp:
    def __init__(self, widths):
        self.widths = tuple(int(w) for w in widths)
        self.n_params = sum(o * i + o for i, o in
                            zip(self.widths[:-1], self.widths[1:]))

    def unpack(self, theta):
        """Slice a (..., P) parameter array into (W, b) views per layer."""
        lead = theta.shape[:-1]
        out, off = [], 0
        for i, o in zip(self.widths[:-1], self.widths[1:]):
            W = theta[..., off:off + o * i].reshape(*lead, o, i)
            off += o * i
            b = theta[..., off:off + o]
            off += o
            out.append((W, b))
        return out

    def init_params(self, rng, zero_last=True):
        theta = np.empty(self.n_params)
        off = 0
        n_layers = len(self.widths) - 1
        for l, (i, o) in enumerate(zip(self.widths[:-1], self.widths[1:])):
            last = l == n_layers - 1
            if last and zero_last:
                W = np.zeros((o, i))
            else:
                W = rng.standard_normal((o, i)) / np.sqrt(i)
            theta[off:off + o * i] = W.ravel()
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
            h = np.tanh(a) if l < len(layers) - 1 else a
            hs.append(h)
        cache = (hs, layers) if want_cache else None
        return h, cache

    def backward(self, cache, dout):
        hs, layers = cache
        dtheta = np.empty(self.n_params)
        off = self.n_params
        dh = dout
        for l in reversed(range(len(layers))):
            W, _ = layers[l]
            h_in, h_out = hs[l], hs[l + 1]
            da = dh if l == len(layers) - 1 else dh * (1.0 - h_out * h_out)
            o, i = W.shape
            off -= o
            dtheta[off:off + o] = da.sum(axis=0)
            off -= o * i
            dtheta[off:off + o * i] = (da.T @ h_in).ravel()
            dh = da @ W
        return dh, dtheta

    def value_and_input_jacobian(self, x, theta, want_cache=False):
        """Output values (..., m, out) and d out / d in (..., m, out, in).

        x: (..., m, in); theta: (..., P).  A leading axis stacks parameter
        vectors; the cache (unstacked use only) feeds
        :meth:`input_jacobian_backward`.
        """
        layers = self.unpack(theta)
        hs, JAs, Jhs = [x], [], [None]
        h, Jh = x, None
        for l, (W, b) in enumerate(layers):
            a = h @ W.swapaxes(-1, -2) + b[..., None, :]
            # at the input layer Jh = I, so JA = W (broadcast over rows)
            JA = W[..., None, :, :] if Jh is None else W[..., None, :, :] @ Jh
            if l < len(layers) - 1:
                h = np.tanh(a)
                Jh = (1.0 - h * h)[..., None] * JA
            else:
                h, Jh = a, JA
            hs.append(h)
            JAs.append(JA)
            Jhs.append(Jh)
        cache = (hs, JAs, Jhs, layers) if want_cache else None
        return h, Jh, cache

    def input_jacobian_backward(self, cache, dout, dJ):
        """Reverse step of :meth:`value_and_input_jacobian` for one parameter
        vector: given dL/d out (m, out) and dL/d Jacobian (m, out, in),
        returns dL/d in (m, in) and dL/d theta (P,)."""
        hs, JAs, Jhs, layers = cache
        dtheta = np.empty(self.n_params)
        off = self.n_params
        dh = dout
        for l in reversed(range(len(layers))):
            W, _ = layers[l]
            if l == len(layers) - 1:
                da, dJA = dh, dJ
            else:
                # h = tanh(a) and Jh = (1 - h^2) JA; d(1 - h^2)/da is
                # tanh'' = -2 tanh (1 - tanh^2)
                h = hs[l + 1]
                q = 1.0 - h * h
                dq = (dJ * JAs[l]).sum(axis=-1)
                da = q * (dh - 2.0 * h * dq)
                dJA = q[..., None] * dJ
            o, i = W.shape
            # JA = W @ Jh, with Jh = I at the input layer
            dW = da.T @ hs[l] + (dJA.sum(axis=0) if l == 0 else
                                 np.einsum("moi,mhi->oh", dJA, Jhs[l]))
            off -= o
            dtheta[off:off + o] = da.sum(axis=0)
            off -= o * i
            dtheta[off:off + o * i] = dW.ravel()
            dh = da @ W
            if l:
                dJ = W.T @ dJA
        return dh, dtheta


# ---------------------------------------------------------------------------
# flow layers (listed in generative order: z -> x)
# ---------------------------------------------------------------------------


class CouplingLayer:
    """Affine coupling: the changed block is scaled/shifted conditioned on the
    kept block; the raw scale is squashed through ``s_max * tanh`` so log-det
    terms stay bounded by construction."""

    def __init__(self, n, keep, hidden=(16,), s_max=3.0):
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (n,) or not 0 < keep.sum() < n:
            raise ValueError("keep mask must be a proper nonempty subset")
        self.n = n
        self.keep_idx = np.where(keep)[0]
        self.chg_idx = np.where(~keep)[0]
        k = len(self.chg_idx)
        self.k_chg = k
        self.s_max = float(s_max)
        self.mlp = CondMlp((len(self.keep_idx), *hidden, 2 * k))
        self.n_params = self.mlp.n_params

    def init_params(self, rng):
        return self.mlp.init_params(rng)

    def _scale_shift(self, h, theta, want_cache=False):
        out, cache = self.mlp.forward(h, theta, want_cache)
        raw, t = out[:, :self.k_chg], out[:, self.k_chg:]
        tr = np.tanh(raw)
        return self.s_max * tr, t, tr, cache

    def enc(self, v, theta, want_cache=False):
        s, t, tr, mcache = self._scale_shift(v[:, self.keep_idx], theta, want_cache)
        ens = np.exp(-s)
        u = v.copy()
        u_chg = (v[:, self.chg_idx] - t) * ens
        u[:, self.chg_idx] = u_chg
        ld = -s.sum(axis=1)
        cache = (mcache, tr, ens, u_chg) if want_cache else None
        return u, ld, cache

    def enc_backward(self, cache, du, dld, theta):
        mcache, tr, ens, u_chg = cache
        du_chg = du[:, self.chg_idx]
        dv_chg = du_chg * ens
        ds = -du_chg * u_chg - dld[:, None]
        dt = -dv_chg
        draw = ds * (self.s_max * (1.0 - tr * tr))
        dh, dtheta = self.mlp.backward(mcache, np.concatenate([draw, dt], axis=1))
        dv = np.zeros_like(du)
        dv[:, self.chg_idx] = dv_chg
        dv[:, self.keep_idx] = du[:, self.keep_idx] + dh
        return dv, dtheta

    def dec(self, u, theta):
        s, t, _, _ = self._scale_shift(u[:, self.keep_idx], theta)
        v = u.copy()
        v[:, self.chg_idx] = u[:, self.chg_idx] * np.exp(s) + t
        return v

    def enc_q(self, v, theta, J, want_cache=False):
        """Encoder values and the running Jacobian J = d v / d x pushed
        through this layer; leading axes of v, theta and J stack parameter
        vectors."""
        k = self.k_chg
        out, Jmlp, mcache = self.mlp.value_and_input_jacobian(
            v[..., self.keep_idx], theta, want_cache)
        raw, t = out[..., :k], out[..., k:]
        tr = np.tanh(raw)
        s = self.s_max * tr
        ens = np.exp(-s)
        u = v.copy()
        u_chg = (v[..., self.chg_idx] - t) * ens
        u[..., self.chg_idx] = u_chg
        ds_draw = self.s_max * (1.0 - tr * tr)
        Jraw, Jt = Jmlp[..., :k, :], Jmlp[..., k:, :]
        M = -ens[..., None] * Jt - (u_chg * ds_draw)[..., None] * Jraw
        J_keep, J_chg = J[..., self.keep_idx, :], J[..., self.chg_idx, :]
        Jnew = J.copy()
        Jnew[..., self.chg_idx, :] = ens[..., None] * J_chg + M @ J_keep
        cache = ((mcache, tr, ds_draw, ens, u_chg, Jmlp, M, J_keep, J_chg)
                 if want_cache else None)
        return u, Jnew, cache

    def enc_q_backward(self, cache, du, dJ):
        """Reverse step of :meth:`enc_q` for one parameter vector: returns
        (dL/dv, dL/dJ_in, dL/dtheta) from dL/du and dL/dJ_out."""
        mcache, tr, ds_draw, ens, u_chg, Jmlp, M, J_keep, J_chg = cache
        k = self.k_chg
        dJ_chg = dJ[:, self.chg_idx, :]
        # M = -ens Jt - u_chg s' Jraw with s' = ds/draw = s_max (1 - tr^2)
        dM = dJ_chg @ J_keep.swapaxes(-1, -2)
        p = (Jmlp.reshape(-1, 2, k, Jmlp.shape[-1]) * dM[:, None]).sum(axis=-1)
        p_raw, p_t = p[:, 0], p[:, 1]
        du_chg = du[:, self.chg_idx] - ds_draw * p_raw
        dens = (dJ_chg * J_chg).sum(axis=-1) - p_t
        ds = -du_chg * u_chg - ens * dens
        # ds'/draw = -2 s_max tr (1 - tr^2): the tanh'' term of the scale
        draw = (1.0 - tr * tr) * self.s_max * (ds + 2.0 * tr * u_chg * p_raw)
        dout = np.concatenate([draw, -du_chg * ens], axis=1)
        coef = np.concatenate([u_chg * ds_draw, ens], axis=1)
        dJmlp = -coef[..., None] * np.concatenate([dM, dM], axis=1)
        dh, dtheta = self.mlp.input_jacobian_backward(mcache, dout, dJmlp)
        dv = np.empty_like(du)
        dv[:, self.chg_idx] = du_chg * ens
        dv[:, self.keep_idx] = du[:, self.keep_idx] + dh
        dJ_in = np.empty_like(dJ)
        dJ_in[:, self.chg_idx, :] = ens[..., None] * dJ_chg
        dJ_in[:, self.keep_idx, :] = (dJ[:, self.keep_idx, :]
                                      + M.swapaxes(-1, -2) @ dJ_chg)
        return dv, dJ_in, dtheta

    def descriptor(self):
        return {"layer": "coupling", "n": self.n,
                "keep": [int(i) for i in self.keep_idx],
                "hidden": list(self.mlp.widths[1:-1]), "s_max": self.s_max}


class PermLayer:
    def __init__(self, perm):
        self.perm = tuple(int(p) for p in perm)
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("not a permutation")
        inv = [0] * len(self.perm)
        for i, p in enumerate(self.perm):
            inv[p] = i
        self.inv = tuple(inv)
        self.n = len(self.perm)
        self.n_params = 0

    def init_params(self, rng):
        return np.empty(0)

    def enc(self, v, theta, want_cache=False):
        return v[:, self.inv], np.zeros(v.shape[0]), None

    def enc_backward(self, cache, du, dld, theta):
        return du[:, self.perm], np.empty(0)

    def dec(self, u, theta):
        return u[:, self.perm]

    def enc_q(self, v, theta, J, want_cache=False):
        return v[..., self.inv], J[..., self.inv, :], None

    def enc_q_backward(self, cache, du, dJ):
        return du[:, self.perm], dJ[:, self.perm, :], np.empty(0)

    def descriptor(self):
        return {"layer": "permutation", "perm": list(self.perm)}


class AffineLayer:
    """Element-wise affine v = exp(log_a) * u + b."""

    def __init__(self, n):
        self.n = n
        self.n_params = 2 * n

    def init_params(self, rng):
        return np.zeros(2 * self.n)

    def enc(self, v, theta, want_cache=False):
        la, b = theta[:self.n], theta[self.n:]
        ena = np.exp(-la)
        u = (v - b) * ena
        ld = np.full(v.shape[0], -float(la.sum()))
        cache = (ena, u) if want_cache else None
        return u, ld, cache

    def enc_backward(self, cache, du, dld, theta):
        ena, u = cache
        dv = du * ena
        dla = (-du * u).sum(axis=0) - dld.sum()
        db = -dv.sum(axis=0)
        return dv, np.concatenate([dla, db])

    def dec(self, u, theta):
        la, b = theta[:self.n], theta[self.n:]
        return u * np.exp(la) + b

    def enc_q(self, v, theta, J, want_cache=False):
        la = theta[..., None, :self.n]
        b = theta[..., None, self.n:]
        ena = np.exp(-la)
        u = (v - b) * ena
        Jnew = ena[..., None] * J
        return u, Jnew, (ena, u, Jnew) if want_cache else None

    def enc_q_backward(self, cache, du, dJ):
        ena, u, Jnew = cache
        dv = du * ena
        dla = -(du * u).sum(axis=0) - (dJ * Jnew).sum(axis=(0, 2))
        return dv, ena[..., None] * dJ, np.concatenate([dla, -dv.sum(axis=0)])

    def descriptor(self):
        return {"layer": "affine", "n": self.n}


class SigmoidLayer:
    """Optional head mapping the generative output into (0,1)^n."""

    def __init__(self, n):
        self.n = n
        self.n_params = 0

    def init_params(self, rng):
        return np.empty(0)

    def enc(self, v, theta, want_cache=False):
        if np.any((v <= 0) | (v >= 1)):
            raise DomainError("sigmoid head expects data strictly inside (0,1)")
        u = np.log(v) - np.log1p(-v)
        g = v * (1.0 - v)
        ld = -np.log(g).sum(axis=1)
        cache = (v, g) if want_cache else None
        return u, ld, cache

    def enc_backward(self, cache, du, dld, theta):
        v, g = cache
        dv = du / g - dld[:, None] * (1.0 - 2.0 * v) / g
        return dv, np.empty(0)

    def dec(self, u, theta):
        return 1.0 / (1.0 + np.exp(-u))

    def enc_q(self, v, theta, J, want_cache=False):
        g = v * (1.0 - v)
        u = np.log(v) - np.log1p(-v)
        Jnew = J / g[..., None]
        return u, Jnew, (v, g, Jnew) if want_cache else None

    def enc_q_backward(self, cache, du, dJ):
        v, g, Jnew = cache
        # each row of J is divided by g = v (1 - v), and g' = 1 - 2v
        dv = (du - (1.0 - 2.0 * v) * (dJ * Jnew).sum(axis=-1)) / g
        return dv, dJ / g[..., None], np.empty(0)

    def descriptor(self):
        return {"layer": "sigmoid", "n": self.n}


_LAYER_KINDS = {
    "coupling": lambda d: CouplingLayer(d["n"],
                                        np.isin(np.arange(d["n"]), d["keep"]),
                                        tuple(d["hidden"]), d["s_max"]),
    "permutation": lambda d: PermLayer(d["perm"]),
    "affine": lambda d: AffineLayer(d["n"]),
    "sigmoid": lambda d: SigmoidLayer(d["n"]),
}


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------


class FlowModel:
    """Invertible model with analytic log-det; layers in generative order."""

    def __init__(self, layers, theta=None):
        if not layers:
            raise ValueError("flow needs at least one layer")
        self.layers = list(layers)
        self.n = self.layers[0].n
        if any(l.n != self.n for l in self.layers):
            raise ValueError("layer dimensions disagree")
        self.offsets = np.cumsum([0] + [l.n_params for l in self.layers])
        self.n_params = int(self.offsets[-1])
        self.theta = (np.zeros(self.n_params) if theta is None
                      else np.asarray(theta, dtype=float).copy())
        if self.theta.shape != (self.n_params,):
            raise ValueError("parameter vector has the wrong size")

    # -- parameters ----------------------------------------------------------

    def _slice(self, theta, i):
        return theta[..., self.offsets[i]:self.offsets[i + 1]]

    def init_params(self, seed):
        rng = spawn(seed, "flow-init")
        self.theta = np.concatenate([l.init_params(rng) for l in self.layers]) \
            if self.n_params else np.empty(0)
        return self.theta

    def with_theta(self, theta):
        return FlowModel(self.layers, theta)

    # -- evaluation ------------------------------------------------------------

    def encode(self, x, theta=None, want_cache=False):
        """Data -> latent; returns (z, per-sample log|det J_encode|, caches)."""
        theta = self.theta if theta is None else theta
        x = np.atleast_2d(np.asarray(x, dtype=float))
        ld = np.zeros(x.shape[0])
        caches = [None] * len(self.layers)
        cur = x
        for i in reversed(range(len(self.layers))):
            cur, ld_i, caches[i] = self.layers[i].enc(
                cur, self._slice(theta, i), want_cache)
            ld = ld + ld_i
        return cur, ld, caches

    def encode_backward(self, caches, dz, dld, theta=None):
        """Gradient of a scalar loss wrt theta, given dL/dz and dL/dlogdet."""
        theta = self.theta if theta is None else theta
        parts = [None] * len(self.layers)
        d = dz
        for i in range(len(self.layers)):
            d, parts[i] = self.layers[i].enc_backward(
                caches[i], d, dld, self._slice(theta, i))
        return np.concatenate(parts) if parts else np.empty(0)

    def decode(self, z, theta=None):
        theta = self.theta if theta is None else theta
        cur = np.atleast_2d(np.asarray(z, dtype=float))
        for i in range(len(self.layers)):
            cur = self.layers[i].dec(cur, self._slice(theta, i))
        return cur

    def encode_jacobian_q(self, x, theta_stack):
        """Encoder values and Jacobians for a stack of parameter vectors.

        x: (m, n); theta_stack: (Q, P) -> (z (Q,m,n), J (Q,m,n,n)).
        """
        theta_stack = np.atleast_2d(theta_stack)
        Q = theta_stack.shape[0]
        m = x.shape[0]
        cur = np.broadcast_to(x, (Q, m, self.n)).copy()
        J = np.broadcast_to(np.eye(self.n), (Q, m, self.n, self.n)).copy()
        for i in reversed(range(len(self.layers))):
            cur, J, _ = self.layers[i].enc_q(cur, self._slice(theta_stack, i), J)
        return cur, J

    def encode_jacobian(self, x, theta=None):
        theta = self.theta if theta is None else theta
        _, J = self.encode_jacobian_q(np.atleast_2d(np.asarray(x, dtype=float)),
                                      theta[None, :])
        return J[0]

    def round_trip_error(self, x, theta=None):
        z, _, _ = self.encode(x, theta)
        return float(np.max(np.abs(self.decode(z, theta) - np.atleast_2d(x))))

    def to_dict(self):
        return {"layers": [l.descriptor() for l in self.layers],
                "theta": self.theta.tolist()}

    @staticmethod
    def from_dict(d):
        layers = [_LAYER_KINDS[ld["layer"]](ld) for ld in d["layers"]]
        return FlowModel(layers, np.asarray(d["theta"]))


def default_bss_flow(n, n_couplings=6, hidden=(16,), s_max=3.0,
                     sigmoid_head=False):
    """Coupling stack with alternating permutations plus a data-whitening
    affine layer at the data end of the generative direction."""
    keep = np.zeros(n, dtype=bool)
    keep[: max(1, n // 2)] = True
    rev = tuple(reversed(range(n)))
    layers = []
    for c in range(n_couplings):
        layers.append(CouplingLayer(n, keep, hidden, s_max))
        if c < n_couplings - 1:
            layers.append(PermLayer(rev))
    layers.append(AffineLayer(n))
    if sigmoid_head:
        layers.append(SigmoidLayer(n))
    return FlowModel(layers)


def init_whitening(flow: FlowModel, data):
    """Point the trailing affine layer at the data mean/scale."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    for i in reversed(range(len(flow.layers))):
        layer = flow.layers[i]
        if isinstance(layer, AffineLayer):
            sl = slice(flow.offsets[i], flow.offsets[i + 1])
            std = np.maximum(data.std(axis=0), 1e-8)
            flow.theta[sl] = np.concatenate([np.log(std), data.mean(axis=0)])
            return
    raise ValueError("flow has no affine layer to initialize")


# ---------------------------------------------------------------------------
# base densities
# ---------------------------------------------------------------------------


class IidNormalBase:
    """Standard normal per coordinate."""

    def logpdf(self, z):
        return -0.5 * np.sum(z * z + _LOG_2PI, axis=1)

    def grad(self, z):
        return -z


def flow_log_density(flow: FlowModel, base, x):
    """log p(x) = log base(g(x)) + log|det J_g(x)| for the encoder g."""
    arr = np.asarray(x, dtype=float)
    z, ld, _ = flow.encode(arr)
    out = base.logpdf(z) + ld
    return float(out[0]) if arr.ndim == 1 else out


# ---------------------------------------------------------------------------
# optimizer and configs
# ---------------------------------------------------------------------------


class Adam:
    def __init__(self, size, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, theta, grad):
        self.t += 1
        self.m = self.b1 * self.m + (1 - self.b1) * grad
        self.v = self.b2 * self.v + (1 - self.b2) * grad * grad
        mh = self.m / (1 - self.b1 ** self.t)
        vh = self.v / (1 - self.b2 ** self.t)
        return theta - self.lr * mh / (np.sqrt(vh) + self.eps)


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    batch_size: int = 256
    epochs: int = 100
    ima_weight: float = 0.0       # lambda
    temperature: float = 1.0      # tau
    n_negatives: int = 256        # K (in-batch InfoNCE)
    val_fraction: float = 0.15
    patience: int = 20
    ima_probe: int = 32
    lr_decay_at: float = 0.6      # fraction of epochs after which lr drops
    lr_decay_factor: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.ima_weight < 0:
            raise ValueError("ima_weight (lambda) must be >= 0")
        if self.temperature <= 0:
            raise ValueError("temperature (tau) must be > 0")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (np.isfinite(self.lr) and self.lr >= 0):
            raise ValueError("lr must be finite and >= 0")
        if not 0 < self.val_fraction < 1:
            raise ValueError("val_fraction must lie in (0, 1)")
        if self.n_negatives < 2:
            raise ValueError("n_negatives (K) must be >= 2")
        if self.ima_probe < 1:
            raise ValueError("ima_probe must be >= 1")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")

    def to_dict(self):
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    def lr_at(self, epoch: int) -> float:
        if epoch >= self.lr_decay_at * self.epochs:
            return self.lr * self.lr_decay_factor
        return self.lr


@dataclass
class TrainResult:
    model: object
    history: list
    best_epoch: int
    best_val: float
    diverged: bool = False
    collapsed: bool = False


def _split(n_rows, val_fraction, seed):
    rng = spawn(seed, "split")
    perm = rng.permutation(n_rows)
    n_val = max(1, int(round(val_fraction * n_rows)))
    return perm[n_val:], perm[:n_val]


def fit(theta, tr_idx, batch_size, loss_and_grad, val_fn, cfg: TrainConfig,
        after_epoch=None) -> TrainResult:
    """The training loop of every trainer: Adam with ``cfg.lr_at`` over
    mini-batches of the shuffled training rows ``tr_idx``.

    ``loss_and_grad(theta, rows)`` gives a batch's loss and gradient;
    ``after_epoch(theta)`` runs after each epoch's steps.  Training stops on
    the first non-finite loss or gradient (``diverged``), or once
    ``val_fn(theta)`` has not decreased for more than ``cfg.patience``
    epochs.  ``model`` is the parameter vector of the lowest validation
    value; the history starts with the initial one at epoch -1.
    """
    opt = Adam(theta.size, cfg.lr, cfg.beta1, cfg.beta2)
    best_theta = theta.copy()
    best_val = val_fn(theta)
    best_epoch = -1
    history = [{"epoch": -1, "train": float("nan"), "val": best_val}]
    diverged = False
    since_best = 0
    for epoch in range(cfg.epochs):
        opt.lr = cfg.lr_at(epoch)
        order = spawn(cfg.seed, "epoch", epoch).permutation(tr_idx.size)
        losses = []
        for a in range(0, tr_idx.size, batch_size):
            sel = tr_idx[order[a:a + batch_size]]
            if sel.size < 2:
                continue
            loss, grad = loss_and_grad(theta, sel)
            if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
                diverged = True
                break
            losses.append(loss)
            theta = opt.step(theta, grad)
        if diverged:
            break
        if after_epoch is not None:
            after_epoch(theta)
        val = val_fn(theta)
        history.append({"epoch": epoch,
                        "train": float(np.mean(losses)) if losses else float("nan"),
                        "val": val})
        if val < best_val:
            best_val, best_theta, best_epoch = val, theta.copy(), epoch
            since_best = 0
        else:
            since_best += 1
            if since_best > cfg.patience:
                break
    return TrainResult(best_theta, history, best_epoch, best_val,
                       diverged=diverged)


# ---------------------------------------------------------------------------
# IMA penalty of the flow's generative direction
# ---------------------------------------------------------------------------


def _decoder_contrast(J_enc, want_grad=False):
    """Local IMA contrast of g^(-1) per row from encoder Jacobians (..., n, n),
    and with ``want_grad`` its gradient over J_enc (zero where clamped)."""
    grad = None
    if J_enc.shape[-1] == 2:
        # column norms of a 2x2 inverse are the row norms over |det|, so the
        # contrast of the inverse needs no inversion at all
        a, b = J_enc[..., 0, 0], J_enc[..., 0, 1]
        c, d = J_enc[..., 1, 0], J_enc[..., 1, 1]
        det = a * d - b * c
        r0, r1 = a * a + b * b, c * c + d * d
        raw = 0.5 * np.log(r0) + 0.5 * np.log(r1) - np.log(np.abs(det))
        if want_grad:
            # d log|det| / dJ = J^(-T) = [[d, -c], [-b, a]] / det
            grad = np.stack([a / r0 - d / det, b / r0 + c / det,
                             c / r1 + b / det, d / r1 - a / det],
                            axis=-1).reshape(J_enc.shape)
    else:
        A = np.linalg.inv(J_enc)
        raw = local_ima_from_jacobian(A, clamp=False)
        if want_grad:
            # f(A) = sum_j log ||A[:, j]|| - log|det A| has
            # df/dA = A / ||A[:, j]||^2 - A^(-T), and dA = -A dJ A turns it
            # into df/dJ = -A^T (df/dA) A^T
            At = A.swapaxes(-1, -2)
            G = A / (A * A).sum(axis=-2, keepdims=True) - J_enc.swapaxes(-1, -2)
            grad = -(At @ G @ At)
    clamped = raw < RESOLUTION
    vals = np.where(clamped, 0.0, raw)
    if grad is not None:
        grad = np.where(clamped[..., None, None], 0.0, grad)
    return vals, grad


def cima_of_decoder(flow: FlowModel, theta_stack, x_probe):
    """Mean local IMA contrast of g^(-1) at the probe points' images.

    Evaluated from the encoder Jacobian: J_{g^(-1)}(g(x)) = J_g(x)^(-1).
    Returns one mean per stacked parameter vector.
    """
    _, J_enc = flow.encode_jacobian_q(x_probe, theta_stack)
    return _decoder_contrast(J_enc)[0].mean(axis=-1)


def cima_value_and_grad(flow: FlowModel, theta, x_probe):
    """Mean IMA penalty of the decoder and its exact gradient over theta.

    One forward sweep of the encoder Jacobian recursion keeps every layer's
    cache; the adjoint sweep then carries dL/dv and dL/dJ back through the
    layers (reverse mode over a forward-mode recursion).
    """
    m, n = x_probe.shape
    cur = x_probe
    J = np.broadcast_to(np.eye(n), (m, n, n))
    caches = [None] * len(flow.layers)
    for i in reversed(range(len(flow.layers))):
        cur, J, caches[i] = flow.layers[i].enc_q(cur, flow._slice(theta, i), J,
                                                 want_cache=True)
    vals, dJ = _decoder_contrast(J, want_grad=True)
    dJ = dJ / m
    du = np.zeros_like(cur)
    parts = [None] * len(flow.layers)
    for i in range(len(flow.layers)):
        du, dJ, parts[i] = flow.layers[i].enc_q_backward(caches[i], du, dJ)
    return float(vals.mean()), np.concatenate(parts)


def cima_fd_grad(flow: FlowModel, theta, x_probe, h_rel=1e-4, q_chunk=64):
    """Central-difference gradient of the IMA penalty over all parameters:
    the independent reference for :func:`cima_value_and_grad`.

    All 2P perturbed evaluations run through the stacked Jacobian
    propagation, chunked to keep the working set cache-friendly.
    """
    P = theta.size
    h = h_rel * (1.0 + np.abs(theta))
    stack = np.repeat(theta[None, :], 2 * P, axis=0)
    idx = np.arange(P)
    stack[2 * idx, idx] += h
    stack[2 * idx + 1, idx] -= h
    vals = np.empty(2 * P)
    for a in range(0, 2 * P, q_chunk):
        vals[a:a + q_chunk] = cima_of_decoder(flow, stack[a:a + q_chunk], x_probe)
    return (vals[0::2] - vals[1::2]) / (2.0 * h)


# ---------------------------------------------------------------------------
# maximum likelihood training (optionally IMA-regularized)
# ---------------------------------------------------------------------------


def _nll_and_grad(flow, theta, xb, base):
    z, ld, caches = flow.encode(xb, theta, want_cache=True)
    m = xb.shape[0]
    nll = -float(np.mean(base.logpdf(z) + ld))
    dz = -base.grad(z) / m
    dld = np.full(m, -1.0 / m)
    grad = flow.encode_backward(caches, dz, dld, theta)
    return nll, grad


def train_mle(flow: FlowModel, data, cfg: TrainConfig) -> TrainResult:
    """Fit by maximum likelihood; lambda > 0 adds the IMA penalty of the
    learned mixing.  Returns the best validation checkpoint."""
    base = IidNormalBase()
    data = np.atleast_2d(np.asarray(data, dtype=float))
    tr_idx, va_idx = _split(data.shape[0], cfg.val_fraction, cfg.seed)
    x_va = data[va_idx]
    va_probe = x_va[: cfg.ima_probe]
    lam = cfg.ima_weight

    def loss_and_grad(th, rows):
        xb = data[rows]
        nll, grad = _nll_and_grad(flow, th, xb, base)
        if lam > 0:
            pen, pen_grad = cima_value_and_grad(flow, th, xb[: cfg.ima_probe])
            grad = grad + lam * pen_grad
            nll += lam * pen
        return nll, grad

    def val_objective(th):
        z, ld, _ = flow.encode(x_va, th)
        obj = -float(np.mean(base.logpdf(z) + ld))
        if lam > 0:
            obj += lam * float(cima_of_decoder(flow, th[None, :], va_probe)[0])
        return obj

    res = fit(flow.theta, tr_idx, cfg.batch_size, loss_and_grad, val_objective, cfg)
    res.model = flow.with_theta(res.model)
    return res


# ---------------------------------------------------------------------------
# alignment training for an invertible encoder (flow)
# ---------------------------------------------------------------------------


def _align_loss_and_grad(flow, theta, xa, xb, n_content):
    za, lda, ca = flow.encode(xa, theta, want_cache=True)
    zb, ldb, cb = flow.encode(xb, theta, want_cache=True)
    m = xa.shape[0]
    diff = za[:, :n_content] - zb[:, :n_content]
    loss = float(np.sum(diff * diff) / m)
    dza = np.zeros_like(za)
    dzb = np.zeros_like(zb)
    dza[:, :n_content] = 2.0 * diff / m
    dzb[:, :n_content] = -2.0 * diff / m
    zeros = np.zeros(m)
    grad = (flow.encode_backward(ca, dza, zeros, theta)
            + flow.encode_backward(cb, dzb, zeros, theta))
    return loss, grad


def train_align_invertible(flow: FlowModel, pairs, cfg: TrainConfig,
                           n_content: int) -> TrainResult:
    """Minimize the squared content-alignment objective with an invertible
    encoder; invertibility is structural, so no collapse is possible."""
    xa, xb = (np.atleast_2d(np.asarray(p, dtype=float)) for p in pairs)
    if xa.shape != xb.shape:
        raise ValueError("paired views must have identical shapes")
    tr_idx, va_idx = _split(xa.shape[0], cfg.val_fraction, cfg.seed)

    def loss_and_grad(th, rows):
        return _align_loss_and_grad(flow, th, xa[rows], xb[rows], n_content)

    def val_loss(th):
        return loss_and_grad(th, va_idx)[0]

    res = fit(flow.theta, tr_idx, cfg.batch_size, loss_and_grad, val_loss, cfg)
    res.model = flow.with_theta(res.model)
    return res


# ---------------------------------------------------------------------------
# InfoNCE encoder (non-invertible, sigmoid range)
# ---------------------------------------------------------------------------


class EncoderMlp:
    """MLP encoder with leaky-ReLU hidden layers and a sigmoid output head."""

    def __init__(self, widths, slope=0.1, theta=None):
        self.widths = tuple(int(w) for w in widths)
        self.slope = float(slope)
        self.n_params = sum(o * i + o for i, o in
                            zip(self.widths[:-1], self.widths[1:]))
        self.theta = (np.zeros(self.n_params) if theta is None
                      else np.asarray(theta, dtype=float).copy())

    @property
    def n_out(self):
        return self.widths[-1]

    def _unpack(self, theta):
        out, off = [], 0
        for i, o in zip(self.widths[:-1], self.widths[1:]):
            W = theta[off:off + o * i].reshape(o, i)
            off += o * i
            b = theta[off:off + o]
            off += o
            out.append((W, b))
        return out

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
        self.theta = theta
        return theta

    def forward(self, x, theta=None, want_cache=False):
        theta = self.theta if theta is None else theta
        x = np.atleast_2d(np.asarray(x, dtype=float))
        layers = self._unpack(theta)
        hs = [x]
        h = x
        for l, (W, b) in enumerate(layers):
            a = h @ W.T + b
            if l < len(layers) - 1:
                h = np.where(a > 0, a, self.slope * a)
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
                da = dh * np.where(h_out > 0, 1.0, self.slope)
            o, i = W.shape
            off -= o
            dtheta[off:off + o] = da.sum(axis=0)
            off -= o * i
            dtheta[off:off + o * i] = (da.T @ h_in).ravel()
            dh = da @ W
        return dh, dtheta

    def with_theta(self, theta):
        return EncoderMlp(self.widths, self.slope, theta)

    def to_dict(self):
        return {"widths": list(self.widths), "slope": self.slope,
                "theta": self.theta.tolist()}

    @staticmethod
    def from_dict(d):
        return EncoderMlp(d["widths"], d["slope"], np.asarray(d["theta"]))


def info_nce_loss(za, zb, tau):
    """InfoNCE with negative squared distance similarity; rows are pairs."""
    d2 = (np.sum(za * za, axis=1)[:, None] + np.sum(zb * zb, axis=1)[None, :]
          - 2.0 * za @ zb.T)
    S = -d2 / tau
    S_max = S.max(axis=1, keepdims=True)
    lse = S_max[:, 0] + np.log(np.sum(np.exp(S - S_max), axis=1))
    return float(np.mean(lse - np.diag(S))), S, lse


def _info_nce_grad(enc, theta, xa, xb, tau):
    za, ca = enc.forward(xa, theta, want_cache=True)
    zb, cb = enc.forward(xb, theta, want_cache=True)
    loss, S, lse = info_nce_loss(za, zb, tau)
    K = za.shape[0]
    P = np.exp(S - lse[:, None])
    dS = (P - np.eye(K)) / K
    row = dS.sum(axis=1, keepdims=True)
    col = dS.sum(axis=0)[:, None]
    dza = (-2.0 / tau) * (row * za - dS @ zb)
    dzb = (-2.0 / tau) * (col * zb - dS.T @ za)
    _, g1 = enc.backward(ca, dza)
    _, g2 = enc.backward(cb, dzb)
    return loss, g1 + g2


def train_align_maxent(encoder: EncoderMlp, pairs, cfg: TrainConfig) -> TrainResult:
    """InfoNCE training of a squashed encoder (alignment + uniformity as an
    entropy surrogate).  Emits a collapse warning if the output variance
    stays below 1e-6 in every coordinate for 5 consecutive epochs."""
    xa, xb = (np.atleast_2d(np.asarray(p, dtype=float)) for p in pairs)
    if xa.shape != xb.shape:
        raise ValueError("paired views must have identical shapes")
    tr_idx, va_idx = _split(xa.shape[0], cfg.val_fraction, cfg.seed)
    K = cfg.n_negatives
    tau = cfg.temperature

    def loss_and_grad(th, rows):
        return _info_nce_grad(encoder, th, xa[rows], xb[rows], tau)

    def val_loss(th):
        total, count = 0.0, 0
        for a in range(0, va_idx.size - 1, K):
            sel = va_idx[a:a + K]
            if sel.size < 2:
                break
            loss, _, _ = info_nce_loss(encoder.forward(xa[sel], th),
                                       encoder.forward(xb[sel], th), tau)
            total += loss * sel.size
            count += sel.size
        return total / max(count, 1)

    monitor = xa[tr_idx[:512]]
    low_var_run = 0
    collapsed = False

    def watch_collapse(th):
        nonlocal low_var_run, collapsed
        if np.all(encoder.forward(monitor, th).var(axis=0) < 1e-6):
            low_var_run += 1
            if low_var_run >= 5 and not collapsed:
                collapsed = True
                warnings.warn("encoder output variance below 1e-6 for 5 epochs",
                              CollapseWarning)
        else:
            low_var_run = 0

    res = fit(encoder.theta, tr_idx, K, loss_and_grad, val_loss, cfg,
              after_epoch=watch_collapse)
    res.model = encoder.with_theta(res.model)
    res.collapsed = collapsed
    return res
