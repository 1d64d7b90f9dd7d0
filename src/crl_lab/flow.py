"""A small trainable normalizing flow and the training objectives.

The flow is a stack of affine coupling layers (tanh conditioner MLPs, scale
squashed through a bounded tanh), fixed permutations and an element-wise
affine layer.  Every layer has one encoder step and one reverse step:

- ``enc(v, theta, J=None, want_cache=False)`` maps ``v`` (m, n) to
  ``(u, ld, J_out, cache)``: the layer's encoder output, its per-sample
  log|det| and, given the running encoder Jacobian ``J`` = dv/dx
  (m, n, n), ``J_out`` = du/dx (else None);
- ``backward(cache, du, dld, dJ=None)`` turns dL/du, dL/dld (m,) and, for
  a Jacobian-carrying step, dL/dJ_out into ``(dv, dJ_in, dtheta)``.

The likelihood uses the values and log-dets.  The IMA regularizer depends on
the encoder Jacobian, which the same steps carry forward through the layers;
its exact gradient is the reverse sweep of that recursion, run with
``dld = 0`` (:func:`cima_value_and_grad`).  :func:`cima_fd_grad` keeps the
central finite-difference gradient as an independent reference.

One dense network, :class:`Mlp`, serves both the coupling conditioners (tanh
hidden layers, linear head) and the InfoNCE encoder :class:`EncoderMlp`
(leaky-ReLU hidden layers, sigmoid head).

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
from .errors import ConfigError
from .rng import spawn

_LOG_2PI = float(np.log(2.0 * np.pi))


class CollapseWarning(RuntimeWarning):
    """Encoder output variance stayed below threshold for several epochs."""


# ---------------------------------------------------------------------------
# dense network (the coupling conditioners and the InfoNCE encoder)
# ---------------------------------------------------------------------------


# Negative-side slope of the leaky ReLU. maximum(a, _LEAK * a) is the leaky
# ReLU of every float only because 0 < _LEAK < 1.
_LEAK = 0.1

# activation name -> (h = f(a), dL/da from dL/dh and h)
_ACTIVATIONS = {
    "tanh": (np.tanh, lambda dh, h: dh * (1.0 - h * h)),
    "linear": (lambda a: a, lambda dh, h: dh),
    "leaky": (lambda a: np.maximum(a, _LEAK * a),
              lambda dh, h: dh * ((h > 0) * (1.0 - _LEAK) + _LEAK)),
    "sigmoid": (lambda a: 1.0 / (1.0 + np.exp(-a)),
                lambda dh, h: dh * h * (1.0 - h)),
}


class Mlp:
    """Dense network whose weights live in one flat parameter vector, layer
    by layer as ``W.ravel()`` then ``b``; the hidden layers and the output
    head apply the named activations of :data:`_ACTIVATIONS`."""

    def __init__(self, widths, hidden="tanh", out="linear"):
        self.widths = tuple(int(w) for w in widths)
        self.hidden, self.out = hidden, out
        self.n_params = sum(o * i + o for i, o in
                            zip(self.widths[:-1], self.widths[1:]))
        self._acts = ([_ACTIVATIONS[hidden]] * (len(self.widths) - 2)
                      + [_ACTIVATIONS[out]])

    def unpack(self, theta):
        """Slice a parameter vector into (W, b) views per layer."""
        out, off = [], 0
        for i, o in zip(self.widths[:-1], self.widths[1:]):
            W = theta[off:off + o * i].reshape(o, i)
            off += o * i
            b = theta[off:off + o]
            off += o
            out.append((W, b))
        return out

    def pack(self, layers):
        """The parameter vector of per-layer (W, b) pairs: the inverse of
        :meth:`unpack`."""
        return np.concatenate([p for W, b in layers for p in (W.ravel(), b)])

    def forward(self, x, theta, want_jac=False, want_cache=False):
        """Outputs (m, out) of the inputs x (m, in) and, with ``want_jac``,
        d out / d in (m, out, in) (else None), plus the cache
        :meth:`backward` reads.  The Jacobian needs tanh hidden layers and a
        linear head."""
        if want_jac and (self.hidden, self.out) != ("tanh", "linear"):
            raise ValueError("the input Jacobian needs tanh hidden layers and "
                             f"a linear head, not {self.hidden}/{self.out}")
        layers = self.unpack(theta)
        hs, JAs, Jhs = [x], [], [None]
        h, Jh = x, None
        last = len(layers) - 1
        for l, ((W, b), (act, _)) in enumerate(zip(layers, self._acts)):
            h = act(h @ W.T + b)
            hs.append(h)
            if want_jac:
                # at the input layer Jh = I, so JA = W (broadcast over rows)
                JA = W[None] if Jh is None else W @ Jh
                Jh = JA if l == last else (1.0 - h * h)[..., None] * JA
                JAs.append(JA)
                Jhs.append(Jh)
        cache = (hs, JAs, Jhs, layers) if want_cache else None
        return h, Jh, cache

    def backward(self, cache, dout, dJ=None):
        """dL/d in (m, in) and dL/d theta (P,) from dL/d out (m, out) and,
        after a ``want_jac`` forward, dL/d Jacobian (m, out, in)."""
        hs, JAs, Jhs, layers = cache
        dtheta = np.empty(self.n_params)
        off = self.n_params
        dh = dout
        for l in reversed(range(len(layers))):
            W, _ = layers[l]
            h = hs[l + 1]
            if dJ is None:
                da = self._acts[l][1](dh, h)
            elif l == len(layers) - 1:
                da, dJA = dh, dJ
            else:
                # h = tanh(a) and Jh = (1 - h^2) JA; d(1 - h^2)/da is
                # tanh'' = -2 tanh (1 - tanh^2)
                q = 1.0 - h * h
                dq = (dJ * JAs[l]).sum(axis=-1)
                da = q * (dh - 2.0 * h * dq)
                dJA = q[..., None] * dJ
            o, i = W.shape
            off -= o
            dtheta[off:off + o] = da.sum(axis=0)
            off -= o * i
            # dL/dW is formed in its own slice of dtheta, with no temporary
            dW = dtheta[off:off + o * i].reshape(o, i)
            np.matmul(da.T, hs[l], out=dW)
            if dJ is not None:
                # JA = W @ Jh, with Jh = I at the input layer
                dW += (dJA.sum(axis=0) if l == 0 else
                       np.einsum("moi,mhi->oh", dJA, Jhs[l]))
                if l:
                    dJ = W.T @ dJA
            dh = da @ W
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
        self.mlp = Mlp((len(self.keep_idx), *hidden, 2 * k))
        self.n_params = self.mlp.n_params

    def init_params(self, rng):
        """Scaled normal hidden weights and a zero head, so that a new layer
        starts as the identity; all biases zero."""
        shapes = list(zip(self.mlp.widths[1:], self.mlp.widths[:-1]))
        layers = [(rng.standard_normal((o, i)) / np.sqrt(i), np.zeros(o))
                  for o, i in shapes[:-1]]
        o, i = shapes[-1]
        return self.mlp.pack(layers + [(np.zeros((o, i)), np.zeros(o))])

    def enc(self, v, theta, J=None, want_cache=False):
        k = self.k_chg
        out, Jmlp, mcache = self.mlp.forward(v[:, self.keep_idx], theta,
                                             J is not None, want_cache)
        tr = np.tanh(out[:, :k])
        s = self.s_max * tr
        ens = np.exp(-s)
        u = v.copy()
        u_chg = (v[:, self.chg_idx] - out[:, k:]) * ens
        u[:, self.chg_idx] = u_chg
        ld = -s.sum(axis=1)
        M = J_keep = J_chg = None
        if J is not None:
            # d u_chg = ens d v_chg + M d v_keep
            ds_draw = self.s_max * (1.0 - tr * tr)
            M = (-ens[..., None] * Jmlp[:, k:]
                 - (u_chg * ds_draw)[..., None] * Jmlp[:, :k])
            J_keep, J_chg = J[:, self.keep_idx, :], J[:, self.chg_idx, :]
            J = J.copy()
            J[:, self.chg_idx, :] = ens[..., None] * J_chg + M @ J_keep
        cache = ((mcache, tr, ens, u_chg, Jmlp, M, J_keep, J_chg)
                 if want_cache else None)
        return u, ld, J, cache

    def backward(self, cache, du, dld, dJ=None):
        mcache, tr, ens, u_chg, Jmlp, M, J_keep, J_chg = cache
        k = self.k_chg
        ds_draw = self.s_max * (1.0 - tr * tr)
        du_chg = du[:, self.chg_idx]
        dJmlp = dJ_in = None
        if dJ is not None:
            dJ_chg = dJ[:, self.chg_idx, :]
            # M = -ens Jt - u_chg s' Jraw with s' = ds/draw = s_max (1 - tr^2)
            dM = dJ_chg @ J_keep.swapaxes(-1, -2)
            p = (Jmlp.reshape(-1, 2, k, Jmlp.shape[-1]) * dM[:, None]).sum(axis=-1)
            p_raw, p_t = p[:, 0], p[:, 1]
            du_chg = du_chg - ds_draw * p_raw
            coef = np.concatenate([u_chg * ds_draw, ens], axis=1)
            dJmlp = -coef[..., None] * np.concatenate([dM, dM], axis=1)
            dJ_in = np.empty_like(dJ)
            dJ_in[:, self.chg_idx, :] = ens[..., None] * dJ_chg
            dJ_in[:, self.keep_idx, :] = (dJ[:, self.keep_idx, :]
                                          + M.swapaxes(-1, -2) @ dJ_chg)
        dv_chg = du_chg * ens
        ds = -du_chg * u_chg - dld[:, None]
        if dJ is not None:
            # through ens, and ds'/draw = -2 s_max tr (1 - tr^2): the tanh''
            # term of the scale
            ds = (ds - ens * ((dJ_chg * J_chg).sum(axis=-1) - p_t)
                  + 2.0 * tr * u_chg * p_raw)
        dout = np.concatenate([ds * ds_draw, -dv_chg], axis=1)
        dh, dtheta = self.mlp.backward(mcache, dout, dJmlp)
        dv = np.empty_like(du)
        dv[:, self.chg_idx] = dv_chg
        dv[:, self.keep_idx] = du[:, self.keep_idx] + dh
        return dv, dJ_in, dtheta

    def dec(self, u, theta):
        k = self.k_chg
        out, _, _ = self.mlp.forward(u[:, self.keep_idx], theta)
        s = self.s_max * np.tanh(out[:, :k])
        v = u.copy()
        v[:, self.chg_idx] = u[:, self.chg_idx] * np.exp(s) + out[:, k:]
        return v

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

    def enc(self, v, theta, J=None, want_cache=False):
        return (v[:, self.inv], np.zeros(v.shape[0]),
                None if J is None else J[:, self.inv, :], None)

    def backward(self, cache, du, dld, dJ=None):
        return (du[:, self.perm], None if dJ is None else dJ[:, self.perm, :],
                np.empty(0))

    def dec(self, u, theta):
        return u[:, self.perm]

    def descriptor(self):
        return {"layer": "permutation", "perm": list(self.perm)}


class AffineLayer:
    """Element-wise affine v = exp(log_a) * u + b."""

    def __init__(self, n):
        self.n = n
        self.n_params = 2 * n

    def init_params(self, rng):
        return np.zeros(2 * self.n)

    def enc(self, v, theta, J=None, want_cache=False):
        la, b = theta[:self.n], theta[self.n:]
        ena = np.exp(-la)
        u = (v - b) * ena
        ld = np.full(v.shape[0], -float(la.sum()))
        if J is not None:
            J = ena[:, None] * J
        return u, ld, J, (ena, u, J) if want_cache else None

    def backward(self, cache, du, dld, dJ=None):
        ena, u, J = cache
        dv = du * ena
        dla = (-du * u).sum(axis=0) - dld.sum()
        if dJ is not None:
            dla = dla - (dJ * J).sum(axis=(0, 2))
            dJ = ena[:, None] * dJ
        return dv, dJ, np.concatenate([dla, -dv.sum(axis=0)])

    def dec(self, u, theta):
        la, b = theta[:self.n], theta[self.n:]
        return u * np.exp(la) + b

    def descriptor(self):
        return {"layer": "affine", "n": self.n}


_LAYER_KINDS = {
    "coupling": lambda d: CouplingLayer(d["n"],
                                        np.isin(np.arange(d["n"]), d["keep"]),
                                        tuple(d["hidden"]), d["s_max"]),
    "permutation": lambda d: PermLayer(d["perm"]),
    "affine": lambda d: AffineLayer(d["n"]),
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
        return theta[self.offsets[i]:self.offsets[i + 1]]

    def init_params(self, seed):
        rng = spawn(seed, "flow-init")
        self.theta = np.concatenate([l.init_params(rng) for l in self.layers]) \
            if self.n_params else np.empty(0)
        return self.theta

    def with_theta(self, theta):
        return FlowModel(self.layers, theta)

    # -- evaluation ------------------------------------------------------------

    def encode(self, x, theta=None, want_cache=False, want_jac=False):
        """Data -> latent: returns (z, per-sample log|det J_encode|, J,
        caches), where J is the encoder Jacobian dz/dx (m, n, n) with
        ``want_jac`` and None without."""
        theta = self.theta if theta is None else theta
        x = np.atleast_2d(np.asarray(x, dtype=float))
        m = x.shape[0]
        ld = np.zeros(m)
        J = (np.broadcast_to(np.eye(self.n), (m, self.n, self.n)) if want_jac
             else None)
        caches = [None] * len(self.layers)
        cur = x
        for i in reversed(range(len(self.layers))):
            cur, ld_i, J, caches[i] = self.layers[i].enc(
                cur, self._slice(theta, i), J, want_cache)
            ld = ld + ld_i
        return cur, ld, J, caches

    def encode_backward(self, caches, dz, dld, dJ=None):
        """Gradient of a scalar loss wrt theta, given dL/dz, dL/dlogdet and,
        after a ``want_jac`` encode, dL/dJ."""
        parts = [None] * len(self.layers)
        d = dz
        for i in range(len(self.layers)):
            d, dJ, parts[i] = self.layers[i].backward(caches[i], d, dld, dJ)
        return np.concatenate(parts)

    def decode(self, z, theta=None):
        theta = self.theta if theta is None else theta
        cur = np.atleast_2d(np.asarray(z, dtype=float))
        for i in range(len(self.layers)):
            cur = self.layers[i].dec(cur, self._slice(theta, i))
        return cur

    def encode_jacobian_q(self, x, theta):
        """Encoder Jacobians dz/dx (m, n, n) at the rows of x."""
        return self.encode(x, theta, want_jac=True)[2]

    def round_trip_error(self, x, theta=None):
        z, _, _, _ = self.encode(x, theta)
        return float(np.max(np.abs(self.decode(z, theta) - np.atleast_2d(x))))

    def to_dict(self):
        return {"layers": [l.descriptor() for l in self.layers],
                "theta": self.theta.tolist()}

    @staticmethod
    def from_dict(d):
        layers = []
        for ld in d["layers"]:
            make = _LAYER_KINDS.get(ld["layer"])
            if make is None:
                raise ConfigError(f"unknown flow layer kind {ld['layer']!r}; "
                                  f"known: {', '.join(_LAYER_KINDS)}")
            layers.append(make(ld))
        return FlowModel(layers, np.asarray(d["theta"]))


def default_bss_flow(n, n_couplings=6, hidden=(16,), s_max=3.0):
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
    z, ld, _, _ = flow.encode(arr)
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


def cima_of_decoder(flow: FlowModel, theta, x_probe):
    """Mean local IMA contrast of g^(-1) at the probe points' images.

    Evaluated from the encoder Jacobian: J_{g^(-1)}(g(x)) = J_g(x)^(-1).
    """
    J_enc = flow.encode_jacobian_q(x_probe, theta)
    return float(_decoder_contrast(J_enc)[0].mean())


def cima_value_and_grad(flow: FlowModel, theta, x_probe):
    """Mean IMA penalty of the decoder and its exact gradient over theta.

    The Jacobian-carrying encode keeps every layer's cache; the reverse
    sweep, with dL/dlogdet = 0, then carries dL/dv and dL/dJ back through
    the layers (reverse mode over a forward-mode recursion).
    """
    m = x_probe.shape[0]
    z, _, J, caches = flow.encode(x_probe, theta, want_cache=True,
                                  want_jac=True)
    vals, dJ = _decoder_contrast(J, want_grad=True)
    grad = flow.encode_backward(caches, np.zeros_like(z), np.zeros(m), dJ / m)
    return float(vals.mean()), grad


def cima_fd_grad(flow: FlowModel, theta, x_probe, h_rel=1e-4):
    """Central-difference gradient of the IMA penalty over all parameters:
    the independent reference for :func:`cima_value_and_grad`."""
    h = h_rel * (1.0 + np.abs(theta))
    grad = np.empty(theta.size)
    for j in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[j] += h[j]
        down[j] -= h[j]
        grad[j] = (cima_of_decoder(flow, up, x_probe)
                   - cima_of_decoder(flow, down, x_probe)) / (2.0 * h[j])
    return grad


# ---------------------------------------------------------------------------
# maximum likelihood training (optionally IMA-regularized)
# ---------------------------------------------------------------------------


def _nll_and_grad(flow, theta, xb, base):
    z, ld, _, caches = flow.encode(xb, theta, want_cache=True)
    m = xb.shape[0]
    nll = -float(np.mean(base.logpdf(z) + ld))
    dz = -base.grad(z) / m
    dld = np.full(m, -1.0 / m)
    grad = flow.encode_backward(caches, dz, dld)
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
        z, ld, _, _ = flow.encode(x_va, th)
        obj = -float(np.mean(base.logpdf(z) + ld))
        if lam > 0:
            obj += lam * cima_of_decoder(flow, th, va_probe)
        return obj

    res = fit(flow.theta, tr_idx, cfg.batch_size, loss_and_grad, val_objective, cfg)
    res.model = flow.with_theta(res.model)
    return res


# ---------------------------------------------------------------------------
# alignment training for an invertible encoder (flow)
# ---------------------------------------------------------------------------


def _align_loss_and_grad(flow, theta, xa, xb, n_content):
    za, _, _, ca = flow.encode(xa, theta, want_cache=True)
    zb, _, _, cb = flow.encode(xb, theta, want_cache=True)
    m = xa.shape[0]
    diff = za[:, :n_content] - zb[:, :n_content]
    loss = float(np.sum(diff * diff) / m)
    dza = np.zeros_like(za)
    dzb = np.zeros_like(zb)
    dza[:, :n_content] = 2.0 * diff / m
    dzb[:, :n_content] = -2.0 * diff / m
    zeros = np.zeros(m)
    grad = (flow.encode_backward(ca, dza, zeros)
            + flow.encode_backward(cb, dzb, zeros))
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


class EncoderMlp(Mlp):
    """The InfoNCE encoder: an :class:`Mlp` with leaky-ReLU hidden layers and
    a sigmoid output head, which holds its own parameter vector ``theta``."""

    def __init__(self, widths, theta=None):
        super().__init__(widths, hidden="leaky", out="sigmoid")
        self.theta = (np.zeros(self.n_params) if theta is None
                      else np.asarray(theta, dtype=float).copy())

    def init_params(self, seed):
        """He-normal weights and zero biases."""
        rng = spawn(seed, "encoder-init")
        self.theta = self.pack(
            [(rng.standard_normal((o, i)) * np.sqrt(2.0 / i), np.zeros(o))
             for i, o in zip(self.widths[:-1], self.widths[1:])])
        return self.theta

    def with_theta(self, theta):
        return EncoderMlp(self.widths, theta)

    def to_dict(self):
        return {"widths": list(self.widths), "theta": self.theta.tolist()}

    @staticmethod
    def from_dict(d):
        if d.get("slope", _LEAK) != _LEAK:
            raise ConfigError(f"encoder slope {d['slope']!r} is not {_LEAK}")
        return EncoderMlp(d["widths"], np.asarray(d["theta"]))


def info_nce_loss(za, zb, tau):
    """InfoNCE with negative squared distance similarity; rows are pairs."""
    d2 = (np.sum(za * za, axis=1)[:, None] + np.sum(zb * zb, axis=1)[None, :]
          - 2.0 * za @ zb.T)
    S = -d2 / tau
    S_max = S.max(axis=1, keepdims=True)
    lse = S_max[:, 0] + np.log(np.sum(np.exp(S - S_max), axis=1))
    return float(np.mean(lse - np.diag(S))), S, lse


def _info_nce_grad(enc, theta, xa, xb, tau):
    za, _, ca = enc.forward(xa, theta, want_cache=True)
    zb, _, cb = enc.forward(xb, theta, want_cache=True)
    loss, S, lse = info_nce_loss(za, zb, tau)
    K = za.shape[0]
    dS = np.exp(S - lse[:, None])
    dS.flat[::K + 1] -= 1.0
    dS /= K
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
            loss, _, _ = info_nce_loss(encoder.forward(xa[sel], th)[0],
                                       encoder.forward(xb[sel], th)[0], tau)
            total += loss * sel.size
            count += sel.size
        return total / max(count, 1)

    monitor = xa[tr_idx[:512]]
    low_var_run = 0
    collapsed = False

    def watch_collapse(th):
        nonlocal low_var_run, collapsed
        if np.all(encoder.forward(monitor, th)[0].var(axis=0) < 1e-6):
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
