"""Invertible differentiable mixing functions with analytic Jacobians.

All maps are immutable and vectorized: ``forward``/``inverse`` accept a single
vector or a matrix of row vectors, ``jacobian`` returns ``(n, n)`` for a
vector and ``(m, n, n)`` for a batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .rng import spawn


def _as_batch(s, n):
    arr = np.asarray(s, dtype=float)
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    if arr.shape[1] != n:
        raise ValueError(f"expected vectors of length {n}, got {arr.shape}")
    return arr, single


class MixingMap:
    """Base class: a diffeomorphism from R^n (or a declared domain) onto its image."""

    n: int

    def forward(self, s):
        arr, single = _as_batch(s, self.n)
        out = self._forward(arr)
        return out[0] if single else out

    def inverse(self, x):
        arr, single = _as_batch(x, self.n)
        out = self._inverse(arr)
        return out[0] if single else out

    def jacobian(self, s):
        arr, single = _as_batch(s, self.n)
        out = self._jacobian(arr)
        return out[0] if single else out

    # subclasses implement the batch versions
    def _forward(self, s):
        raise NotImplementedError

    def _inverse(self, x):
        raise NotImplementedError

    def _jacobian(self, s):
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class PolarToCartesian(MixingMap):
    """(r, theta) -> (r cos theta, r sin theta); r > 0, theta in [0, 2 pi)."""

    n: int = 2

    def __post_init__(self):
        if self.n != 2:
            raise ValueError("polar map is two-dimensional")

    def _forward(self, s):
        r, th = s[:, 0], s[:, 1]
        if np.any(r <= 0):
            raise DomainError("polar map needs r > 0")
        return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)

    def _inverse(self, x):
        r = np.hypot(x[:, 0], x[:, 1])
        if np.any(r == 0):
            raise DomainError("origin is not in the image of the polar map")
        th = np.mod(np.arctan2(x[:, 1], x[:, 0]), 2 * np.pi)
        return np.stack([r, th], axis=1)

    def _jacobian(self, s):
        r, th = s[:, 0], s[:, 1]
        if np.any(r <= 0):
            raise DomainError("polar map needs r > 0")
        J = np.empty((s.shape[0], 2, 2))
        J[:, 0, 0] = np.cos(th)
        J[:, 0, 1] = -r * np.sin(th)
        J[:, 1, 0] = np.sin(th)
        J[:, 1, 1] = r * np.cos(th)
        return J

    def to_dict(self):
        return {"variant": "polar"}


# -- element-wise diffeomorphisms -------------------------------------------


def _cubic_inverse(y):
    # real root of v^3 + v = y (Cardano; the discriminant is always positive)
    disc = np.sqrt(y * y / 4.0 + 1.0 / 27.0)
    return np.cbrt(y / 2.0 + disc) + np.cbrt(y / 2.0 - disc)


class _Coord:
    """One scalar monotone transform used inside :class:`Elementwise`."""

    def __init__(self, spec):
        if isinstance(spec, str):
            spec = (spec,)
        kind = spec[0]
        if kind == "identity":
            self.value = lambda v: v
            self.deriv = lambda v: np.ones_like(v)
            self.inv = lambda y: y
        elif kind == "cubic":  # v -> v^3 + v
            self.value = lambda v: v**3 + v
            self.deriv = lambda v: 3.0 * v**2 + 1.0
            self.inv = _cubic_inverse
        elif kind == "affine":
            a, b = float(spec[1]), float(spec[2])
            if a == 0:
                raise ValueError("affine coordinate map needs a != 0")
            self.value = lambda v: a * v + b
            self.deriv = lambda v: np.full_like(v, a)
            self.inv = lambda y: (y - b) / a
        elif kind == "sinh":
            self.value = np.sinh
            self.deriv = np.cosh
            self.inv = np.arcsinh
        else:
            raise ValueError(f"unknown coordinate transform {kind!r}")
        self.spec = tuple(spec)


class Elementwise(MixingMap):
    """Independent strictly monotone map per coordinate."""

    def __init__(self, transforms):
        self._coords = [_Coord(t) for t in transforms]
        self.n = len(self._coords)
        if self.n == 0:
            raise ValueError("need at least one coordinate")

    @property
    def coords(self):
        """Per-coordinate transforms exposing value/deriv/inv."""
        return tuple(self._coords)

    def _forward(self, s):
        return np.stack([c.value(s[:, i]) for i, c in enumerate(self._coords)], axis=1)

    def _inverse(self, x):
        return np.stack([c.inv(x[:, i]) for i, c in enumerate(self._coords)], axis=1)

    def _jacobian(self, s):
        J = np.zeros((s.shape[0], self.n, self.n))
        for i, c in enumerate(self._coords):
            J[:, i, i] = c.deriv(s[:, i])
        return J

    def to_dict(self):
        return {"variant": "elementwise",
                "transforms": [list(c.spec) for c in self._coords]}


class Permutation(MixingMap):
    """Index remap: output i equals input perm[i]."""

    def __init__(self, perm):
        perm = tuple(int(p) for p in perm)
        if sorted(perm) != list(range(len(perm))):
            raise ValueError("not a permutation")
        self.perm = perm
        self.n = len(perm)
        inv = [0] * self.n
        for i, p in enumerate(perm):
            inv[p] = i
        self.inv_perm = tuple(inv)

    def _forward(self, s):
        return s[:, self.perm]

    def _inverse(self, x):
        return x[:, self.inv_perm]

    def _jacobian(self, s):
        J = np.zeros((s.shape[0], self.n, self.n))
        J[:, np.arange(self.n), self.perm] = 1.0
        return J

    def matrix(self) -> np.ndarray:
        P = np.zeros((self.n, self.n))
        P[np.arange(self.n), self.perm] = 1.0
        return P

    def to_dict(self):
        return {"variant": "permutation", "perm": list(self.perm)}


class Composition(MixingMap):
    """Applies the component maps in list order."""

    def __init__(self, maps):
        maps = list(maps)
        if not maps:
            raise ValueError("empty composition")
        n = maps[0].n
        if any(m.n != n for m in maps):
            raise ValueError("all component maps must share the dimension")
        self.maps = maps
        self.n = n

    def _forward(self, s):
        for m in self.maps:
            s = m._forward(s)
        return s

    def _inverse(self, x):
        for m in reversed(self.maps):
            x = m._inverse(x)
        return x

    def _jacobian(self, s):
        J = np.broadcast_to(np.eye(self.n), (s.shape[0], self.n, self.n)).copy()
        cur = s
        for m in self.maps:
            J = m._jacobian(cur) @ J
            cur = m._forward(cur)
        return J

    def to_dict(self):
        return {"variant": "composition", "maps": [m.to_dict() for m in self.maps]}


class Inverted(MixingMap):
    """The inverse of another map, as a map of its own."""

    def __init__(self, inner: MixingMap):
        self.inner = inner
        self.n = inner.n

    def _forward(self, s):
        return self.inner._inverse(s)

    def _inverse(self, x):
        return self.inner._forward(x)

    def _jacobian(self, s):
        pre = self.inner._inverse(s)
        return np.linalg.inv(self.inner._jacobian(pre))

    def to_dict(self):
        return {"variant": "inverted", "inner": self.inner.to_dict()}


class Moebius(MixingMap):
    """Conformal map b + scale * R (s-a) / ||s-a||^2 (or without the inversion).

    With ``invert=True`` this is the standard inversion-in-sphere form, a
    conformal transformation with a singularity at ``a``; parameters produced
    by :func:`random_moebius` keep that singularity outside the sampling
    domain by rejection.
    """

    def __init__(self, center_in, offset_out, rotation, scale=1.0, invert=True):
        a = np.asarray(center_in, dtype=float)
        b = np.asarray(offset_out, dtype=float)
        R = np.asarray(rotation, dtype=float)
        n = a.shape[0]
        if b.shape != (n,) or R.shape != (n, n):
            raise ValueError("inconsistent Moebius parameter shapes")
        if not np.allclose(R @ R.T, np.eye(n), atol=1e-10):
            raise ValueError("rotation must be orthogonal")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.a, self.b, self.R = a, b, R
        self.scale = float(scale)
        self.invert = bool(invert)
        self.n = n

    def _forward(self, s):
        u = s - self.a
        if self.invert:
            r2 = np.sum(u * u, axis=1, keepdims=True)
            if np.any(r2 < 1e-24):
                raise DomainError("input coincides with the Moebius center")
            u = u / r2
        return self.b + self.scale * u @ self.R.T

    def _inverse(self, x):
        y = (x - self.b) @ self.R / self.scale
        if self.invert:
            r2 = np.sum(y * y, axis=1, keepdims=True)
            if np.any(r2 < 1e-24):
                raise DomainError("point is not in the image of the Moebius map")
            y = y / r2
        return self.a + y

    def _jacobian(self, s):
        m = s.shape[0]
        if not self.invert:
            return np.broadcast_to(self.scale * self.R, (m, self.n, self.n)).copy()
        u = s - self.a
        r2 = np.sum(u * u, axis=1)
        if np.any(r2 < 1e-24):
            raise DomainError("input coincides with the Moebius center")
        uhat = u / np.sqrt(r2)[:, None]
        H = np.eye(self.n)[None] - 2.0 * uhat[:, :, None] * uhat[:, None, :]
        return (self.scale / r2)[:, None, None] * (self.R[None] @ H)

    def to_dict(self):
        return {"variant": "moebius", "center_in": self.a.tolist(),
                "offset_out": self.b.tolist(), "rotation": self.R.tolist(),
                "scale": self.scale, "invert": self.invert}


class InvertibleMlp(MixingMap):
    """Square MLP with orthogonal weights and leaky-tanh activations.

    The activation ``t(x) = tanh(x) + slope * x`` is strictly increasing, so
    the map is invertible layer by layer: linear solves by LU, activations by
    a safeguarded per-coordinate Newton iteration.
    """

    def __init__(self, weights, biases, slope=0.2):
        self.weights = [np.asarray(W, dtype=float) for W in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        if not self.weights or len(self.weights) != len(self.biases):
            raise ValueError("need matching weights and biases")
        n = self.weights[0].shape[0]
        for W, b in zip(self.weights, self.biases):
            if W.shape != (n, n) or b.shape != (n,):
                raise ValueError("all layers must be square of equal size")
        self.slope = float(slope)
        if self.slope <= 0:
            raise ValueError("leaky-tanh slope must be positive")
        self.n = n
        self.n_layers = len(self.weights)

    # activation helpers
    def _act(self, x):
        return np.tanh(x) + self.slope * x

    def _act_deriv(self, x):
        t = np.tanh(x)
        return 1.0 - t * t + self.slope

    def _act_inverse(self, y, tol=1e-12, max_iter=100):
        # monotone scalar Newton with a bisection safeguard
        x = y / (1.0 + self.slope)
        lo = np.minimum(x, (y - 1.0) / self.slope)
        hi = np.maximum(x, (y + 1.0) / self.slope)
        for _ in range(max_iter):
            f = self._act(x) - y
            if np.all(np.abs(f) < tol):
                return x
            lo = np.where(f < 0, np.maximum(lo, x), lo)
            hi = np.where(f > 0, np.minimum(hi, x), hi)
            step = f / self._act_deriv(x)
            x_new = x - step
            bad = (x_new <= lo) | (x_new >= hi)
            x = np.where(bad, 0.5 * (lo + hi), x_new)
        resid = float(np.max(np.abs(self._act(x) - y)))
        raise ConvergenceError("leaky-tanh inversion did not converge", resid)

    def _forward(self, s):
        h = s
        for l, (W, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ W.T + b
            if l < self.n_layers - 1:
                h = self._act(h)
        return h

    def _inverse(self, x):
        h = x
        for l in reversed(range(self.n_layers)):
            if l < self.n_layers - 1:
                h = self._act_inverse(h)
            h = np.linalg.solve(self.weights[l], (h - self.biases[l]).T).T
        return h

    def _jacobian(self, s):
        m = s.shape[0]
        J = np.broadcast_to(self.weights[0], (m, self.n, self.n)).copy()
        h = s @ self.weights[0].T + self.biases[0]
        for l in range(1, self.n_layers):
            J = self._act_deriv(h)[:, :, None] * J
            h = self._act(h)
            J = self.weights[l][None] @ J
            h = h @ self.weights[l].T + self.biases[l]
        return J

    def to_dict(self):
        return {"variant": "invertible-mlp",
                "weights": [W.tolist() for W in self.weights],
                "biases": [b.tolist() for b in self.biases],
                "slope": self.slope}


# ---------------------------------------------------------------------------
# constructors and registry
# ---------------------------------------------------------------------------


def rotation_2d(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def random_orthogonal(n: int, rng) -> np.ndarray:
    A = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.diag(R))


def random_moebius(n: int, seed: int, domain_low=0.0, domain_high=1.0,
                   margin=0.5) -> Moebius:
    """Random conformal Moebius map whose singularity avoids the sampling box.

    The singularity center is drawn uniformly in an enlarged box and rejected
    until it is at least ``margin`` away from the domain.
    """
    rng = spawn(seed, "moebius")
    lo = np.full(n, domain_low)
    hi = np.full(n, domain_high)
    for _ in range(1000):
        a = rng.uniform(lo - 2.0, hi + 2.0)
        gap = np.maximum(lo - a, a - hi)
        if np.max(gap) >= margin:
            break
    else:  # pragma: no cover - rejection practically always succeeds
        raise RuntimeError("failed to sample a Moebius center outside the domain")
    R = random_orthogonal(n, rng)
    b = rng.uniform(-0.5, 0.5, size=n)
    scale = rng.uniform(0.5, 2.0)
    return Moebius(a, b, R, scale, invert=True)


def random_invertible_mlp(n: int, n_layers: int, seed: int, slope=0.2,
                          bias_scale=0.0) -> InvertibleMlp:
    rng = spawn(seed, "mlp-mixing")
    weights = [random_orthogonal(n, rng) for _ in range(n_layers)]
    biases = [bias_scale * rng.standard_normal(n) for _ in range(n_layers)]
    return InvertibleMlp(weights, biases, slope)


def mixing_from_dict(d: dict) -> MixingMap:
    variant = d["variant"]
    if variant == "polar":
        return PolarToCartesian()
    if variant == "elementwise":
        return Elementwise([tuple(t) for t in d["transforms"]])
    if variant == "permutation":
        return Permutation(d["perm"])
    if variant == "composition":
        return Composition([mixing_from_dict(m) for m in d["maps"]])
    if variant == "inverted":
        return Inverted(mixing_from_dict(d["inner"]))
    if variant == "moebius":
        return Moebius(d["center_in"], d["offset_out"], d["rotation"],
                       d.get("scale", 1.0), d.get("invert", True))
    if variant == "invertible-mlp":
        return InvertibleMlp(d["weights"], d["biases"], d.get("slope", 0.2))
    if variant == "mpa":
        # spurious builds on this module, so import it only when needed
        from .spurious import MpaMap, marginal_from_dict
        return MpaMap(d["rotation"], [marginal_from_dict(m) for m in d["marginals"]],
                      d.get("clamp_eps", 1e-12))
    raise ValueError(f"unknown mixing variant {variant!r}")
