"""Spurious nonlinear-ICA solutions used as negative controls.

Both are ``MixingMap`` objects that round-trip through ``mixing_from_dict``:

* The Darmois construction g: R^n -> (0,1)^n, the recursive conditional-CDF
  transform: stage i maps x_i to its conditional CDF given x_{1:i-1}, so the
  output is jointly uniform on the unit hypercube and the Jacobian is lower
  triangular with determinant equal to the joint density.
  ``AnalyticGaussianDarmois(mean, cov)`` is its closed form for jointly
  Gaussian observations; ``EmpiricalDarmois(samples)`` is a deterministic
  kernel estimator built from samples (no training involved).  The map is
  the uniformizer g; ``Inverted(g)`` is the spurious mixing that sends
  uniform sources to the observations.
* Rotated-Gaussian measure-preserving automorphisms that remix sources
  without changing their distribution (``mpa.forward``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import CapacityError, DomainError, SampleSizeError, SingularityError
from .metrics import median_distance
from .mixing import MixingMap, monotone_solve

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))


def _phi(z):
    return np.exp(-0.5 * z * z) / _SQRT_2PI


# ---------------------------------------------------------------------------
# marginal CDF descriptors (shared by the MPA and empirical Darmois stages)
# ---------------------------------------------------------------------------


class Marginal:
    """A scalar distribution with smooth cdf / pdf / ppf."""

    def cdf(self, x):
        raise NotImplementedError

    def pdf(self, x):
        raise NotImplementedError

    def ppf(self, u):
        raise NotImplementedError

    def to_dict(self):
        raise NotImplementedError


@dataclass(frozen=True)
class UniformMarginal(Marginal):
    low: float = 0.0
    high: float = 1.0

    def cdf(self, x):
        return np.clip((np.asarray(x, dtype=float) - self.low) / (self.high - self.low),
                       0.0, 1.0)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.low) & (x <= self.high)
        return np.where(inside, 1.0 / (self.high - self.low), 0.0)

    def ppf(self, u):
        return self.low + (self.high - self.low) * np.asarray(u, dtype=float)

    def to_dict(self):
        return {"kind": "uniform", "low": self.low, "high": self.high}


@dataclass(frozen=True)
class GaussianMarginal(Marginal):
    mean: float = 0.0
    sigma: float = 1.0

    def cdf(self, x):
        return ndtr((np.asarray(x, dtype=float) - self.mean) / self.sigma)

    def pdf(self, x):
        return _phi((np.asarray(x, dtype=float) - self.mean) / self.sigma) / self.sigma

    def ppf(self, u):
        return self.mean + self.sigma * ndtri(np.asarray(u, dtype=float))

    def to_dict(self):
        return {"kind": "gaussian", "mean": self.mean, "sigma": self.sigma}


class EmpiricalMarginal(Marginal):
    """Kernel-smoothed CDF built from samples (strictly increasing)."""

    def __init__(self, samples, max_reference: int = 2000):
        samples = np.sort(np.asarray(samples, dtype=float))
        if samples.size < 100:
            raise SampleSizeError("empirical marginal needs at least 100 samples")
        if samples.size > max_reference:
            idx = np.unique(np.linspace(0, samples.size - 1, max_reference).astype(int))
            samples = samples[idx]
        self.ref = samples
        self.bandwidth = float(np.std(samples) * samples.size ** (-1.0 / 3.0))
        if self.bandwidth <= 0:
            raise SingularityError("degenerate sample column")

    def cdf(self, x):
        z = (np.asarray(x, dtype=float)[..., None] - self.ref) / self.bandwidth
        return np.mean(ndtr(z), axis=-1)

    def pdf(self, x):
        z = (np.asarray(x, dtype=float)[..., None] - self.ref) / self.bandwidth
        return np.mean(_phi(z), axis=-1) / self.bandwidth

    def ppf(self, u, tol=1e-11, max_iter=200):
        u = np.asarray(u, dtype=float)
        lo = np.full(u.shape, self.ref[0] - 12 * self.bandwidth)
        hi = np.full(u.shape, self.ref[-1] + 12 * self.bandwidth)
        x = np.interp(u, np.linspace(0, 1, self.ref.size), self.ref)
        return monotone_solve(lambda v: (self.cdf(v), self.pdf(v)), u, x, lo, hi,
                              tol, max_iter, "empirical ppf")

    def to_dict(self):
        return {"kind": "empirical", "reference": self.ref.tolist()}


def marginal_from_dict(d: dict) -> Marginal:
    kind = d["kind"]
    if kind == "uniform":
        return UniformMarginal(d["low"], d["high"])
    if kind == "gaussian":
        return GaussianMarginal(d["mean"], d["sigma"])
    if kind == "empirical":
        return EmpiricalMarginal(np.asarray(d["reference"]))
    raise ValueError(f"unknown marginal kind {kind!r}")


# ---------------------------------------------------------------------------
# Darmois construction
# ---------------------------------------------------------------------------


_OPEN_LO = 1e-300
_OPEN_HI = float(np.nextafter(1.0, 0.0))


def _to_open_cube(u):
    # CDF values saturate to exactly 0/1 in floating point beyond ~8 sigma;
    # keep the declared open-cube range
    return np.clip(u, _OPEN_LO, _OPEN_HI)


def _check_open_cube(u):
    if np.any((u <= 0) | (u >= 1)):
        raise DomainError("Darmois inverse needs coordinates in (0,1)")


class AnalyticGaussianDarmois(MixingMap):
    def __init__(self, mean, cov):
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        n = mean.size
        if cov.shape != (n, n):
            raise ValueError("covariance shape mismatch")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise SingularityError("covariance must be positive definite") from exc
        self.n = n
        self.mean = mean
        self.cov = cov
        # per-stage regression coefficients and conditional stddevs
        self._beta = []
        self._sigma = []
        for i in range(n):
            if i == 0:
                beta = np.zeros(0)
                var = cov[0, 0]
            else:
                beta = np.linalg.solve(cov[:i, :i], cov[:i, i])
                var = cov[i, i] - cov[i, :i] @ beta
            if var <= 0:
                raise SingularityError("conditional variance collapsed")
            self._beta.append(beta)
            self._sigma.append(float(np.sqrt(var)))

    def _cond_mean(self, i, x):
        if i == 0:
            return np.full(x.shape[0], self.mean[0])
        return self.mean[i] + (x[:, :i] - self.mean[:i]) @ self._beta[i]

    def _forward(self, x):
        out = np.empty_like(x)
        for i in range(self.n):
            out[:, i] = ndtr((x[:, i] - self._cond_mean(i, x)) / self._sigma[i])
        return _to_open_cube(out)

    def _jacobian(self, x):
        m = x.shape[0]
        J = np.zeros((m, self.n, self.n))
        for i in range(self.n):
            z = (x[:, i] - self._cond_mean(i, x)) / self._sigma[i]
            dens = _phi(z) / self._sigma[i]
            J[:, i, i] = dens
            if i > 0:
                J[:, i, :i] = -dens[:, None] * self._beta[i][None, :]
        return J

    def _inverse(self, u):
        _check_open_cube(u)
        x = np.empty_like(u)
        for i in range(self.n):
            x[:, i] = self._cond_mean(i, x) + self._sigma[i] * ndtri(u[:, i])
        return x

    def to_dict(self):
        return {"variant": "darmois-gaussian", "mean": self.mean.tolist(),
                "cov": self.cov.tolist()}


class EmpiricalDarmois(MixingMap):
    """Kernel conditional-CDF stages built from a sample matrix.

    Stage 1 is a kernel-smoothed empirical CDF; stage i >= 2 weights the
    reference points by a Gaussian kernel in the conditioning coordinates
    (bandwidth: median pairwise distance times N^(-1/(4+dim_cond))) and
    accumulates a smoothed indicator in the own coordinate.  Reference points
    are subsampled deterministically for tractability of the kernel sums; a
    sample of at most ``max_reference`` rows is the reference as it is.
    """

    def __init__(self, samples, max_reference: int = 2000):
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 2:
            raise ValueError("samples must be a matrix")
        n = samples.shape[1]
        if n > 3:
            raise CapacityError("empirical Darmois is limited to n <= 3")
        # the floor holds for the reference too, so to_dict rebuilds the map
        if min(samples.shape[0], max_reference) < 1000:
            raise SampleSizeError("empirical Darmois needs 1000 reference samples")
        self.n = n
        n_build = samples.shape[0]
        if n_build > max_reference:
            idx = np.unique(
                np.linspace(0, n_build - 1, max_reference).astype(int)
            )
            ref = samples[np.argsort(samples[:, 0])][idx]
        else:
            ref = samples
        self.ref = ref
        m = ref.shape[0]
        # own-coordinate smoothing is only there to make the stages strictly
        # increasing and differentiable; keep it narrow so the pushforward
        # stays uniform well within KS resolution
        self._h_own = np.std(ref, axis=0) * m ** (-0.5)
        if np.any(self._h_own <= 0):
            raise SingularityError("degenerate sample column")
        # conditioning bandwidth: median pairwise distance times N^(-1/(4+dim_cond)),
        # with N the reference-sample count entering the kernel sums
        self._h_cond = []
        for i in range(n):
            if i == 0:
                self._h_cond.append(None)
                continue
            med = median_distance(ref[:: max(1, m // 500), :i])
            h = max(med, 1e-3) * m ** (-1.0 / (4 + i))
            self._h_cond.append(h)

    def _weights(self, i, x):
        """Stage-i kernel weights of the reference points, their row sums
        and the conditioning differences (None at stage 0) they come from;
        all depend on the conditioning coordinates ``x[:, :i]`` only."""
        if i == 0:
            w, diff = np.ones((x.shape[0], self.ref.shape[0])), None
        else:
            diff = x[:, None, :i] - self.ref[None, :, :i]
            w = np.exp(-0.5 * np.sum(diff * diff, axis=-1) / self._h_cond[i] ** 2)
        return w, np.sum(w, axis=1), diff

    def _stage(self, i, x, deriv=None, weights=None):
        """Stage-i conditional CDF values and, with ``deriv="own"``, their
        derivative in coordinate i, or with ``deriv="full"``, their gradient.
        ``weights`` is ``_weights(i, x)[:2]`` when the caller already has it;
        ``deriv="full"`` needs the differences, so it takes none."""
        w, B, diff = self._weights(i, x) if weights is None else (*weights, None)
        zi = (x[:, i, None] - self.ref[None, :, i]) / self._h_own[i]
        Phi = ndtr(zi)
        A = np.sum(w * Phi, axis=1)
        val = A / B
        if deriv is None:
            return val, None
        own = np.sum(w * _phi(zi), axis=1) / (self._h_own[i] * B)
        if deriv == "own":
            return val, own
        grad = np.zeros((x.shape[0], self.n))
        grad[:, i] = own
        if i > 0:
            # d w / d x_k = -w * diff_k / h^2 for conditioning coordinate k
            dw = -w[:, :, None] * diff / self._h_cond[i] ** 2
            dA = np.sum(dw * Phi[:, :, None], axis=1)
            dB = np.sum(dw, axis=1)
            grad[:, :i] = (dA * B[:, None] - A[:, None] * dB) / (B * B)[:, None]
        return val, grad

    _EVAL_CHUNK = 2048  # keeps (chunk, m_ref) kernel matrices small

    def _forward(self, x):
        out = np.empty_like(x)
        for a in range(0, x.shape[0], self._EVAL_CHUNK):
            blk = x[a:a + self._EVAL_CHUNK]
            for i in range(self.n):
                out[a:a + self._EVAL_CHUNK, i], _ = self._stage(i, blk)
        return _to_open_cube(out)

    def _jacobian(self, x):
        J = np.zeros((x.shape[0], self.n, self.n))
        for a in range(0, x.shape[0], self._EVAL_CHUNK):
            blk = x[a:a + self._EVAL_CHUNK]
            for i in range(self.n):
                _, grad = self._stage(i, blk, deriv="full")
                J[a:a + self._EVAL_CHUNK, i, :] = grad
        return J

    def _inverse(self, u, tol=1e-10, max_iter=200):
        _check_open_cube(u)
        x = np.zeros((u.shape[0], self.n))
        for i in range(self.n):
            # x[:, :i] is solved already, so the weights are fixed while
            # stage i is; the differences they come from are dropped here
            weights = self._weights(i, x)[:2]
            lo = np.full(u.shape[0], self.ref[:, i].min() - 12 * self._h_own[i])
            hi = np.full(u.shape[0], self.ref[:, i].max() + 12 * self._h_own[i])
            for bound, outside in ((lo, np.less), (hi, np.greater)):
                x[:, i] = bound
                if np.any(outside(u[:, i], self._stage(i, x, weights=weights)[0])):
                    raise DomainError(
                        f"stage {i} quantile outside the estimator's support"
                    )

            def stage(xi):
                x[:, i] = xi
                return self._stage(i, x, deriv="own", weights=weights)

            x[:, i] = monotone_solve(stage, u[:, i],
                                     np.full(u.shape[0], np.median(self.ref[:, i])),
                                     lo, hi, tol, max_iter, "Darmois stage inversion")
        return x

    def to_dict(self):
        return {"variant": "darmois-empirical", "reference": self.ref.tolist()}


# ---------------------------------------------------------------------------
# rotated-Gaussian measure-preserving automorphism
# ---------------------------------------------------------------------------


class MpaMap(MixingMap):
    """F_Z^(-1) o Phi o R o Phi^(-1) o F_Z for an orthogonal R.

    Maps the source space to itself without changing the (factorized)
    source distribution.  CDF values are clamped to [eps, 1-eps] before the
    Gaussian quantile; clamping triggers a warning.
    """

    def __init__(self, rotation, marginals, clamp_eps: float = 1e-12):
        R = np.asarray(rotation, dtype=float)
        n = R.shape[0]
        if R.shape != (n, n) or not np.allclose(R @ R.T, np.eye(n), atol=1e-10):
            raise ValueError("rotation must be orthogonal")
        if len(marginals) != n:
            raise ValueError("need one marginal per coordinate")
        self.R = R
        self.marginals = list(marginals)
        self.clamp_eps = float(clamp_eps)
        self.n = n

    def _clamp(self, u):
        clipped = np.clip(u, self.clamp_eps, 1.0 - self.clamp_eps)
        if np.any(clipped != u):
            warnings.warn("MPA clamped CDF values at the tails", RuntimeWarning,
                          stacklevel=3)
        return clipped

    def _gauss_coords(self, s):
        u = np.stack([m.cdf(s[:, i]) for i, m in enumerate(self.marginals)], axis=1)
        return ndtri(self._clamp(u))

    def _forward(self, s):
        g = self._gauss_coords(s)
        y = g @ self.R.T
        u2 = self._clamp(ndtr(y))
        return np.stack([m.ppf(u2[:, i]) for i, m in enumerate(self.marginals)], axis=1)

    def _inverse(self, x):
        g = self._gauss_coords(x)
        y = g @ self.R
        u2 = self._clamp(ndtr(y))
        return np.stack([m.ppf(u2[:, i]) for i, m in enumerate(self.marginals)], axis=1)

    def _jacobian(self, s):
        g = self._gauss_coords(s)
        y = g @ self.R.T
        z = np.stack([m.ppf(self._clamp(ndtr(y[:, i])))
                      for i, m in enumerate(self.marginals)], axis=1)
        pdf_in = np.stack([m.pdf(s[:, i]) for i, m in enumerate(self.marginals)], axis=1)
        pdf_out = np.stack([m.pdf(z[:, i]) for i, m in enumerate(self.marginals)], axis=1)
        d_in = pdf_in / _phi(g)       # d/ds of Phi^(-1)(F(s))
        d_out = _phi(y) / pdf_out     # d/dy of F^(-1)(Phi(y))
        return d_out[:, :, None] * self.R[None] * d_in[:, None, :]

    def to_dict(self):
        return {"variant": "mpa", "rotation": self.R.tolist(),
                "marginals": [m.to_dict() for m in self.marginals],
                "clamp_eps": self.clamp_eps}
