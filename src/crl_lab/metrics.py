"""Identifiability metrics: MCC, kernel-ridge R^2, nonlinear Amari distance."""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import linear_sum_assignment
from scipy.stats import rankdata

from .errors import DegenerateColumnError, SampleSizeError
from .rng import spawn


def config_hash(obj) -> str:
    """Stable hash of a JSON-serializable config object."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf8")).hexdigest()[:16]


@dataclass(frozen=True)
class MetricReport:
    """Bundle of evaluation results with provenance.

    ``config`` carries the full resolved configuration so a serialized report
    is self-describing; ``config_hash`` is its stable digest.
    """

    seed: int
    config_hash: str
    mcc: float | None = None
    mcc_permutation: tuple | None = None
    r2_per_block: dict = field(default_factory=dict)
    amari: float | None = None
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.mcc is not None and not 0.0 <= self.mcc <= 1.0 + 1e-12:
            raise ValueError("mcc must lie in [0, 1]")
        if self.amari is not None and self.amari < -1e-12:
            raise ValueError("amari distance must be nonnegative")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "config_hash": self.config_hash,
            "mcc": self.mcc,
            "mcc_permutation": list(self.mcc_permutation) if self.mcc_permutation
            else None,
            "r2_per_block": dict(self.r2_per_block),
            "amari": self.amari,
            "config": dict(self.config),
        }


# ---------------------------------------------------------------------------
# mean correlation coefficient
# ---------------------------------------------------------------------------


def _abs_corr_matrix(z_hat: np.ndarray, z: np.ndarray, mode: str) -> np.ndarray:
    if mode == "rank":
        z_hat = np.apply_along_axis(rankdata, 0, z_hat)
        z = np.apply_along_axis(rankdata, 0, z)
    elif mode != "pearson":
        raise ValueError("mode must be 'pearson' or 'rank'")
    a = z_hat - z_hat.mean(axis=0)
    b = z - z.mean(axis=0)
    sa = np.linalg.norm(a, axis=0)
    sb = np.linalg.norm(b, axis=0)
    if np.any(sa == 0) or np.any(sb == 0):
        bad = list(np.where(sa == 0)[0]) + list(np.where(sb == 0)[0])
        raise DegenerateColumnError(f"zero-variance column(s): {bad}")
    return np.abs(a.T @ b) / np.outer(sa, sb)


def mcc(z_hat, z, mode: str = "pearson"):
    """Mean correlation coefficient under the best column assignment.

    Builds the absolute correlation matrix between learned and true sources,
    solves the max-weight assignment, and returns the mean matched
    correlation together with the matching permutation (``perm[i]`` is the
    true column matched to learned column ``i``).
    """
    z_hat = np.asarray(z_hat, dtype=float)
    z = np.asarray(z, dtype=float)
    if z_hat.shape != z.shape:
        raise ValueError("z_hat and z must have identical shapes")
    C = _abs_corr_matrix(z_hat, z, mode)
    rows, cols = linear_sum_assignment(C, maximize=True)
    perm = np.empty(C.shape[0], dtype=int)
    perm[rows] = cols
    score = float(C[rows, cols].mean())
    return score, tuple(int(p) for p in perm)


# ---------------------------------------------------------------------------
# kernel ridge regression R^2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KrrConfig:
    ridge_grid: tuple = (1e-3, 1e-2, 1e-1, 1.0)
    split_fraction: float = 0.8
    bandwidth_pairs: int = 1000
    seed: int = 0

    def __post_init__(self):
        if len(self.ridge_grid) == 0:
            raise ValueError("ridge_grid must not be empty")
        for lam in self.ridge_grid:
            if not (np.isfinite(lam) and lam > 0):
                raise ValueError(f"ridge value {lam!r} must be finite and > 0")
        if not 0.0 < self.split_fraction < 1.0:
            raise ValueError("split_fraction must lie in (0, 1)")
        if self.bandwidth_pairs < 2:
            raise ValueError("bandwidth_pairs must be >= 2")


def _median_bandwidth(x: np.ndarray, n_pairs: int, rng) -> float:
    m = x.shape[0]
    k = min(m, max(2, n_pairs))
    idx = rng.choice(m, size=k, replace=False)
    sub = x[idx]
    d2 = np.sum((sub[:, None, :] - sub[None, :, :]) ** 2, axis=-1)
    med = np.sqrt(np.median(d2[np.triu_indices(k, k=1)]))
    return float(max(med, 1e-12))


_RBF_ROWS = 256


def _rbf(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-max(|a_i|^2 + |b_j|^2 - 2 a_i.b_j, 0) / (2 gamma^2)), built in
    one (len(a), len(b)) buffer; the row-norm sums are formed a row block at
    a time so no second full-size temporary exists."""
    sa = np.sum(a * a, axis=1)
    sb = np.sum(b * b, axis=1)
    out = 2.0 * a @ b.T
    for i in range(0, out.shape[0], _RBF_ROWS):
        blk = out[i:i + _RBF_ROWS]
        np.subtract(sa[i:i + _RBF_ROWS, None] + sb[None, :], blk, out=blk)
    np.maximum(out, 0.0, out=out)
    np.divide(out, -2.0 * gamma * gamma, out=out)
    return np.exp(out, out=out)


def _factor(K):
    """Lower Cholesky factor of the symmetric C-ordered ``K``, in place.

    ``K.T`` is Fortran-ordered, so LAPACK factors it without a copy; only
    the upper triangle and the diagonal of ``K`` are overwritten."""
    return cho_factor(K.T, lower=True, overwrite_a=True, check_finite=False)


def _fit_predict(K_tr, K_te, y_tr, lam):
    """Kernel ridge fit ``(K_tr + lam I) alpha = y_tr``, returns ``K_te @ alpha``.

    Consumes ``K_tr``: the ridge is added to its diagonal and the Cholesky
    factor overwrites it.  If the system is not numerically positive
    definite, ``K_tr`` is rebuilt from its intact lower triangle and
    refactored with the ridge floor ``lam + 1e-6 m``.
    """
    m = K_tr.shape[0]
    K_tr.flat[::m + 1] += lam
    diag = K_tr.diagonal().copy()
    try:
        factor = _factor(K_tr)
    except np.linalg.LinAlgError:
        warnings.warn("kernel system singular; applying ridge floor", RuntimeWarning)
        for i in range(m - 1):
            K_tr[i, i + 1:] = K_tr[i + 1:, i]
        K_tr.flat[::m + 1] = diag + 1e-6 * m
        factor = _factor(K_tr)
    return K_te @ cho_solve(factor, y_tr, check_finite=False)


def _r2(y_true, y_pred):
    ss_res = np.sum((y_true - y_pred) ** 2, axis=0)
    ss_tot = np.sum((y_true - y_true.mean(axis=0)) ** 2, axis=0)
    ss_tot = np.where(ss_tot == 0, 1.0, ss_tot)
    return 1.0 - ss_res / ss_tot


def krr_r2(features, targets, cfg: KrrConfig = KrrConfig()):
    """Held-out R^2 of an RBF kernel ridge regression, averaged per block.

    ``targets`` is either a matrix or a mapping block-name -> matrix.  The
    bandwidth follows the median heuristic on subsampled pairs; the ridge
    parameter is picked from ``cfg.ridge_grid`` by inner validation.  The
    split, bandwidth and ridge choice are all fixed by ``cfg.seed``.

    Each ridge system ``K + lam I`` is symmetric positive definite and is
    solved by an in-place Cholesky factorization (LAPACK ``potrf`` on the
    kernel buffer itself), so a fit holds one m x m matrix: the inner
    search factors a copy of the inner kernel per ridge value, and the
    final fit consumes the training kernel, which is built only after the
    inner kernels are freed.  Peak memory is about 1.45 x 8 m_train^2 bytes.
    """
    x = np.asarray(features, dtype=float)
    if x.shape[0] < 200:
        raise SampleSizeError("krr_r2 needs at least 200 rows")
    blocks = targets if isinstance(targets, dict) else {"target": targets}
    blocks = {k: np.atleast_2d(np.asarray(v, dtype=float).T).T for k, v in blocks.items()}
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    for k, v in blocks.items():
        if v.shape[0] != x.shape[0]:
            raise ValueError(f"block {k!r} row count mismatch")
        if not np.all(np.isfinite(v)):
            raise ValueError(f"block {k!r} must be finite")

    rng = spawn(cfg.seed, "krr")
    m = x.shape[0]
    perm = rng.permutation(m)
    n_train = int(round(cfg.split_fraction * m))
    tr, te = perm[:n_train], perm[n_train:]
    n_inner = int(round(cfg.split_fraction * n_train))
    itr, iva = tr[:n_inner], tr[n_inner:]

    gamma = _median_bandwidth(x[tr], cfg.bandwidth_pairs, rng)
    y_all = np.concatenate([blocks[k] for k in blocks], axis=1)
    mu = y_all[tr].mean(axis=0)

    # inner validation for the ridge parameter (shared across blocks)
    K_ii = _rbf(x[itr], x[itr], gamma)
    K_vi = _rbf(x[iva], x[itr], gamma)
    best_lam, best_err = None, np.inf
    for lam in cfg.ridge_grid:
        pred = _fit_predict(K_ii.copy(), K_vi, y_all[itr] - mu, lam)
        err = float(np.mean((y_all[iva] - mu - pred) ** 2))
        if err < best_err:
            best_lam, best_err = lam, err
    del K_ii, K_vi

    K_tt = _rbf(x[tr], x[tr], gamma)
    K_et = _rbf(x[te], x[tr], gamma)
    pred = _fit_predict(K_tt, K_et, y_all[tr] - mu, best_lam) + mu

    out = {}
    col = 0
    for k, v in blocks.items():
        w = v.shape[1]
        out[k] = float(np.mean(_r2(v[te], pred[:, col:col + w])))
        col += w
    return out if isinstance(targets, dict) else out["target"]


# ---------------------------------------------------------------------------
# nonlinear Amari distance
# ---------------------------------------------------------------------------


def amari_index(P) -> np.ndarray:
    """Classical Amari index of matrices ``(..., n, n)``, normalized to [0, ..].

    Zero iff the matrix is a scaled permutation.
    """
    A = np.abs(np.asarray(P, dtype=float))
    n = A.shape[-1]
    if n < 2:
        raise ValueError("Amari index needs n >= 2")
    row_max = A.max(axis=-1)
    col_max = A.max(axis=-2)
    if np.any(row_max == 0) or np.any(col_max == 0):
        raise DegenerateColumnError("matrix has an all-zero row or column")
    rows = np.sum(A / row_max[..., :, None], axis=-1) - 1.0
    cols = np.sum(A / col_max[..., None, :], axis=-2) - 1.0
    return (rows.sum(axis=-1) + cols.sum(axis=-1)) / (2.0 * n * (n - 1))


def nonlinear_amari(map_true, unmix, samples, return_per_sample: bool = False):
    """Mean Amari index of J_unmix(f(s)) . J_f(s) over the sample points.

    Zero iff the unmixing inverts the true mixing up to permutation and
    element-wise rescaling at every sample.  Samples with singular
    composition are excluded (reported via a warning).
    """
    s = np.atleast_2d(np.asarray(samples, dtype=float))
    J_f = map_true.jacobian(s)
    x = map_true.forward(s)
    J_u = unmix.jacobian(x)
    P = J_u @ J_f
    ok = np.isfinite(P).all(axis=(1, 2))
    ok &= (np.abs(P).max(axis=-1) > 0).all(axis=-1)
    if not np.all(ok):
        warnings.warn(f"excluded {int(np.sum(~ok))} singular composition(s)",
                      RuntimeWarning)
    vals = amari_index(P[ok])
    if return_per_sample:
        return vals
    return float(np.mean(vals))
