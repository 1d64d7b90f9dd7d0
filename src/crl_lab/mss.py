"""Multi-environment causal discovery via the mechanism shift score.

For a candidate DAG, the hard score counts, over all environment pairs and
nodes, how many conditionals in the candidate factorization change; the true
graph minimizes it (not necessarily uniquely).  Environments are always
compared pairwise, never pooled.

Both scores are sums over nodes of local terms that depend on a DAG only
through one node's parent set: each (node, parent set) is tested over every
environment pair and reduced to a local hard count and a local soft term.
``mss_discover`` and ``mss_score`` both score through ``_score``, which
tests every (node, parent set) its DAGs ask for in one batch (at n=4 with 6
environments, 480 tests for 543 DAGs) and sums each DAG's local terms.

The finite-sample test needs only each environment's row count, mean and
centred scatter matrix: every residual sum of squares is a Schur complement
of a scatter block, so a batch runs as stacked solves and one call per
distribution tail, and its cost does not depend on the row count.  A key
with an ill-conditioned parent block is fitted by least squares on the rows.
The oracle test forms each environment's Gaussian moments once per batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.special import chdtrc, fdtr, fdtrc

from .errors import CapacityError, SampleSizeError
from .rng import child_seed, spawn
from .scm import (
    Dag,
    EnvData,
    DatasetMeta,
    InterventionSpec,
    Mechanism,
    MultiEnvDataset,
    Scm,
    ancestral_sample,
    apply_intervention,
    enumerate_dags,
    linear_gaussian,
)


@dataclass(frozen=True)
class CiInvarianceTest:
    """Decides whether a conditional P(X_i | parents) differs across an
    environment pair.

    kind "oracle" compares closed-form linear-Gaussian conditionals derived
    from the dataset's ground-truth sidecar; "linear-gaussian" is a
    finite-sample test combining a Chow-style F-test on regression
    coefficients with an F-test on residual variances (Fisher's method).
    """

    kind: str = "linear-gaussian"
    alpha: float = 0.05

    def __post_init__(self):
        if self.kind not in ("oracle", "linear-gaussian"):
            raise ValueError("kind must be 'oracle' or 'linear-gaussian'")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0,1)")


def _gaussian_conditional(mean, cov, i, parents):
    ps = list(parents)
    if not ps:
        return np.zeros(0), float(mean[i]), float(cov[i, i])
    sub = cov[np.ix_(ps, ps)]
    beta = np.linalg.solve(sub, cov[ps, i])
    intercept = float(mean[i] - beta @ mean[ps])
    resid = float(cov[i, i] - cov[i, ps] @ beta)
    return beta, intercept, resid


# the regression test needs this many rows per environment for each node
MIN_ROWS_PER_NODE = 10

# labeled-DAG enumeration stops here: 543 DAGs at n=4, 29,281 at n=5
MAX_NODES = 4

# the normal equations square the rows' condition number: a key is fitted by
# least squares on the rows unless each of its parent blocks, scaled to unit
# diagonal, has a condition number of at most this
_COND_MAX = 1e6


# keys per stacked solve in _local_rss, which bounds the batch's memory
_KEY_CHUNK = 4096


def _rss_lstsq(x, y):
    """Residual sum of squares of least squares with intercept on the rows."""
    X = np.column_stack([np.ones(x.shape[0]), x])
    coef = np.linalg.lstsq(X, y, rcond=None)[0]
    resid = y - X @ coef
    return float(resid @ resid)


def _well_conditioned(A):
    """Which of the stacked symmetric (k, k) blocks ``A`` are nonsingular with
    a condition number of at most ``_COND_MAX`` once scaled to unit diagonal.

    The Frobenius-norm condition number ``|C|_F |C^-1|_F`` bounds the
    spectral one from above and needs only the LU factorization that the
    solves use too.
    """
    k = A.shape[-1]
    diag = np.diagonal(A, axis1=1, axis2=2)
    pos = (diag > 0).all(axis=1)
    scale = 1.0 / np.sqrt(np.where(pos[:, None], diag, 1.0))
    C = A * scale[:, :, None] * scale[:, None, :]
    ok = pos & (np.linalg.det(C) > 0)  # a zero pivot would make inv raise
    C[~ok] = np.eye(k)
    cond = (np.linalg.norm(C, axis=(1, 2))
            * np.linalg.norm(np.linalg.inv(C), axis=(1, 2)))
    return ok & (cond <= _COND_MAX)


def _rss_from_stats(n, mean, scatter, e_a, e_b, node, parents):
    """Residual sums of squares of node on parents in environment a, in b and
    in both pooled, from each environment's row count, mean and centred
    scatter matrix; keys run along the first axis, ``parents`` is (m, k).

    The OLS RSS is the Schur complement ``S[i,i] - S[i,P] S[P,P]^-1 S[P,i]``.
    The pooled scatter is ``S_a + S_b + c dd^T`` with ``c = n_a n_b / (n_a +
    n_b)`` and ``d`` the difference of the means; its RSS is taken as the
    within-pair RSS plus the rank-one term ``c u^2 / (1 + c d_P^T S_w^-1
    d_P)``, which stays accurate when the means lie far apart.

    Returns the (m, 3) RSS table and a mask of the keys whose three parent
    blocks are well conditioned; the other rows hold no meaningful values.
    """
    m, k = parents.shape
    s_a, s_b = scatter[e_a, node, node], scatter[e_b, node, node]
    c = n[e_a] * n[e_b] / (n[e_a] + n[e_b])
    delta = mean[e_a] - mean[e_b]                      # (m, d)
    d_i = delta[np.arange(m), node]
    if k == 0:
        rss = np.stack([s_a, s_b, s_a + s_b + c * d_i * d_i], axis=1)
        return rss, np.ones(m, dtype=bool)
    rows, cols = parents[:, :, None], parents[:, None, :]
    A_a = scatter[e_a[:, None, None], rows, cols]      # (m, k, k)
    A_b = scatter[e_b[:, None, None], rows, cols]
    b_a = scatter[e_a[:, None], parents, node[:, None]]  # (m, k)
    b_b = scatter[e_b[:, None], parents, node[:, None]]
    d_p = np.take_along_axis(delta, parents, axis=1)   # (m, k)
    # environment a, environment b, then the pooled within-pair blocks
    A = np.concatenate([A_a, A_b, A_a + A_b])
    b = np.concatenate([b_a, b_b, b_a + b_b])
    ok = _well_conditioned(A).reshape(3, m).all(axis=0)
    A[~np.tile(ok, 3)] = np.eye(k)                     # solved, then discarded
    rhs = np.stack([b, np.concatenate([d_p, d_p, d_p])], axis=2)
    sol = np.linalg.solve(A, rhs)                      # (3m, k, 2)
    beta = sol[:, :, 0]
    rss = (np.concatenate([s_a, s_b, s_a + s_b])
           - (b * beta).sum(axis=1)).reshape(3, m)
    u = d_i - (beta[2 * m:] * d_p).sum(axis=1)
    lift = 1.0 + c * (sol[2 * m:, :, 1] * d_p).sum(axis=1)
    rss[2] += c * u * u / lift
    return rss.T, ok


def _pvalues_from_rss(rss_a, rss_b, rss_p, n_a, n_b, k):
    """Chow coefficient test + residual-variance F-test, Fisher-combined,
    elementwise; ``k`` counts the regressors with the intercept."""
    dof = n_a + n_b - 2 * k
    num = np.maximum(rss_p - rss_a - rss_b, 0.0) / k
    den = (rss_a + rss_b) / dof
    p_coef = fdtrc(k, dof, num / np.maximum(den, 1e-300))
    s2_a = rss_a / (n_a - k)
    s2_b = rss_b / (n_b - k)
    ratio = s2_a / np.maximum(s2_b, 1e-300)
    cdf = fdtr(n_a - k, n_b - k, ratio)
    p_var = 2 * np.minimum(cdf, 1 - cdf)
    fisher = -2.0 * (np.log(np.maximum(p_coef, 1e-300))
                     + np.log(np.maximum(p_var, 1e-300)))
    return chdtrc(4, fisher)


def _local_rss(xs, keys) -> np.ndarray:
    """The (m, 3) residual sums of squares, in environment a, in b and
    pooled, of keys ``(e_a, e_b, node, parents)`` over the environments' row
    blocks ``xs``, in one batch.

    Each environment's row count, mean and centred scatter matrix are formed
    once; every key's three residual sums of squares then come from stacked
    solves on its parent blocks, so the cost does not grow with the rows.
    Keys with a singular or ill-conditioned parent block are fitted by least
    squares on the rows.  Keys with the same parent-set size are solved in
    chunks of at most ``_KEY_CHUNK``; no key's solve depends on another, so
    the chunks change no value.
    """
    n = np.array([x.shape[0] for x in xs])
    mean = np.stack([x.mean(axis=0) for x in xs])
    scatter = np.stack([(x - mu).T @ (x - mu) for x, mu in zip(xs, mean)])
    e_a, e_b, node = (np.array([key[j] for key in keys], dtype=int)
                      for j in range(3))
    size = np.array([len(key[3]) for key in keys], dtype=int)
    rss = np.empty((len(keys), 3))
    for k in np.unique(size):
        group = np.flatnonzero(size == k)
        for idx in np.split(group, range(_KEY_CHUNK, len(group), _KEY_CHUNK)):
            parents = np.array([keys[j][3] for j in idx],
                               dtype=int).reshape(len(idx), k)
            rss[idx], ok = _rss_from_stats(n, mean, scatter, e_a[idx], e_b[idx],
                                           node[idx], parents)
            for j in idx[~ok]:
                a, b, i, ps = keys[j]
                ps = list(ps)
                pooled = np.concatenate([xs[a], xs[b]])
                rss[j] = [_rss_lstsq(x[:, ps], x[:, i])
                          for x in (xs[a], xs[b], pooled)]
    return rss


def _local_pvalues(xs, keys) -> np.ndarray:
    """Finite-sample p-values of ``keys`` (see :func:`_local_rss`)."""
    rss = _local_rss(xs, keys)
    n_a, n_b = (np.array([xs[key[j]].shape[0] for key in keys]) for j in (0, 1))
    k = np.array([len(key[3]) + 1 for key in keys])
    return _pvalues_from_rss(rss[:, 0], rss[:, 1], rss[:, 2], n_a, n_b, k)


def _require_rows(data: MultiEnvDataset, envs):
    n_min = MIN_ROWS_PER_NODE * data.d
    if any(data.envs[e].x.shape[0] < n_min for e in envs):
        raise SampleSizeError(
            f"need at least {n_min} rows per environment for the regression test"
        )


def _pvalues(test: CiInvarianceTest, data: MultiEnvDataset, keys) -> np.ndarray:
    """Local p-values of ``keys`` ``(e_a, e_b, node, parents)``, in one batch.

    The oracle test gives 1.0 where the closed-form conditional of node on
    parents is the same in both environments and 0.0 where it changes.
    """
    envs = {e for key in keys for e in key[:2]}
    if test.kind == "linear-gaussian":
        _require_rows(data, envs)
        return _local_pvalues([env.x for env in data.envs], keys)
    if not data.has_ground_truth:
        raise ValueError("oracle test needs a ground-truth sidecar")
    moments = {e: apply_intervention(data.meta.scm, data.envs[e].spec)
               .gaussian_moments() for e in envs}
    tol = 1e-8  # on the conditionals' coefficients, intercept and variance
    p = []
    for e_a, e_b, node, parents in keys:
        (w_a, c_a, v_a), (w_b, c_b, v_b) = (
            _gaussian_conditional(*moments[e], node, parents) for e in (e_a, e_b))
        p.append(float(np.allclose(w_a, w_b, atol=tol) and abs(c_a - c_b) <= tol
                       and abs(v_a - v_b) <= tol * max(1.0, v_a)))
    return np.array(p)


def pair_invariance_pvalue(test: CiInvarianceTest, data: MultiEnvDataset,
                           e_a: int, e_b: int, node: int, parents) -> float:
    return float(_pvalues(test, data, [(e_a, e_b, node, tuple(parents))])[0])


def _score(dags, data: MultiEnvDataset, test: CiInvarianceTest, soft_kind: str):
    """Hard and soft mechanism shift scores of each of ``dags``, as two lists.

    Every (node, parent set) of ``dags`` is tested over all environment
    pairs in one :func:`_pvalues` call and reduced to a local hard count and
    a local soft term; a DAG scores the sum of its nodes' local terms.  The
    soft terms are added pair by pair, then node by node, so a DAG scores
    the same alone as among others.
    """
    if soft_kind not in ("one-minus-p", "neglogp"):
        raise ValueError("soft_kind must be 'one-minus-p' or 'neglogp'")
    families = sorted({f for dag in dags for f in enumerate(dag.parents)})
    pairs = list(combinations(range(len(data.envs)), 2))
    keys = [(e_a, e_b, node, ps) for e_a, e_b in pairs for node, ps in families]
    p = _pvalues(test, data, keys).reshape(len(pairs), len(families))
    hard = (p < test.alpha).sum(axis=0)
    terms = 1.0 - p if soft_kind == "one-minus-p" else -np.log(np.maximum(p, 1e-300))
    soft = sum(terms, np.zeros(len(families)))  # row by row, in pair order
    index = {f: j for j, f in enumerate(families)}
    at = np.array([[index[f] for f in enumerate(dag.parents)] for dag in dags])
    return sum(hard[at.T]).tolist(), sum(soft[at.T]).tolist()


def mss_score(dag: Dag, data: MultiEnvDataset, test: CiInvarianceTest,
              soft_kind: str = "one-minus-p"):
    """Hard and soft mechanism shift scores of one candidate DAG."""
    (hard,), (soft,) = _score([dag], data, test, soft_kind)
    return hard, soft


@dataclass(frozen=True)
class MssResult:
    dags: tuple
    hard: tuple
    soft: tuple
    minimizers: tuple          # indices into dags, best soft score first
    ranking: tuple             # all indices ordered by (hard, soft)


def mss_discover(data: MultiEnvDataset, test: CiInvarianceTest, n: int,
                 soft_kind: str = "one-minus-p") -> MssResult:
    """Score every labeled DAG on ``n <= MAX_NODES`` nodes and return the
    minimizer set (by hard score, ranked by soft score)."""
    if n > MAX_NODES:
        raise CapacityError(
            f"mss_discover enumerates labeled DAGs only up to n={MAX_NODES}")
    if n != data.d:
        raise ValueError("n must match the observed dimension (identity mixing)")
    dags = enumerate_dags(n)
    hard, soft = _score(dags, data, test, soft_kind)
    order = sorted(range(len(dags)), key=lambda i: (hard[i], soft[i]))
    h_min = min(hard)
    minimizers = [i for i in order if hard[i] == h_min]
    return MssResult(tuple(dags), tuple(hard), tuple(soft),
                     tuple(minimizers), tuple(order))


# ---------------------------------------------------------------------------
# benchmark generator: random DAG, soft single-node shifts per environment
# ---------------------------------------------------------------------------


def _random_dag(n, rng, edge_prob=0.5):
    order = rng.permutation(n)
    parents = [[] for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.uniform() < edge_prob:
                parents[order[b]].append(int(order[a]))
    return Dag(n, tuple(tuple(sorted(p)) for p in parents), ordered=False)


def _soft_shift(mech: Mechanism, rng) -> Mechanism:
    """Structure-preserving perturbation of a linear-Gaussian mechanism."""
    choice = rng.integers(3)
    weights = list(mech.weights)
    bias = mech.bias
    sigma = mech.sigma
    if choice == 0 or not weights:
        bias = bias + rng.uniform(1.0, 2.0) * rng.choice((-1.0, 1.0))
    elif choice == 1:
        k = rng.integers(len(weights))
        weights[k] = weights[k] + rng.uniform(0.8, 1.5) * rng.choice((-1.0, 1.0))
    else:
        sigma = sigma * rng.uniform(1.6, 2.2)
    return linear_gaussian(weights, bias, sigma)


def generate_mss_problem(n: int, n_envs: int, rows_per_env: int, seed: int,
                         edge_prob: float = 0.5) -> MultiEnvDataset:
    """Fully observed benchmark: environment 0 is the base SCM, each further
    environment softly shifts a single random node's mechanism."""
    rng = spawn(seed, "mss-problem")
    dag = _random_dag(n, rng, edge_prob)
    mechs = []
    for i in range(n):
        k = len(dag.parents[i])
        w = rng.uniform(0.7, 1.4, size=k) * rng.choice((-1.0, 1.0), size=k)
        mechs.append(linear_gaussian(tuple(w), rng.uniform(-0.5, 0.5),
                                     rng.uniform(0.8, 1.2)))
    base = Scm(dag, tuple(mechs))
    envs = []
    for e in range(n_envs):
        if e == 0:
            spec = InterventionSpec()
            env_scm = base
        else:
            node = int(rng.integers(n))
            new_mech = _soft_shift(base.mechanisms[node], rng)
            spec = InterventionSpec((node,), (new_mech,),
                                    (dag.parents[node],))
            env_scm = apply_intervention(base, spec)
        v = ancestral_sample(env_scm, rows_per_env, child_seed(seed, "env", e))
        envs.append(EnvData(spec, v, v))
    meta = DatasetMeta(scm=base, mixing={"variant": "identity"},
                       extra={"n_envs": n_envs})
    return MultiEnvDataset(tuple(envs), seed, meta)
