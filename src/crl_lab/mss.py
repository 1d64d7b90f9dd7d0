"""Multi-environment causal discovery via the mechanism shift score.

For a candidate DAG, the hard score counts, over all environment pairs and
nodes, how many conditionals in the candidate factorization change; the true
graph minimizes it (not necessarily uniquely).  Environments are always
compared pairwise, never pooled.

The score decomposes over (environment pair, node, parent set): a local
p-value depends on a DAG only through one node's parent set.  ``mss_discover``
therefore computes each local test once per discovery and shares it across
every candidate DAG (at n=4 with 6 environments, 480 tests for 543 DAGs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

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


def _oracle_pvalue(meta_scm: Scm, spec_a, spec_b, node, parents, tol=1e-8):
    scm_a = apply_intervention(meta_scm, spec_a) if spec_a.targets else meta_scm
    scm_b = apply_intervention(meta_scm, spec_b) if spec_b.targets else meta_scm
    pa = _gaussian_conditional(*scm_a.gaussian_moments(), node, parents)
    pb = _gaussian_conditional(*scm_b.gaussian_moments(), node, parents)
    same = (np.allclose(pa[0], pb[0], atol=tol)
            and abs(pa[1] - pb[1]) <= tol
            and abs(pa[2] - pb[2]) <= tol * max(1.0, pa[2]))
    return 1.0 if same else 0.0


def _ols(x, y):
    """Least squares with intercept; returns (rss, n, k)."""
    X = np.column_stack([np.ones(x.shape[0]), x]) if x.shape[1] else \
        np.ones((x.shape[0], 1))
    coef, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    return float(resid @ resid), X.shape[0], X.shape[1]


def _finite_sample_pvalue(xa, ya, xb, yb):
    """Chow coefficient test + residual-variance F-test, Fisher-combined."""
    rss_a, n_a, k = _ols(xa, ya)
    rss_b, n_b, _ = _ols(xb, yb)
    rss_p, _, _ = _ols(np.concatenate([xa, xb]), np.concatenate([ya, yb]))
    dof = n_a + n_b - 2 * k
    num = max(rss_p - rss_a - rss_b, 0.0) / k
    den = (rss_a + rss_b) / dof
    p_coef = float(stats.f.sf(num / max(den, 1e-300), k, dof))
    s2_a = rss_a / (n_a - k)
    s2_b = rss_b / (n_b - k)
    ratio = s2_a / max(s2_b, 1e-300)
    cdf = stats.f.cdf(ratio, n_a - k, n_b - k)
    p_var = float(2 * min(cdf, 1 - cdf))
    fisher = -2.0 * (np.log(max(p_coef, 1e-300)) + np.log(max(p_var, 1e-300)))
    return float(stats.chi2.sf(fisher, 4))


def pair_invariance_pvalue(test: CiInvarianceTest, data: MultiEnvDataset,
                           e_a: int, e_b: int, node: int, parents) -> float:
    if test.kind == "oracle":
        if not data.has_ground_truth:
            raise ValueError("oracle test needs a ground-truth sidecar")
        return _oracle_pvalue(data.meta.scm, data.envs[e_a].spec,
                              data.envs[e_b].spec, node, parents)
    xa, xb = data.envs[e_a].x, data.envs[e_b].x
    ps = list(parents)
    n_min = 10 * data.d
    if xa.shape[0] < n_min or xb.shape[0] < n_min:
        raise SampleSizeError(
            f"need at least {n_min} rows per environment for the regression test"
        )
    return _finite_sample_pvalue(xa[:, ps], xa[:, node], xb[:, ps], xb[:, node])


def mss_score(dag: Dag, data: MultiEnvDataset, test: CiInvarianceTest,
              soft_kind: str = "one-minus-p", cache: dict | None = None):
    """Hard and soft mechanism shift scores of one candidate DAG.

    ``cache`` maps ``(e_a, e_b, node, parents)`` to the local p-value and is
    filled on a miss; it is valid for one ``(data, test)`` pair only.  With
    ``cache=None`` every local test of this DAG is computed afresh.
    """
    if soft_kind not in ("one-minus-p", "neglogp"):
        raise ValueError("soft_kind must be 'one-minus-p' or 'neglogp'")
    if cache is None:
        cache = {}
    n_env = len(data.envs)
    hard = 0
    soft = 0.0
    for e_a in range(n_env):
        for e_b in range(e_a + 1, n_env):
            for node in range(dag.n):
                parents = dag.parents[node]
                key = (e_a, e_b, node, parents)
                p = cache.get(key)
                if p is None:
                    # positional call through the module name: tracing
                    # wrappers rebind it and read the six arguments
                    p = cache[key] = pair_invariance_pvalue(
                        test, data, e_a, e_b, node, parents)
                hard += int(p < test.alpha)
                if soft_kind == "one-minus-p":
                    soft += 1.0 - p
                else:
                    soft += -float(np.log(max(p, 1e-300)))
    return hard, soft


@dataclass(frozen=True)
class MssResult:
    dags: tuple
    hard: tuple
    soft: tuple
    minimizers: tuple          # indices into dags, best soft score first
    ranking: tuple             # all indices ordered by (hard, soft)

    def minimizer_dags(self):
        return [self.dags[i] for i in self.minimizers]


def mss_discover(data: MultiEnvDataset, test: CiInvarianceTest, n: int,
                 soft_kind: str = "one-minus-p") -> MssResult:
    """Score every labeled DAG on ``n <= 4`` nodes and return the minimizer set
    (by hard score, ranked by soft score)."""
    if n > 4:
        raise CapacityError("mss_discover enumerates labeled DAGs only up to n=4")
    if n != data.d:
        raise ValueError("n must match the observed dimension (identity mixing)")
    dags = enumerate_dags(n)
    cache = {}
    hard, soft = [], []
    for dag in dags:
        h, s = mss_score(dag, data, test, soft_kind, cache)
        hard.append(h)
        soft.append(s)
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
