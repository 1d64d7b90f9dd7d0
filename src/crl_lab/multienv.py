"""Multi-environment causal representation learning at desk scale.

Generates bivariate interventional problems (observational environment plus
one perfect intervention per node, shared nonlinear mixing), fits one
generative model per candidate (graph, intervention-target assignment) by
exact-likelihood flow training, and selects by held-out likelihood.  Also
hosts the genericity-gap probe, the interventional-discrepancy check, the
causal-influence functional and the numerical minimality verification.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import mixing as mixing_mod
from .errors import SelectionError
# Adam is unused here but kept bound: the benchmark's self-check still
# asserts that ``multienv.Adam.step`` is traced
from .flow import Adam, FlowModel, TrainConfig, fit, init_whitening  # noqa: F401
from .mixing import Elementwise, MixingMap
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
    linear_gaussian,
    perfect_intervention,
)

logger = logging.getLogger(__name__)

_LOG_2PI = float(np.log(2.0 * np.pi))


# ---------------------------------------------------------------------------
# problem generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrlProblemConfig:
    n: int = 2
    d: int = 2
    rows_per_env: int = 4000
    graph_edges: tuple = ((0, 1),)          # parent -> child, partial order
    weight_range: tuple = (0.6, 1.4)        # magnitude, sign random
    bias_range: tuple = (-0.3, 0.3)
    sigma_range: tuple = (0.8, 1.2)
    shift_range: tuple = (1.5, 2.5)         # intervention mean shift magnitude
    intervened_sigma_range: tuple = (0.5, 0.8)
    mixing_kind: str = "mlp"                # mlp | identity | moebius
    mixing_layers: int = 3

    def to_dict(self):
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def _random_base_scm(cfg: CrlProblemConfig, rng) -> Scm:
    parents = [[] for _ in range(cfg.n)]
    for p, c in cfg.graph_edges:
        parents[c].append(p)
    dag = Dag(cfg.n, tuple(tuple(ps) for ps in parents))
    mechs = []
    for i in range(cfg.n):
        k = len(dag.parents[i])
        weights = []
        for _ in range(k):
            w = 0.0
            while abs(w) < 0.1:
                w = rng.uniform(*cfg.weight_range) * rng.choice((-1.0, 1.0))
                if abs(w) < 0.1:
                    logger.info("resampling degenerate mechanism weight %.3f", w)
            weights.append(w)
        mechs.append(linear_gaussian(weights, rng.uniform(*cfg.bias_range),
                                     rng.uniform(*cfg.sigma_range)))
    return Scm(dag, tuple(mechs))


def _random_mixing(cfg: CrlProblemConfig, seed: int) -> MixingMap:
    if cfg.mixing_kind == "identity":
        return Elementwise([("identity",)] * cfg.n)
    if cfg.mixing_kind == "moebius":
        return mixing_mod.random_moebius(cfg.n, seed, domain_low=-4.0,
                                         domain_high=4.0, margin=1.5)
    if cfg.mixing_kind == "mlp":
        return mixing_mod.random_invertible_mlp(cfg.n, cfg.mixing_layers, seed)
    raise ValueError(f"unknown mixing kind {cfg.mixing_kind!r}")


def generate_crl_problem(cfg: CrlProblemConfig, seed: int) -> MultiEnvDataset:
    """Observational environment plus one perfect intervention per node."""
    rng = spawn(seed, "crl-problem")
    base = _random_base_scm(cfg, rng)
    mixer = _random_mixing(cfg, seed)
    envs = []
    plans = [InterventionSpec()] + [
        perfect_intervention(
            i,
            linear_gaussian((), rng.uniform(*cfg.shift_range) * rng.choice((-1.0, 1.0)),
                            rng.uniform(*cfg.intervened_sigma_range)),
        )
        for i in range(cfg.n)
    ]
    for e, spec in enumerate(plans):
        env_scm = apply_intervention(base, spec)
        v = ancestral_sample(env_scm, cfg.rows_per_env, child_seed(seed, "env", e))
        x = mixer.forward(v)
        envs.append(EnvData(spec, x, v))
    meta = DatasetMeta(scm=base, mixing=mixer.to_dict(),
                       extra={"config": cfg.to_dict()})
    return MultiEnvDataset(tuple(envs), seed, meta)


# ---------------------------------------------------------------------------
# candidates
# ---------------------------------------------------------------------------


@dataclass
class CrlCandidate:
    """One (graph, target-assignment) hypothesis with its generative model.

    ``base_mech_params[i]`` holds the shared (weights..., bias, log sigma)
    block of latent node i; interventional environments replace only their
    target's mechanism with an environment-specific (bias, log sigma) pair.
    The sharing is by object identity: every environment log-density reads
    the same parameter block.
    """

    graph: Dag
    targets: dict                      # env index -> intervened latent node
    flow: FlowModel
    base_mech_params: list = field(default_factory=list)
    env_mech_params: dict = field(default_factory=dict)
    fitted: bool = False
    failure: str | None = None

    @property
    def cid(self) -> str:
        edges = ",".join(f"{p}>{c}" for p, c in self.graph.edges()) or "empty"
        tg = ",".join(f"e{e}:{t}" for e, t in sorted(self.targets.items()))
        return f"g[{edges}]|t[{tg}]"

    def psi_evaluator(self, data: MultiEnvDataset):
        """Diagnostic map psi = f^(-1) o h^(-1) from modeled latents to the
        ground-truth latents; needs the dataset sidecar.

        When the candidate is in the true equivalence class, psi is a
        permutation composed with element-wise functions.
        """
        if not data.has_ground_truth or data.meta.mixing is None:
            raise ValueError("psi diagnostics need a ground-truth sidecar")
        if not self.fitted:
            raise ValueError("fit the candidate first")
        mixer = mixing_mod.mixing_from_dict(data.meta.mixing)

        def psi(z):
            return mixer.inverse(self.flow.decode(z))

        return psi


def enumerate_bivariate_candidates(dataset: MultiEnvDataset, flow_factory) -> list:
    """The four bivariate models: {empty, 1->2} x {aligned, swapped targets}.

    Environment 0 is the known observational one; environments 1 and 2 carry
    one perfect intervention each with unknown target.
    """
    if len(dataset.envs) != 3:
        raise ValueError("bivariate candidate space expects 3 environments")
    graphs = [Dag(2, ((), ())), Dag(2, ((), (0,)))]
    assignments = [{1: 0, 2: 1}, {1: 1, 2: 0}]
    out = []
    for g in graphs:
        for tg in assignments:
            out.append(CrlCandidate(graph=g, targets=dict(tg), flow=flow_factory()))
    return out


# -- per-environment latent log density and gradients ------------------------


def _mech_slices(graph: Dag):
    """Parameter layout for base mechanisms: per node (weights, bias, log s)."""
    sizes = [len(graph.parents[i]) + 2 for i in range(graph.n)]
    offsets = np.cumsum([0] + sizes)
    return sizes, offsets


class _CandidateDensity:
    """Latent log density q^e(z) per environment with analytic gradients."""

    def __init__(self, cand: CrlCandidate):
        self.graph = cand.graph
        self.targets = cand.targets
        self.n = cand.graph.n
        self.sizes, self.offsets = _mech_slices(cand.graph)
        self.n_base = int(self.offsets[-1])
        self.env_ids = sorted(cand.targets)
        self.n_env_params = 2 * len(self.env_ids)
        self.n_params = self.n_base + self.n_env_params

    def split(self, theta):
        return theta[: self.n_base], theta[self.n_base:]

    def _env_slice(self, e):
        k = self.env_ids.index(e)
        return self.n_base + 2 * k, self.n_base + 2 * k + 2

    def logpdf_and_grads(self, z, env, theta):
        """Returns (logpdf (m,), dlogpdf/dz (m,n), dlogpdf/dtheta (m,P))."""
        m = z.shape[0]
        lp = np.zeros(m)
        dz = np.zeros_like(z)
        dth = np.zeros((m, self.n_params))
        target = self.targets.get(env)
        for i in range(self.n):
            ps = list(self.graph.parents[i])
            if i == target:
                a, _ = self._env_slice(env)
                bias, ls = theta[a], theta[a + 1]
                mu = np.full(m, bias)
                dmu_dz = None
                b_idx, ls_idx = a, a + 1
                w_idx = []
            else:
                off = int(self.offsets[i])
                k = len(ps)
                w = theta[off:off + k]
                bias, ls = theta[off + k], theta[off + k + 1]
                mu = z[:, ps] @ w + bias if k else np.full(m, bias)
                dmu_dz = w
                b_idx, ls_idx = off + k, off + k + 1
                w_idx = list(range(off, off + k))
            sig = np.exp(ls)
            r = (z[:, i] - mu) / sig
            lp += -0.5 * (r * r + _LOG_2PI) - ls
            dz[:, i] += -r / sig
            if dmu_dz is not None and ps:
                dz[:, ps] += (r / sig)[:, None] * dmu_dz[None, :]
            for j, wi in enumerate(w_idx):
                dth[:, wi] = (r / sig) * z[:, ps[j]]
            dth[:, b_idx] = r / sig
            dth[:, ls_idx] = r * r - 1.0
        return lp, dz, dth


def _batch_nll_grad(flow: FlowModel, dens: _CandidateDensity, theta, x, env):
    """Mean negative log-likelihood of the rows ``x`` (environment ``env[r]``
    for row r) and its gradient in ``theta``, the flow parameters followed by
    the mechanism parameters."""
    nf = flow.n_params
    z, ld, _, caches = flow.encode(x, theta[:nf], want_cache=True)
    m = x.shape[0]
    lp_total = ld.copy()
    dz = np.zeros_like(z)
    dmech = np.zeros(dens.n_params)
    for e in np.unique(env).tolist():
        sel = env == e
        lp, dz_e, dth_e = dens.logpdf_and_grads(z[sel], e, theta[nf:])
        lp_total[sel] += lp
        dz[sel] = -dz_e / m
        dmech += -dth_e.sum(axis=0) / m
    nll = -float(np.mean(lp_total))
    dflow = flow.encode_backward(caches, dz, np.full(m, -1.0 / m))
    return nll, np.concatenate([dflow, dmech])


def fit_candidate(cand: CrlCandidate, data: MultiEnvDataset,
                  cfg: TrainConfig):
    """Jointly fit the shared flow and mechanism parameters by maximum
    likelihood over all environments; returns (candidate, per-env held-out
    log-likelihood, total held-out log-likelihood per sample)."""
    dens = _CandidateDensity(cand)
    flow = cand.flow

    x_all = np.concatenate([env.x for env in data.envs], axis=0)
    env_of = np.concatenate([np.full(env.x.shape[0], e)
                             for e, env in enumerate(data.envs)])
    tr_parts, va_parts = [], []
    for e, env in enumerate(data.envs):
        rows = np.where(env_of == e)[0]
        rng = spawn(cfg.seed, "env-split", e)
        perm = rng.permutation(rows.size)
        n_val = max(1, int(round(cfg.val_fraction * rows.size)))
        va_parts.append(rows[perm[:n_val]])
        tr_parts.append(rows[perm[n_val:]])
    tr_idx = np.concatenate(tr_parts)
    va_idx = np.concatenate(va_parts)

    flow.init_params(child_seed(cfg.seed, "flow-init"))
    init_whitening(flow, x_all[tr_idx])
    theta = np.concatenate([flow.theta, np.zeros(dens.n_params)])
    nf = flow.n_params

    def batch_nll_grad(th, idx):
        return _batch_nll_grad(flow, dens, th, x_all[idx], env_of[idx])

    def heldout_ll(th):
        z, ld, _, _ = flow.encode(x_all[va_idx], th[:nf])
        per_env = {}
        total = 0.0
        rows = 0
        for e in range(len(data.envs)):
            sel = env_of[va_idx] == e
            lp, _, _ = dens.logpdf_and_grads(z[sel], e, th[nf:])
            ll = lp + ld[sel]
            per_env[e] = float(np.mean(ll))
            total += float(np.sum(ll))
            rows += int(np.sum(sel))
        return per_env, total / rows

    # fit minimizes: the negated held-out log-likelihood is exact, so the
    # same epoch wins as when maximizing it
    res = fit(theta, tr_idx, cfg.batch_size, batch_nll_grad,
              lambda th: -heldout_ll(th)[1], cfg)
    best_theta, diverged = res.model, res.diverged

    if diverged and not np.all(np.isfinite(best_theta)):
        cand.failure = "training diverged with no finite checkpoint"
        return cand, {}, float("-inf")

    cand.flow = flow.with_theta(best_theta[:nf])
    mech_theta = best_theta[nf:]
    base_theta, env_theta = dens.split(mech_theta)
    cand.base_mech_params = [
        base_theta[dens.offsets[i]:dens.offsets[i + 1]] for i in range(dens.n)
    ]
    cand.env_mech_params = {
        e: env_theta[2 * k: 2 * k + 2] for k, e in enumerate(dens.env_ids)
    }
    cand.fitted = True
    if diverged:
        cand.failure = "training diverged; returning last finite checkpoint"

    # recompute held-out quantities at the returned parameters
    per_env, total = heldout_ll(best_theta)
    return cand, per_env, total


def select_candidate(fitted):
    """Rank candidates by held-out total log-likelihood.

    ``fitted`` is a list of (candidate, per_env_ll, total_ll).  Ties break
    toward fewer edges, then lexicographic target assignment.
    """
    ok = [f for f in fitted if f[0].fitted and np.isfinite(f[2])]
    if not ok:
        raise SelectionError("no candidate was fitted successfully")
    def key(item):
        cand, _, total = item
        tg = tuple(v for _, v in sorted(cand.targets.items()))
        return (-total, cand.graph.n_edges(), tg)
    ranking = sorted(ok, key=key)
    return ranking[0], ranking


# ---------------------------------------------------------------------------
# genericity gap (fine-tuning witness for the bivariate setting)
# ---------------------------------------------------------------------------

_PHI = {
    "linear": lambda r: r,
    "square": lambda r: r * r,
    "sqrt": np.sqrt,
    "log": np.log,
    "xlogx": lambda r: r * np.log(r),
}


@dataclass(frozen=True)
class GenericityProbe:
    phi: str = "square"
    n_mc: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.phi not in _PHI:
            raise ValueError(f"phi must be one of {sorted(_PHI)}")


def genericity_gap(scm: Scm, intervened_first: Mechanism,
                   intervened_second: Mechanism, probe: GenericityProbe,
                   swap_roles: bool = False):
    """Gap between observational and first-node-intervened expectations of
    phi(intervened-second-mechanism ratio).

    The two expectation terms keep their own child seeds, so swapping the
    environments' roles negates the value exactly.
    """
    if scm.n != 2 or scm.dag.parents[1] != (0,) or scm.dag.parents[0] != ():
        raise ValueError("genericity gap is defined for the bivariate chain")
    if intervened_first.n_parents or intervened_second.n_parents:
        raise ValueError("intervened mechanisms must be parentless")
    phi = _PHI[probe.phi]

    def term(env_scm, tag):
        v = ancestral_sample(env_scm, probe.n_mc, child_seed(probe.seed, tag))
        log_ratio = (intervened_second.log_density(v[:, 1], np.zeros((v.shape[0], 0)))
                     - scm.mechanisms[1].log_density(v[:, 1], v[:, [0]]))
        # ratios of positive densities are positive; exp underflow is floored
        # so log-family witnesses stay finite
        ratio = np.maximum(np.exp(log_ratio), 1e-300)
        vals = phi(ratio)
        return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(vals.size))

    e0 = scm
    e1 = apply_intervention(scm, perfect_intervention(0, intervened_first))
    m0, s0 = term(e0, "gap-e0")
    m1, s1 = term(e1, "gap-e1")
    value = (m1 - m0) if swap_roles else (m0 - m1)
    return value, float(np.hypot(s0, s1))


# ---------------------------------------------------------------------------
# interventional discrepancy (everywhere-changing mechanism ratios)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscrepancyResult:
    holds: bool
    failure_points: tuple

    def __bool__(self):
        return self.holds


def discrepancy_check(mech_a: Mechanism, mech_b: Mechanism, grid,
                      tol: float = 1e-8) -> DiscrepancyResult:
    """Checks that d/dv of the density ratio mech_b/mech_a never vanishes.

    Evaluates the derivative on the grid; the condition fails at grid points
    where it is within ``tol`` of zero and at sign changes between adjacent
    points.
    """
    if mech_a.n_parents or mech_b.n_parents:
        raise ValueError("discrepancy check needs parentless mechanisms")
    v = np.asarray(grid, dtype=float)
    pa = np.zeros((v.size, 0))
    h = 1e-5
    la_p, la_m = mech_a.log_density(v + h, pa), mech_a.log_density(v - h, pa)
    lb_p, lb_m = mech_b.log_density(v + h, pa), mech_b.log_density(v - h, pa)
    ratio = np.exp(mech_b.log_density(v, pa) - mech_a.log_density(v, pa))
    dlog = ((lb_p - la_p) - (lb_m - la_m)) / (2 * h)
    deriv = ratio * dlog
    bad = list(v[np.abs(deriv) <= tol])
    sign = np.sign(deriv)
    flips = np.where(sign[:-1] * sign[1:] < 0)[0]
    bad.extend(0.5 * (v[i] + v[i + 1]) for i in flips)
    return DiscrepancyResult(len(bad) == 0, tuple(sorted(set(bad))))


# ---------------------------------------------------------------------------
# causal influence (edge-strength KL) and its transport invariance
# ---------------------------------------------------------------------------


class TransformedScm:
    """An SCM pushed through a graph-isomorphic permutation and an
    element-wise diffeomorphism: Z_{perm(i)} = phi_i(V_i).

    Exposes sampling and per-node conditional densities of the transformed
    variables, which is all the causal-influence estimator needs.
    """

    def __init__(self, base: Scm, perm, phi: Elementwise):
        self.base = base
        self.perm = tuple(int(p) for p in perm)
        if sorted(self.perm) != list(range(base.n)):
            raise ValueError("not a permutation")
        if phi.n != base.n:
            raise ValueError("element-wise map dimension mismatch")
        self.phi = phi
        self.n = base.n
        parents = [[] for _ in range(base.n)]
        for i in range(base.n):
            parents[self.perm[i]] = sorted(self.perm[p]
                                           for p in base.dag.parents[i])
        self.dag = Dag(base.n, tuple(tuple(p) for p in parents), ordered=False)

    def _coord(self, i):
        return self.phi.coords[i]

    def sample_joint(self, count, seed):
        v = ancestral_sample(self.base, count, seed)
        z = np.empty_like(v)
        for i in range(self.n):
            z[:, self.perm[i]] = self._coord(i).value(v[:, i])
        return z

    def node_log_density(self, node, z_i, pa_values):
        """log q_{node}(z | parents) via the change-of-variables transport."""
        i = self.perm.index(node)
        coord = self._coord(i)
        v_i = coord.inv(np.asarray(z_i, dtype=float))
        base_parents = self.base.dag.parents[i]
        pa = np.atleast_2d(np.asarray(pa_values, dtype=float))
        if len(base_parents) == 0:
            pa_v = np.zeros((v_i.shape[0], 0))
        else:
            # pa_values columns follow self.dag.parents[node] (sorted); map
            # each back to its base coordinate and invert its transform
            cols = []
            sorted_parents = self.dag.parents[node]
            for p in base_parents:
                j = sorted_parents.index(self.perm[p])
                cols.append(self._coord(p).inv(pa[:, j]))
            pa_v = np.stack(cols, axis=1)
        ld = -np.log(np.abs(coord.deriv(v_i)))
        return self.base.mechanisms[i].log_density(v_i, pa_v) + ld


def causal_influence(model, i: int, j: int, n_mc: int = 100_000, seed: int = 0,
                     inner: int = 256):
    """KL divergence between the joint and the joint with the edge i->j's
    contribution marginalized out of the j mechanism.

    ``model`` is an :class:`Scm` or a :class:`TransformedScm`.  Closed-form
    inner marginalization for all-linear-Gaussian SCMs, nested Monte Carlo
    (``inner`` draws of the i marginal) otherwise.
    """
    if not (0 <= i < model.n and 0 <= j < model.n) or i == j or \
            i not in model.dag.parents[j]:
        raise ValueError(f"need an edge {i}->{j} in the graph")

    outer_seed = child_seed(seed, "influence-outer")
    v = model.sample_joint(n_mc, outer_seed)
    pa_j = list(model.dag.parents[j])
    lp_j = model.node_log_density(j, v[:, j], v[:, pa_j])

    closed = isinstance(model, Scm) and model.all_linear_gaussian()
    if closed:
        mean, cov = model.gaussian_moments()
        mech = model.mechanisms[j]
        k = pa_j.index(i)
        w = np.asarray(mech.weights)
        others = [p for p in pa_j if p != i]
        w_others = np.array([w[pa_j.index(p)] for p in others])
        mu_marg = (v[:, others] @ w_others if others else 0.0) \
            + mech.bias + w[k] * mean[i]
        var_marg = mech.sigma**2 + w[k]**2 * cov[i, i]
        r = (v[:, j] - mu_marg) / np.sqrt(var_marg)
        lp_cut = -0.5 * (r * r + _LOG_2PI) - 0.5 * np.log(var_marg)
    else:
        inner_seed = child_seed(seed, "influence-inner")
        vi_draws = model.sample_joint(inner, inner_seed)[:, i]
        k = pa_j.index(i)
        # evaluate log mean_k p_j(v_j | parents with v_i := draw_k)
        chunk = max(1, 200_000 // inner)
        lp_cut = np.empty(n_mc)
        for a in range(0, n_mc, chunk):
            blk = v[a:a + chunk]
            m = blk.shape[0]
            pa_rep = np.repeat(blk[:, pa_j], inner, axis=0)
            pa_rep[:, k] = np.tile(vi_draws, m)
            vj_rep = np.repeat(blk[:, j], inner)
            lp = model.node_log_density(j, vj_rep, pa_rep).reshape(m, inner)
            mx = lp.max(axis=1, keepdims=True)
            lp_cut[a:a + chunk] = (mx[:, 0]
                                   + np.log(np.mean(np.exp(lp - mx), axis=1)))
    diff = lp_j - lp_cut
    return float(np.mean(diff)), float(np.std(diff, ddof=1) / np.sqrt(n_mc))


# ---------------------------------------------------------------------------
# minimality verification (numerical route equality)
# ---------------------------------------------------------------------------


def transported_density(mech: Mechanism, coord):
    """Density of phi(V) for a parentless mechanism V ~ mech; returns a
    callable of the transformed value."""
    if mech.n_parents:
        raise ValueError("transport helper needs a parentless mechanism")

    def q(z):
        z = np.asarray(z, dtype=float)
        v = coord.inv(z)
        lp = mech.log_density(v, np.zeros((v.shape[0], 0)))
        return np.exp(lp) / np.abs(coord.deriv(v))

    return q


def _sample_from_density(q, grid, count, rng):
    pdf = q(grid)
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5
                                           * np.diff(grid))])
    cdf /= cdf[-1]
    u = rng.uniform(0, 1, count)
    return np.interp(u, cdf, grid)


def verify_minimality(scm: Scm, mixer: MixingMap, perm, phi: Elementwise,
                      spec: InterventionSpec, n: int = 10_000, seed: int = 0,
                      level: float = 0.01, grid_points: int = 4001) -> bool:
    """Numerically verifies that the transported intervened mechanisms give
    rise to the same observed distributions.

    Route A samples the intervened ground-truth model directly.  Route B
    constructs the transported mechanism density on the candidate side via
    the change-of-variables formula, samples it through a quadrature inverse
    CDF, maps back and mixes.  The two observation samples must be
    indistinguishable per coordinate (two-sample KS at ``level``).
    """
    from scipy.stats import ks_2samp  # slow to import; only this check needs it
    for t, ps in zip(spec.targets, spec.new_parents):
        if ps:
            raise ValueError("minimality check covers perfect interventions")
    TransformedScm(scm, perm, phi)  # validates (perm, phi) as a class element

    # route A: intervene the true model
    scm_a = apply_intervention(scm, spec)
    v_a = ancestral_sample(scm_a, n, child_seed(seed, "route-a"))
    x_a = mixer.forward(v_a)

    # route B: ancestral sampling with targeted nodes drawn from the
    # transported density, everything else from the base mechanisms
    rng = spawn(seed, "route-b")
    eps = rng.standard_normal((n, scm.n))
    v_b = np.empty((n, scm.n))
    targeted = dict(zip(spec.targets, spec.replacements))
    for i in scm.dag.topological_order():
        if i in targeted:
            coord = phi.coords[i]
            mech = targeted[i]
            q = transported_density(mech, coord)
            lo = mech.bias - 10 * max(mech.sigma, 1e-6)
            hi = mech.bias + 10 * max(mech.sigma, 1e-6)
            z_grid = coord.value(np.linspace(lo, hi, grid_points))
            z_i = _sample_from_density(q, z_grid, n, rng)
            v_b[:, i] = coord.inv(z_i)
        else:
            pa = v_b[:, list(scm.dag.parents[i])]
            v_b[:, i] = scm.mechanisms[i].sample(pa, eps[:, i])
    x_b = mixer.forward(v_b)

    return all(ks_2samp(x_a[:, c], x_b[:, c]).pvalue >= level
               for c in range(x_a.shape[1]))
