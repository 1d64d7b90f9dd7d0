"""Fast numerical property suite exercised by `crl-lab verify-props` and the
acceptance tests.

Each check returns (name, passed, detail).  The whole suite is built to run
in well under two minutes.
"""

from __future__ import annotations

import numpy as np

from . import flow as flow_mod
from . import mixing as mixing_mod
from . import multienv, spurious
from . import scm as scm_mod
from .contrast import local_ima
from .rng import child_seed, spawn


def _check_jacobians(seed):
    mlp = mixing_mod.random_invertible_mlp(3, 3, seed=child_seed(seed, "jac"))
    rng = spawn(seed, "jac-probes")
    probes = rng.standard_normal((100, 3))
    h = 1e-5
    worst = 0.0
    J = mlp.jacobian(probes)
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        fd = (mlp.forward(probes + e) - mlp.forward(probes - e)) / (2 * h)
        rel = np.abs(J[:, :, j] - fd) / (np.abs(fd) + 1.0)
        worst = max(worst, float(rel.max()))
    return worst < 1e-5, f"max rel err {worst:.2e}"


def _check_flow_roundtrip(seed):
    fl = flow_mod.default_bss_flow(2, n_couplings=4, hidden=(12,))
    fl.init_params(child_seed(seed, "flow"))
    rng = spawn(seed, "flow-probes")
    fl.theta = fl.theta + 0.2 * rng.standard_normal(fl.n_params)
    err = fl.round_trip_error(rng.standard_normal((256, 2)))
    return err < 1e-8, f"round trip {err:.2e}"


def _check_flow_normalization(seed):
    fl = flow_mod.FlowModel([flow_mod.AffineLayer(1)])
    rng = spawn(seed, "flow1d-jitter")
    fl.theta = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.5, 0.5)])
    base = flow_mod.IidNormalBase()
    g = np.linspace(-8, 8, 2001)
    dens = np.exp(flow_mod.flow_log_density(fl, base, g[:, None]))
    total = float(np.trapezoid(dens, g))
    return 0.99 <= total <= 1.01, f"mass {total:.4f}"


def _check_cima_properties(seed):
    mlp = mixing_mod.random_invertible_mlp(2, 3, seed=child_seed(seed, "cima"))
    rng = spawn(seed, "cima-probes")
    s = rng.standard_normal((200, 2))
    raw = local_ima(mlp, s, clamp=False)
    nonneg = bool(np.all(raw >= -1e-10))
    # right invariance: precompose with permutation + element-wise map
    reparam = mixing_mod.Composition([
        mixing_mod.Permutation((1, 0)),
        mixing_mod.Elementwise([("cubic",), ("affine", -1.7, 0.4)]),
    ])
    comp = mixing_mod.Composition([reparam, mlp])
    s_pre = reparam.inverse(s)
    right = float(np.max(np.abs(local_ima(comp, s_pre) - local_ima(mlp, s))))
    # left invariance: postcompose with a rotation
    rot = mixing_mod.Moebius(np.zeros(2), np.zeros(2),
                             mixing_mod.rotation_2d(0.83), 1.0, invert=False)
    left = float(np.max(np.abs(local_ima(mixing_mod.Composition([mlp, rot]), s)
                               - local_ima(mlp, s))))
    ok = nonneg and right < 1e-8 and left < 1e-8
    return ok, f"nonneg {nonneg}, right inv {right:.2e}, left inv {left:.2e}"


def _check_darmois_uniformity(seed):
    from scipy.stats import kstest  # slow to import; only the KS checks need it
    rng = spawn(seed, "darmois")
    L = np.linalg.cholesky(np.array([[1.0, 0.6], [0.6, 1.5]]))
    x = rng.standard_normal((50_000, 2)) @ L.T
    d = spurious.EmpiricalDarmois(x, max_reference=50_000)
    push = d.forward(rng.standard_normal((2000, 2)) @ L.T)
    thresh = 1.36 / np.sqrt(2000)
    stats = [kstest(push[:, i], "uniform").statistic for i in range(2)]
    ok = all(s < thresh for s in stats)
    return ok, f"KS {stats[0]:.4f}/{stats[1]:.4f} < {thresh:.4f}"


def _check_mpa_preservation(seed):
    from scipy.stats import kstest  # slow to import; only the KS checks need it
    rng = spawn(seed, "mpa")
    marginals = [spurious.UniformMarginal(0, 1), spurious.UniformMarginal(0, 1)]
    mpa = spurious.MpaMap(mixing_mod.rotation_2d(np.pi / 3), marginals)
    s = rng.uniform(0, 1, size=(10_000, 2))
    z = mpa.forward(s)
    thresh = 1.628 / np.sqrt(10_000)  # KS critical value at level 0.01
    stats = [kstest(z[:, i], "uniform").statistic for i in range(2)]
    ok = all(st < thresh for st in stats)
    return ok, f"KS {stats[0]:.4f}/{stats[1]:.4f} < {thresh:.4f}"


def _check_counterfactual(seed):
    dag = scm_mod.Dag(3, ((), (0,), (0, 1)))
    model = scm_mod.Scm(dag, (scm_mod.linear_gaussian(),
                              scm_mod.linear_gaussian((1.0,)),
                              scm_mod.linear_gaussian((1.0, 1.0))))
    out = scm_mod.counterfactual(model, (1.0, 2.0, 2.0), scm_mod.do(1, 3.0))
    ok = np.array_equal(out, np.array([1.0, 3.0, 3.0]))
    return ok, f"counterfactual -> {out.tolist()}"


def _check_minimality(seed):
    dag = scm_mod.Dag(2, ((), (0,)))
    base = scm_mod.Scm(dag, (scm_mod.linear_gaussian((), 0.1, 1.0),
                             scm_mod.linear_gaussian((1.1,), -0.2, 0.9)))
    mixer = mixing_mod.random_invertible_mlp(2, 2, seed=child_seed(seed, "mix"))
    rng = spawn(seed, "minimality")
    passed = 0
    for k in range(20):
        perm = (0, 1) if rng.uniform() < 0.5 else (1, 0)
        coords = []
        for _ in range(2):
            kind = rng.choice(["affine", "cubic", "sinh"])
            if kind == "affine":
                coords.append(("affine", float(rng.uniform(0.5, 2.0)
                                               * rng.choice((-1, 1))),
                               float(rng.uniform(-1, 1))))
            else:
                coords.append((str(kind),))
        phi = mixing_mod.Elementwise(coords)
        node = int(rng.integers(2))
        spec = scm_mod.perfect_intervention(
            node, scm_mod.linear_gaussian((), float(rng.uniform(-2, 2)),
                                          float(rng.uniform(0.6, 1.4))))
        if multienv.verify_minimality(base, mixer, perm, phi, spec,
                                      n=10_000, seed=child_seed(seed, "draw", k)):
            passed += 1
    return passed == 20, f"{passed}/20 (pi, phi) draws"


CHECKS = [
    ("analytic-jacobian-vs-finite-differences", _check_jacobians),
    ("flow-round-trip", _check_flow_roundtrip),
    ("flow-density-normalization", _check_flow_normalization),
    ("ima-contrast-nonnegativity-and-invariances", _check_cima_properties),
    ("darmois-pushforward-uniformity", _check_darmois_uniformity),
    ("mpa-marginal-preservation", _check_mpa_preservation),
    ("counterfactual-three-node-example", _check_counterfactual),
    ("minimality-transport-equivalence", _check_minimality),
]


def run_property_suite(seed: int = 0):
    """Run every fast property check; returns a list of result rows."""
    results = []
    for name, fn in CHECKS:
        passed, detail = fn(seed)
        results.append({"name": name, "passed": bool(passed), "detail": detail})
    return results
