"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantities at its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s`.  Expected total runtime is
well under thirty minutes on a small machine; the heavy criteria (4, 5, 6)
each train a few dozen small models.
"""

import time

import numpy as np

from crl_lab import contrast, flow, metrics, mixing, multienv, multiview, mss
from crl_lab import scm, spurious
from crl_lab.properties import run_property_suite
from crl_lab.rng import child_seed, spawn


def _report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


# -- 1 ------------------------------------------------------------------------


def test_c01_polar_contrast_vanishes():
    t0 = time.time()
    est = contrast.global_ima(
        mixing.PolarToCartesian(),
        contrast.box_sampler([1e-9, 0.0], [3.0, 2 * np.pi]),
        n_mc=100_000, seed=1)
    elapsed = time.time() - t0
    ok = abs(est.value) <= 3 * est.stderr and elapsed < 1.0
    _report("criterion 1 (polar contrast zero)", ok,
            f"estimate {est.value:.2e} <= 3*stderr {3 * est.stderr:.2e}, "
            f"{elapsed:.2f}s")


# -- 2 ------------------------------------------------------------------------


def test_c02_darmois_positivity():
    rng = spawn(123, "darmois-accept")
    u = rng.uniform(0, 1, size=(100_000, 2))
    x = u @ mixing.rotation_2d(np.pi / 4).T
    d = spurious.EmpiricalDarmois(x)
    J_fwd = np.linalg.inv(d.jacobian(x[:20_000]))
    vals = contrast.local_ima_from_jacobian(J_fwd)
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(vals.size))
    ok = est - 3 * se > 0.02
    _report("criterion 2 (Darmois contrast positive)", ok,
            f"estimate {est:.4f} - 3*stderr {3 * se:.4f} > 0.02")


# -- 3 ------------------------------------------------------------------------


def test_c03_mpa_angle_sweep():
    mix = mixing.random_moebius(2, seed=7)
    marginals = [spurious.UniformMarginal(0, 1), spurious.UniformMarginal(0, 1)]
    sampler = contrast.box_sampler([1e-9, 1e-9], [1 - 1e-9, 1 - 1e-9])
    details = []
    ok = True
    for k, theta in enumerate([0.0, np.pi / 2, np.pi, 3 * np.pi / 2, np.pi / 4]):
        mpa = spurious.MpaMap(mixing.rotation_2d(theta), marginals)
        est = contrast.global_ima(mixing.Composition([mpa, mix]), sampler,
                                  n_mc=100_000, seed=child_seed(3, "angle", k))
        if theta == np.pi / 4:
            ok &= est.value - 3 * est.stderr > 0
            details.append(f"pi/4: {est.value:.4f}-3se>0")
        else:
            ok &= abs(est.value) <= 3 * est.stderr
            details.append(f"{theta / np.pi:.1f}pi: |{est.value:.1e}|<=3se")
    _report("criterion 3 (MPA angle sweep)", ok, "; ".join(details))


# -- 4 ------------------------------------------------------------------------


def _bss_mcc(seed, lam):
    rng = spawn(seed, "bss-data")
    s = rng.uniform(0, 1, size=(4000, 2))
    mixer = mixing.random_moebius(2, seed=seed * 31 + 7)
    x = mixer.forward(s)
    fl = flow.default_bss_flow(2, n_couplings=4, hidden=(12,))
    fl.init_params(seed * 3 + 1)
    flow.init_whitening(fl, x)
    cfg = flow.TrainConfig(lr=3e-3, epochs=60, batch_size=256, ima_weight=lam,
                           patience=15, seed=seed)
    res = flow.train_mle(fl, x, cfg)
    z, _, _, _ = res.model.encode(x[:3000])
    score, _ = metrics.mcc(z, s[:3000])
    return score


def test_c04_ima_regularized_bss():
    mccs = {0.0: [], 1.0: []}
    for seed in range(10):
        for lam in (0.0, 1.0):
            mccs[lam].append(_bss_mcc(seed, lam))
    med0, med1 = np.median(mccs[0.0]), np.median(mccs[1.0])
    ok = med1 >= med0
    _report("criterion 4 (IMA-regularized BSS)", ok,
            f"median MCC lambda=1: {med1:.3f} >= lambda=0: {med0:.3f} "
            f"(10 seeds, identical budgets)")


# -- 5 ------------------------------------------------------------------------


def _multiview_r2(statistical, causal, change_prob, seeds):
    content, style = [], []
    for seed in seeds:
        proc = multiview.default_process(n_c=3, n_s=3, statistical=statistical,
                                         causal=causal,
                                         change_prob=change_prob,
                                         seed=100 + seed)
        cfg = multiview.ContentExperimentConfig(
            n_pairs=20_000,
            train=flow.TrainConfig(lr=1e-3, epochs=80, n_negatives=256,
                                   temperature=0.002, patience=25, seed=seed),
            seed=seed)
        rep = multiview.content_experiment(proc, cfg)
        content.append(rep.r2_per_block["content"])
        style.append(rep.r2_per_block["style"])
    return float(np.mean(content)), float(np.mean(style))


def test_c05_multiview_content_isolation():
    seeds = (0, 1, 2)
    c_ind, s_ind = _multiview_r2(False, False, 1.0, seeds)
    c_cau, s_cau = _multiview_r2(True, True, 0.75, seeds)
    ok = (c_ind >= 0.95 and s_ind <= 0.25 and s_cau >= s_ind + 0.2)
    _report("criterion 5 (multi-view content isolation)", ok,
            f"independent: content {c_ind:.3f}>=0.95 style {s_ind:.3f}<=0.25; "
            f"causal style {s_cau:.3f} >= {s_ind:.3f}+0.2")


# -- 6 ------------------------------------------------------------------------


CORRECT_CID = "g[0>1]|t[e1:0,e2:1]"


def _crl_seed_run(seed):
    data = multienv.generate_crl_problem(
        multienv.CrlProblemConfig(rows_per_env=3000), seed=seed)
    x_all = np.concatenate([e.x for e in data.envs])
    v_all = np.concatenate([e.v for e in data.envs])
    cands = multienv.enumerate_bivariate_candidates(
        data, lambda: flow.default_bss_flow(2, n_couplings=6, hidden=(16,)))
    tc = flow.TrainConfig(lr=5e-3, epochs=250, batch_size=512, patience=40,
                          seed=seed * 7 + 1)
    fitted, scores = [], {}
    for cand in cands:
        cand, per_env, total = multienv.fit_candidate(cand, data, tc)
        z, _, _, _ = cand.flow.encode(x_all)
        scores[cand.cid], _ = metrics.mcc(z, v_all)
        fitted.append((cand, per_env, total))
    winner, _ = multienv.select_candidate(fitted)
    return winner[0].cid, scores


def test_c06_bivariate_crl_model_selection():
    wins = 0
    mcc_by_cid = {}
    for seed in range(10):
        winner_cid, scores = _crl_seed_run(seed)
        wins += winner_cid == CORRECT_CID
        for cid, s in scores.items():
            mcc_by_cid.setdefault(cid, []).append(s)
    med = {cid: float(np.median(v)) for cid, v in mcc_by_cid.items()}
    med_correct = med[CORRECT_CID]
    med_others = {c: m for c, m in med.items() if c != CORRECT_CID}
    ok = (wins >= 7 and med_correct >= 0.9
          and all(med_correct > m for m in med_others.values()))
    _report("criterion 6 (bivariate multi-environment CRL)", ok,
            f"correct wins {wins}/10; median MCC correct {med_correct:.3f}"
            f" vs others {sorted(round(m, 3) for m in med_others.values())}")


# -- 7 ------------------------------------------------------------------------


def test_c07_mss_discovery():
    hits_fs, hits_or = 0, 0
    for run in range(10):
        data = mss.generate_mss_problem(3, 6, 2000, seed=run)
        truth = data.meta.scm.dag.parents
        r_fs = mss.mss_discover(data,
                                mss.CiInvarianceTest("linear-gaussian",
                                                     alpha=0.01), 3)
        r_or = mss.mss_discover(data, mss.CiInvarianceTest("oracle"), 3)
        hits_fs += any(r_fs.dags[i].parents == truth for i in r_fs.minimizers)
        hits_or += any(r_or.dags[i].parents == truth for i in r_or.minimizers)
    ok = hits_fs >= 9 and hits_or == 10
    _report("criterion 7 (MSS discovery)", ok,
            f"finite-sample {hits_fs}/10 >= 9; oracle {hits_or}/10 == 10")


# -- 8 ------------------------------------------------------------------------


def test_c08_causal_influence():
    model = scm.Scm(scm.Dag(2, ((), (0,))),
                    (scm.linear_gaussian(), scm.linear_gaussian((1.0,))))
    est, _ = multienv.causal_influence(model, 0, 1, n_mc=100_000, seed=8)
    target = 0.5 * np.log(2.0)
    phi = mixing.Elementwise([("cubic",), ("cubic",)])
    twisted = multienv.TransformedScm(model, (1, 0), phi)
    est_t, _ = multienv.causal_influence(twisted, 1, 0, n_mc=100_000, seed=8,
                                         inner=512)
    ok = abs(est - target) <= 0.02 and abs(est_t - est) <= 0.03
    _report("criterion 8 (causal influence)", ok,
            f"|{est:.4f} - ln(2)/2| <= 0.02; transport shift "
            f"|{est_t:.4f} - {est:.4f}| <= 0.03")


# -- 9 ------------------------------------------------------------------------

# frozen 10^7-sample oracle (seed 20250801) for the reference instance
# V1 ~ N(0,1), V2|V1 ~ N(v1, 2.5^2), ptilde1 = N(2,1), ptilde2 = N(0, 0.8^2)
GENERICITY_REFERENCE = -1.242079897177764
GENERICITY_REFERENCE_SE = 0.00435556268253737


def test_c09_genericity_machinery():
    base = scm.Scm(scm.Dag(2, ((), (0,))),
                   (scm.linear_gaussian(),
                    scm.linear_gaussian((1.0,), 0.0, 2.5)))
    p1t = scm.linear_gaussian((), 2.0, 1.0)
    p2t = scm.linear_gaussian((), 0.0, 0.8)
    v_lin, s_lin = multienv.genericity_gap(
        base, p1t, p2t, multienv.GenericityProbe("linear", 200_000, 6))
    v_sq, s_sq = multienv.genericity_gap(
        base, p1t, p2t, multienv.GenericityProbe("square", 200_000, 17))
    joint = 3 * float(np.hypot(s_sq, GENERICITY_REFERENCE_SE))
    ok = (abs(v_lin) <= 3 * s_lin
          and abs(v_sq) > 3 * s_sq
          and abs(v_sq - GENERICITY_REFERENCE) <= joint)
    _report("criterion 9 (genericity machinery)", ok,
            f"linear control |{v_lin:.4f}| <= {3 * s_lin:.4f}; "
            f"square gap {v_sq:.4f} nonzero, within {joint:.4f} of frozen "
            f"reference {GENERICITY_REFERENCE:.4f}")


# -- 10 -----------------------------------------------------------------------


def test_c10_property_suite():
    t0 = time.time()
    results = run_property_suite(seed=0)
    elapsed = time.time() - t0
    failures = [r for r in results if not r["passed"]]
    ok = not failures and elapsed < 120
    detail = f"{len(results)} checks in {elapsed:.1f}s"
    if failures:
        detail += "; failing: " + ", ".join(f"{r['name']} ({r['detail']})"
                                            for r in failures)
    _report("criterion 10 (property suite)", ok, detail)
