"""Command-line entry point: experiment pipelines, persistence, reports.

Every run receives a JSON config (or uses the bundled defaults), writes its
artifacts plus a run manifest into the output directory, and persists the
fully-resolved config so the run is reproducible byte for byte.

Exit codes: 0 success, 1 configuration/usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import flow as flow_mod
from . import metrics, mixing, multienv, multiview, mss as mss_mod, spurious
from . import scm as scm_mod
from .contrast import box_sampler, global_ima
from .errors import ConfigError, CrlLabError, DatasetFormatError
from .metrics import config_hash
from .properties import run_property_suite
from .rng import child_seed

_FLOAT_FMT = "{:.16e}"  # 17 significant digits: exact float64 round trip


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "gen-data": {
        "process": "crl",            # crl | mss
        "n": 2,
        "rows_per_env": 3000,
        "n_envs": 6,                  # mss only
        "mixing_kind": "mlp",         # crl only
    },
    "ima-eval": {
        "mixing": "polar",
        "source": {"kind": "box", "lows": [1e-9, 0.0],
                   "highs": [3.0, 6.283185307179586]},
        "n_mc": 100_000,
    },
    "ima-sweep": {
        "thetas": [0.0, 0.19634954, 0.39269908, 0.58904862, 0.78539816,
                   0.9817477, 1.17809725, 1.37444679, 1.57079633],
        "n_mc": 50_000,
        "moebius_seed": 7,
    },
    "ima-train": {
        "n_seeds": 5,
        "lambdas": [0.0, 1.0],
        "rows": 4000,
        "epochs": 60,
        "lr": 3e-3,
        "batch_size": 256,
    },
    "multiview": {
        "n_c": 3,
        "n_s": 3,
        "statistical": False,
        "causal": False,
        "change_prob": 1.0,
        "n_pairs": 20_000,
        "seeds": [0, 1, 2],
        "epochs": 60,
    },
    "crl-sweep": {
        "n_seeds": 10,
        "rows_per_env": 3000,
        "epochs": 250,
        "lr": 5e-3,
        "batch_size": 512,
        "n_couplings": 6,
        "hidden": [16],
    },
    "mss": {
        "dataset": None,              # path to an external CSV, or null
        "n": 3,
        "n_envs": 6,
        "rows_per_env": 2000,
        "test": "linear-gaussian",    # linear-gaussian | oracle
        "alpha": 0.05,
    },
    "influence": {
        "edge_weight": 1.0,
        "edge": [0, 1],
        "n_mc": 100_000,
    },
    "verify-props": {},
    "report": {
        "input_dir": None,
    },
}


def _num(lo=None, hi=None, integer=False, open_bounds=False):
    """A number (an integer with ``integer``) within [lo, hi], or within
    (lo, hi) with ``open_bounds``; a None bound is unbounded."""
    kinds = int if integer else (int, float)

    def ok(v):
        if isinstance(v, bool) or not isinstance(v, kinds):
            return False
        if open_bounds:
            return (lo is None or v > lo) and (hi is None or v < hi)
        return (lo is None or v >= lo) and (hi is None or v <= hi)

    what = "an integer" if integer else "a number"
    if hi is not None:
        what += f" in ({lo}, {hi})" if open_bounds else f" in [{lo}, {hi}]"
    elif lo is not None:
        what += f" > {lo}" if open_bounds else f" >= {lo}"
    return ok, what


def _int(lo=None, hi=None):
    return _num(lo, hi, integer=True)


def _list(item, min_len=1, max_len=None):
    item_ok, item_what = item

    def ok(v):
        return (isinstance(v, list) and len(v) >= min_len
                and (max_len is None or len(v) <= max_len)
                and all(item_ok(x) for x in v))

    size = f"{min_len}" + ("" if max_len == min_len else
                           " or more" if max_len is None else f" to {max_len}")
    return ok, f"a list of {size} items, each {item_what}"


def _one_of(*choices):
    return (lambda v: any(v == c and type(v) is type(c) for c in choices),
            f"one of {list(choices)}")


# what each config value must be, checked by load_config: key -> (test,
# description); a "<command>:<key>" entry replaces the plain key's entry for
# that command
_VALID = {
    "process": _one_of("crl", "mss"),
    "n": _int(1),
    "mss:n": _int(1, 4),  # labeled-DAG enumeration stops at n = 4
    "rows_per_env": _int(1),
    "n_envs": _int(1),
    "mixing_kind": _one_of("mlp", "identity", "moebius"),
    "n_mc": _int(1),
    "thetas": _list(_num()),
    "moebius_seed": _int(0),
    "n_seeds": _int(1),
    "lambdas": _list(_num(0)),
    "rows": _int(2),
    "epochs": _int(1),
    "lr": _num(0, open_bounds=True),
    "batch_size": _int(2),
    "n_c": _int(1),
    "n_s": _int(1),
    "statistical": _one_of(False, True),
    "causal": _one_of(False, True),
    "change_prob": _num(0, 1),
    "n_pairs": _int(2),
    "seeds": _list(_int(0)),
    "n_couplings": _int(1),
    "hidden": _list(_int(1), min_len=0),
    "test": _one_of("linear-gaussian", "oracle"),
    "alpha": _num(0, 1, open_bounds=True),
    "edge_weight": _num(),
    "edge": _list(_int(0, 1), 2, 2),
}


def load_config(command: str, path: str | None) -> dict:
    defaults = _DEFAULTS[command]
    cfg = dict(defaults)
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path}: invalid JSON at line "
                              f"{exc.lineno}, column {exc.colno}") from exc
        except OSError as exc:
            raise ConfigError(f"config {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError(f"config {path}: top level must be an object")
        user.pop("schema", None)
        unknown = sorted(set(user) - set(defaults))
        if unknown:
            raise ConfigError(
                f"config {path}: unknown key(s) {unknown}; "
                f"allowed: {sorted(defaults)}"
            )
        for key, value in user.items():
            ok, what = _VALID.get(f"{command}:{key}", _VALID.get(key, (None, "")))
            if ok is not None and not ok(value):
                raise ConfigError(f"config {path}: {key} = {value!r} must be {what}")
        cfg.update(user)
    cfg["schema"] = f"crl-lab/{command}/v1"
    return cfg


# ---------------------------------------------------------------------------
# run manifest and artifact helpers
# ---------------------------------------------------------------------------


class RunContext:
    def __init__(self, command: str, cfg: dict, out_dir: Path, seed: int,
                 threads: int):
        self.command = command
        self.cfg = cfg
        self.out = out_dir
        self.seed = seed
        self.threads = threads
        self.artifacts = []
        self.t0 = time.time()
        out_dir.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> Path:
        p = self.out / name
        self.artifacts.append(name)
        return p

    def write_csv(self, name: str, header, rows):
        """Write a CSV; a cell holding a comma or quote is quoted."""
        p = self.path(name)
        with open(p, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([_FLOAT_FMT.format(c) if isinstance(c, float) else str(c)
                              for c in row] for row in rows)
        return p

    def write_json(self, name: str, obj):
        p = self.path(name)
        with open(p, "w") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
            fh.write("\n")
        return p

    def finalize(self):
        resolved = dict(self.cfg)
        resolved["seed"] = self.seed
        self.write_json("config.resolved.json", resolved)
        manifest = {
            "command": self.command,
            "config_hash": config_hash(resolved),
            "seed": self.seed,
            "threads": self.threads,
            "artifacts": sorted(set(self.artifacts)) + ["manifest.json"],
            "wall_clock_s": round(time.time() - self.t0, 3),
            "versions": {
                "crl-lab": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "python": platform.python_version(),
            },
        }
        with open(self.out / "manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return manifest


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# dataset persistence
# ---------------------------------------------------------------------------


def save_dataset(ds: scm_mod.MultiEnvDataset, path, ctx: RunContext | None = None):
    """Write the observation CSV, the optional latent CSV, and the sidecar."""
    path = Path(path)
    d = ds.d
    header = ["env_id"] + [f"x_{j}" for j in range(d)]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for e, env in enumerate(ds.envs):
            for row in env.x:
                fh.write(str(e) + "," +
                         ",".join(_FLOAT_FMT.format(v) for v in row) + "\n")
    written = [path]

    latents_path = None
    if all(env.v is not None for env in ds.envs):
        latents_path = path.with_suffix(".latents.csv")
        n = ds.envs[0].v.shape[1]
        with open(latents_path, "w") as fh:
            fh.write(",".join(["env_id"] + [f"v_{j}" for j in range(n)]) + "\n")
            for e, env in enumerate(ds.envs):
                for row in env.v:
                    fh.write(str(e) + "," +
                             ",".join(_FLOAT_FMT.format(v) for v in row) + "\n")
        written.append(latents_path)

    sidecar = {
        "seed": ds.seed,
        "env_specs": [env.spec.to_dict() if env.spec else None
                      for env in ds.envs],
        "scm": ds.meta.scm.to_dict() if ds.meta and ds.meta.scm else None,
        "mixing": ds.meta.mixing if ds.meta else None,
        "extra": ds.meta.extra if ds.meta else {},
        "latents": latents_path.name if latents_path else None,
    }
    meta_path = path.with_suffix(".meta.json")
    with open(meta_path, "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    written.append(meta_path)
    if ctx is not None:
        for p in written:
            ctx.artifacts.append(p.name)
    return written


def _read_env_csv(path, prefix):
    env_ids = []
    rows = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if not header or header[0] != "env_id":
            raise DatasetFormatError(f"{path}: first column must be env_id")
        d = len(header) - 1
        expected = [f"{prefix}_{j}" for j in range(d)]
        if header[1:] != expected:
            raise DatasetFormatError(
                f"{path}: expected columns {['env_id'] + expected}, got {header}"
            )
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != d + 1:
                raise DatasetFormatError(
                    f"{path}: row {lineno} has {len(cells)} cells, expected {d + 1}"
                )
            try:
                env_ids.append(int(cells[0]))
                rows.append([float(c) for c in cells[1:]])
            except ValueError as exc:
                raise DatasetFormatError(f"{path}: row {lineno}: {exc}") from exc
    return np.asarray(env_ids), np.asarray(rows)


def load_dataset(path) -> scm_mod.MultiEnvDataset:
    """Round-trip partner of :func:`save_dataset`.

    Without a sidecar the dataset loads with ``meta=None``; ground-truth
    dependent operations (oracle tests, MCC against latents) are then
    unavailable.
    """
    path = Path(path)
    env_ids, x = _read_env_csv(path, "x")
    uniq = sorted(set(int(e) for e in env_ids))
    if uniq != list(range(len(uniq))):
        raise DatasetFormatError(
            f"{path}: env ids must be 0..k-1 without gaps, got {uniq}"
        )

    meta_path = path.with_suffix(".meta.json")
    sidecar = None
    if meta_path.exists():
        with open(meta_path) as fh:
            sidecar = json.load(fh)

    latents = None
    if sidecar and sidecar.get("latents"):
        lat_ids, latents_arr = _read_env_csv(path.parent / sidecar["latents"], "v")
        if not np.array_equal(lat_ids, env_ids):
            raise DatasetFormatError("latent sidecar env ids disagree with data")
        latents = latents_arr

    envs = []
    for e in uniq:
        sel = env_ids == e
        spec = scm_mod.InterventionSpec()
        if sidecar and sidecar.get("env_specs") and sidecar["env_specs"][e]:
            spec = scm_mod.InterventionSpec.from_dict(sidecar["env_specs"][e])
        envs.append(scm_mod.EnvData(spec, x[sel],
                                    latents[sel] if latents is not None else None))
    meta = None
    if sidecar is not None:
        meta = scm_mod.DatasetMeta(
            scm=scm_mod.Scm.from_dict(sidecar["scm"]) if sidecar.get("scm") else None,
            mixing=sidecar.get("mixing"),
            extra=sidecar.get("extra", {}),
        )
    return scm_mod.MultiEnvDataset(tuple(envs),
                                   sidecar.get("seed", 0) if sidecar else 0,
                                   meta)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_gen_data(ctx: RunContext):
    cfg = ctx.cfg
    if cfg["process"] == "crl":
        problem = multienv.CrlProblemConfig(
            n=cfg["n"], d=cfg["n"], rows_per_env=cfg["rows_per_env"],
            mixing_kind=cfg["mixing_kind"])
        ds = multienv.generate_crl_problem(problem, ctx.seed)
    elif cfg["process"] == "mss":
        ds = mss_mod.generate_mss_problem(cfg["n"], cfg["n_envs"],
                                          cfg["rows_per_env"], ctx.seed)
    else:
        raise ConfigError("process must be 'crl' or 'mss'")
    save_dataset(ds, ctx.out / "dataset.csv", ctx)


def _build_mixing(spec):
    if spec == "polar":
        return mixing.PolarToCartesian()
    if isinstance(spec, dict):
        return mixing.mixing_from_dict(spec)
    raise ConfigError(f"unsupported mixing spec {spec!r}")


def _build_sampler(spec):
    if spec["kind"] != "box":
        raise ConfigError("only box samplers are supported in configs")
    return box_sampler(spec["lows"], spec["highs"])


def _cmd_ima_eval(ctx: RunContext):
    mix = _build_mixing(ctx.cfg["mixing"])
    sampler = _build_sampler(ctx.cfg["source"])
    est = global_ima(mix, sampler, n_mc=ctx.cfg["n_mc"], seed=ctx.seed)
    ctx.write_csv("ima_eval.csv",
                  ["estimate", "stderr", "n_mc", "seed"],
                  [[est.value, est.stderr, est.n_mc, est.seed]])


def _cmd_ima_sweep(ctx: RunContext):
    """IMA contrast of a conformal mixing composed with rotated-Gaussian
    automorphisms over a grid of rotation angles."""
    cfg = ctx.cfg
    mix = mixing.random_moebius(2, cfg["moebius_seed"])
    marginals = [spurious.UniformMarginal(0, 1), spurious.UniformMarginal(0, 1)]
    sampler = box_sampler([1e-9, 1e-9], [1.0, 1.0])
    rows = []
    for k, theta in enumerate(cfg["thetas"]):
        mpa = spurious.MpaMap(mixing.rotation_2d(theta), marginals)
        composed = mixing.Composition([mpa, mix])
        est = global_ima(composed, sampler, n_mc=cfg["n_mc"],
                         seed=child_seed(ctx.seed, "sweep", k))
        rows.append([float(theta), est.value, est.stderr, est.n_mc, est.seed])
    ctx.write_csv("sweep.csv", ["theta", "estimate", "stderr", "n_mc", "seed"],
                  rows)


def _bss_cell(args):
    seed, lam, cfg = args
    from .rng import spawn
    rng = spawn(seed, "bss-data")
    s = rng.uniform(0, 1, size=(cfg["rows"], 2))
    mixer = mixing.random_moebius(2, seed=child_seed(seed, "bss-mix"))
    x = mixer.forward(s)
    fl = flow_mod.default_bss_flow(2, n_couplings=4, hidden=(12,))
    fl.init_params(child_seed(seed, "bss-init"))
    flow_mod.init_whitening(fl, x)
    tc = flow_mod.TrainConfig(lr=cfg["lr"], epochs=cfg["epochs"],
                              batch_size=cfg["batch_size"], ima_weight=lam,
                              patience=15, seed=seed)
    res = flow_mod.train_mle(fl, x, tc)
    z, _, _ = res.model.encode(x)
    score, _ = metrics.mcc(z, s)
    return [seed, float(lam), score, res.best_val], res.history, \
        res.model.to_dict()


def _cmd_ima_train(ctx: RunContext):
    cfg = ctx.cfg
    cells = [(child_seed(ctx.seed, "seed", k), lam, cfg)
             for k in range(cfg["n_seeds"]) for lam in cfg["lambdas"]]
    results = _map_cells(_bss_cell, cells, ctx.threads)
    rows = [r for r, _, _ in results]
    ctx.write_csv("bss.csv", ["seed", "lambda", "mcc", "val_objective"], rows)
    for (seed, lam, _, _), history, checkpoint in results:
        tag = f"{seed}_lam{lam:g}"
        ctx.write_csv(f"history_{tag}.csv", ["epoch", "train", "val"],
                      [[h["epoch"], float(h["train"]), float(h["val"])]
                       for h in history])
        ctx.write_json(f"checkpoint_{tag}.json", checkpoint)
    by_lam = {}
    for seed, lam, score, _ in rows:
        by_lam.setdefault(lam, []).append(score)
    summary = {str(lam): {"median_mcc": float(np.median(v)), "n": len(v)}
               for lam, v in by_lam.items()}
    ctx.write_json("summary.json", summary)


def _cmd_multiview(ctx: RunContext):
    cfg = ctx.cfg
    rows = []
    for seed in cfg["seeds"]:
        proc = multiview.default_process(
            n_c=cfg["n_c"], n_s=cfg["n_s"], statistical=cfg["statistical"],
            causal=cfg["causal"], change_prob=cfg["change_prob"],
            seed=child_seed(ctx.seed, "proc", seed))
        exp_cfg = multiview.ContentExperimentConfig(
            n_pairs=cfg["n_pairs"],
            train=flow_mod.TrainConfig(lr=1e-3, epochs=cfg["epochs"],
                                       n_negatives=256, temperature=0.5,
                                       patience=15, seed=seed),
            seed=seed)
        report = multiview.content_experiment(proc, exp_cfg)
        rows.append([seed, report.r2_per_block["content"],
                     report.r2_per_block["style"], report.config_hash])
    ctx.write_csv("multiview.csv", ["seed", "r2_content", "r2_style",
                                    "config_hash"], rows)


def _crl_cell(args):
    seed, cfg = args
    data = multienv.generate_crl_problem(
        multienv.CrlProblemConfig(rows_per_env=cfg["rows_per_env"]), seed=seed)
    x_all = np.concatenate([e.x for e in data.envs])
    v_all = np.concatenate([e.v for e in data.envs])

    def factory():
        return flow_mod.default_bss_flow(2, n_couplings=cfg["n_couplings"],
                                         hidden=tuple(cfg["hidden"]))

    cands = multienv.enumerate_bivariate_candidates(data, factory)
    tc = flow_mod.TrainConfig(lr=cfg["lr"], epochs=cfg["epochs"],
                              batch_size=cfg["batch_size"], patience=40,
                              seed=child_seed(seed, "fit"))
    fitted = []
    rows = []
    for cand in cands:
        cand, per_env, total = multienv.fit_candidate(cand, data, tc)
        z, _, _ = cand.flow.encode(x_all)
        score, _ = metrics.mcc(z, v_all)
        fitted.append((cand, per_env, total))
        rows.append([seed, cand.cid,
                     ";".join(f"{p}>{c}" for p, c in cand.graph.edges()) or "empty",
                     ";".join(f"e{e}:{t}" for e, t in sorted(cand.targets.items())),
                     total, score])
    winner, _ = multienv.select_candidate(fitted)
    return rows, winner[0].cid


def _cmd_crl_sweep(ctx: RunContext):
    cfg = ctx.cfg
    cells = [(child_seed(ctx.seed, "gt", k), cfg) for k in range(cfg["n_seeds"])]
    results = _map_cells(_crl_cell, cells, ctx.threads)
    all_rows = [row for rows, _ in results for row in rows]
    ctx.write_csv("crl_sweep.csv",
                  ["seed", "candidate", "graph", "targets", "heldout_ll", "mcc"],
                  all_rows)
    winners = [w for _, w in results]
    ctx.write_json("winners.json", {
        "winners": winners,
        "correct_id": "g[0>1]|t[e1:0,e2:1]",
        "n_correct": sum(w == "g[0>1]|t[e1:0,e2:1]" for w in winners),
    })


def _cmd_mss(ctx: RunContext):
    cfg = ctx.cfg
    if cfg["dataset"]:
        data = load_dataset(cfg["dataset"])
        n = data.d
    else:
        data = mss_mod.generate_mss_problem(cfg["n"], cfg["n_envs"],
                                            cfg["rows_per_env"], ctx.seed)
        save_dataset(data, ctx.out / "dataset.csv", ctx)
        n = cfg["n"]
    test = mss_mod.CiInvarianceTest(cfg["test"], alpha=cfg["alpha"])
    result = mss_mod.mss_discover(data, test, n)
    rows = []
    for rank, i in enumerate(result.ranking):
        dag = result.dags[i]
        rows.append([i, ";".join(f"{p}>{c}" for p, c in dag.edges()) or "empty",
                     result.hard[i], result.soft[i], int(i in result.minimizers),
                     rank])
    ctx.write_csv("mss.csv", ["dag_id", "edges", "hard", "soft", "minimizer",
                              "rank"], rows)


def _cmd_influence(ctx: RunContext):
    cfg = ctx.cfg
    a = float(cfg["edge_weight"])
    dag = scm_mod.Dag(2, ((), (0,)))
    model = scm_mod.Scm(dag, (scm_mod.linear_gaussian(),
                              scm_mod.linear_gaussian((a,))))
    i, j = cfg["edge"]
    value, stderr = multienv.causal_influence(model, i, j, n_mc=cfg["n_mc"],
                                              seed=ctx.seed)
    closed_form = 0.5 * np.log(1.0 + a * a)
    ctx.write_json("influence.json", {
        "edge": [i, j], "edge_weight": a,
        "estimate_nats": value, "stderr": stderr,
        "closed_form_nats": closed_form,
    })


def _cmd_verify_props(ctx: RunContext):
    results = run_property_suite(ctx.seed)
    rows = [[r["name"], int(r["passed"]), r["detail"]] for r in results]
    ctx.write_csv("props.csv", ["check", "passed", "detail"], rows)
    if not all(r["passed"] for r in results):
        raise CrlLabError("property suite reported failures; see props.csv")


def _cmd_report(ctx: RunContext):
    src = ctx.cfg.get("input_dir")
    if not src:
        raise ConfigError("report needs input_dir in its config")
    src = Path(src)
    sweeps = sorted(src.rglob("sweep.csv"))
    if not sweeps:
        raise ConfigError(f"no sweep.csv files found under {src}")
    acc = {}
    for p in sweeps:
        with open(p) as fh:
            header = fh.readline().strip().split(",")
            if header[:3] != ["theta", "estimate", "stderr"]:
                raise DatasetFormatError(f"{p}: not an ima-sweep output")
            for line in fh:
                cells = line.strip().split(",")
                theta = float(cells[0])
                acc.setdefault(theta, []).append(
                    (float(cells[1]), float(cells[2])))
    rows = []
    for theta in sorted(acc):
        ests = np.array([e for e, _ in acc[theta]])
        ses = np.array([s for _, s in acc[theta]])
        pooled_se = float(np.sqrt(np.sum(ses**2)) / len(ses))
        rows.append([theta, float(ests.mean()), pooled_se, len(ests)])
    ctx.write_csv("report.csv", ["theta", "mean_estimate", "pooled_stderr",
                                 "n_runs"], rows)


def _map_cells(fn, cells, threads):
    if threads <= 1 or len(cells) <= 1:
        return [fn(c) for c in cells]
    with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, cells))


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "ima-eval": _cmd_ima_eval,
    "ima-sweep": _cmd_ima_sweep,
    "ima-train": _cmd_ima_train,
    "multiview": _cmd_multiview,
    "crl-sweep": _cmd_crl_sweep,
    "mss": _cmd_mss,
    "influence": _cmd_influence,
    "verify-props": _cmd_verify_props,
    "report": _cmd_report,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="crl-lab",
        description="Numerical laboratory for identifiability in causal "
                    "representation learning.",
    )
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None,
                       help="JSON config; defaults are used when omitted")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=str, default=None,
                       help="output directory (default: ./runs/<command>)")
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes for sweep cells "
                            "(default: CRL_LAB_THREADS or 1)")
        p.add_argument("--deterministic", action="store_true",
                       help="force single-threaded, bitwise-reproducible mode")
    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        cfg = load_config(args.command, args.config)
        threads = args.threads
        if threads is None:
            threads = int(os.environ.get("CRL_LAB_THREADS", "1"))
        if args.deterministic:
            threads = 1
        out = Path(args.out) if args.out else Path("runs") / args.command
        ctx = RunContext(args.command, cfg, out, args.seed, threads)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _COMMANDS[args.command](ctx)
        ctx.finalize()
    except (ConfigError, DatasetFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CrlLabError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - report and map to exit code
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
