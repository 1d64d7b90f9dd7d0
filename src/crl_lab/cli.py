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
from .errors import ConfigError, CrlLabError, DatasetFormatError, DomainError
from .metrics import config_hash
from .properties import run_property_suite
from .rng import child_seed

_FLOAT_FMT = "{:.16e}"  # 17 significant digits: exact float64 round trip


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def _num(lo=None, hi=None, integer=False, bounds="[]"):
    """A number (an integer with ``integer``) between lo and hi, each bound
    closed or open as ``bounds`` says ("[]", "(]", "[)" or "()"); a None
    bound is unbounded."""
    kinds = int if integer else (int, float)

    def ok(v):
        if isinstance(v, bool) or not isinstance(v, kinds):
            return False
        return ((lo is None or (v > lo if bounds[0] == "(" else v >= lo))
                and (hi is None or (v < hi if bounds[1] == ")" else v <= hi)))

    what = "an integer" if integer else "a number"
    if hi is not None:
        what += f" in {bounds[0]}{lo}, {hi}{bounds[1]}"
    elif lo is not None:
        what += f" > {lo}" if bounds[0] == "(" else f" >= {lo}"
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


_PATH = (lambda v: v is None or isinstance(v, str), "null or a path string")


# each command's config keys: key -> (default, (test, description)); load_config
# fills in the defaults and rejects a value that fails its key's test
_CONFIG = {
    "gen-data": {
        "process": ("crl", _one_of("crl", "mss")),
        "n": (2, _int(1)),
        "rows_per_env": (3000, _int(1)),
        "n_envs": (6, _int(1)),                                     # mss only
        "mixing_kind": ("mlp", _one_of("mlp", "identity", "moebius")),  # crl only
    },
    "ima-eval": {
        # the deep checks are _build_mixing's and _build_sampler's
        "mixing": ("polar", (lambda v: v == "polar" or isinstance(v, dict),
                             "'polar' or an object")),
        "source": ({"kind": "box", "lows": [1e-9, 0.0],
                    "highs": [3.0, 6.283185307179586]},
                   (lambda v: isinstance(v, dict), "an object")),
        "n_mc": (100_000, _int(1)),
    },
    "ima-sweep": {
        "thetas": ([0.0, 0.19634954, 0.39269908, 0.58904862, 0.78539816,
                    0.9817477, 1.17809725, 1.37444679, 1.57079633], _list(_num())),
        "n_mc": (50_000, _int(1)),
        "moebius_seed": (7, _int(0)),
    },
    "ima-train": {
        "n_seeds": (5, _int(1)),
        "lambdas": ([0.0, 1.0], _list(_num(0))),
        # the smallest sizes whose first epoch takes an optimizer step: below
        # them the validation split leaves no mini-batch of two training rows
        "rows": (4000, _int(3)),
        "epochs": (60, _int(1)),
        "lr": (3e-3, _num(0, bounds="()")),
        "batch_size": (256, _int(2)),
    },
    "multiview": {
        "n_c": (3, _int(1)),
        "n_s": (3, _int(1)),
        "statistical": (False, _one_of(False, True)),
        "causal": (False, _one_of(False, True)),
        "change_prob": (1.0, _num(0, 1, bounds="(]")),
        "n_pairs": (20_000, _int(3)),                 # see ima-train's rows
        "seeds": ([0, 1, 2], _list(_int(0))),
        "epochs": (60, _int(1)),
    },
    "crl-sweep": {
        "n_seeds": (10, _int(1)),
        "rows_per_env": (3000, _int(2)),              # see ima-train's rows
        "epochs": (250, _int(1)),
        "lr": (5e-3, _num(0, bounds="()")),
        "batch_size": (512, _int(2)),
        "n_couplings": (6, _int(1)),
        "hidden": ([16], _list(_int(1), min_len=0)),
    },
    "mss": {
        "dataset": (None, _PATH),                     # an external dataset CSV
        "n": (3, _int(1, mss_mod.MAX_NODES)),
        "n_envs": (6, _int(2)),  # the score compares environment pairs
        "rows_per_env": (2000, _int(1)),
        "test": ("linear-gaussian", _one_of("linear-gaussian", "oracle")),
        "alpha": (0.05, _num(0, 1, bounds="()")),
    },
    "influence": {
        "edge_weight": (1.0, _num()),
        # the influence model's graph has the one edge 0 -> 1
        "edge": ([0, 1], (lambda v: v == [0, 1] and all(type(x) is int for x in v),
                          "[0, 1], the graph's one edge")),
        "n_mc": (100_000, _int(2)),  # the standard error needs two draws
    },
    "verify-props": {},
    "report": {
        "input_dir": (None, _PATH),
    },
}


def load_config(command: str, path: str | None) -> dict:
    spec = _CONFIG[command]
    cfg = {key: default for key, (default, _) in spec.items()}
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
        unknown = sorted(set(user) - set(spec))
        if unknown:
            raise ConfigError(
                f"config {path}: unknown key(s) {unknown}; "
                f"allowed: {sorted(spec)}"
            )
        for key, value in user.items():
            ok, what = spec[key][1]
            if not ok(value):
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
    written = [path]
    latents_path = None
    shared = False
    if all(env.v is not None for env in ds.envs):
        latents_path = path.with_suffix(".latents.csv")
        written.append(latents_path)
        # identity mixing: the latents are the observations, so one pass
        # formats each row once for both files
        shared = all(env.v is env.x for env in ds.envs)
    targets = [(path, "x")]
    if shared:
        targets.append((latents_path, "v"))
    _write_env_csv(targets, [env.x for env in ds.envs])
    if latents_path is not None and not shared:
        _write_env_csv([(latents_path, "v")], [env.v for env in ds.envs])

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


# rows per ``%`` call in _write_env_csv; a whole block's text at once costs memory
_CSV_CHUNK_ROWS = 256


def _write_env_csv(targets, blocks):
    """One row per sample: the block's index as env_id, then the values.

    Every ``(path, prefix)`` target gets the same rows under its own column
    prefix.  A block is formatted in chunks of ``_CSV_CHUNK_ROWS`` rows, each
    by one ``%`` call on a repeated ``"<e>,%.16e,...\\n"`` row template, and
    each chunk's text is written to every target.  ``%.16e`` is the same
    conversion as ``_FLOAT_FMT``, so the bytes equal a row-by-row
    ``"{:.16e}".format`` writer's.
    """
    d = blocks[0].shape[1]
    files = []
    try:
        for path, prefix in targets:
            files.append(open(path, "w"))
            files[-1].write(",".join(["env_id"] + [f"{prefix}_{j}" for j in range(d)])
                            + "\n")
        for e, block in enumerate(blocks):
            row = f"{e}" + ",%.16e" * d + "\n"
            for start in range(0, len(block), _CSV_CHUNK_ROWS):
                chunk = block[start:start + _CSV_CHUNK_ROWS]
                text = (row * len(chunk)) % tuple(chunk.ravel().tolist())
                for fh in files:
                    fh.write(text)
    finally:
        for fh in files:
            fh.close()


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
        if cfg["n"] < 2:
            raise ConfigError(f"n = {cfg['n']!r} must be an integer >= 2 for the "
                              f"crl process, whose graph has the edge 0 -> 1")
        problem = multienv.CrlProblemConfig(
            n=cfg["n"], d=cfg["n"], rows_per_env=cfg["rows_per_env"],
            mixing_kind=cfg["mixing_kind"])
        ds = multienv.generate_crl_problem(problem, ctx.seed)
    else:
        ds = mss_mod.generate_mss_problem(cfg["n"], cfg["n_envs"],
                                          cfg["rows_per_env"], ctx.seed)
    save_dataset(ds, ctx.out / "dataset.csv", ctx)


def _build_mixing(spec):
    if spec == "polar":
        return mixing.PolarToCartesian()
    if isinstance(spec, dict):
        try:
            return mixing.mixing_from_dict(spec)
        except KeyError as exc:
            raise ConfigError(f"mixing {spec!r} lacks the key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"mixing {spec!r}: {exc}") from exc
    raise ConfigError(f"unsupported mixing spec {spec!r}")


def _build_sampler(spec, n):
    """The box sampler of a ``source`` spec, over the mixing's n inputs."""
    if not isinstance(spec, dict) or spec.get("kind") != "box":
        raise ConfigError("only box samplers are supported in configs")
    bounds_ok, what = _list(_num(), n, n)
    lows, highs = spec.get("lows"), spec.get("highs")
    if not (bounds_ok(lows) and bounds_ok(highs)
            and all(lo <= hi for lo, hi in zip(lows, highs))):
        raise ConfigError(f"source lows and highs must each be {what}, with "
                          f"lows <= highs; got {lows!r} and {highs!r}")
    return box_sampler(lows, highs)


def _cmd_ima_eval(ctx: RunContext):
    mix = _build_mixing(ctx.cfg["mixing"])
    sampler = _build_sampler(ctx.cfg["source"], mix.n)
    try:
        est = global_ima(mix, sampler, n_mc=ctx.cfg["n_mc"], seed=ctx.seed)
    except DomainError as exc:
        raise ConfigError(f"source {ctx.cfg['source']!r} leaves the mixing's "
                          f"domain: {exc}") from exc
    ctx.write_csv("ima_eval.csv",
                  ["estimate", "stderr", "n_mc", "seed"],
                  [[est.value, est.stderr, est.n_mc, est.seed]])


def _sweep_cell(args):
    k, theta, seed, cfg = args
    mix = mixing.random_moebius(2, cfg["moebius_seed"])
    marginals = [spurious.UniformMarginal(0, 1), spurious.UniformMarginal(0, 1)]
    mpa = spurious.MpaMap(mixing.rotation_2d(theta), marginals)
    est = global_ima(mixing.Composition([mpa, mix]),
                     box_sampler([1e-9, 1e-9], [1.0, 1.0]), n_mc=cfg["n_mc"],
                     seed=child_seed(seed, "sweep", k))
    return [float(theta), est.value, est.stderr, est.n_mc, est.seed]


def _cmd_ima_sweep(ctx: RunContext):
    """IMA contrast of a conformal mixing composed with rotated-Gaussian
    automorphisms over a grid of rotation angles."""
    cells = [(k, theta, ctx.seed, ctx.cfg)
             for k, theta in enumerate(ctx.cfg["thetas"])]
    ctx.write_csv("sweep.csv", ["theta", "estimate", "stderr", "n_mc", "seed"],
                  _map_cells(_sweep_cell, cells, ctx.threads))


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
    z, _, _, _ = res.model.encode(x)
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


def _multiview_cell(args):
    seed, run_seed, cfg = args
    proc = multiview.default_process(
        n_c=cfg["n_c"], n_s=cfg["n_s"], statistical=cfg["statistical"],
        causal=cfg["causal"], change_prob=cfg["change_prob"],
        seed=child_seed(run_seed, "proc", seed))
    exp_cfg = multiview.ContentExperimentConfig(
        n_pairs=cfg["n_pairs"],
        train=flow_mod.TrainConfig(lr=1e-3, epochs=cfg["epochs"],
                                   n_negatives=256, temperature=0.5,
                                   patience=15),
        seed=seed)
    return multiview.encode_content(proc, exp_cfg)


def _cmd_multiview(ctx: RunContext):
    cfg = ctx.cfg
    cells = [(seed, ctx.seed, cfg) for seed in cfg["seeds"]]
    encoded = _map_cells(_multiview_cell, cells, ctx.threads)
    # the kernel-ridge solves set the memory peak, so they run here, one at
    # a time, after the pool's workers have exited
    rows = []
    for seed, (features, targets, exp_cfg) in zip(cfg["seeds"], encoded):
        report = multiview.score_content(features, targets, exp_cfg)
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
        z, _, _, _ = cand.flow.encode(x_all)
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
    test = mss_mod.CiInvarianceTest(cfg["test"], alpha=cfg["alpha"])
    if cfg["dataset"]:
        try:
            data = load_dataset(cfg["dataset"])
        except OSError as exc:
            raise ConfigError(f"dataset {cfg['dataset']!r}: {exc}") from exc
        # checked before any file is written, like a generated problem's n
        # and n_envs in load_config
        if len(data.envs) < 2:
            raise ConfigError(f"mss compares environment pairs; {cfg['dataset']} "
                              f"has {len(data.envs)} environment(s)")
        if test.kind == "oracle" and not data.has_ground_truth:
            raise ConfigError(f"the oracle test needs the ground truth of "
                              f"{cfg['dataset']}, but it has no sidecar")
        n = data.d
        if n > mss_mod.MAX_NODES:
            raise ConfigError(f"mss enumerates labeled DAGs only up to "
                              f"n={mss_mod.MAX_NODES}; {cfg['dataset']} has "
                              f"{n} columns")
        n_rows = min(env.x.shape[0] for env in data.envs)
        where = f"an environment of {cfg['dataset']}"
    else:
        data = None
        n, n_rows, where = cfg["n"], cfg["rows_per_env"], "rows_per_env"
    n_min = mss_mod.MIN_ROWS_PER_NODE * n
    if test.kind == "linear-gaussian" and n_rows < n_min:
        raise ConfigError(f"the linear-gaussian test needs at least {n_min} rows "
                          f"per environment at n={n}; {where} has {n_rows}")
    if data is None:
        data = mss_mod.generate_mss_problem(n, cfg["n_envs"], n_rows, ctx.seed)
        save_dataset(data, ctx.out / "dataset.csv", ctx)
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
    """``fn`` over ``cells`` in order; with ``threads > 1``, in a process
    pool that has exited by the time this returns."""
    if threads <= 1 or len(cells) <= 1:
        return [fn(c) for c in cells]
    # the pool starts all its workers at once, and an idle one still costs
    # its resident memory
    workers = min(threads, len(cells))
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
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
                       help="run the cells serially, as --threads 1; the BLAS "
                            "threads are not pinned")
    return parser


def _worker_count(flag) -> int:
    """Worker processes from ``--threads``, else ``CRL_LAB_THREADS``, else 1."""
    if flag is not None:
        name, raw = "--threads", flag
    else:
        name, raw = "CRL_LAB_THREADS", os.environ.get("CRL_LAB_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigError(f"{name} must be a positive integer, got {raw!r}")
    return threads


def fix_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 1 MiB and its trim threshold at 8 MiB;
    a no-op where the C library has no ``mallopt``.

    At glibc's defaults (128 KiB, rising with each freed mmapped chunk up to
    32 MiB) the InfoNCE step's 256-512 KiB arrays are mapped, faulted in and
    unmapped on every call, and the first kernel-ridge fit's freed test
    kernel raises the threshold so that the next fit's kernels stay on the
    heap.  At 1 MiB the step's arrays are reused from the heap and every
    kernel (20 MB or more) is mapped and returned when freed.  Pool workers
    are forked, so they inherit the setting.
    """
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 1 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD


def run(argv) -> int:
    fix_malloc_thresholds()
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
        threads = _worker_count(args.threads)
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
