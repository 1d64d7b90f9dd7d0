"""The four benchmark workloads and the checks their outputs must pass.

Each workload is one ``crl_lab.cli.run(argv)`` call: a single-seed slice of
one acceptance pipeline.  This module imports nothing from numpy or the
package, so the benchmark's parent process stays light; the checks read the
result CSVs with the standard library only.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    threads: int
    config: dict
    csv_name: str
    csv_header: tuple
    csv_rows: int
    probe: str  # the speed.py kernel that run_s is scaled by


WORKLOADS = {
    w.name: w for w in (
        Workload("bss-ima", "ima-train", 1,
                 {"n_seeds": 1, "lambdas": [0.0, 1.0], "rows": 4000,
                  "epochs": 40, "lr": 0.003, "batch_size": 256},
                 "bss.csv", ("seed", "lambda", "mcc", "val_objective"), 2, "numpy"),
        Workload("crl-select", "crl-sweep", 2,
                 {"n_seeds": 1, "rows_per_env": 3000, "epochs": 100,
                  "lr": 0.005, "batch_size": 512, "n_couplings": 6,
                  "hidden": [16]},
                 "crl_sweep.csv",
                 ("seed", "candidate", "graph", "targets", "heldout_ll", "mcc"), 4,
                 "numpy"),
        Workload("multiview-nce", "multiview", 2,
                 {"n_pairs": 20000, "seeds": [0, 1], "epochs": 12},
                 "multiview.csv", ("seed", "r2_content", "r2_style", "config_hash"), 2,
                 "numpy"),
        Workload("mss-n4", "mss", 1,
                 {"n": 4, "n_envs": 6, "rows_per_env": 2000,
                  "test": "linear-gaussian", "alpha": 0.05},
                 "mss.csv", ("dag_id", "edges", "hard", "soft", "minimizer", "rank"), 543,
                 "python"),
    )
}


def cli_argv(w: Workload, config_path, out_dir, seed: int, threads=None) -> list:
    return [w.command, "--config", str(config_path), "--out", str(out_dir),
            "--seed", str(seed), "--threads", str(w.threads if threads is None else threads)]


class CheckFailed(Exception):
    """A workload's output broke one of its invariants."""


def _finite(row, *cols) -> list:
    out = []
    for c in cols:
        try:
            v = float(row[c])
        except (ValueError, IndexError) as exc:
            raise CheckFailed(f"cell {c} of {row!r} is not a number") from exc
        if not math.isfinite(v):
            raise CheckFailed(f"cell {c} of {row!r} is not finite")
        out.append(v)
    return out


def _read(path: Path, w: Workload):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != w.csv_header:
        raise CheckFailed(f"{path.name}: header {rows[:1]} != {list(w.csv_header)}")
    body = rows[1:]
    if len(body) != w.csv_rows:
        raise CheckFailed(f"{path.name}: {len(body)} data rows, expected {w.csv_rows}")
    return body


def check_outputs(w: Workload, out_dir: Path) -> dict:
    """Validate one run's result CSV; return the values it records.

    Raises :class:`CheckFailed` on the first broken invariant.  The returned
    dict feeds the result-value metrics (``metrics.mcc.min`` and so on).
    """
    body = _read(out_dir / w.csv_name, w)
    width = len(w.csv_header)
    values = {"cli.csv_bad_rows": sum(len(r) != width for r in body)}
    if w.name == "bss-ima":
        mccs = [_finite(r, 0, 1, 2, 3)[2] for r in body]
        for m in mccs:
            if not 0.5 <= m <= 1.0:
                raise CheckFailed(f"bss MCC {m} outside [0.5, 1]")
        values.update({"metrics.mcc.min": min(mccs), "metrics.mcc.max": max(mccs)})
    elif w.name == "crl-select":
        # the candidate id holds an unquoted comma, so rows can be one cell
        # wider than the header: heldout_ll and mcc are the last two cells
        mccs = []
        for r in body:
            _finite(r, 0)
            _, mcc = _finite(r, len(r) - 2, len(r) - 1)
            if not 0.0 <= mcc <= 1.0:
                raise CheckFailed(f"crl MCC {mcc} outside [0, 1]")
            mccs.append(mcc)
        values.update({"metrics.mcc.min": min(mccs), "metrics.mcc.max": max(mccs)})
    elif w.name == "multiview-nce":
        pairs = [_finite(r, 0, 1, 2)[1:] for r in body]
        for content, style in pairs:
            if content - style < 0.5:
                raise CheckFailed(f"r2_content {content} - r2_style {style} < 0.5")
        values.update({
            "metrics.krr_r2.content": min(c for c, _ in pairs),
            "metrics.krr_r2.style": max(s for _, s in pairs),
        })
    elif w.name == "mss-n4":
        rows = [(_finite(r, 0, 2, 3, 4, 5), r) for r in body]
        keys = [(v[1], v[2]) for v, _ in rows]
        if keys != sorted(keys):
            raise CheckFailed("mss.csv rows are not sorted by (hard, soft)")
        if [int(v[4]) for v, _ in rows] != list(range(len(rows))):
            raise CheckFailed("mss.csv rank column is not 0..n-1")
        h_min = min(v[1] for v, _ in rows)
        flags = [int(v[3]) for v, _ in rows]
        if flags != [int(v[1] == h_min) for v, _ in rows]:
            raise CheckFailed("minimizer flags do not mark exactly the minimal-hard rows")
        values["mss.minimizers"] = sum(flags)
    return values


def artifact_digests(out_dir: Path) -> dict:
    """SHA-256 of every artifact except the manifest, which holds a clock."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())
            if p.is_file() and p.name != "manifest.json"}
