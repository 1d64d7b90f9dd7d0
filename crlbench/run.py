"""crl-lab benchmark: time to a checked result of four CLI pipelines.

    python3 crlbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  Workloads are listed in ``workloads.py``;
``README.md`` says why each exists and which layer metric should move which
end-to-end metric.

With ``--trace 0`` the benchmark times ``setup_s`` (interpreter start until
``crl_lab.cli`` is imported, median of several fresh interpreters), then runs
the workload's CLI call in a fresh runner process as many times as fit in
``--seconds`` (at least once) and reports the medians of ``run_s`` and
``peak_rss_mb``.  ``setup_s`` and ``run_s`` are scaled to the reference
machine speed that ``speed.py`` samples in the same process around and
during them; the unscaled times are printed on the line before the result.
With ``--trace 1`` it runs the workload once untraced and once traced and
reports the per-layer metrics of the traced run, with the tracing overhead
as the difference of the two.  Every run's outputs are checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
from runner import THREAD_VARS  # noqa: E402
from workloads import WORKLOADS, CheckFailed, artifact_digests, check_outputs  # noqa: E402

SETUPS = 3
POLL_S = 0.05
RUN_TIMEOUT_S = 170.0
# a setup interpreter samples the speed probe in a burst, while it imports
# crl_lab.cli, and in a burst after; it prints the time at which the import
# was done, less the first burst and the samples' own time, then the scale
# and the kernel time
SETUP_CODE = (
    f"import sys; sys.path.insert(0, {str(HERE)!r}); import speed, time\n"
    "t_ready = time.monotonic()\n"
    "probe = speed.SpeedProbe('python')\n"
    "probe.burst()\n"
    "busy0, t_import = probe.busy_s, time.monotonic()\n"
    "probe.start()\n"
    "import crl_lab.cli\n"
    "probe.stop()\n"
    "t_done = time.monotonic() - (probe.busy_s - busy0)\n"
    "probe.burst()\n"
    "print(t_ready + t_done - t_import, probe.scaled(1.0), probe.kernel_s())\n"
)

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics: (layer, stats) read from the traced run's spans
SPAN_METRICS = (
    ("flow.cima_fd_grad", ("calls", "self_s")),
    ("flow.cima_of_decoder", ("calls", "self_s", "p50_ms", "p99_ms")),
    ("flow.encode", ("calls", "self_s", "p50_ms", "p99_ms")),
    ("flow.encode_backward", ("calls", "self_s", "p50_ms", "p99_ms")),
    ("flow.adam_step", ("calls", "self_s", "p50_ms", "p99_ms")),
    ("flow.train_mle", ("calls", "self_s")),
    ("flow.encoder_mlp.forward", ("calls", "self_s", "p50_ms", "p99_ms")),
    ("flow.encoder_mlp.backward", ("calls", "self_s", "p50_ms", "p99_ms")),
    ("flow.info_nce_loss", ("calls", "self_s", "p50_ms", "p99_ms")),
    ("flow.train_align_maxent", ("calls", "self_s")),
    ("multienv.fit_candidate", ("calls", "self_s")),
    ("multienv.generate_crl_problem", ("self_s",)),
    ("multiview.sample_pairs", ("calls", "self_s")),
    ("metrics.krr_r2", ("calls", "self_s")),
    ("mss.pvalue", ("calls", "self_s", "p50_ms", "p99_ms")),
    ("mss.mss_score", ("calls", "self_s")),
    ("scm.enumerate_dags", ("self_s",)),
    ("cli.save_dataset", ("self_s",)),
    ("cli.cell", ("self_s",)),
    ("cli.run", ("self_s",)),
)
STAT_UNITS = {"calls": "count", "self_s": "s", "p50_ms": "ms", "p99_ms": "ms"}

# per-layer metrics derived from counters, process figures and outputs
DERIVED = {
    "flow.jacobian_rows": "count",
    "flow.ms_per_step": "ms",
    "flow.epochs": "count",
    "flow.useful_epoch_frac": "frac",
    "metrics.krr_r2.gflop": "GFLOP",
    "metrics.krr_r2.gflop_per_s": "GFLOP/s",
    "mss.pvalue.distinct": "count",
    "mss.pvalue.useful_frac": "frac",
    "cli.cpu_busy_frac": "frac",
    "cli.worker_pids": "count",
    "cli.out_bytes": "B",
    "cli.csv_bad_rows": "count",
    "metrics.mcc.min": "1",
    "metrics.mcc.max": "1",
    "metrics.krr_r2.content": "1",
    "metrics.krr_r2.style": "1",
    "mss.minimizers": "count",
    "trace.overhead_s": "s",
    "trace.coverage_frac": "frac",
}

PER_LAYER = {**{f"{layer}.{stat}": STAT_UNITS[stat]
                for layer, stats in SPAN_METRICS for stat in stats}, **DERIVED}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    env.pop("CRL_LAB_THREADS", None)
    return env


def measure_setup(root: Path, env: dict) -> tuple:
    """(seconds until ``crl_lab.cli`` is imported, the same at the reference
    speed, probe kernel milliseconds)"""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    t_import, scale, kernel_s = map(float, out.stdout.split()[-3:])
    return t_import - t0, (t_import - t0) * scale, 1e3 * kernel_s


# -- resident memory of the runner and its pool workers ----------------------


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid: int) -> list:
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the command name may hold spaces; the ppid follows its closing ')'
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            out.append(int(entry))
    return out


def run_once(root, work, w, seed, tag, trace=False, threads=None):
    """One runner process; returns its result dict plus the sampled peak of
    the summed resident memory of the runner and its children."""
    out = work / tag
    result_path = work / f"{tag}.result.json"
    cmd = [sys.executable, str(HERE / "runner.py"), w.name, str(seed), str(out),
           str(result_path)]
    if trace:
        cmd += ["--trace", str(work / f"{tag}.spans")]
    if threads is not None:
        cmd += ["--threads", str(threads)]
    log = work / f"{tag}.log"
    t0 = time.monotonic()
    peak_kb, pids, next_scan = 0, [], 0.0
    with open(log, "w") as fh:
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=fh,
                                stderr=subprocess.STDOUT)
        try:
            while True:
                try:
                    proc.wait(timeout=POLL_S)
                    break
                except subprocess.TimeoutExpired:
                    pass
                now = time.monotonic()
                if now - t0 > RUN_TIMEOUT_S:
                    break
                if now >= next_scan:
                    pids, next_scan = _children(proc.pid), now + 0.5
                peak_kb = max(peak_kb, _rss_kb(proc.pid) + sum(map(_rss_kb, pids)))
        finally:
            if proc.poll() is None:
                for pid in _children(proc.pid):
                    os.kill(pid, 9)
                proc.kill()
            proc.wait()
    wall = time.monotonic() - t0
    if proc.returncode != 0 or not result_path.exists():
        return {"ok": False, "why": f"runner exited {proc.returncode} after {wall:.1f} s: "
                + log.read_text()[-2000:], "wall_s": wall, "out": out}
    res = json.loads(result_path.read_text())
    res.update(out=out, wall_s=wall, ok=True,
               peak_rss_mb=max(peak_kb / 1024.0, res["maxrss_mb"]))
    return res


def check(w, res, reference):
    """Validate one run in place: exit code, pinned threads, output
    invariants and byte-identical artifacts.  Returns the digests."""
    if not res["ok"]:
        return None
    try:
        if res["exit_code"] != 0:
            raise CheckFailed(f"crl-lab exited {res['exit_code']}")
        if not res["pinned"]:
            raise CheckFailed("thread variables were not set before numpy")
        res["values"] = check_outputs(w, res["out"])
        digests = artifact_digests(res["out"])
        if reference is not None and digests != reference:
            raise CheckFailed("artifacts differ from the first run of this seed")
        res["out_bytes"] = sum(p.stat().st_size for p in res["out"].iterdir())
        return digests
    except CheckFailed as exc:
        res.update(ok=False, why=str(exc))
        return None


def layer_metrics(w, plain, traced) -> dict:
    tr = traced["trace"]
    stats, counters = tr["stats"], tr["counters"]

    def stat(layer, key):
        return stats.get(layer, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"{layer}.{s}": stat(layer, s) for layer, ss in SPAN_METRICS for s in ss}
    steps = stat("flow.adam_step", "calls")
    train_s = sum(stat(name, "incl_s") for name in tracing.TRAINING)
    gflop = counters.get("metrics.krr_r2.gflop", 0.0)
    distinct = counters.get("mss.pvalue.distinct", 0)
    epochs = counters.get("flow.epochs", 0)
    m.update({
        "flow.jacobian_rows": counters.get("flow.jacobian_rows", 0),
        "flow.ms_per_step": 1e3 * ratio(train_s, steps),
        "flow.epochs": epochs,
        "flow.useful_epoch_frac": ratio(counters.get("flow.useful_epochs", 0), epochs),
        "metrics.krr_r2.gflop": gflop,
        "metrics.krr_r2.gflop_per_s": ratio(gflop, stat("metrics.krr_r2", "incl_s")),
        "mss.pvalue.distinct": distinct,
        "mss.pvalue.useful_frac": ratio(distinct, stat("mss.pvalue", "calls")),
        "cli.cpu_busy_frac": ratio(plain["cpu_s"], plain["run_s"] * w.threads),
        "cli.worker_pids": len(tr["pids"]) - 1,
        "cli.out_bytes": plain["out_bytes"],
        "metrics.mcc.min": 0.0, "metrics.mcc.max": 0.0,
        "metrics.krr_r2.content": 0.0, "metrics.krr_r2.style": 0.0,
        "mss.minimizers": 0,
        "trace.overhead_s": traced["run_s"] - plain["run_s"],
        "trace.coverage_frac":
            1.0 - ratio(sum(stat(n, "self_s") for n in tracing.UNCOVERED), traced["run_s"]),
    })
    m.update(plain["values"])
    return m


def git_sha(root: Path):
    if not (root / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "crl_lab" / "cli.py").is_file():
        print("error: run from the repository root; src/crl_lab is missing",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = root / ".crlbench" / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    metrics, raw = {}, {}
    if not args.trace:
        env = child_env(root)
        setups = [measure_setup(root, env) for _ in range(SETUPS)]
        metrics["setup_s"] = statistics.median(s[1] for s in setups)
        raw["setup_s"] = statistics.median(s[0] for s in setups)
        raw["setup_kernel_ms"] = [s[2] for s in setups]

    runs, reference = [], None
    t_start = time.monotonic()
    while True:
        k = len(runs)
        traced = bool(args.trace) and k == 1
        res = run_once(root, work, w, args.seed, f"run{k}", trace=traced)
        digests = check(w, res, reference)
        reference = reference or digests
        runs.append(res)
        if res["ok"]:
            shutil.rmtree(res["out"])
        else:
            print(f"run {k} failed: {res['why']}", file=sys.stderr)
        if args.trace:
            if k == 1:
                break
        elif time.monotonic() - t_start + res["wall_s"] > args.seconds:
            break

    failed = sum(not r["ok"] for r in runs)
    if args.trace:
        if failed == 0:
            metrics.update(layer_metrics(w, runs[0], runs[1]))
        units = PER_LAYER
    else:
        ok = [r for r in runs if r["ok"]]
        if ok:
            metrics["run_s"] = statistics.median(r["scaled_run_s"] for r in ok)
            metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in ok)
            raw["run_s"] = statistics.median(r["run_s"] for r in ok)
            raw["run_kernel_ms"] = [r["kernel_ms"] for r in ok]
        units = END_TO_END

    env_record = runs[0].get("env", {})
    env_record.update(git_sha=git_sha(root), workload=w.name, seed=args.seed, runs=len(runs))
    print("environment: " + json.dumps(env_record, sort_keys=True))
    if raw:
        print("unscaled: " + json.dumps(raw))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
