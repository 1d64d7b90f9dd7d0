"""One workload run: a single ``crl_lab.cli.run(argv)`` call in this fresh
interpreter, timed, optionally traced, and recorded as JSON.

    python3 crlbench/runner.py <workload> <seed> <out_dir> <result.json>
        [--threads K] [--trace DIR]

``run.py`` starts it from the repository root with ``PYTHONPATH=src`` and
the BLAS/OpenMP thread variables set to 1, so numpy is single-threaded here
and in the pool workers forked from here.  The runner records whether the
variables really were set before numpy was imported.  An untraced run also
samples the speed probe (``speed.py``) in a burst before the call, during
the call, and in a burst after it, and subtracts the samples' own time from
``run_s``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, cli_argv  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# none of the imports above loads numpy
PINNED = ("numpy" not in sys.modules
          and all(os.environ.get(v) == "1" for v in THREAD_VARS))


def environment() -> dict:
    import numpy
    import scipy

    build = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = build.get("blas", {})
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_vars_set_before_numpy": PINNED,
    }


def _cpu_s(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("seed", type=int)
    p.add_argument("out_dir")
    p.add_argument("result")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--trace", default=None, help="directory for span files")
    args = p.parse_args(argv)

    w = WORKLOADS[args.workload]
    out = Path(args.out_dir)
    config = out.parent / f"{out.name}.config.json"
    config.write_text(json.dumps(w.config))

    from crl_lab import cli

    tracer = None
    if args.trace:
        Path(args.trace).mkdir(parents=True, exist_ok=True)
        tracer = tracing.install(args.trace)

    # the speed probe runs only untraced, so that its samples land in no span
    probe = None if tracer else speed.SpeedProbe(w.probe)
    if probe is not None:
        probe.burst()

    argv_cli = cli_argv(w, config, out, args.seed, args.threads)
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    child0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.enter(tracing.ROOT)
    else:
        busy0 = probe.busy_s
        probe.start()
    code = cli.run(argv_cli)
    if tracer is not None:
        tracer.leave()
    else:
        probe.stop()
    run_s = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    child1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if probe is not None:
        run_s -= probe.busy_s - busy0
        probe.burst()

    result = {
        "exit_code": code,
        "run_s": run_s,
        "scaled_run_s": probe.scaled(run_s) if probe else None,
        "kernel_ms": 1e3 * probe.kernel_s() if probe else None,
        "probe_samples": len(probe.samples) if probe else None,
        "probe_skipped": probe.skipped if probe else None,
        "cpu_s": _cpu_s(self1) - _cpu_s(self0) + _cpu_s(child1) - _cpu_s(child0),
        "worker_cpu_s": _cpu_s(child1) - _cpu_s(child0),
        "maxrss_mb": max(self1.ru_maxrss, child1.ru_maxrss) / 1024.0,
        "pinned": PINNED,
        "pid": os.getpid(),
        "env": environment(),
    }
    if tracer is not None:
        snaps = [tracer.snapshot()]
        snaps += [json.loads(f.read_text())
                  for f in sorted(Path(args.trace).glob("spans.*.json"))]
        result["trace"] = tracing.merge(snaps)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
