"""Benchmark-side spans around the calls into crl_lab's layers.

Nothing under ``src/`` changes: :func:`install` replaces each traced
function or method by a wrapper.  A module-level function is replaced at
every binding site, because ``from .x import f`` copies the name into the
importing module; a method is replaced on its class.

Each process keeps its own span statistics.  Pool workers inherit the
wrappers through fork, reset the inherited statistics, and write them to
``<trace_dir>/spans.<pid>.json`` whenever their outermost span closes, since
pool workers do not reliably run exit hooks.  A span's self time is its
duration minus the time covered by the spans it encloses.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from pathlib import Path

# (layer name, module, attribute path) of every timed call: the layers
# reported per layer, plus the pool map and the sweep cells.  A cell is the
# outermost span of a pool worker; its self time is the cell's own code,
# which no layer covers.
SPANS = (
    ("cli.save_dataset", "cli", "save_dataset"),
    ("cli.map_cells", "cli", "_map_cells"),
    ("cli.cell", "cli", "_bss_cell"),
    ("cli.cell", "cli", "_crl_cell"),
    ("flow.train_mle", "flow", "train_mle"),
    ("flow.train_align_maxent", "flow", "train_align_maxent"),
    ("flow.cima_of_decoder", "flow", "cima_of_decoder"),
    ("flow.cima_fd_grad", "flow", "cima_fd_grad"),
    ("flow.encode", "flow", "FlowModel.encode"),
    ("flow.encode_backward", "flow", "FlowModel.encode_backward"),
    ("flow.adam_step", "flow", "Adam.step"),
    ("flow.encoder_mlp.forward", "flow", "EncoderMlp.forward"),
    ("flow.encoder_mlp.backward", "flow", "EncoderMlp.backward"),
    ("flow.info_nce_loss", "flow", "info_nce_loss"),
    ("multienv.generate_crl_problem", "multienv", "generate_crl_problem"),
    ("multienv.fit_candidate", "multienv", "fit_candidate"),
    ("multiview.sample_pairs", "multiview", "sample_pairs"),
    ("metrics.krr_r2", "metrics", "krr_r2"),
    ("mss.mss_score", "mss", "mss_score"),
    ("mss.pvalue", "mss", "pair_invariance_pvalue"),
    ("scm.enumerate_dags", "scm", "enumerate_dags"),
)

# layers whose calls are training loops: their time over Adam steps is
# flow.ms_per_step
TRAINING = ("flow.train_mle", "flow.train_align_maxent", "multienv.fit_candidate")

ROOT = "cli.run"
# spans whose self time no layer of the package covers
UNCOVERED = (ROOT, "cli.cell")


class Tracer:
    """Span statistics of one process: per layer, the call count, inclusive
    and self seconds, and every call's inclusive duration."""

    def __init__(self, trace_dir: Path):
        self.trace_dir = Path(trace_dir)
        self.pid = self.root_pid = os.getpid()
        self._reset()

    def _reset(self):
        self.stats = {}
        self.counters = {}
        self.pvalue_keys = set()
        self.stack = []

    def after_fork(self):
        self.pid = os.getpid()
        self._reset()

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def enter(self, name):
        self.stack.append([name, time.perf_counter(), 0.0])

    def leave(self):
        name, start, child = self.stack.pop()
        dur = time.perf_counter() - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                     "durations": []}
        st["calls"] += 1
        st["incl_s"] += dur
        st["self_s"] += dur - child
        st["durations"].append(dur)
        if self.stack:
            self.stack[-1][2] += dur
        elif self.pid != self.root_pid:
            self.flush()

    def snapshot(self) -> dict:
        return {"pid": self.pid, "stats": self.stats, "counters": self.counters,
                "pvalue_keys": sorted(self.pvalue_keys)}

    def flush(self):
        path = self.trace_dir / f"spans.{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, path)


def _span(tracer, name, fn, on_call=None, on_result=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if on_call is not None:
            on_call(tracer, args, kwargs)
        tracer.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.leave()
        if on_result is not None:
            on_result(tracer, out)
        return out
    return wrapper


def _counter(tracer, fn, on_call):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        on_call(tracer, args, kwargs)
        return fn(*args, **kwargs)
    return wrapper


def _pvalue_key(tracer, args, kwargs):
    # pair_invariance_pvalue(test, data, e_a, e_b, node, parents)
    _, _, e_a, e_b, node, parents = args
    tracer.pvalue_keys.add((e_a, e_b, node, tuple(parents)))


def _jacobian_rows(tracer, args, kwargs):
    # FlowModel.encode_jacobian_q(self, x, theta_stack): Q stacked parameter
    # vectors times m rows
    _, x, theta_stack = args
    q = theta_stack.shape[0] if getattr(theta_stack, "ndim", 1) == 2 else 1
    tracer.count("flow.jacobian_rows", q * x.shape[0])


def _krr_flop(tracer, args, kwargs):
    # metrics._fit_predict(K_tr, K_te, y_tr, lam): LU solve of an m x m
    # system with k right-hand sides, then an (n_te x m) @ (m x k) product
    K_tr, K_te, y_tr, _ = args
    m = K_tr.shape[0]
    k = y_tr.shape[1] if y_tr.ndim == 2 else 1
    flop = 2.0 / 3.0 * m ** 3 + 2.0 * m * m * k + 2.0 * K_te.shape[0] * m * k
    tracer.count("metrics.krr_r2.gflop", flop / 1e9)


def _train_result(tracer, res):
    # TrainResult.history starts with the epoch -1 row of the initial model
    tracer.count("flow.epochs", len(res.history) - 1)
    tracer.count("flow.useful_epochs", res.best_epoch + 1)


_ON_CALL = {"mss.pvalue": _pvalue_key}
_ON_RESULT = {"flow.train_mle": _train_result,
              "flow.train_align_maxent": _train_result}
COUNTERS = (
    ("flow", "FlowModel.encode_jacobian_q", _jacobian_rows),
    ("metrics", "_fit_predict", _krr_flop),
)


def _owner(module, path):
    owner = module
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


def _rebind(owner, attr, new):
    """Replace ``owner.attr`` and, for a module function, every other
    crl_lab module attribute bound to the same object."""
    old = getattr(owner, attr)
    if isinstance(owner, type):
        setattr(owner, attr, new)
        return
    for name, mod in list(sys.modules.items()):
        if name != "crl_lab" and not name.startswith("crl_lab."):
            continue
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)


def install(trace_dir) -> Tracer:
    """Wrap every layer in :data:`SPANS` and :data:`COUNTERS`; return the
    tracer of this process.  Import ``crl_lab.cli`` first, so that every
    module and binding site exists."""
    import crl_lab.cli  # noqa: F401 - loads every module that holds a binding

    tracer = Tracer(trace_dir)
    os.register_at_fork(after_in_child=tracer.after_fork)
    for mod_name, path, on_call in COUNTERS:
        owner, attr = _owner(sys.modules[f"crl_lab.{mod_name}"], path)
        _rebind(owner, attr, _counter(tracer, getattr(owner, attr), on_call))
    for name, mod_name, path in SPANS:
        owner, attr = _owner(sys.modules[f"crl_lab.{mod_name}"], path)
        fn = getattr(owner, attr)
        _rebind(owner, attr, _span(tracer, name, fn, _ON_CALL.get(name),
                                   _ON_RESULT.get(name)))
    return tracer


def _quantile(sorted_vals, q):
    # nearest rank
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def merge(snapshots) -> dict:
    """Sum the per-process statistics; add p50/p99 of the call durations."""
    stats, counters, keys = {}, {}, set()
    for snap in snapshots:
        for name, st in snap["stats"].items():
            acc = stats.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                          "durations": []})
            for k in ("calls", "incl_s", "self_s"):
                acc[k] += st[k]
            acc["durations"].extend(st["durations"])
        for name, v in snap["counters"].items():
            counters[name] = counters.get(name, 0) + v
        keys.update(tuple(tuple(p) if isinstance(p, list) else p for p in k)
                    for k in snap["pvalue_keys"])
    for st in stats.values():
        durs = sorted(st.pop("durations"))
        st["p50_ms"] = 1e3 * _quantile(durs, 0.50)
        st["p99_ms"] = 1e3 * _quantile(durs, 0.99)
    counters["mss.pvalue.distinct"] = len(keys)
    return {"stats": stats, "counters": counters,
            "pids": sorted({s["pid"] for s in snapshots})}
