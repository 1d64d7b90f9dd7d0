"""The benchmark's tracer (``crlbench/tracing.py``) wraps package functions
and methods by name, so each name it binds must keep resolving: a missing one
makes every ``--trace 1`` run fail at install time.  The tracer's ``install``
is not called here, since it would patch this test process."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from crl_lab import flow, metrics, mss, multienv, multiview, scm

_TRACING = Path(__file__).resolve().parents[1] / "crlbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("crlbench_tracing", _TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracing = _load_tracing()
HOOKS = ([(mod, path) for _, mod, path in tracing.SPANS]
         + [(mod, path) for mod, path, _ in tracing.COUNTERS])


@pytest.mark.parametrize("mod_name, path", HOOKS)
def test_traced_name_resolves(mod_name, path):
    owner, attr = tracing._owner(importlib.import_module(f"crl_lab.{mod_name}"), path)
    assert callable(getattr(owner, attr))


def test_modules_share_the_bindings_the_tracer_replaces():
    # the tracer rebinds a function in every module that holds the same
    # object, and its self-check reads these sites: a module that wraps or
    # redefines one of them instead would escape the trace
    assert mss.enumerate_dags is scm.enumerate_dags
    assert multiview.krr_r2 is metrics.krr_r2
    assert multiview.train_align_maxent is flow.train_align_maxent
    assert multienv.Adam is flow.Adam


def test_encoder_mlp_spans_time_the_infonce_encoder_alone():
    # the tracer patches forward and backward on EncoderMlp itself: with one
    # implementation in the shared Mlp, the coupling conditioners (plain Mlp
    # instances) stay outside flow.encoder_mlp.*
    assert "forward" not in vars(flow.EncoderMlp)
    assert "backward" not in vars(flow.EncoderMlp)
    layer = flow.CouplingLayer(2, [True, False])
    assert isinstance(layer.mlp, flow.Mlp)
    assert not isinstance(layer.mlp, flow.EncoderMlp)
