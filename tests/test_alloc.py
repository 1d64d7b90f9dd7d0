"""``cli.fix_malloc_thresholds``: glibc's malloc thresholds fixed once per
CLI call, so that the InfoNCE step takes no page faults and a second
kernel-ridge fit does not grow the heap."""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crl_lab import cli

HAS_MALLOPT = hasattr(ctypes.CDLL(None), "mallopt")
SRC = Path(__file__).resolve().parents[1] / "src"


def _run_fresh(code):
    """The JSON that a fresh single-threaded interpreter prints last after
    applying the CLI's allocator setting and running ``code``."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    code = ("import json, resource\nimport numpy as np\n"
            "from crl_lab import cli, flow, metrics\n"
            "cli.fix_malloc_thresholds()\n" + code)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.skipif(not HAS_MALLOPT, reason="the C library has no mallopt")
def test_info_nce_step_takes_no_page_faults():
    # multiview shapes: 256 pairs through 6 -> 128 -> 128 -> 3; at glibc's
    # default thresholds each call takes about 860 minor faults
    faults = _run_fresh(
        "enc = flow.EncoderMlp((6, 128, 128, 3))\n"
        "theta = enc.init_params(0)\n"
        "xa, xb = np.random.default_rng(0).normal(size=(2, 256, 6))\n"
        "for _ in range(20):\n"
        "    flow._info_nce_grad(enc, theta, xa, xb, 0.5)\n"
        "f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(200):\n"
        "    flow._info_nce_grad(enc, theta, xa, xb, 0.5)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)\n")
    assert faults < 50


@pytest.mark.skipif(not HAS_MALLOPT, reason="the C library has no mallopt")
def test_second_krr_fit_does_not_raise_the_peak():
    # at glibc's default thresholds the second fit of 3,000 rows peaks about
    # 34 MB above the first; at the fixed ones, under 2 MB
    peaks = _run_fresh(
        "x = np.random.default_rng(0).normal(size=(3000, 6))\n"
        "peaks = []\n"
        "for _ in range(2):\n"
        "    metrics.krr_r2(x, np.sin(x[:, :3]))\n"
        "    peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        "print(json.dumps(peaks))\n")
    assert peaks[1] - peaks[0] < 6 * 1024, peaks  # ru_maxrss is in KiB


def test_without_mallopt_the_setting_is_a_no_op(tmp_path, monkeypatch):
    class NoMallopt:
        def __init__(self, name):
            pass

    monkeypatch.setattr(ctypes, "CDLL", NoMallopt)
    (tmp_path / "cfg.json").write_text(json.dumps({"n_mc": 1000}))
    assert cli.run(["ima-eval", "--config", str(tmp_path / "cfg.json"),
                    "--out", str(tmp_path / "o")]) == 0
