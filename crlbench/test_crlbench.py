"""Self-checks of the benchmark; run from the repository root:

    python3 -m pytest -q crlbench/test_crlbench.py

The serial-equivalence and traced-run tests run real workloads and take a
few minutes together.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, CheckFailed, check_outputs  # noqa: E402


def test_benchmark_json_lists_every_reported_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert per_layer == list(run.PER_LAYER.items())


def test_wrappers_replace_every_binding_site(tmp_path):
    code = (
        "import sys; sys.path.insert(0, 'crlbench'); import tracing\n"
        f"tracing.install({str(tmp_path)!r})\n"
        "from crl_lab import cli, flow, metrics, mss, multienv, multiview, scm\n"
        "assert multiview.krr_r2 is metrics.krr_r2\n"
        "assert multiview.train_align_maxent is flow.train_align_maxent\n"
        "assert mss.enumerate_dags is scm.enumerate_dags\n"
        "assert mss.pair_invariance_pvalue.__wrapped__.__module__ == 'crl_lab.mss'\n"
        "for f in (multiview.krr_r2, multiview.train_align_maxent, mss.enumerate_dags,\n"
        "          multienv.Adam.step, flow.FlowModel.encode, flow.EncoderMlp.forward,\n"
        "          cli.save_dataset, cli._crl_cell):\n"
        "    assert hasattr(f, '__wrapped__'), f\n"
    )
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=run.child_env(ROOT),
                   check=True, timeout=60)


def _spin(seconds):
    t0 = time.monotonic()
    while time.monotonic() - t0 < seconds:
        sum(range(1000))


@pytest.mark.parametrize("kind", sorted(speed.KERNELS))
def test_speed_probe_samples_while_the_main_thread_works(kind):
    probe = speed.SpeedProbe(kind)
    probe.start()
    _spin(1.0)
    probe.stop()
    # one sample per period of wall time, each far shorter than the period
    assert 5 <= len(probe.samples) <= 1.0 / probe.period_s + 1
    assert probe.skipped == 0
    assert probe.busy_s < 0.25
    assert probe.scaled(1.0) == probe.ref_s / probe.kernel_s()
    probe.burst()
    assert len(probe.samples) > speed.BURST


def test_speed_probe_skips_while_a_child_process_is_alive():
    probe = speed.SpeedProbe("python")
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    probe.start()
    try:
        _spin(0.5)
        probe.burst()
        assert probe.samples == [] and probe.skipped > speed.BURST
        child.kill()
        child.wait()
        _spin(0.5)
    finally:
        probe.stop()
        child.kill()
        child.wait()
    assert len(probe.samples) >= 5


def test_speed_probe_samples_no_pool_worker(tmp_path):
    """bss-ima at two threads runs its two cells in two pool workers, so the
    probe skips its periods while they live; at one thread it skips none."""
    w = WORKLOADS["bss-ima"]
    for threads in (2, 1):
        res = run.run_once(ROOT, tmp_path, w, 0, f"t{threads}", threads=threads)
        assert res["ok"] and res["exit_code"] == 0, res.get("why")
        assert (res["worker_cpu_s"] > 1.0) == (threads == 2)
        assert (res["probe_skipped"] > 0) == (threads == 2)
        assert res["probe_samples"] >= 2 * speed.BURST


def _write_csv(path, header, rows):
    path.write_text("\n".join(",".join(map(str, r)) for r in [header, *rows]) + "\n")


def test_checks_reject_broken_outputs(tmp_path):
    w = WORKLOADS["mss-n4"]
    rows = [[i, "empty", 3 + (i > 0), f"{0.5 + i:.3f}", int(i == 0), i]
            for i in range(w.csv_rows)]
    _write_csv(tmp_path / w.csv_name, w.csv_header, rows)
    assert check_outputs(w, tmp_path)["mss.minimizers"] == 1
    rows[1][4] = 1  # flag a row whose hard score is not minimal
    _write_csv(tmp_path / w.csv_name, w.csv_header, rows)
    with pytest.raises(CheckFailed, match="minimizer"):
        check_outputs(w, tmp_path)

    w = WORKLOADS["bss-ima"]
    _write_csv(tmp_path / w.csv_name, w.csv_header, [[1, 0.0, 0.9, -3.0], [1, 1.0, 0.4, -3.0]])
    with pytest.raises(CheckFailed, match="MCC"):
        check_outputs(w, tmp_path)
    _write_csv(tmp_path / w.csv_name, w.csv_header, [[1, 0.0, 0.9, "nan"], [1, 1.0, 0.9, -3.0]])
    with pytest.raises(CheckFailed, match="finite"):
        check_outputs(w, tmp_path)


@pytest.mark.parametrize("name", ["crl-select", "multiview-nce"])
def test_two_workers_match_serial(name, tmp_path):
    w = WORKLOADS[name]
    digests = []
    for threads in (w.threads, 1):
        res = run.run_once(ROOT, tmp_path, w, 3, f"t{threads}", threads=threads)
        assert res["ok"] and res["exit_code"] == 0, res.get("why")
        digests.append(run.artifact_digests(res["out"]))
    assert digests[0] == digests[1]


def test_traced_run_counts_and_coverage():
    out = subprocess.run([sys.executable, "crlbench/run.py", "--workload", "mss-n4",
                          "--seed", "0", "--seconds", "1", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["mss.pvalue.calls"] == 32_580
    assert m["mss.pvalue.distinct"] == 480
    assert m["trace.coverage_frac"] >= 0.9


def test_coverage_counts_the_cells_own_code_as_uncovered():
    span = {"calls": 1, "incl_s": 0.0, "p50_ms": 0.0, "p99_ms": 0.0}
    traced = {"run_s": 10.0, "trace": {
        "stats": {"cli.run": {**span, "self_s": 0.5},
                  "cli.cell": {**span, "self_s": 2.0},
                  "flow.encode": {**span, "self_s": 7.5}},
        "counters": {}, "pids": [1]}}
    plain = {"run_s": 10.0, "cpu_s": 10.0, "out_bytes": 1, "values": {}}
    m = run.layer_metrics(WORKLOADS["crl-select"], plain, traced)
    assert m["cli.cell.self_s"] == 2.0
    assert m["trace.coverage_frac"] == pytest.approx(0.75)


def test_directory_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "crlbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "crlbench/run.py", "--workload", "bss-ima",
                          "--seed", "0", "--seconds", "20", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
