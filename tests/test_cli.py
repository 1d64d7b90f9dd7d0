import concurrent.futures
import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crl_lab import cli, mixing, mss, scm
from crl_lab.errors import DatasetFormatError


def tiny_dataset():
    dag = scm.Dag(2, ((), (0,)))
    base = scm.Scm(dag, (scm.linear_gaussian(), scm.linear_gaussian((1.0,))))
    spec = scm.InterventionSpec((0,), (scm.linear_gaussian((), 1.0, 0.5),), ((),))
    shifted = scm.apply_intervention(base, spec)
    e0 = scm.EnvData(scm.InterventionSpec(), scm.ancestral_sample(base, 40, 1),
                     scm.ancestral_sample(base, 40, 1))
    e1 = scm.EnvData(spec, scm.ancestral_sample(shifted, 30, 2),
                     scm.ancestral_sample(shifted, 30, 2))
    return scm.MultiEnvDataset((e0, e1), 7,
                               scm.DatasetMeta(scm=base,
                                               mixing={"variant": "identity"}))


class TestDatasetRoundTrip:
    def test_save_load_exact(self, tmp_path):
        ds = tiny_dataset()
        cli.save_dataset(ds, tmp_path / "data.csv")
        loaded = cli.load_dataset(tmp_path / "data.csv")
        for a, b in zip(ds.envs, loaded.envs):
            np.testing.assert_array_equal(a.x, b.x)
            np.testing.assert_array_equal(a.v, b.v)
            assert a.spec.to_dict() == b.spec.to_dict()
        assert loaded.seed == 7
        assert loaded.meta.scm.to_dict() == ds.meta.scm.to_dict()

    def test_load_without_sidecar_disables_ground_truth(self, tmp_path):
        ds = tiny_dataset()
        cli.save_dataset(ds, tmp_path / "data.csv")
        (tmp_path / "data.meta.json").unlink()
        loaded = cli.load_dataset(tmp_path / "data.csv")
        assert not loaded.has_ground_truth
        assert loaded.envs[0].v is None
        with pytest.raises(ValueError):
            mss.pair_invariance_pvalue(mss.CiInvarianceTest("oracle"), loaded,
                                       0, 1, 0, ())

    def test_malformed_row_names_line(self, tmp_path):
        ds = tiny_dataset()
        cli.save_dataset(ds, tmp_path / "data.csv")
        lines = (tmp_path / "data.csv").read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0]  # drop one cell on data row 5
        (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
        (tmp_path / "data.meta.json").unlink()
        (tmp_path / "data.latents.csv").unlink()
        with pytest.raises(DatasetFormatError, match="row 6"):
            cli.load_dataset(tmp_path / "data.csv")

    @pytest.mark.parametrize("make", [
        lambda: mss.generate_mss_problem(3, 4, 50, seed=2),  # latents are x
        tiny_dataset,                                         # separate arrays
    ], ids=["identity", "separate"])
    def test_csv_bytes_equal_two_pass_writer(self, tmp_path, make):
        def two_pass(path, prefix, blocks):
            d = blocks[0].shape[1]
            row = "{}," + ",".join(["{:.16e}"] * d) + "\n"
            with open(path, "w") as fh:
                fh.write(",".join(["env_id"] + [f"{prefix}_{j}" for j in range(d)])
                         + "\n")
                for e, block in enumerate(blocks):
                    fh.writelines(row.format(e, *vals) for vals in block.tolist())

        ds = make()
        cli.save_dataset(ds, tmp_path / "data.csv")
        two_pass(tmp_path / "ref.csv", "x", [env.x for env in ds.envs])
        two_pass(tmp_path / "ref.latents.csv", "v", [env.v for env in ds.envs])
        for got, ref in (("data.csv", "ref.csv"),
                         ("data.latents.csv", "ref.latents.csv")):
            assert (tmp_path / got).read_bytes() == (tmp_path / ref).read_bytes()

    @pytest.mark.parametrize("d", [1, 4])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "separate"])
    def test_chunked_writer_bytes_equal_row_by_row_format(self, tmp_path, d,
                                                          shared):
        # blocks around the 256-row chunk edge; the special values are the
        # signed zero, the smallest subnormal and normal, the largest float,
        # and values whose 17th significant digit rounds
        special = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                   0.1, 2.0 / 3.0, 1.0 - 2.0 ** -53, 123456789.12345679]
        rng = np.random.default_rng(0)
        blocks = []
        for rows in (1, 255, 256, 257, 2000):
            block = rng.standard_normal((rows, d)) * 10.0 ** rng.integers(
                -300, 300, size=(rows, d))
            flat = block.reshape(-1)
            flat[:len(special)] = special[:flat.size]
            blocks.append(block)
        targets = [(tmp_path / "x.csv", "x")]
        if shared:
            targets.append((tmp_path / "v.csv", "v"))
        cli._write_env_csv(targets, blocks)
        if not shared:
            cli._write_env_csv([(tmp_path / "v.csv", "v")], blocks)
        for path, prefix in ((tmp_path / "x.csv", "x"), (tmp_path / "v.csv", "v")):
            ref = ",".join(["env_id"] + [f"{prefix}_{j}" for j in range(d)]) + "\n"
            ref += "".join(f"{e}," + ",".join("{:.16e}".format(v) for v in row) + "\n"
                           for e, block in enumerate(blocks)
                           for row in block.tolist())
            assert path.read_text() == ref
        (tmp_path / "x.meta.json").write_text(json.dumps({"latents": "v.csv"}))
        loaded = cli.load_dataset(tmp_path / "x.csv")
        assert len(loaded.envs) == len(blocks)
        for block, env in zip(blocks, loaded.envs):
            np.testing.assert_array_equal(env.x, block)
            np.testing.assert_array_equal(env.v, block)
            assert np.array_equal(np.signbit(env.x), np.signbit(block))

    def test_wrong_header_rejected(self, tmp_path):
        (tmp_path / "bad.csv").write_text("a,b\n1,2\n")
        with pytest.raises(DatasetFormatError, match="env_id"):
            cli.load_dataset(tmp_path / "bad.csv")


class TestConfigs:
    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"bogus_key": 1}))
        assert cli.run(["ima-eval", "--config", str(p),
                        "--out", str(tmp_path / "o")]) == 1

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        assert cli.run(["ima-eval", "--config", str(p),
                        "--out", str(tmp_path / "o")]) == 1

    def test_defaults_materialized(self, tmp_path):
        assert cli.run(["ima-eval", "--out", str(tmp_path / "o"),
                        "--seed", "3"]) == 0
        resolved = json.loads((tmp_path / "o" / "config.resolved.json").read_text())
        assert resolved["n_mc"] == 100_000
        assert resolved["seed"] == 3
        assert resolved["schema"] == "crl-lab/ima-eval/v1"

    @pytest.mark.parametrize("command,config,key", [
        ("ima-eval", {"n_mc": "abc"}, "n_mc"),
        ("ima-eval", {"n_mc": 0}, "n_mc"),
        ("ima-train", {"n_seeds": -1}, "n_seeds"),
        ("ima-sweep", {"thetas": []}, "thetas"),
        ("mss", {"n": 5}, "n"),
        ("ima-train", {"lambdas": [0.0, -1.0]}, "lambdas"),
        ("ima-train", {"epochs": 0}, "epochs"),
        ("ima-train", {"batch_size": 1}, "batch_size"),
        ("multiview", {"statistical": 1}, "statistical"),
        ("mss", {"n_envs": 1}, "n_envs"),
        ("influence", {"n_mc": 1}, "n_mc"),
        ("multiview", {"change_prob": 0}, "change_prob"),
    ])
    def test_invalid_value_exits_1_with_message(self, tmp_path, capsys,
                                                command, config, key):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert cli.run([command, "--config", str(p), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{key} = " in err
        assert not out.exists()

    def test_table_covers_every_command_and_defaults_pass_their_checks(self):
        assert list(cli._CONFIG) == list(cli._COMMANDS)
        for command, spec in cli._CONFIG.items():
            for key, (default, (ok, what)) in spec.items():
                assert ok(default), f"{command}: {key} = {default!r} is not {what}"


class TestCommands:
    def test_unknown_subcommand(self):
        assert cli.run(["frobnicate"]) == 1

    def test_no_subcommand(self):
        assert cli.run([]) == 1

    def test_ima_eval_polar_near_zero_with_manifest(self, tmp_path):
        out = tmp_path / "run"
        assert cli.run(["ima-eval", "--out", str(out), "--seed", "1"]) == 0
        rows = (out / "ima_eval.csv").read_text().splitlines()
        est, stderr = (float(v) for v in rows[1].split(",")[:2])
        assert abs(est) <= 3 * stderr + 1e-12
        manifest = json.loads((out / "manifest.json").read_text())
        files = {p.name for p in out.iterdir()}
        assert files == set(manifest["artifacts"])
        assert manifest["wall_clock_s"] >= 0

    def test_reproducible_outputs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.run(["ima-eval", "--out", str(out), "--seed", "9",
                            "--deterministic"]) == 0
        assert (a / "ima_eval.csv").read_bytes() == (b / "ima_eval.csv").read_bytes()

    def test_gen_data_and_mss_pipeline(self, tmp_path):
        gen = tmp_path / "gen"
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"process": "mss", "n": 2, "n_envs": 3,
                                   "rows_per_env": 400}))
        assert cli.run(["gen-data", "--config", str(cfg), "--out", str(gen),
                        "--seed", "5"]) == 0
        mss_cfg = tmp_path / "mss.json"
        mss_cfg.write_text(json.dumps({
            "dataset": str(gen / "dataset.csv"), "n": 2, "test": "oracle"}))
        out = tmp_path / "mss"
        assert cli.run(["mss", "--config", str(mss_cfg), "--out", str(out)]) == 0
        rows = (out / "mss.csv").read_text().splitlines()
        assert rows[0] == "dag_id,edges,hard,soft,minimizer,rank"
        assert len(rows) == 4  # 3 labeled DAGs on 2 nodes

    @pytest.mark.parametrize("command,config", [
        ("mss", {"n": 3, "n_envs": 3, "rows_per_env": 60}),
        ("gen-data", None),
    ])
    def test_repeated_run_writes_the_same_bytes(self, tmp_path, command, config):
        argv = [command, "--seed", "3"]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "cfg.json")]
        artifacts = []
        for run in ("a", "b"):
            assert cli.run(argv + ["--out", str(tmp_path / run)]) == 0
            artifacts.append({p.name: p.read_bytes()
                              for p in (tmp_path / run).iterdir()
                              if p.name != "manifest.json"})
        assert artifacts[0] == artifacts[1]
        assert "dataset.csv" in artifacts[0]

    @pytest.mark.parametrize("n, rows, from_file", [
        (3, 29, False), (2, 15, False), (2, 15, True),
    ])
    def test_mss_too_few_rows_exits_1_before_writing(self, tmp_path, capsys,
                                                     n, rows, from_file):
        cfg = {"n": n, "rows_per_env": rows, "test": "linear-gaussian"}
        if from_file:
            gen_cfg = tmp_path / "gen.json"
            gen_cfg.write_text(json.dumps({"process": "mss", "n": n,
                                           "rows_per_env": rows}))
            assert cli.run(["gen-data", "--config", str(gen_cfg),
                            "--out", str(tmp_path / "gen")]) == 0
            cfg = {"dataset": str(tmp_path / "gen" / "dataset.csv"),
                   "test": "linear-gaussian"}
        (tmp_path / "mss.json").write_text(json.dumps(cfg))
        out = tmp_path / "mss"
        assert cli.run(["mss", "--config", str(tmp_path / "mss.json"),
                        "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"at least {10 * n} rows" in err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("n, n_envs, message", [
        (5, 3, "only up to n=4; "), (2, 1, "has 1 environment"),
    ], ids=["five-columns", "one-environment"])
    def test_mss_dataset_out_of_range_exits_1_before_writing(
            self, tmp_path, capsys, n, n_envs, message):
        gen_cfg = tmp_path / "gen.json"
        gen_cfg.write_text(json.dumps({"process": "mss", "n": n, "n_envs": n_envs,
                                       "rows_per_env": 100}))
        assert cli.run(["gen-data", "--config", str(gen_cfg),
                        "--out", str(tmp_path / "gen")]) == 0
        (tmp_path / "mss.json").write_text(json.dumps(
            {"dataset": str(tmp_path / "gen" / "dataset.csv")}))
        out = tmp_path / "mss"
        assert cli.run(["mss", "--config", str(tmp_path / "mss.json"),
                        "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not any(out.iterdir())

    def test_mss_oracle_runs_on_few_rows(self, tmp_path):
        (tmp_path / "mss.json").write_text(json.dumps(
            {"n": 2, "rows_per_env": 15, "test": "oracle"}))
        out = tmp_path / "mss"
        assert cli.run(["mss", "--config", str(tmp_path / "mss.json"),
                        "--out", str(out)]) == 0
        assert len((out / "mss.csv").read_text().splitlines()) == 4

    @pytest.mark.parametrize("command, config", [
        ("influence", {"edge": [1, 1]}),
        ("ima-eval", {"source": {"kind": "box"}}),
        ("ima-eval", {"mixing": {"variant": "moebius"}}),
        ("ima-eval", {"source": {"kind": "box", "lows": [0, 0, 0],
                                 "highs": [1, 1, 1]}}),
        ("ima-eval", {"source": {"kind": "box", "lows": [1, 0],
                                 "highs": [0, 1]}}),
        ("ima-train", {"rows": 2}),
        ("multiview", {"n_pairs": 2}),
        ("crl-sweep", {"rows_per_env": 1}),
        ("gen-data", {"n": 1}),
        ("mss", {"dataset": 5}),
        ("mss", {"dataset": "no-such-dataset.csv"}),
        ("report", {"input_dir": 3}),
        ("ima-eval", {"source": {"kind": "box", "lows": [-1, 0],
                                 "highs": [1, 1]}}),
    ], ids=["edge-not-in-graph", "box-without-bounds", "moebius-without-keys",
            "box-of-wrong-dimension", "box-low-above-high", "rows-no-step",
            "n-pairs-no-step", "rows-per-env-no-step", "crl-one-node",
            "dataset-not-a-path", "dataset-missing", "input-dir-not-a-path", "box-outside-domain"])
    def test_config_that_cannot_run_honestly_exits_1(self, tmp_path, capsys,
                                                     command, config):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert cli.run([command, "--config", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists() or not any(out.glob("*.csv"))

    def test_influence_command(self, tmp_path):
        cfg = tmp_path / "inf.json"
        cfg.write_text(json.dumps({"n_mc": 20_000}))
        out = tmp_path / "inf"
        assert cli.run(["influence", "--config", str(cfg), "--out", str(out)]) == 0
        res = json.loads((out / "influence.json").read_text())
        assert abs(res["estimate_nats"] - res["closed_form_nats"]) < 0.05

    def test_ima_sweep_and_report(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "thetas": [0.0, 0.7853981633974483, 1.5707963267948966],
            "n_mc": 20_000}))
        for k in (0, 1):
            assert cli.run(["ima-sweep", "--config", str(cfg),
                            "--out", str(tmp_path / f"s{k}"),
                            "--seed", str(k)]) == 0
        rep_cfg = tmp_path / "rep.json"
        rep_cfg.write_text(json.dumps({"input_dir": str(tmp_path)}))
        out = tmp_path / "report"
        assert cli.run(["report", "--config", str(rep_cfg),
                        "--out", str(out)]) == 0
        rows = (out / "report.csv").read_text().splitlines()
        assert len(rows) == 4
        # zeros at multiples of pi/2, strictly positive at pi/4
        theta_to_val = {float(r.split(",")[0]): (float(r.split(",")[1]),
                                                 float(r.split(",")[2]))
                        for r in rows[1:]}
        for theta, (val, se) in theta_to_val.items():
            if abs(theta % (np.pi / 2)) < 1e-9:
                assert abs(val) <= 3 * se + 1e-12
            else:
                assert val - 3 * se > 0

    def test_report_needs_input(self, tmp_path):
        assert cli.run(["report", "--out", str(tmp_path / "r")]) == 1

    def test_ima_train_parallel_matches_serial(self, tmp_path):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"n_seeds": 2, "lambdas": [0.0],
                                   "rows": 600, "epochs": 4,
                                   "batch_size": 128}))
        for name, threads in (("ser", "1"), ("par", "2")):
            assert cli.run(["ima-train", "--config", str(cfg),
                            "--out", str(tmp_path / name),
                            "--threads", threads]) == 0
        assert (tmp_path / "ser" / "bss.csv").read_bytes() == \
            (tmp_path / "par" / "bss.csv").read_bytes()
        hist = (tmp_path / "ser").glob("history_*.csv")
        assert any("epoch,train,val" in p.read_text() for p in hist)

    @pytest.mark.parametrize("command,config", [
        ("multiview", {"n_pairs": 600, "seeds": [0, 1], "epochs": 1}),
        ("crl-sweep", {"n_seeds": 2, "rows_per_env": 200, "epochs": 1,
                       "n_couplings": 1, "hidden": [4]}),
        ("ima-sweep", {"thetas": [0.0, 0.5, 1.0], "n_mc": 2_000}),
    ])
    def test_parallel_artifacts_equal_serial(self, tmp_path, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        artifacts = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            assert cli.run([command, "--config", str(cfg), "--out", str(out),
                            "--seed", "4", "--threads", threads]) == 0
            artifacts.append({p.name: p.read_bytes() for p in out.iterdir()
                              if p.name != "manifest.json"})
        assert artifacts[0] == artifacts[1]
        assert len(artifacts[0]) >= 2

    @pytest.mark.parametrize("threads,n_cells,workers", [(4, 2, 2), (2, 3, 2)])
    def test_pool_has_no_more_workers_than_cells(self, monkeypatch, threads,
                                                 n_cells, workers):
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells):
                return map(fn, cells)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        cells = list(range(n_cells))
        assert cli._map_cells(abs, cells, threads) == cells
        assert started == [workers]

    def test_threads_env_var_honored_below_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CRL_LAB_THREADS", "3")
        out = tmp_path / "env"
        assert cli.run(["ima-eval", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["threads"] == 3
        out2 = tmp_path / "flag"
        assert cli.run(["ima-eval", "--out", str(out2), "--threads", "2"]) == 0
        manifest2 = json.loads((out2 / "manifest.json").read_text())
        assert manifest2["threads"] == 2

    @pytest.mark.parametrize("flag, env", [
        ("0", None), ("-2", None), (None, "abc"), (None, "0"),
    ])
    def test_bad_worker_count_exits_1_with_message(self, tmp_path, capsys,
                                                   monkeypatch, flag, env):
        if env is not None:
            monkeypatch.setenv("CRL_LAB_THREADS", env)
        argv = ["ima-eval", "--out", str(tmp_path / "o")]
        if flag is not None:
            argv += ["--threads", flag]
        assert cli.run(argv) == 1
        assert "error: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_crl_sweep_csv_has_one_cell_per_column(self, tmp_path):
        # candidate ids such as g[0>1]|t[e1:0,e2:1] hold a comma
        cfg = tmp_path / "crl.json"
        cfg.write_text(json.dumps({"n_seeds": 1, "rows_per_env": 200,
                                   "epochs": 1, "n_couplings": 1,
                                   "hidden": [4]}))
        out = tmp_path / "crl"
        assert cli.run(["crl-sweep", "--config", str(cfg),
                        "--out", str(out)]) == 0
        with open(out / "crl_sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) > 1
        assert all(len(r) == 6 for r in rows)
        assert any("," in r[1] for r in rows[1:])


def _config_strategies(files):
    """Tiny configs of each command, keyed like ``cli._CONFIG``.

    ``files`` holds a dataset with its sidecar, the same dataset without one,
    and a directory of ima-sweep output.  Some draws are of the wrong type
    or outside a check's range, so that the rejections are drawn too.
    """
    lr = st.floats(1e-6, 1e3)
    box = st.builds(
        lambda edges: {"kind": "box", "lows": [min(e) for e in edges],
                       "highs": [max(e) for e in edges]},
        st.lists(st.tuples(st.floats(-2.0, 7.0), st.floats(-2.0, 7.0)),
                 min_size=2, max_size=3))
    return {
        "gen-data": {
            "process": st.sampled_from(["crl", "mss"]),
            "n": st.integers(1, 4),
            "rows_per_env": st.integers(1, 30),
            "n_envs": st.integers(1, 3),
            "mixing_kind": st.sampled_from(["mlp", "identity", "moebius"]),
        },
        "ima-eval": {
            "mixing": st.one_of(
                st.sampled_from(["polar", "moebius", 3, {}, {"variant": "moebius"}]),
                st.builds(lambda n, seed: mixing.random_moebius(n, seed).to_dict(),
                          st.integers(2, 3), st.integers(0, 5))),
            "source": st.one_of(box, st.sampled_from([{"kind": "gaussian"}, [0, 1]])),
            "n_mc": st.integers(1, 50),
        },
        "ima-sweep": {
            "thetas": st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3),
            "n_mc": st.integers(1, 50),
            "moebius_seed": st.integers(0, 10**6),
        },
        "ima-train": {
            "n_seeds": st.integers(1, 2),
            "lambdas": st.lists(st.floats(0.0, 10.0), min_size=1, max_size=2),
            "rows": st.integers(3, 40),
            "epochs": st.integers(1, 2),
            "lr": lr,
            "batch_size": st.integers(2, 64),
        },
        "multiview": {
            "n_c": st.integers(1, 2),
            "n_s": st.integers(1, 2),
            "statistical": st.booleans(),
            "causal": st.booleans(),
            "change_prob": st.floats(0.0, 1.0),
            "n_pairs": st.integers(3, 20),
            "seeds": st.lists(st.integers(0, 3), min_size=1, max_size=2),
            "epochs": st.integers(1, 2),
        },
        "crl-sweep": {
            "n_seeds": st.just(1),
            "rows_per_env": st.integers(2, 20),
            "epochs": st.integers(1, 2),
            "lr": lr,
            "batch_size": st.integers(2, 64),
            "n_couplings": st.integers(1, 2),
            "hidden": st.lists(st.integers(1, 4), max_size=2),
        },
        "mss": {
            "dataset": st.sampled_from([None, 5, str(files / "missing.csv"),
                                        str(files / "data" / "dataset.csv"),
                                        str(files / "bare" / "dataset.csv")]),
            "n": st.integers(1, 4),
            "n_envs": st.integers(2, 3),
            "rows_per_env": st.integers(1, 60),
            "test": st.sampled_from(["linear-gaussian", "oracle"]),
            "alpha": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        },
        "influence": {
            "edge_weight": st.floats(-10.0, 10.0),
            "edge": st.sampled_from([[0, 1], [1, 0], [1, 1]]),
            "n_mc": st.integers(1, 50),
        },
        "verify-props": {},
        "report": {
            "input_dir": st.sampled_from([None, 3, str(files / "missing"),
                                          str(files / "data"),
                                          str(files / "sweeps")]),
        },
    }


_NOT_DRAWN = {"multiview", "verify-props"}  # why: see the property test


@pytest.fixture(scope="module")
def config_files(tmp_path_factory):
    files = tmp_path_factory.mktemp("config-files")
    (files / "gen.json").write_text(json.dumps(
        {"process": "mss", "n": 2, "n_envs": 3, "rows_per_env": 40}))
    assert cli.run(["gen-data", "--config", str(files / "gen.json"),
                    "--out", str(files / "data")]) == 0
    (files / "bare").mkdir()
    shutil.copy(files / "data" / "dataset.csv", files / "bare")
    (files / "sweep.json").write_text(json.dumps({"thetas": [0.0, 0.5],
                                                  "n_mc": 20}))
    assert cli.run(["ima-sweep", "--config", str(files / "sweep.json"),
                    "--out", str(files / "sweeps")]) == 0
    return files


def test_every_config_key_has_a_strategy():
    strategies = _config_strategies(Path("unused"))
    assert set(strategies) == set(cli._CONFIG)
    for command, keys in strategies.items():
        assert set(keys) == set(cli._CONFIG[command]), command


@pytest.mark.parametrize("command", sorted(set(cli._CONFIG) - _NOT_DRAWN))
@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_accepted_or_rejected_config_never_exits_2(config_files, command, data):
    """Every drawn config runs (exit 0) or is a user error (exit 1 with an
    ``error:`` line); none is a runtime failure (exit 2).

    ``multiview`` and ``verify-props`` are not drawn: multiview scores its
    encoder by kernel ridge on a fixed 5,000 rows, seconds per draw, and
    verify-props exits 2 by chance on some seeds (its checks run at level
    0.01 with no multiple-testing correction).
    """
    config = data.draw(st.fixed_dictionaries(
        _config_strategies(config_files)[command]))
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "cfg.json").write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.run([command, "--config", str(Path(tmp) / "cfg.json"),
                            "--out", str(Path(tmp) / "out"), "--threads", "1"])
    assert code in (0, 1), err.getvalue()
    assert code == 0 or err.getvalue().startswith("error: "), err.getvalue()


def _scipy_subpackages_loaded_by(code):
    """The scipy subpackages in ``sys.modules`` once a fresh interpreter has
    run ``code``."""
    code += ("\nimport sys\n"
             "print(*{m.split('.')[1] for m in sys.modules if m.startswith('scipy.')})")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return set(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True).stdout.split())


def test_cli_import_leaves_out_scipy_stats_and_interpolate():
    loaded = _scipy_subpackages_loaded_by("import crl_lab.cli, crl_lab.properties")
    assert not loaded & {"stats", "interpolate", "optimize", "linalg", "sparse"}


def test_mcc_commands_load_no_scipy_optimize(tmp_path):
    runs = [("ima-train", {"n_seeds": 1, "lambdas": [0.0], "rows": 300,
                           "epochs": 1, "batch_size": 128}),
            ("crl-sweep", {"n_seeds": 1, "rows_per_env": 200, "epochs": 1,
                           "n_couplings": 1, "hidden": [4]})]
    code = "from crl_lab import cli\n"
    for command, config in runs:
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(config))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / command)]
        code += f"assert cli.run({argv!r}) == 0\n"
    assert "optimize" not in _scipy_subpackages_loaded_by(code)
