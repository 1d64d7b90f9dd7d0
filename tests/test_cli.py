import csv
import json

import numpy as np
import pytest

from crl_lab import cli, mss, scm
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
    ])
    def test_invalid_value_exits_1_with_message(self, tmp_path, capsys,
                                                command, config, key):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(config))
        out = tmp_path / "o"
        assert cli.run([command, "--config", str(p), "--out", str(out)]) == 1
        assert f"{key} = " in capsys.readouterr().err
        assert not out.exists()


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
