import gc
import json
import warnings

from gnls.cli import main


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def sample_config(tmp_path, **over):
    raw = {
        "experiment": "sample",
        "seed": 7,
        "ensemble": 40,
        "out": str(tmp_path / "out"),
        "params": {"alpha": 2.0, "beta": 0.3, "gamma": 1.0, "n_cut": 4},
    }
    raw.update(over)
    return write_config(tmp_path, raw)


class TestCli:
    def test_sample_runs_and_exits_zero(self, tmp_path, capsys):
        cfg = sample_config(tmp_path)
        assert main(["sample", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "partition_function" in out
        assert (tmp_path / "out" / "ensemble.csv").exists()

    def test_identical_seeds_identical_bytes(self, tmp_path):
        cfg = sample_config(tmp_path)
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "r1")]) == 0
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "r2")]) == 0
        a = (tmp_path / "r1" / "ensemble.csv").read_bytes()
        b = (tmp_path / "r2" / "ensemble.csv").read_bytes()
        assert a == b

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = sample_config(tmp_path)
        main(["sample", "--config", cfg, "--out", str(tmp_path / "r1")])
        main(["sample", "--config", cfg, "--out", str(tmp_path / "r2"), "--seed", "8"])
        a = (tmp_path / "r1" / "ensemble.csv").read_bytes()
        b = (tmp_path / "r2" / "ensemble.csv").read_bytes()
        assert a != b

    def test_malformed_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["sample", "--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_keys_exit_one(self, tmp_path, capsys):
        cfg = sample_config(tmp_path, bogus=True)
        assert main(["sample", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "bogus" in err

    def test_dry_run_prints_resolved_config(self, tmp_path, capsys):
        out_dir = tmp_path / "nothing"
        cfg = sample_config(tmp_path, out=str(out_dir))
        assert main(["sample", "--config", cfg, "--dry-run"]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["experiment"] == "sample"
        assert not out_dir.exists()

    def test_gauge_check_flags(self, tmp_path, capsys):
        code = main(
            [
                "gauge-check",
                "--k", "2",
                "--modes", "4",
                "--trials", "3",
                "--tolerance", "1e-10",
                "--out", str(tmp_path),
                "--seed", "11",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert payload["trials"] == 3

    def test_evolve_flag_overrides(self, tmp_path, capsys):
        raw = {
            "experiment": "evolve",
            "seed": 1,
            "out": str(tmp_path / "out"),
            "params": {"alpha": 2.0, "beta": 0.3, "gamma": 1.0, "n_cut": 4},
            "flow": {"dt": 1e-2, "t_final": 0.5},
        }
        cfg = write_config(tmp_path, raw)
        code = main(
            [
                "evolve", "--config", cfg,
                "--mode", "collocation",
                "--symbol", "pure",
                "--dt", "0.02",
                "--t-final", "0.04",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["steps"] == 2

    def test_experiment_mismatch_exits_one(self, tmp_path):
        cfg = sample_config(tmp_path)
        assert main(["invariance", "--config", cfg]) == 1

    def test_variational_flags(self, tmp_path, capsys):
        raw = {
            "experiment": "variational",
            "seed": 9,
            "ensemble": 400,
            "out": str(tmp_path / "out"),
            "params": {"alpha": 2.0, "beta": 0.5, "gamma": -1.0, "n_cut": 8, "n_max": 8},
        }
        cfg = write_config(tmp_path, raw)
        code = main(
            [
                "variational", "--config", cfg,
                "--gamma", "-1", "--K", "3.0", "--eta", "4.0",
                "--L-ladder", "10,100", "--N-ladder", "8,16",
                "--ensemble", "300", "--dt-sde", "0.001",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "trend_pvalue" in payload and "objective_decreasing" in payload
        obj = (tmp_path / "out" / "objective.csv").read_text().splitlines()
        assert obj[0] == "N,objective,stderr,indicator_freq,mean_cost"
        assert len(obj) == 3

    def test_threads_env_override(self, tmp_path, monkeypatch, capsys):
        cfg = sample_config(tmp_path)
        monkeypatch.setenv("GNLS_THREADS", "2")
        assert main(["sample", "--config", cfg, "--dry-run", "--threads", "7"]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["threads"] == 2

    def test_config_file_is_closed(self, tmp_path, capsys):
        cfg = sample_config(tmp_path, out=str(tmp_path / "nothing"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["sample", "--config", cfg, "--dry-run"]) == 0
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]

    def test_non_object_config_exits_one(self, tmp_path, capsys):
        path = write_config(tmp_path, [1, 2])
        assert main(["sample", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "JSON object" in err

    def test_undecodable_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'\xff\xfe{"experiment": "sample"}')
        assert main(["sample", "--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_evolve_mode_exits_one(self, tmp_path, capsys):
        raw = {
            "experiment": "evolve",
            "mode": "colocation",
            "out": str(tmp_path / "out"),
            "params": {"alpha": 2.0, "beta": 0.3, "gamma": 1.0, "n_cut": 4},
            "flow": {"dt": 1e-2, "t_final": 0.02},
        }
        assert main(["evolve", "--config", write_config(tmp_path, raw)]) == 1
        assert "colocation" in capsys.readouterr().err
        assert not (tmp_path / "out" / "trajectory.csv").exists()

    def test_unknown_nested_keys_exit_one(self, tmp_path, capsys):
        blocks = {
            "moments": {"samplez": 100},
            "gauge": {"trails": 3},
            "truncation": {"nref": 16},
            "variational": {"kmass": 3.0},
        }
        for block, entry in blocks.items():
            cfg = sample_config(tmp_path, **{block: entry})
            assert main(["sample", "--config", cfg]) == 1
            err = capsys.readouterr().err
            assert "config error" in err and next(iter(entry)) in err
