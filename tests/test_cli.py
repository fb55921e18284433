import contextlib
import gc
import io
import json
import os
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gnls import ExperimentConfig
from gnls.cli import main
from gnls.harness import ConfigError


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
        assert resolved["mode"] == "importance"
        assert not out_dir.exists()
        # evolve with no flow block: every key of every block, defaults applied
        cfg = sample_config(tmp_path, experiment="evolve", out=str(out_dir), t_horizon=0.5)
        assert main(["evolve", "--config", cfg, "--dry-run"]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert not out_dir.exists()
        assert resolved["mode"] == "galerkin"
        assert resolved["flow"] == {
            "dt": 0.001,
            "t_final": 0.5,
            "nonlinear_substeps": 1,
            "dispersion_symbol": "bracket",
            "scheme": "strang",
            "store_every": 1,
        }
        assert resolved["params"] == {
            "d": 1, "alpha": 2.0, "beta": 0.3, "gamma": 1.0,
            "n_cut": 4, "n_max": 4, "oversampling": 4.0,
        }
        assert resolved["observables"] == {"s_norms": [0.5], "mode_powers": [0, 1, 2]}
        assert resolved["moments"] == {"pbeta_sigma": [0.2, 0.5, 0.8], "samples": 100000}
        assert resolved["gauge"] == {"k": 2, "modes": 4, "trials": 20, "tolerance": 1e-10}
        assert resolved["truncation"] == {
            "n_ladder": [8, 16, 32], "n_ref": 64, "s": 0.5, "u0_bandwidth": 3,
        }
        assert resolved["variational"] == {
            "l_ladder": [10.0, 100.0, 1000.0, 10000.0],
            "k_mass": 1.0,
            "gamma_sign": 1.0,
            "n_ladder": None,
            "eta": 4.0,
            "dt_sde": None,
            "l_clip": None,
        }
        assert set(resolved) == set(SCHEMA_KEYS[None])

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

    @pytest.mark.parametrize("d,n_cut,line", [
        (1, 8, "d = 1, n_max = 8, m_grid = 70, oversampling = 4.11765, galerkin = planes"),
        (1, 16, "d = 1, n_max = 16, m_grid = 132, oversampling = 4, galerkin = planes"),
        (1, 29, "d = 1, n_max = 29, m_grid = 240, oversampling = 4.0678, galerkin = fft"),
        (2, 3, "d = 2, n_max = 3, m_grid = 28, oversampling = 4, galerkin = fft"),
    ])
    def test_dry_run_names_the_grid(self, tmp_path, capsys, d, n_cut, line):
        params = {"d": d, "alpha": 2.5, "beta": 0.3, "gamma": 1.0, "n_cut": n_cut}
        cfg = sample_config(tmp_path, params=params)
        assert main(["sample", "--config", cfg, "--dry-run"]) == 0
        captured = capsys.readouterr()
        assert captured.err == f"gnls: grid {line}\n"
        resolved = json.loads(captured.out)
        assert resolved["params"] == {**params, "n_max": n_cut, "oversampling": 4.0}

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

    @pytest.mark.parametrize(
        "experiment, over, key",
        [
            # `mode` is checked against the experiment's modes
            ("sample", {"mode": "galerkin"}, "galerkin"),
            ("invariance", {"mode": "rejection"}, "rejection"),
            # sizes at which a statistic pinned at 0 would pass vacuously
            ("moments", {"moments": {"samples": 1}}, "moments.samples"),
            ("gauge-check", {"gauge": {"trials": 0}}, "gauge.trials"),
            # strict types
            ("sample", {"seed": 1.7}, "seed"),
            ("sample", {"ensemble": "10"}, "ensemble"),
            ("sample", {"ensemble": True}, "ensemble"),
            ("variational", {"variational": {"l_ladder": "10,100"}}, "variational.l_ladder"),
            # lists too short to test anything
            ("moments", {"moments": {"pbeta_sigma": []}}, "moments.pbeta_sigma"),
            ("variational", {"variational": {"l_ladder": [10.0]}}, "variational.l_ladder"),
            ("truncation", {"truncation": {"n_ladder": [8]}}, "truncation.n_ladder"),
            ("variational", {"variational": {"n_ladder": []}}, "variational.n_ladder"),
            # an ensemble of one has stderr 0; of none, nothing to concatenate
            ("invariance", {"ensemble": 1}, "ensemble"),
            ("invariance", {"ensemble": 0}, "ensemble"),
            # a moment that is infinite (from 1 on) or constant (at 0)
            ("moments", {"moments": {"pbeta_sigma": [1.5]}}, "moments.pbeta_sigma"),
            ("moments", {"moments": {"pbeta_sigma": [0.2, 1.0]}}, "moments.pbeta_sigma"),
            ("moments", {"moments": {"pbeta_sigma": [0.0]}}, "moments.pbeta_sigma"),
            # the objective's bump and OU drift are d = 1 only
            (
                "variational",
                {
                    "params": {"d": 2, "alpha": 2.5, "beta": 0.1, "gamma": -1.0, "n_cut": 2},
                    "variational": {"n_ladder": [2]},
                },
                "variational.n_ladder",
            ),
            # snapshots every 0 steps
            ("evolve", {"flow": {"t_final": 0.05, "store_every": 0}}, "flow.store_every"),
            # a mass bound, clip or bump amplitude of 0 or less: no sample
            # passes a negative bound, so the scan would say "saturated"
            ("variational", {"variational": {"k_mass": -1.0}}, "variational.k_mass"),
            ("variational", {"variational": {"k_mass": 0.0}}, "variational.k_mass"),
            ("variational", {"variational": {"eta": 0.0}}, "variational.eta"),
            (
                "variational",
                {"variational": {"l_clip": -5.0, "n_ladder": [4]}},
                "variational.l_clip",
            ),
            ("variational", {"variational": {"l_ladder": [10.0, 0.0]}}, "variational.l_ladder"),
        ],
    )
    def test_rejected_config_exits_one_before_output(
        self, tmp_path, capsys, experiment, over, key
    ):
        cfg = sample_config(tmp_path, experiment=experiment, **over)
        assert main([experiment, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gnls: config error:") and err.count("\n") == 1, err
        assert key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "experiment, over, path",
        [
            # every Gibbs weight underflows, so the weighted means are 0/0
            (
                "sample",
                {
                    "ensemble": 200,
                    "params": {"alpha": 2.5, "beta": 0.2, "gamma": 200.0, "n_cut": 4},
                },
                "max_weight_fraction",
            ),
        ],
    )
    def test_non_finite_result_exits_one(self, tmp_path, capsys, experiment, over, path):
        cfg = sample_config(tmp_path, experiment=experiment, **over)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main([experiment, "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith("gnls: error:") and err.count("\n") == 1, err
        assert path in err
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_unstable_sde_step_exits_one(self, tmp_path, capsys):
        # the fastest OU rate at N = 4 is 4, so dt_sde 0.5 is at the bound 2/4
        cfg = sample_config(
            tmp_path,
            experiment="variational",
            ensemble=100,
            params={"alpha": 2.0, "beta": 0.5, "gamma": -1.0, "n_cut": 4},
            variational={"n_ladder": [4], "dt_sde": 0.5},
        )
        assert main(["variational", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith("gnls: error: dt_sde 0.5 ") and err.count("\n") == 1, err
        assert "2/max a_n" in err
        assert not (tmp_path / "out" / "objective.csv").exists()
        assert not (tmp_path / "out" / "divergence.csv").exists()

    def test_non_finite_flow_exits_one_before_output(self, tmp_path, capsys):
        # beta = 50 overflows the flow in its first step
        cfg = sample_config(
            tmp_path,
            experiment="evolve",
            params={"alpha": 2.0, "beta": 50.0, "gamma": 1.0, "n_cut": 4},
            flow={"dt": 0.01, "t_final": 0.05},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["evolve", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "gnls: error: the flow is not finite at step 1 (t = 0.01)\n"
        assert not (tmp_path / "out" / "trajectory.csv").exists()
        assert not (tmp_path / "out" / "snapshots").exists()

    def test_overflowing_start_exits_one_before_output(self, tmp_path, capsys):
        # at beta = 5000, beta max|u0|^2 is in the thousands before any step
        cfg = sample_config(
            tmp_path,
            experiment="evolve",
            params={"alpha": 2.0, "beta": 5000.0, "gamma": 1.0, "n_cut": 4},
            flow={"dt": 0.01, "t_final": 0.05},
        )
        assert main(["evolve", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith("gnls: error: beta max|Pi_N u0|^2 = "), err
        assert err.endswith(" exceeds the exp limit 709.783\n"), err
        assert not (tmp_path / "out" / "trajectory.csv").exists()
        assert not (tmp_path / "out" / "snapshots").exists()

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


# every key the config accepts, per block; None is the top level
SCHEMA_KEYS = {
    None: ("experiment", "seed", "out", "threads", "params", "flow", "ensemble",
           "observables", "t_horizon", "mode", "gauge", "variational", "truncation",
           "moments"),
    "params": ("d", "alpha", "beta", "gamma", "n_cut", "n_max", "oversampling"),
    "flow": ("dt", "t_final", "nonlinear_substeps", "dispersion_symbol", "scheme",
             "store_every"),
    "observables": ("s_norms", "mode_powers"),
    "moments": ("pbeta_sigma", "samples"),
    "gauge": ("k", "modes", "trials", "tolerance"),
    "truncation": ("n_ladder", "n_ref", "s", "u0_bandwidth"),
    "variational": ("l_ladder", "k_mass", "gamma_sign", "n_ladder", "eta", "dt_sde",
                    "l_clip"),
}
EXPERIMENTS = ("sample", "evolve", "invariance", "moments", "variational",
               "gauge-check", "truncation")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


# a block (None: the top level) and one of its keys, or an arbitrary key
PLACES = st.sampled_from(list(SCHEMA_KEYS)).flatmap(
    lambda block: st.tuples(
        st.just(block), st.sampled_from(SCHEMA_KEYS[block]) | st.text(max_size=6)
    )
)


@settings(max_examples=200, deadline=None, database=None)
@given(experiment=st.sampled_from(EXPERIMENTS), place=PLACES, value=JSON_VALUES)
@example(experiment="sample", place=(None, "seed"), value=None)
@example(experiment="evolve", place=(None, "params"), value=[1])
def test_any_json_value_parses_or_exits_one(experiment, place, value):
    """One arbitrary JSON value under a known or arbitrary key of the top level
    or of a block: the parser returns a config or raises ConfigError, and the
    CLI dry run exits 0 or 1 without a traceback and writes nothing."""
    block, key = place
    with tempfile.TemporaryDirectory() as tmp:
        raw = {
            "experiment": experiment,
            "out": os.path.join(tmp, "out"),
            "params": {"alpha": 2.0, "beta": 0.3, "gamma": 1.0, "n_cut": 4},
        }
        (raw if block is None else raw.setdefault(block, {}))[key] = value
        try:
            ExperimentConfig.from_dict(json.loads(json.dumps(raw)))
            parsed = True
        except ConfigError:
            parsed = False
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([experiment, "--config", path, "--dry-run"])
        assert code in (0, 1)
        assert parsed or code == 1
        assert code == 0 or err.getvalue().count("\n") == 1
        assert os.listdir(tmp) == ["config.json"]
