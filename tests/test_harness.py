import json
import math
import sys
import warnings

import numpy as np
import pytest

from gnls import (
    ExperimentConfig,
    ModelParams,
    RngStream,
    TorusGeometry,
    invariance_test,
    observable_matrix,
    run,
    sigma,
)
from gnls import experiments, harness
from gnls.dynamics import FlowConfig
from gnls.harness import ConfigError, _paired_stats, thread_count
from gnls.measures import sample_gaussian_coeffs, weighted_mean_stderr
from gnls.spectral import TWO_PI
from gnls.variational import ObjectiveReport

from conftest import from_modes


def observables_of(u, p):
    """The observable vector of one field, through the batched kernel."""
    return {k: v[0] for k, v in observable_matrix(p.geometry, u[None], p).items()}


def small_invariance_setup(alpha=2.5, n_cut=4, beta_frac=0.1):
    geo = TorusGeometry(d=1, n_max=n_cut)
    sig = sigma(alpha, n_cut, 1)
    p = ModelParams(
        d=1, alpha=alpha, beta=beta_frac / sig, gamma=1.0, n_cut=n_cut, geometry=geo
    )
    cfg = FlowConfig(params=p, dt=2e-3, t_final=0.5)
    return p, cfg


class TestObservables:
    def test_zero_field_vector(self):
        geo = TorusGeometry(d=1, n_max=4)
        p = ModelParams(d=1, alpha=2.0, beta=0.5, gamma=1.3, n_cut=4, geometry=geo)
        obs = observables_of(np.zeros(geo.box_shape, np.complex128), p)
        assert obs["mass"] == 0.0
        assert obs["hamiltonian"] == pytest.approx(1.3 * TWO_PI)
        assert obs["potential"] == pytest.approx(TWO_PI)
        assert obs["h0.5_norm"] == 0.0
        assert obs["mode_power_0"] == 0.0

    def test_mode_power_phase_invariant(self):
        geo = TorusGeometry(d=1, n_max=4)
        p = ModelParams(d=1, alpha=2.0, beta=0.5, gamma=1.0, n_cut=4, geometry=geo)
        u = from_modes(geo, {1: 0.3 + 0.4j})
        a = observables_of(u, p)["mode_power_1"]
        v = u * np.exp(0.9j)
        b = observables_of(v, p)["mode_power_1"]
        assert a == pytest.approx(b)

    def test_mean_mass_matches_gaussian_moment(self):
        geo = TorusGeometry(d=1, n_max=6)
        p = ModelParams(d=1, alpha=2.0, beta=0.5, gamma=1.0, n_cut=6, geometry=geo)
        coeffs = sample_gaussian_coeffs(p, RngStream(1).generator(), 20000)
        masses = 0.5 * np.sum(np.abs(coeffs) ** 2, axis=-1)
        expected = 0.5 * TWO_PI * sigma(2.0, 6, 1)
        est, se, _ = weighted_mean_stderr(masses, None)
        assert abs(est - expected) <= 3 * se


class TestInvariance:
    def test_linear_case_passes_any_ensemble(self):
        # beta = 0: the flow is mode-wise unitary and the Gaussian law exact
        geo = TorusGeometry(d=1, n_max=4)
        p = ModelParams(d=1, alpha=2.5, beta=0.0, gamma=1.0, n_cut=4, geometry=geo)
        cfg = FlowConfig(params=p, dt=5e-3, t_final=0.5)
        rep = invariance_test(p, cfg, 0.5, 200, RngStream(3))
        assert rep.passed

    def test_small_scale_invariance(self):
        p, cfg = small_invariance_setup()
        rep = invariance_test(p, cfg, 0.5, 2000, RngStream(4))
        assert rep.passed
        assert rep.ess <= 2000.0

    def test_type_one_error_calibration(self):
        # under the matched null the paired statistic is mean zero: at
        # threshold 3 the per-seed failure rate stays within 5%
        p, cfg = small_invariance_setup()
        fails = 0
        for seed in range(20):
            rep = invariance_test(p, cfg, 0.5, 600, RngStream(900 + seed))
            fails += 0 if rep.passed else 1
        assert fails <= 1

    @pytest.mark.parametrize(
        "alpha, beta, gamma, t, seed",
        [
            # every Gibbs weight exp(-200 V) underflows: the ess and every
            # weighted mean are 0/0
            (2.5, 0.2, 200.0, 0.02, 7),
        ],
    )
    def test_non_finite_statistics_do_not_pass(self, alpha, beta, gamma, t, seed):
        geo = TorusGeometry(d=1, n_max=4)
        p = ModelParams(d=1, alpha=alpha, beta=beta, gamma=gamma, n_cut=4, geometry=geo)
        cfg = FlowConfig(params=p, dt=0.01, t_final=t)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rep = invariance_test(p, cfg, t, 200, RngStream(seed))
        assert not rep.passed
        # a NaN stderr reads as no test at all, never as an exact pass
        assert math.isnan(rep.max_abs_z) and math.isnan(rep.control_z)
        assert all(math.isnan(d["z"]) for d in rep.observables.values())

    def test_single_row_does_not_pass(self):
        # one row has stderr 0: its differences measure no spread at all
        p, cfg = small_invariance_setup()
        rep = invariance_test(p, cfg, 0.5, 1, RngStream(4))
        assert not rep.passed
        assert math.isnan(rep.observables["potential"]["z"]) and math.isnan(rep.max_abs_z)

    def test_single_surviving_weight_gives_no_z(self):
        # the other rows' weights underflowed to 0, so the stderr is 0 too
        z = _paired_stats(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.0, 0.0]))[2]
        assert math.isnan(z)

    def test_overflowing_flow_raises(self):
        # the flow overflows on 197 of 200 rows of this ensemble
        geo = TorusGeometry(d=1, n_max=4)
        p = ModelParams(d=1, alpha=2.0, beta=5.0, gamma=1.0, n_cut=4, geometry=geo)
        cfg = FlowConfig(params=p, dt=0.01, t_final=0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValueError, match="not finite on 197 of 200 rows by t = 0.05"):
                invariance_test(p, cfg, 0.05, 200, RngStream(3))

    def test_requires_defocusing(self):
        p, cfg = small_invariance_setup()
        bad = ModelParams(
            d=1, alpha=p.alpha, beta=p.beta, gamma=-1.0, n_cut=p.n_cut, geometry=p.geometry
        )
        with pytest.raises(ValueError):
            invariance_test(bad, cfg, 0.5, 10, RngStream(0))

    def test_pure_symbol_warns(self):
        p, cfg = small_invariance_setup()
        from dataclasses import replace

        cfg_pure = replace(cfg, dispersion_symbol="pure")
        with pytest.warns(UserWarning):
            invariance_test(p, cfg_pure, 0.1, 50, RngStream(0))

    def test_thread_count_env_override(self, monkeypatch):
        monkeypatch.setenv("GNLS_THREADS", "3")
        assert thread_count(8) == 3
        monkeypatch.delenv("GNLS_THREADS")
        assert thread_count(8) == 8
        assert thread_count(None) == 1

    def test_threaded_result_identical(self):
        p, cfg = small_invariance_setup()
        a = invariance_test(p, cfg, 0.2, 1500, RngStream(5), threads=1)
        b = invariance_test(p, cfg, 0.2, 1500, RngStream(5), threads=2)
        for name in a.observables:
            assert a.observables[name]["z"] == b.observables[name]["z"]

    def test_workers_fill_disjoint_chunks(self, monkeypatch):
        # 16 chunks on 4 workers, more than the cores, each writing its own
        # rows of one shared endpoint array while the interpreter switches
        # threads often: every statistic must equal the serial run's
        p, cfg = small_invariance_setup()
        monkeypatch.setattr(harness, "_CHUNK", 64)
        monkeypatch.delenv("GNLS_THREADS", raising=False)  # it would override threads
        serial = invariance_test(p, cfg, 0.1, 1000, RngStream(6), threads=1)
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            pooled = invariance_test(p, cfg, 0.1, 1000, RngStream(6), threads=4)
        finally:
            sys.setswitchinterval(interval)
        assert pooled.observables == serial.observables
        assert pooled.control_z == serial.control_z


class TestConfig:
    def base_config(self, **over):
        raw = {
            "experiment": "sample",
            "seed": 1,
            "ensemble": 50,
            "params": {"alpha": 2.0, "beta": 0.3, "gamma": 1.0, "n_cut": 4},
        }
        raw.update(over)
        return raw

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(self.base_config(bogus=1))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                self.base_config(params={"alpha": 2.0, "beta": 0.3, "gamma": 1.0, "n_cut": 4, "nope": 2})
            )

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(self.base_config(experiment="meditate"))

    def test_missing_params_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "sample"})

    def test_run_sample_deterministic(self, tmp_path):
        raw = self.base_config(out=str(tmp_path / "a"))
        res_a = run(ExperimentConfig.from_dict(raw))
        raw["out"] = str(tmp_path / "b")
        res_b = run(ExperimentConfig.from_dict(raw))
        assert res_a.exit_code == 0
        csv_a = (tmp_path / "a" / "ensemble.csv").read_bytes()
        csv_b = (tmp_path / "b" / "ensemble.csv").read_bytes()
        assert csv_a == csv_b
        summary = json.loads((tmp_path / "a" / "summary.json").read_text())
        assert "partition_function" in summary
        # the weighted-ensemble contract
        m = raw["ensemble"]
        assert summary["ensemble_size"] == m
        for stats in summary["observables"].values():
            assert stats["stderr"] >= 0
            assert stats["ess"] <= m + 1e-9
        assert 0 < summary["max_weight_fraction"] < 1

    def test_dry_run_writes_nothing(self, tmp_path):
        out = tmp_path / "dry"
        raw = self.base_config(out=str(out))
        res = run(ExperimentConfig.from_dict(raw), dry_run=True)
        assert res.exit_code == 0
        assert "resolved" in res.payload
        assert not out.exists()

    def test_run_gauge_check(self, tmp_path):
        raw = {
            "experiment": "gauge-check",
            "seed": 2,
            "out": str(tmp_path),
            "params": {"alpha": 2.0, "beta": 0.5, "gamma": 1.0, "n_cut": 4},
            "gauge": {"k": 2, "modes": 4, "trials": 5, "tolerance": 1e-10},
        }
        res = run(ExperimentConfig.from_dict(raw))
        assert res.exit_code == 0
        payload = json.loads((tmp_path / "gauge_check.json").read_text())
        assert payload["pass"] is True
        assert payload["max_error"] <= 1e-10

    def test_run_evolve_writes_trajectory(self, tmp_path):
        raw = {
            "experiment": "evolve",
            "seed": 3,
            "out": str(tmp_path),
            "mode": "galerkin",
            "params": {"alpha": 2.0, "beta": 0.3, "gamma": 1.0, "n_cut": 4},
            "flow": {"dt": 1e-2, "t_final": 0.05, "store_every": 5},
        }
        res = run(ExperimentConfig.from_dict(raw))
        assert res.exit_code == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("t,mass,hamiltonian,potential")
        assert (tmp_path / "snapshots").is_dir()

    def test_run_moments(self, tmp_path):
        raw = {
            "experiment": "moments",
            "seed": 4,
            "out": str(tmp_path),
            "params": {"alpha": 2.0, "beta": 1.0, "gamma": 1.0, "n_cut": 1},
            "moments": {"pbeta_sigma": [0.2, 0.5], "samples": 20000},
        }
        res = run(ExperimentConfig.from_dict(raw))
        assert res.exit_code == 0
        payload = json.loads((tmp_path / "moments.json").read_text())
        assert payload["max_abs_z"] <= 3.0

    def test_run_variational_verdict(self, tmp_path):
        raw = {
            "experiment": "variational",
            "seed": 5,
            "out": str(tmp_path),
            "ensemble": 1500,
            "params": {"alpha": 2.0, "beta": 0.5, "gamma": -1.0, "n_cut": 16},
            "variational": {"k_mass": 3.0, "l_ladder": [10.0, 100.0, 1000.0], "gamma_sign": -1.0},
        }
        res = run(ExperimentConfig.from_dict(raw))
        assert res.exit_code == 0
        payload = json.loads((tmp_path / "divergence.json").read_text())
        assert "diverging" in payload and "trend_pvalue" in payload

    def test_variational_ladder_grids_use_requested_oversampling(self, tmp_path, monkeypatch):
        # at oversampling 2.5 and n_cut 8 the realised ratio is 44/17, which
        # would put the n = 8 and 16 rungs at 88 and 175 points, not 84 and 165
        grids = []

        def record(vcfg, rng):
            grids.append(vcfg.params.geometry.m_grid)
            return ObjectiveReport(1.0, 0.0, 0.0, 0.0, 0.0)

        monkeypatch.setattr(experiments, "objective_estimate", record)
        raw = {
            "experiment": "variational",
            "seed": 5,
            "out": str(tmp_path),
            "ensemble": 50,
            "params": {"alpha": 2.0, "beta": 0.5, "gamma": -1.0, "n_cut": 8,
                       "oversampling": 2.5},
            "variational": {"k_mass": 3.0, "l_ladder": [10.0, 100.0], "n_ladder": [4, 8, 16]},
        }
        assert run(ExperimentConfig.from_dict(raw)).exit_code == 0
        want = [TorusGeometry(1, 2 * n, oversampling=2.5).m_grid for n in (4, 8, 16)]
        assert grids == want == [44, 84, 165]

    def test_run_invariance_exit_contract(self, tmp_path):
        raw = {
            "experiment": "invariance",
            "seed": 77,
            "out": str(tmp_path),
            "ensemble": 3000,
            "t_horizon": 0.5,
            "params": {"alpha": 2.5, "beta": 0.2667, "gamma": 1.0, "n_cut": 4},
            "flow": {"dt": 5e-3},
            "observables": {"s_norms": [0.25], "mode_powers": [0, 1]},
        }
        res = run(ExperimentConfig.from_dict(raw))
        payload = json.loads((tmp_path / "invariance.json").read_text())
        assert "h0.25_norm" in payload["observables"]
        assert "mode_power_2" not in payload["observables"]
        # exit 0 iff the test passed and the control was detected
        expected = 0 if (payload["passed"] and payload["control_failed"]) else 2
        assert res.exit_code == expected

    def test_run_invariance_flows_to_flow_t_final(self, tmp_path):
        # flow.t_final is the horizon when set; unset, it is t_horizon
        reports = []
        for t_final in (0.02, 0.5):
            raw = {
                "experiment": "invariance",
                "seed": 3,
                "out": str(tmp_path / str(t_final)),
                "ensemble": 64,
                "params": {"alpha": 2.5, "beta": 0.2667, "gamma": 1.0, "n_cut": 4},
                "flow": {"dt": 0.01, "t_final": t_final},
            }
            run(ExperimentConfig.from_dict(raw))
            reports.append((tmp_path / str(t_final) / "invariance.json").read_bytes())
        assert reports[0] != reports[1]

    def test_run_truncation(self, tmp_path):
        raw = {
            "experiment": "truncation",
            "seed": 6,
            "out": str(tmp_path),
            "params": {"alpha": 2.0, "beta": 0.5, "gamma": 1.0, "n_cut": 32, "n_max": 32},
            "flow": {"dt": 5e-3, "t_final": 0.2, "store_every": 5},
            "truncation": {"n_ladder": [4, 8], "n_ref": 32, "s": 0.5},
        }
        res = run(ExperimentConfig.from_dict(raw))
        assert res.exit_code == 0
        assert res.payload["monotone"] in (True, False)

    def test_run_truncation_d2_datum_is_band_limited_on_axis_0(self, tmp_path, monkeypatch):
        data = []

        def capture(u0, cfg, n_ladder, n_ref, s):
            data.append(u0)
            raise RuntimeError("captured")

        monkeypatch.setattr(experiments, "truncation_convergence", capture)
        raw = {
            "experiment": "truncation",
            "seed": 6,
            "out": str(tmp_path),
            "params": {"d": 2, "alpha": 2.5, "beta": 0.1, "gamma": 1.0, "n_cut": 8},
            "truncation": {"n_ladder": [2, 4], "n_ref": 8, "u0_bandwidth": 1},
        }
        with pytest.raises(RuntimeError, match="captured"):
            run(ExperimentConfig.from_dict(raw))
        (u0,) = data
        # 2 u0_bandwidth + 1 modes, all (n, 0): box index minus n_max = 8
        nonzero = np.argwhere(u0 != 0) - 8
        assert sorted(map(tuple, nonzero)) == [(-1, 0), (0, 0), (1, 0)]
