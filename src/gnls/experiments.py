"""Concrete experiment implementations behind `harness.run` and the CLI."""

from __future__ import annotations

import math
import os
from dataclasses import asdict, replace

import numpy as np

from .dynamics import evolve, trajectory_to_csv, truncation_convergence
from .gauge import CoeffSequence, decomposition_check
from .harness import (
    ExperimentConfig,
    RunResult,
    invariance_test,
    observable_matrix,
    summary_json,
    write_csv,
    write_json,
)
from .measures import (
    RngStream,
    ensemble_rows,
    gibbs_ensemble,
    make_report,
    sample_gaussian,
    sample_gaussian_coeffs,
    weighted_mean_stderr,
)
from .spectral import SpectralField, TWO_PI, TorusGeometry
from .variational import VariationalConfig, divergence_scan, objective_estimate


def run_sample(config: ExperimentConfig) -> RunResult:
    rng = RngStream(config.seed)
    ens = gibbs_ensemble(config.params, config.ensemble, rng, config.mode)
    header, rows = ensemble_rows(ens)
    csv_path = os.path.join(config.out, "ensemble.csv")
    write_csv(csv_path, header, rows)
    obs = observable_matrix(
        config.params.geometry, ens.coeffs, config.params,
        s_norms=config.observables.s_norms, mode_powers=config.observables.mode_powers,
    )
    report = make_report(obs, ens.weights)
    payload = {
        "partition_function": {"estimate": ens.z_estimate, "stderr": ens.z_stderr},
        "observables": summary_json(report.observables),
        "ensemble_size": report.ensemble_size,
        "max_weight_fraction": report.max_weight_fraction,
    }
    json_path = os.path.join(config.out, "summary.json")
    write_json(json_path, payload)
    return RunResult(0, [csv_path, json_path], payload)


def run_evolve(config: ExperimentConfig) -> RunResult:
    rng = RngStream(config.seed)
    u0 = sample_gaussian(config.params, rng)
    traj = evolve(u0, config.flow_config(), mode=config.mode)
    csv_path = os.path.join(config.out, "trajectory.csv")
    snap_dir = os.path.join(config.out, "snapshots")
    trajectory_to_csv(traj, csv_path, snapshot_dir=snap_dir)
    drift = abs(traj.diagnostics["mass"][-1] - traj.diagnostics["mass"][0])
    payload = {"steps": len(traj.times) - 1, "mass_drift": drift}
    return RunResult(0, [csv_path], payload)


def run_invariance(config: ExperimentConfig) -> RunResult:
    rng = RngStream(config.seed)
    cfg = config.flow_config()
    report = invariance_test(
        config.params,
        cfg,
        config.t_horizon,
        config.ensemble,
        rng,
        s_norms=config.observables.s_norms,
        mode_powers=config.observables.mode_powers,
        threads=config.threads,
    )
    json_path = os.path.join(config.out, "invariance.json")
    write_json(json_path, asdict(report))
    header = ["observable", "mean0", "meanT", "diff", "stderr", "z"]
    rows = [
        [name, d["mean0"], d["meanT"], d["diff"], d["stderr"], d["z"]]
        for name, d in report.observables.items()
    ]
    csv_path = os.path.join(config.out, "invariance.csv")
    write_csv(csv_path, header, rows)
    code = 0 if (report.passed and report.control_failed) else 2
    return RunResult(code, [csv_path, json_path], asdict(report))


def run_moments(config: ExperimentConfig) -> RunResult:
    rng = RngStream(config.seed)
    params = config.params
    sig = params.sigma_n()
    gen = rng.generator()
    coeffs = sample_gaussian_coeffs(params, gen, config.moments.samples)
    # field value at x = 0: (2pi)^(-d/2) sum a_n
    axes = tuple(range(-params.geometry.d, 0))
    u0 = np.sum(coeffs, axis=axes) / TWO_PI ** (params.geometry.d / 2.0)
    absq = np.abs(u0) ** 2
    rows = []
    worst = 0.0
    for target in config.moments.pbeta_sigma:
        c = target / sig
        est_vals = np.exp(c * absq)
        est, se, _ = weighted_mean_stderr(est_vals, None)
        oracle = 1.0 / (1.0 - target)
        zscore = (est - oracle) / se if se > 0 else 0.0
        worst = max(worst, abs(zscore))
        rows.append([target, oracle, est, se, zscore])
    csv_path = os.path.join(config.out, "moments.csv")
    write_csv(csv_path, ["pbeta_sigma", "oracle", "estimate", "stderr", "z"], rows)
    payload = {"sigma": sig, "max_abs_z": worst, "pass": worst <= 3.0}
    json_path = os.path.join(config.out, "moments.json")
    write_json(json_path, payload)
    return RunResult(0 if worst <= 3.0 else 2, [csv_path, json_path], payload)


def run_variational(config: ExperimentConfig) -> RunResult:
    spec = config.variational
    rng = RngStream(config.seed)
    artifacts = []
    scan = divergence_scan(
        config.params, spec.gamma_sign, spec.k_mass, spec.l_ladder, config.ensemble, rng
    )
    rows = [
        [l, e, s]
        for l, e, s in zip(scan.l_values, scan.estimates, scan.stderrs)
    ]
    csv_path = os.path.join(config.out, "divergence.csv")
    write_csv(csv_path, ["L", "estimate", "stderr"], rows)
    artifacts.append(csv_path)
    payload = {
        "diverging": bool(scan.trend_pvalue < 0.01 and not scan.saturated),
        "trend_pvalue": scan.trend_pvalue,
        "saturated": scan.saturated,
    }

    if spec.n_ladder:
        obj_rows = []
        for n in spec.n_ladder:
            geo = TorusGeometry(
                d=config.params.d, n_max=2 * n, oversampling=config.params.geometry.oversampling
            )
            params_n = replace(config.params, n_cut=n, geometry=geo)
            l_clip = spec.l_clip
            if l_clip is None:
                l_clip = 100.0 * math.exp(0.45 * abs(params_n.beta) * spec.eta**2 * n)
            vcfg = VariationalConfig(
                params=params_n, k_mass=spec.k_mass, l_clip=l_clip,
                eta=spec.eta, m=config.ensemble, dt_sde=spec.dt_sde,
            )
            rep = objective_estimate(vcfg, rng.child(n))
            obj_rows.append([n, rep.estimate, rep.stderr, rep.indicator_freq, rep.mean_cost])
        obj_path = os.path.join(config.out, "objective.csv")
        write_csv(
            obj_path, ["N", "objective", "stderr", "indicator_freq", "mean_cost"], obj_rows
        )
        artifacts.append(obj_path)
        payload["objective_decreasing"] = bool(
            all(b[1] < a[1] for a, b in zip(obj_rows, obj_rows[1:]))
        )
    json_path = os.path.join(config.out, "divergence.json")
    write_json(json_path, payload)
    artifacts.append(json_path)
    return RunResult(0, artifacts, payload)


def run_gauge_check(config: ExperimentConfig) -> RunResult:
    spec = config.gauge
    rng = RngStream(config.seed)
    gen = rng.generator()
    max_err = 0.0
    for _ in range(spec.trials):
        modes = gen.choice(np.arange(-4, 5), size=spec.modes, replace=False)
        coeffs = gen.standard_normal(spec.modes) + 1j * gen.standard_normal(spec.modes)
        rep = decomposition_check(spec.k, CoeffSequence(modes, coeffs))
        max_err = max(max_err, rep.relative_error)
    payload = {"max_error": max_err, "trials": spec.trials, "pass": max_err <= spec.tolerance}
    json_path = os.path.join(config.out, "gauge_check.json")
    write_json(json_path, payload)
    return RunResult(0 if payload["pass"] else 2, [json_path], payload)


def run_truncation(config: ExperimentConfig) -> RunResult:
    spec = config.truncation
    rng = RngStream(config.seed)
    gen = rng.generator()
    geo = config.params.geometry
    u0 = SpectralField.zero(geo)
    for n in range(-spec.u0_bandwidth, spec.u0_bandwidth + 1):
        u0.coeffs[geo.n_max + n] = (
            gen.standard_normal() + 1j * gen.standard_normal()
        ) / (2.0 * (1 + abs(n)))
    cfg = config.flow_config()
    table = truncation_convergence(u0, cfg, spec.n_ladder, spec.n_ref, spec.s)
    rows = [[int(n), e] for n, e in zip(table.n_values, table.errors)]
    csv_path = os.path.join(config.out, "truncation.csv")
    write_csv(csv_path, ["N", "error"], rows)
    payload = {
        "monotone": bool(np.all(np.diff(table.errors) < 0)),
        "fitted_order": table.fitted_order,
    }
    json_path = os.path.join(config.out, "truncation.json")
    write_json(json_path, payload)
    return RunResult(0, [csv_path, json_path], payload)
