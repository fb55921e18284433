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
    write_csv,
    write_json,
)
from .measures import (
    RngStream,
    gibbs_ensemble,
    sample_gaussian_coeffs,
    weighted_mean_stderr,
)
from .spectral import TWO_PI, TorusGeometry, sobolev_norm_array
from .variational import VariationalConfig, _euler_moments, divergence_scan, objective_estimate


def run_sample(config: ExperimentConfig) -> RunResult:
    rng = RngStream(config.seed)
    ens = gibbs_ensemble(config.params, config.ensemble, rng, config.mode)
    geo = config.params.geometry
    obs = observable_matrix(
        geo, ens.coeffs, config.params, s_norms=config.observables.s_norms,
        mode_powers=config.observables.mode_powers, potential=ens.potential,
    )
    # rejection mode has unit weights; the summary passes None for the plain stderr
    w = ens.weights if ens.weights is not None else np.ones(ens.size)
    observables = {}
    for name, vals in obs.items():
        est, se, ess = weighted_mean_stderr(vals, ens.weights)
        observables[name] = {"estimate": est, "stderr": se, "ess": ess}
    payload = {
        "partition_function": {"estimate": ens.z_estimate, "stderr": ens.z_stderr},
        "observables": observables,
        "ensemble_size": ens.size,
        "max_weight_fraction": float(np.max(w) / np.sum(w)),
    }
    write_json(os.path.join(config.out, "summary.json"), payload)
    # fixed columns, whatever `observables` asks for: hs_norm is the H^(1/2) norm
    columns = [w, obs["mass"], obs["potential"], obs["hamiltonian"],
               sobolev_norm_array(geo, ens.coeffs, 0.5)]
    header = ["sample_id", "weight", "mass", "potential", "hamiltonian", "hs_norm"]
    rows = [[i, *row] for i, row in enumerate(zip(*columns))]
    write_csv(os.path.join(config.out, "ensemble.csv"), header, rows)
    return RunResult(0, payload)


def run_evolve(config: ExperimentConfig) -> RunResult:
    rng = RngStream(config.seed)
    u0 = sample_gaussian_coeffs(config.params, rng.generator())
    traj = evolve(u0, config.flow_config(), mode=config.mode)
    trajectory_to_csv(traj, os.path.join(config.out, "trajectory.csv"),
                      snapshot_dir=os.path.join(config.out, "snapshots"))
    drift = abs(traj.diagnostics["mass"][-1] - traj.diagnostics["mass"][0])
    payload = {"steps": len(traj.times) - 1, "mass_drift": drift}
    return RunResult(0, payload)


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
    write_json(os.path.join(config.out, "invariance.json"), asdict(report))
    header = ["observable", "mean0", "meanT", "diff", "stderr", "z"]
    rows = [
        [name, d["mean0"], d["meanT"], d["diff"], d["stderr"], d["z"]]
        for name, d in report.observables.items()
    ]
    write_csv(os.path.join(config.out, "invariance.csv"), header, rows)
    code = 0 if (report.passed and report.control_failed) else 2
    return RunResult(code, asdict(report))


def run_moments(config: ExperimentConfig) -> RunResult:
    rng = RngStream(config.seed)
    params = config.params
    sig = params.sigma_n()
    gen = rng.generator()
    coeffs = sample_gaussian_coeffs(params, gen, config.moments.samples)
    # field value at x = 0: (2pi)^(-d/2) sum a_n
    u0 = np.sum(coeffs, axis=params.geometry.axes) / TWO_PI ** (params.geometry.d / 2.0)
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
    header = ["pbeta_sigma", "oracle", "estimate", "stderr", "z"]
    write_csv(os.path.join(config.out, "moments.csv"), header, rows)
    payload = {"sigma": sig, "max_abs_z": worst, "pass": worst <= 3.0}
    write_json(os.path.join(config.out, "moments.json"), payload)
    return RunResult(0 if worst <= 3.0 else 2, payload)


def run_variational(config: ExperimentConfig) -> RunResult:
    spec = config.variational
    rng = RngStream(config.seed)
    rungs = []
    for n in spec.n_ladder or ():
        geo = TorusGeometry(
            d=config.params.d, n_max=2 * n, oversampling=config.params_block.oversampling
        )
        params_n = replace(config.params, n_cut=n, geometry=geo)
        l_clip = spec.l_clip
        if l_clip is None:
            l_clip = 100.0 * math.exp(0.45 * abs(params_n.beta) * spec.eta**2 * n)
        rungs.append(VariationalConfig(
            params=params_n, k_mass=spec.k_mass, l_clip=l_clip,
            eta=spec.eta, m=config.ensemble, dt_sde=spec.dt_sde,
        ))
        if spec.dt_sde is not None:  # refuse an unstable step before any artifact
            _euler_moments(params_n, spec.dt_sde)
    scan = divergence_scan(
        config.params, spec.gamma_sign, spec.k_mass, spec.l_ladder, config.ensemble, rng
    )
    rows = [
        [l, e, s]
        for l, e, s in zip(scan.l_values, scan.estimates, scan.stderrs)
    ]
    write_csv(os.path.join(config.out, "divergence.csv"), ["L", "estimate", "stderr"], rows)
    payload = {
        "diverging": bool(scan.trend_pvalue < 0.01 and not scan.saturated),
        "trend_pvalue": scan.trend_pvalue,
        "saturated": scan.saturated,
    }

    if rungs:
        obj_rows = []
        for n, vcfg in zip(spec.n_ladder, rungs):
            rep = objective_estimate(vcfg, rng.child(n))
            obj_rows.append([n, rep.estimate, rep.stderr, rep.indicator_freq, rep.mean_cost])
        write_csv(os.path.join(config.out, "objective.csv"),
                  ["N", "objective", "stderr", "indicator_freq", "mean_cost"], obj_rows)
        payload["objective_decreasing"] = bool(
            all(b[1] < a[1] for a, b in zip(obj_rows, obj_rows[1:]))
        )
    write_json(os.path.join(config.out, "divergence.json"), payload)
    return RunResult(0, payload)


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
    write_json(os.path.join(config.out, "gauge_check.json"), payload)
    return RunResult(0 if payload["pass"] else 2, payload)


def run_truncation(config: ExperimentConfig) -> RunResult:
    spec = config.truncation
    rng = RngStream(config.seed)
    gen = rng.generator()
    geo = config.params.geometry
    u0 = np.zeros(geo.box_shape, np.complex128)
    for n in range(-spec.u0_bandwidth, spec.u0_bandwidth + 1):
        u0[geo.n_max + n] = (
            gen.standard_normal() + 1j * gen.standard_normal()
        ) / (2.0 * (1 + abs(n)))
    cfg = config.flow_config()
    table = truncation_convergence(u0, cfg, spec.n_ladder, spec.n_ref, spec.s)
    rows = [[int(n), e] for n, e in zip(table.n_values, table.errors)]
    write_csv(os.path.join(config.out, "truncation.csv"), ["N", "error"], rows)
    payload = {
        "monotone": bool(np.all(np.diff(table.errors) < 0)),
        "fitted_order": table.fitted_order,
    }
    write_json(os.path.join(config.out, "truncation.json"), payload)
    return RunResult(0, payload)
