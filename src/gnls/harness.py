"""Experiment orchestration: configs, the Gibbs-invariance test, persistence.

The invariance test draws a weighted Gaussian ensemble, pushes every sample
through the truncated flow, and compares weighted means of each observable at
t = 0 and t = T through the PAIRED per-sample differences (the same draws
serve both ends, so the null is exactly mean-zero and sampling variance
cancels).  A mandatory negative control reweights with a mismatched coupling
(beta' = 2 beta) and must fail the same test, guarding against vacuous passes.
"""

from __future__ import annotations

import csv
import json
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dynamics import MODES, FlowConfig, evolve_ensemble
from .measures import (
    ModelParams,
    RngStream,
    gibbs_weight_array,
    kinetic_sum_array,
    mass_array,
    potential_array,
    sample_gaussian_coeffs,
    weighted_mean_stderr,
)
from .spectral import TorusGeometry, sobolev_norm_array

EXPERIMENT_KINDS = (
    "sample",
    "evolve",
    "invariance",
    "moments",
    "variational",
    "gauge-check",
    "truncation",
)

_CHUNK = 1024  # ensemble rows per worker task; fixed so results are
# independent of the thread count


def thread_count(requested: int | None = None) -> int:
    """GNLS_THREADS overrides the request; default 1."""
    env = os.environ.get("GNLS_THREADS")
    if env:
        return max(1, int(env))
    return max(1, requested or 1)


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


def observable_matrix(
    geometry: TorusGeometry,
    coeffs: np.ndarray,
    params: ModelParams,
    symbol: str = "bracket",
    s_norms=(0.5,),
    mode_powers=(0, 1, 2),
) -> dict:
    """Batched observable vector; coeffs shape (m, *box)."""
    mask = geometry.euclid_mask(params.n_cut)
    v = potential_array(geometry, coeffs * mask, params.beta)
    # the half-normalized energy observable; not conserved pathwise, so it
    # carries real invariance information (unlike the flow energy)
    kin = 0.5 * kinetic_sum_array(geometry, coeffs, params.alpha, symbol)
    out = {
        "mass": mass_array(geometry, coeffs),
        "hamiltonian": kin + params.gamma * v,
        "potential": v,
    }
    for s in s_norms:
        out[f"h{s}_norm"] = sobolev_norm_array(geometry, coeffs, s)
    center = geometry.n_max
    for n in mode_powers:
        if geometry.d == 1:
            out[f"mode_power_{n}"] = np.abs(coeffs[..., center + n]) ** 2
        else:
            out[f"mode_power_{n}"] = np.abs(coeffs[..., center + n, center]) ** 2
    return out


# ---------------------------------------------------------------------------
# invariance test
# ---------------------------------------------------------------------------


@dataclass
class InvarianceReport:
    observables: dict  # name -> dict(mean0, meanT, diff, stderr, z)
    max_abs_z: float
    threshold: float
    passed: bool
    control_observable: str
    control_z: float
    control_failed: bool  # the mismatched measure must fail the test
    ensemble_size: int
    ess: float

    def to_json(self) -> dict:
        return {
            "observables": self.observables,
            "max_abs_z": self.max_abs_z,
            "threshold": self.threshold,
            "passed": self.passed,
            "control_observable": self.control_observable,
            "control_z": self.control_z,
            "control_failed": self.control_failed,
            "ensemble_size": self.ensemble_size,
            "ess": self.ess,
        }


def _paired_stats(diffs: np.ndarray, weights: np.ndarray, scale: float = 1.0):
    est, se, ess = weighted_mean_stderr(diffs, weights)
    # observables conserved to machine precision have diffs of pure roundoff;
    # their z-statistic is 0/0 noise, so report an exact pass instead
    if np.max(np.abs(diffs)) <= 1e-12 * max(scale, 1e-300):
        return est, se, 0.0, ess
    z = est / se if se > 0 else 0.0
    return est, se, z, ess


def invariance_test(
    params: ModelParams,
    cfg: FlowConfig,
    t_horizon: float,
    m: int,
    rng: RngStream,
    threshold: float = 3.0,
    control_beta_factor: float = 2.0,
    control_observable: str = "potential",
    s_norms=(0.25,),
    mode_powers=(0, 1, 2),
    threads: int | None = None,
) -> InvarianceReport:
    """Weighted paired-difference test of Gibbs invariance under the
    truncated flow, plus the mismatched-weight negative control."""
    if params.gamma <= 0:
        raise ValueError("invariance test requires gamma > 0 (normalizable measure)")
    if cfg.dispersion_symbol != "bracket":
        warnings.warn(
            "invariance holds for the measure-consistent symbol <n>^alpha; "
            "the pure symbol will generically fail",
            stacklevel=2,
        )
    from dataclasses import replace

    geometry = params.geometry
    gen = rng.generator()
    coeffs0 = sample_gaussian_coeffs(params, gen, m)
    weights = gibbs_weight_array(params, coeffs0)
    run_cfg = replace(cfg, params=params, t_final=t_horizon)

    n_threads = thread_count(threads)
    chunks = [slice(i, min(i + _CHUNK, m)) for i in range(0, m, _CHUNK)]

    def work(sl):
        return evolve_ensemble(geometry, coeffs0[sl], run_cfg, mode="galerkin")

    if n_threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            parts = list(pool.map(work, chunks))
    else:
        parts = [work(sl) for sl in chunks]
    coeffs_t = np.concatenate(parts, axis=0)

    obs0 = observable_matrix(
        geometry, coeffs0, params, cfg.dispersion_symbol, s_norms, mode_powers
    )
    obs_t = observable_matrix(
        geometry, coeffs_t, params, cfg.dispersion_symbol, s_norms, mode_powers
    )
    report = {}
    max_z = 0.0
    ess = float(m)
    for name in obs0:
        diffs = obs_t[name] - obs0[name]
        scale = float(np.mean(np.abs(obs0[name])) + np.mean(np.abs(obs_t[name])))
        est, se, z, ess = _paired_stats(diffs, weights, scale)
        mean0, _, _ = weighted_mean_stderr(obs0[name], weights)
        report[name] = {
            "mean0": mean0,
            "meanT": mean0 + est,
            "diff": est,
            "stderr": se,
            "z": z,
        }
        max_z = max(max_z, abs(z))

    control_weights = gibbs_weight_array(
        params, coeffs0, beta=control_beta_factor * params.beta
    )
    cdiffs = obs_t[control_observable] - obs0[control_observable]
    cscale = float(np.mean(np.abs(obs0[control_observable])) * 2.0)
    _, _, cz, _ = _paired_stats(cdiffs, control_weights, cscale)

    return InvarianceReport(
        observables=report,
        max_abs_z=max_z,
        threshold=threshold,
        passed=max_z <= threshold,
        control_observable=control_observable,
        control_z=cz,
        control_failed=abs(cz) > threshold,
        ensemble_size=m,
        ess=ess,
    )


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------

_SCHEMA = {
    "experiment": str,
    "seed": int,
    "out": str,
    "threads": int,
    "params": dict,
    "flow": dict,
    "ensemble": int,
    "observables": dict,
    "t_horizon": float,
    "mode": str,
    "gauge": dict,
    "variational": dict,
    "truncation": dict,
    "moments": dict,
}

# the keys each nested block accepts
_BLOCK_KEYS = {
    "params": {"d", "alpha", "beta", "gamma", "n_cut", "n_max", "oversampling"},
    "flow": {"dt", "t_final", "nonlinear_substeps", "dispersion_symbol", "scheme", "store_every"},
    "observables": {"s_norms", "mode_powers"},
    "moments": {"pbeta_sigma", "samples"},
    "gauge": {"k", "modes", "trials", "tolerance"},
    "truncation": {"n_ladder", "n_ref", "s", "u0_bandwidth"},
    "variational": {"l_ladder", "k_mass", "gamma_sign", "n_ladder", "eta", "dt_sde", "l_clip"},
}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    experiment: str
    params: ModelParams
    seed: int = 0
    out: str = "."
    threads: int = 1
    flow: dict = field(default_factory=dict)
    ensemble: int = 1000
    t_horizon: float = 1.0
    mode: str = "importance"
    extra: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = set(raw) - set(_SCHEMA)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "experiment" not in raw:
            raise ConfigError("missing required key 'experiment'")
        kind = raw["experiment"]
        if kind not in EXPERIMENT_KINDS:
            raise ConfigError(
                f"unknown experiment {kind!r}; expected one of {EXPERIMENT_KINDS}"
            )
        if "params" not in raw:
            raise ConfigError("missing required key 'params'")
        for block, keys in _BLOCK_KEYS.items():
            entries = raw.get(block, {})
            if not isinstance(entries, dict):
                raise ConfigError(f"{block!r} must be a JSON object")
            unknown = set(entries) - keys
            if unknown:
                raise ConfigError(f"unknown {block} keys: {sorted(unknown)}")
        # an absent mode means the sampler's default, or galerkin for a flow
        mode = str(raw.get("mode", "galerkin" if kind == "evolve" else "importance"))
        if kind == "evolve" and mode not in MODES:
            raise ConfigError(f"unknown evolve mode {mode!r}; expected one of {MODES}")
        p = dict(raw["params"])
        flow = dict(raw.get("flow", {}))
        try:
            n_cut = int(p["n_cut"])
            geometry = TorusGeometry(
                d=int(p.get("d", 1)),
                n_max=int(p.get("n_max", n_cut)),
                oversampling=float(p.get("oversampling", 4.0)),
            )
            params = ModelParams(
                d=int(p.get("d", 1)),
                alpha=float(p["alpha"]),
                beta=float(p["beta"]),
                gamma=float(p["gamma"]),
                n_cut=n_cut,
                geometry=geometry,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid params block: {exc}") from exc
        extra = {
            k: raw[k]
            for k in ("gauge", "variational", "truncation", "moments", "observables")
            if k in raw
        }
        return cls(
            experiment=kind,
            params=params,
            seed=int(raw.get("seed", 0)),
            out=str(raw.get("out", ".")),
            threads=int(raw.get("threads", 1)),
            flow=flow,
            ensemble=int(raw.get("ensemble", 1000)),
            t_horizon=float(raw.get("t_horizon", 1.0)),
            mode=mode,
            extra=extra,
        )

    def flow_config(self) -> FlowConfig:
        return FlowConfig(
            params=self.params,
            dt=float(self.flow.get("dt", 1e-3)),
            t_final=float(self.flow.get("t_final", self.t_horizon)),
            nonlinear_substeps=int(self.flow.get("nonlinear_substeps", 1)),
            dispersion_symbol=str(self.flow.get("dispersion_symbol", "bracket")),
            scheme=str(self.flow.get("scheme", "strang")),
            store_every=int(self.flow.get("store_every", 1)),
        )

    def observable_spec(self) -> dict:
        """Observable selection: {"s_norms": [...], "mode_powers": [...]}."""
        spec = self.extra.get("observables", {})
        return {
            "s_norms": tuple(spec.get("s_norms", (0.5,))),
            "mode_powers": tuple(spec.get("mode_powers", (0, 1, 2))),
        }


# ---------------------------------------------------------------------------
# persistence helpers
# ---------------------------------------------------------------------------


def write_csv(path, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [f"{x:.17g}" if isinstance(x, float) else x for x in row]
            )


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def summary_json(report_obs: dict) -> dict:
    return {
        name: {"estimate": est, "stderr": se, "ess": ess}
        for name, (est, se, ess) in report_obs.items()
    }


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    exit_code: int
    artifacts: list
    payload: dict


def run(config: ExperimentConfig, dry_run: bool = False) -> RunResult:
    """Execute one experiment; deterministic given (config, seed).

    Exit code 0 on pass, 2 on statistical-test failure, 1 on error (raised
    as exceptions here; the CLI maps them)."""
    from . import experiments

    if dry_run:
        return RunResult(0, [], {"resolved": _resolved_dict(config)})
    os.makedirs(config.out, exist_ok=True)
    kind = config.experiment.replace("-", "_")
    fn = getattr(experiments, f"run_{kind}")
    return fn(config)


def _resolved_dict(config: ExperimentConfig) -> dict:
    p = config.params
    return {
        "experiment": config.experiment,
        "seed": config.seed,
        "out": config.out,
        "threads": thread_count(config.threads),
        "params": {
            "d": p.d,
            "alpha": p.alpha,
            "beta": p.beta,
            "gamma": p.gamma,
            "n_cut": p.n_cut,
            "n_max": p.geometry.n_max,
            "m_grid": p.geometry.m_grid,
        },
        "flow": config.flow,
        "ensemble": config.ensemble,
        "t_horizon": config.t_horizon,
        "mode": config.mode,
        **config.extra,
    }
