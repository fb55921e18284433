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
import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .dynamics import MODES, FlowConfig, evolve_ensemble
from .measures import (
    ModelParams,
    RngStream,
    _projected,
    gibbs_weight_array,
    kinetic_sum_array,
    mass_array,
    potential_array,
    sample_gaussian_coeffs,
    weighted_mean_stderr,
)
from .spectral import DEFAULT_OVERSAMPLING, TorusGeometry, sobolev_norm_array

# the experiments, each with the `mode` values it accepts, its default first;
# an experiment without modes rejects the key
EXPERIMENT_MODES = {
    "sample": ("importance", "rejection"),
    "evolve": MODES,
    **dict.fromkeys(("invariance", "moments", "variational", "gauge-check", "truncation"), ()),
}

_CHUNK = 1024  # ensemble rows per worker task; fixed so results are
# independent of the thread count


def thread_count(requested: int | None = None) -> int:
    """GNLS_THREADS overrides the request; default 1."""
    env = os.environ.get("GNLS_THREADS")
    if env:
        return max(1, int(env))
    return max(1, requested or 1)


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------
#
# One frozen dataclass per config block.  A field's key is its name (or
# `metadata["key"]`), its annotation is the JSON type the key takes, its
# default is the only copy of that key's default; `metadata` may hold a lower
# bound "min", a least list length "min_len" and an open interval "open" for
# a set value or every entry of a list.  `_parse` walks the fields, so a
# block's keys are its fields.


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ParamsBlock:
    alpha: float
    beta: float
    gamma: float
    n_cut: int
    d: int = 1
    n_max: int | None = None  # None: n_cut
    oversampling: float = DEFAULT_OVERSAMPLING
    model: ModelParams = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_max is None:
            object.__setattr__(self, "n_max", self.n_cut)
        geometry = TorusGeometry(self.d, self.n_max, oversampling=self.oversampling)
        model = ModelParams(self.d, self.alpha, self.beta, self.gamma, self.n_cut, geometry)
        object.__setattr__(self, "model", model)


@dataclass(frozen=True)
class FlowBlock:
    dt: float = 1e-3
    t_final: float | None = None  # None: t_horizon
    nonlinear_substeps: int = FlowConfig.nonlinear_substeps
    dispersion_symbol: str = FlowConfig.dispersion_symbol
    scheme: str = FlowConfig.scheme
    store_every: int = field(default=FlowConfig.store_every, metadata={"min": 1})


@dataclass(frozen=True)
class ObservablesBlock:
    s_norms: tuple[float, ...] = (0.5,)
    mode_powers: tuple[int, ...] = (0, 1, 2)


@dataclass(frozen=True)
class MomentsBlock:
    # no target, one sample (no standard error, so z = 0) or a target of 0
    # (exp 0 = 1) would pass vacuously; from 1 on the moment is infinite
    pbeta_sigma: tuple[float, ...] = field(
        default=(0.2, 0.5, 0.8), metadata={"min_len": 1, "open": (0, 1)}
    )
    samples: int = field(default=10**5, metadata={"min": 2})


@dataclass(frozen=True)
class GaugeBlock:
    k: int = 2
    modes: int = 4
    trials: int = field(default=20, metadata={"min": 1})  # zero trials pass vacuously
    tolerance: float = 1e-10


@dataclass(frozen=True)
class TruncationBlock:
    # the convergence order is fitted over two rungs or more
    n_ladder: tuple[int, ...] = field(default=(8, 16, 32), metadata={"min_len": 2})
    n_ref: int = 64
    s: float = 0.5
    u0_bandwidth: int = 3


_POSITIVE = {"open": (0, math.inf)}


@dataclass(frozen=True)
class VariationalBlock:
    # the divergence trend is fitted over two clips or more; a clip or mass
    # bound of 0 or less leaves no sample to test, and the bump amplitude
    # eta must be positive too (VariationalConfig's rule, checked here
    # before any output)
    l_ladder: tuple[float, ...] = field(
        default=(1e1, 1e2, 1e3, 1e4), metadata={"min_len": 2, **_POSITIVE}
    )
    k_mass: float = field(default=1.0, metadata=_POSITIVE)
    gamma_sign: float | None = None  # None: the sign of params.gamma, -1 at 0
    n_ladder: tuple[int, ...] | None = field(default=None, metadata={"min_len": 1})  # None: no scan
    eta: float = field(default=4.0, metadata=_POSITIVE)
    dt_sde: float | None = None  # None: the OU stability rule
    # None: 100 exp(0.45 |beta| eta^2 N) per rung
    l_clip: float | None = field(default=None, metadata=_POSITIVE)


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed experiment config with every default applied; the fields are
    the top-level keys, and `params` is the model the params block builds."""

    experiment: str
    params_block: ParamsBlock = field(metadata={"key": "params"})
    seed: int = 0
    out: str = "."
    threads: int = 1  # GNLS_THREADS overrides it
    ensemble: int = field(default=1000, metadata={"min": 2})
    t_horizon: float = 1.0
    mode: str | None = None
    flow: FlowBlock = FlowBlock()
    observables: ObservablesBlock = ObservablesBlock()
    moments: MomentsBlock = MomentsBlock()
    gauge: GaugeBlock = GaugeBlock()
    truncation: TruncationBlock = TruncationBlock()
    variational: VariationalBlock = VariationalBlock()

    def __post_init__(self) -> None:
        modes = EXPERIMENT_MODES.get(self.experiment)
        if modes is None:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; expected one of {tuple(EXPERIMENT_MODES)}"
            )
        if self.mode not in (None, *modes):
            raise ValueError(
                f"{self.experiment} does not take mode {self.mode!r}; its modes: {list(modes)}"
            )
        object.__setattr__(self, "threads", thread_count(self.threads))
        if modes and self.mode is None:
            object.__setattr__(self, "mode", modes[0])
        if self.flow.t_final is None:
            object.__setattr__(self, "flow", replace(self.flow, t_final=self.t_horizon))
        if self.variational.n_ladder and self.params.d != 1:  # the bump and OU drift are d = 1
            raise ValueError(f"variational.n_ladder needs d = 1, got d = {self.params.d}")
        if self.variational.gamma_sign is None:
            sign = math.copysign(1.0, self.params.gamma or -1.0)
            object.__setattr__(self, "variational", replace(self.variational, gamma_sign=sign))
        self.flow_config()  # FlowConfig checks dt, scheme, symbol and substeps

    @classmethod
    def from_dict(cls, raw) -> "ExperimentConfig":
        return _parse(cls, raw, "")

    @property
    def params(self) -> ModelParams:
        return self.params_block.model

    def flow_config(self) -> FlowConfig:
        return FlowConfig(params=self.params, **asdict(self.flow))


# the JSON type each field annotation takes, and its name in error messages
_JSON_TYPES = {int: (int, "an integer"), float: ((int, float), "a finite number"),
               str: (str, "a string")}


def _parse(cls, raw, where: str):
    """Build the schema dataclass `cls` from the JSON value `raw` found at
    `where`; every failure is a one-line ConfigError naming the key."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where or 'config'} must be a JSON object, got {json.dumps(raw)}")
    prefix = f"{where}." if where else ""
    keyed = {f.metadata.get("key", f.name): f for f in fields(cls) if f.init}
    unknown = [json.dumps(prefix + k) for k in sorted(set(raw) - set(keyed))]
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    hints = get_type_hints(cls)
    values = {}
    for key, f in keyed.items():
        if key in raw:
            value = values[f.name] = _value(hints[f.name], raw[key], prefix + key)
            low = f.metadata.get("min")
            if low is not None and value < low:
                raise ConfigError(f"{prefix}{key} must be at least {low}, got {raw[key]}")
            least = f.metadata.get("min_len")
            if least is not None and value is not None and len(value) < least:
                raise ConfigError(f"{prefix}{key} needs at least {least} entries, got {raw[key]}")
            bounds = f.metadata.get("open")
            entries = value if isinstance(value, tuple) else (value,)
            if bounds is not None and value is not None and not all(
                bounds[0] < v < bounds[1] for v in entries
            ):
                raise ConfigError(f"{prefix}{key} must lie in {bounds}, got {raw[key]}")
        elif f.default is MISSING:
            raise ConfigError(f"missing required key {prefix}{key}")
    try:
        return cls(**values)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"invalid {where}: {exc}" if where else str(exc)) from exc


def _value(tp, value, key: str):
    if get_origin(tp) is UnionType:  # `X | None`
        if value is None:
            return None
        (tp,) = (a for a in get_args(tp) if a is not type(None))
    if is_dataclass(tp):
        return _parse(tp, value, key)
    if get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a JSON array, got {json.dumps(value)}")
        return tuple(_value(get_args(tp)[0], v, f"{key}[{i}]") for i, v in enumerate(value))
    accepted, name = _JSON_TYPES[tp]
    if (
        isinstance(value, bool)
        or not isinstance(value, accepted)
        or (tp is float and not abs(value) <= sys.float_info.max)  # NaN, inf, huge ints
    ):
        raise ConfigError(f"{key} must be {name}, got {json.dumps(value)}")
    return float(value) if tp is float else value


def _as_json(obj):
    """A parsed config as JSON, every default applied: the dry-run output."""
    if not is_dataclass(obj):
        return obj
    return {
        f.metadata.get("key", f.name): _as_json(getattr(obj, f.name))
        for f in fields(obj)
        if f.init
    }


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


def observable_matrix(
    geometry: TorusGeometry, coeffs: np.ndarray, params: ModelParams,
    symbol: str = FlowConfig.dispersion_symbol, s_norms=ObservablesBlock.s_norms,
    mode_powers=ObservablesBlock.mode_powers, potential: np.ndarray | None = None,
) -> dict:
    """Batched observable vector; coeffs shape (m, *box).  A caller that has
    V_beta(Pi_N u) of each row already passes it as `potential`."""
    if potential is None:
        potential = potential_array(
            geometry, _projected(geometry, coeffs, params.n_cut), params.beta
        )
    # the half-normalized energy observable; not conserved pathwise, so it
    # carries real invariance information (unlike the flow energy)
    kin = 0.5 * kinetic_sum_array(geometry, coeffs, params.alpha, symbol)
    out = {
        "mass": mass_array(geometry, coeffs),
        "hamiltonian": kin + params.gamma * potential,
        "potential": potential,
    }
    for s in s_norms:
        out[f"h{s}_norm"] = sobolev_norm_array(geometry, coeffs, s)
    center = geometry.n_max
    for n in mode_powers:  # the power of mode (n, 0, ..., 0)
        index = (..., center + n, *(center,) * (geometry.d - 1))
        out[f"mode_power_{n}"] = np.abs(coeffs[index]) ** 2
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


def _paired_stats(diffs: np.ndarray, weights: np.ndarray, scale: float = 1.0):
    est, se, ess = weighted_mean_stderr(diffs, weights)
    # underflowing weights or an overflowing flow leave no statistic to test
    if not (math.isfinite(est) and math.isfinite(se)):
        return est, se, math.nan, ess
    # observables conserved to machine precision have diffs of pure roundoff;
    # their z-statistic is 0/0 noise, so report an exact pass instead
    if np.max(np.abs(diffs)) <= 1e-12 * max(scale, 1e-300):
        return est, se, 0.0, ess
    # a zero stderr on real differences (one row, or one surviving weight)
    # measures no spread, so there is no z to test either
    z = est / se if se > 0 else math.nan
    return est, se, z, ess


def invariance_test(
    params: ModelParams, cfg: FlowConfig, t_horizon: float, m: int, rng: RngStream,
    threshold: float = 3.0, control_beta_factor: float = 2.0, control_observable: str = "potential",
    s_norms=(0.25,), mode_powers=ObservablesBlock.mode_powers, threads: int | None = None,
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
    geometry = params.geometry
    gen = rng.generator()
    coeffs0 = sample_gaussian_coeffs(params, gen, m)
    obs0 = observable_matrix(
        geometry, coeffs0, params, cfg.dispersion_symbol, s_norms, mode_powers
    )
    weights = np.exp(-params.gamma * obs0["potential"])  # the Gibbs weights
    run_cfg = replace(cfg, params=params, t_final=t_horizon)

    n_threads = thread_count(threads)
    chunks = [slice(i, min(i + _CHUNK, m)) for i in range(0, m, _CHUNK)]

    coeffs_t = np.empty_like(coeffs0)

    def work(sl):  # the chunks do not overlap
        coeffs_t[sl] = evolve_ensemble(geometry, coeffs0[sl], run_cfg, mode="galerkin")

    if n_threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(work, chunks))
    else:
        for sl in chunks:
            work(sl)
    obs_t = observable_matrix(
        geometry, coeffs_t, params, cfg.dispersion_symbol, s_norms, mode_powers
    )
    report = {}
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
    max_z = float(np.max([abs(d["z"]) for d in report.values()]))  # NaN if any z is

    control_weights = gibbs_weight_array(
        params, coeffs0, beta=control_beta_factor * params.beta
    )
    cdiffs = obs_t[control_observable] - obs0[control_observable]
    cscale = float(np.mean(np.abs(obs0[control_observable])) * 2.0)
    _, _, cz, _ = _paired_stats(cdiffs, control_weights, cscale)
    stats = [ess, cz, *(v for d in report.values() for v in d.values())]

    return InvarianceReport(
        observables=report,
        max_abs_z=max_z,
        threshold=threshold,
        passed=all(map(math.isfinite, stats)) and max_z <= threshold,
        control_observable=control_observable,
        control_z=cz,
        control_failed=abs(cz) > threshold,
        ensemble_size=m,
        ess=ess,
    )


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
    text = _json_text(payload)  # raises before the file is opened
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _json_text(payload: dict) -> str:
    """`payload` as strict JSON, which has no NaN or infinity: a non-finite
    value raises a one-line ValueError naming its field path."""
    for path, value in _leaves(payload, ""):
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{path} is {value}, which JSON cannot hold")
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def _leaves(obj, path: str):
    """(path, value) of every non-object value nested in `obj`, in key order."""
    if not isinstance(obj, dict):
        yield path, obj
        return
    for key, value in sorted(obj.items()):
        yield from _leaves(value, f"{path}.{key}" if path else key)


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    exit_code: int
    payload: dict


def run(config: ExperimentConfig, dry_run: bool = False) -> RunResult:
    """Execute one experiment; deterministic given (config, seed).

    Exit code 0 on pass, 2 on statistical-test failure, 1 on error (raised
    as exceptions here; the CLI maps them)."""
    from . import experiments

    if dry_run:
        return RunResult(0, {"resolved": _as_json(config)})
    os.makedirs(config.out, exist_ok=True)
    kind = config.experiment.replace("-", "_")
    fn = getattr(experiments, f"run_{kind}")
    return fn(config)
