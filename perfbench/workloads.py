"""The pinned workloads: config, experiment call and correctness gate.

Each workload is one experiment a gnls user waits for, at a pinned size.
Sizes never change between commits; only the seed varies.

* invariance - `gnls invariance` at the README / acceptance-criterion-5
  config.  A batched ensemble flow whose 1024-row grid transforms dominate
  the profile, run on the thread pool.  It bypasses per-step diagnostics,
  snapshot writing and the OU layer.  Exercises the dense-transform and
  parallel paths.
* evolve - `gnls evolve`, one galerkin field at n_cut 16 (m_grid 132) for
  20000 steps.  Single-row transforms, where per-call overhead rather than
  throughput matters, plus per-step diagnostics and 201 snapshots and a
  20001-row CSV (2.6 MB).  Exercises the diagnostics and writers.
* ou-oracle - `simulate_ou_gap(scheme="exact")` against `ou_gap_oracle` at
  the acceptance-criterion-7 cell (alpha 2.5, N 16, n_max 32, m 1e4).
  Criterion 7 is two thirds of the Tier-1 suite and this cell is its
  representative; it is the target of an exact OU endpoint draw.
* variational - `gnls variational` with the N-ladder 4, 8, 16.  It uses the
  same OU layer with Euler paths and cost tracking, which an endpoint draw
  cannot serve, so an OU endpoint shortcut should leave it unchanged.

Not workloads:

* gauge - the multilinear enumeration behind `gnls gauge-check` takes
  milliseconds at the CLI defaults and no planned optimisation targets it;
  the traced run still counts its calls (`gauge.calls`, expected 0).
* the Tier-1 suite - at 283 s a run it is far too long to repeat for every
  seed; ou-oracle stands in for its criterion-7 share.

gnls is imported only inside functions: run.py imports this
module for names alone, and each child times its own `import gnls`.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil

INVARIANCE_ENSEMBLE = 20000

CONFIGS = {
    "invariance": {
        "experiment": "invariance",
        "ensemble": INVARIANCE_ENSEMBLE,
        "t_horizon": 1.0,
        "threads": 2,
        "params": {"d": 1, "alpha": 2.5, "beta": 0.2667, "gamma": 1.0, "n_cut": 8},
        "flow": {"dt": 0.002},
    },
    "evolve": {
        "experiment": "evolve",
        "mode": "galerkin",
        "params": {"d": 1, "alpha": 2.5, "beta": 0.2667, "gamma": 1.0, "n_cut": 16},
        "flow": {"dt": 0.001, "t_final": 20.0, "store_every": 100},
    },
    "ou-oracle": {
        "params": {
            "d": 1, "alpha": 2.5, "beta": 0.5, "gamma": -1.0, "n_cut": 16,
            "n_max": 32, "oversampling": 1.0,
        },
        "samples": 10**4,
    },
    "variational": {
        "experiment": "variational",
        "ensemble": 4000,
        "params": {"d": 1, "alpha": 2.0, "beta": 0.5, "gamma": -1.0, "n_cut": 16},
        "variational": {"k_mass": 3.0, "n_ladder": [4, 8, 16]},
    },
}

# GNLS_THREADS for each child; set explicitly because it overrides --threads
THREADS = {"invariance": 2, "evolve": 1, "ou-oracle": 1, "variational": 1}

NAMES = tuple(CONFIGS)

# count metrics of the traced run that must be non-zero on each workload;
# every other count metric in COUNT_METRICS must be exactly zero there
COUNT_METRICS = (
    "spectral.transform.calls",
    "spectral.snapshot.calls",
    "measures.sample.rows",
    "measures.potential.rows",
    "dynamics.rhs.calls",
    "dynamics.step.sample_steps",
    "dynamics.diagnostics.calls",
    "dynamics.ensemble.chunks",
    "dynamics.trajectory_csv.bytes",
    "variational.ou.mode_steps",
    "variational.divergence_scan.calls",
    "harness.observables.calls",
    "harness.write.calls",
    "gauge.calls",
)
EXERCISED = {
    "invariance": {
        "spectral.transform.calls",
        "measures.sample.rows",
        "measures.potential.rows",
        "dynamics.rhs.calls",
        "dynamics.step.sample_steps",
        "dynamics.ensemble.chunks",
        "harness.observables.calls",
        "harness.write.calls",
    },
    "evolve": {
        "spectral.transform.calls",
        "spectral.snapshot.calls",
        "measures.sample.rows",
        "measures.potential.rows",
        "dynamics.rhs.calls",
        "dynamics.step.sample_steps",
        "dynamics.diagnostics.calls",
        "dynamics.trajectory_csv.bytes",
    },
    "ou-oracle": {"variational.ou.mode_steps", "harness.write.calls"},
    "variational": {
        "spectral.transform.calls",
        "measures.sample.rows",
        "measures.potential.rows",
        "variational.ou.mode_steps",
        "variational.divergence_scan.calls",
        "harness.write.calls",
    },
}


def resolve(name: str, seed: int, out: str):
    """Parse and resolve the workload's config: the last step of set-up."""
    raw = dict(CONFIGS[name], seed=seed, out=out)
    if name == "ou-oracle":
        from gnls import ModelParams, TorusGeometry

        p = raw["params"]
        geometry = TorusGeometry(d=p["d"], n_max=p["n_max"], oversampling=p["oversampling"])
        params = ModelParams(
            d=p["d"], alpha=p["alpha"], beta=p["beta"], gamma=p["gamma"],
            n_cut=p["n_cut"], geometry=geometry,
        )
        return {"params": params, "samples": raw["samples"], "seed": seed, "out": out}
    from gnls import ExperimentConfig

    return ExperimentConfig.from_dict(raw)


def run(name: str, resolved):
    """The experiment call; returns once its artifacts are on disk."""
    if name == "ou-oracle":
        return _run_ou_oracle(resolved)
    from gnls import run as run_experiment

    return run_experiment(resolved)


def _run_ou_oracle(r) -> dict:
    from gnls import RngStream, ou_gap_oracle, simulate_ou_gap
    from gnls.harness import write_json

    params, m = r["params"], r["samples"]
    vals = simulate_ou_gap(params, m, RngStream(r["seed"], params.n_cut), scheme="exact")
    oracle = ou_gap_oracle(params)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(m))
    payload = {
        "samples": m,
        "mean": mean,
        "stderr": stderr,
        "oracle": oracle,
        "z": (mean - oracle) / stderr,
    }
    os.makedirs(r["out"], exist_ok=True)
    write_json(os.path.join(r["out"], "ou_gap.json"), payload)
    return payload


# ---------------------------------------------------------------------------
# correctness gates: each returns a list of failures, empty when correct
# ---------------------------------------------------------------------------


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _csv_all_finite(path) -> bool:
    _, rows = _read_csv(path)
    return bool(rows) and all(math.isfinite(float(v)) for row in rows for v in row)


# The program's own verdict (exit 0 = every |z| <= 3 and control |z| > 3) is
# not a usable per-run gate at this config: over seeds 0-11 it exits 2 on
# seeds 7 and 8 (control z 2.42, 2.99) and 10 (max |z| 3.108), and doubling
# the ensemble to 40960 still left seed 2 at control z 2.17.  A benchmark
# run ~100 times per change needs a gate a correct program passes, so the
# gate checks the computation at thresholds with negligible false alarms: a
# broken flow gives |z| in the tens, and a control that no longer sees the
# mismatched measure gives a control z centred on 0 (observed 2.4 to 4.8).
INVARIANCE_Z_MAX = 5.0


def _check_invariance(resolved, result) -> list:
    failures = []
    with open(os.path.join(resolved.out, "invariance.json")) as fh:
        report = json.load(fh)
    observables = report["observables"]
    stats = [report["max_abs_z"], report["control_z"], report["ess"]]
    stats += [v for obs in observables.values() for v in obs.values()]
    if not all(_finite(v) for v in stats):
        return ["non-finite statistic in invariance.json"]
    verdict = 0 if report["passed"] and report["control_failed"] else 2
    if result.exit_code != verdict:
        failures.append(f"exit code {result.exit_code} disagrees with the report ({verdict})")
    worst = max(abs(obs["z"]) for obs in observables.values())
    if worst > INVARIANCE_Z_MAX:
        failures.append(f"invariance max |z| {worst:.3f} > {INVARIANCE_Z_MAX}")
    if not report["control_z"] > 0:
        failures.append(f"negative control z {report['control_z']:.3f} <= 0")
    mass = observables["mass"]
    if abs(mass["diff"]) > 1e-12 * abs(mass["mean0"]):
        failures.append(f"mass not conserved by the flow: diff {mass['diff']:.3e}")
    if report["ensemble_size"] != INVARIANCE_ENSEMBLE:
        failures.append(f"ensemble_size {report['ensemble_size']} != {INVARIANCE_ENSEMBLE}")
    return failures


MASS_DRIFT_MAX = 1e-10
ENERGY_DRIFT_MAX = 1e-4


def _check_evolve(resolved, result) -> list:
    from gnls import load_snapshot, save_snapshot

    failures = []
    header, rows = _read_csv(os.path.join(resolved.out, "trajectory.csv"))
    cols = {name: [float(r[i]) for r in rows] for i, name in enumerate(header)}
    flow = resolved.flow_config()
    if len(rows) != round(flow.t_final / flow.dt) + 1:
        failures.append(f"trajectory.csv has {len(rows)} rows")
    for name, limit in (("mass", MASS_DRIFT_MAX), ("hamiltonian", ENERGY_DRIFT_MAX)):
        ref = cols[name][0]
        drift = max(abs(v - ref) for v in cols[name]) / abs(ref)
        if not drift <= limit:
            failures.append(f"relative {name} drift {drift:.3e} > {limit:g}")
    snap_dir = os.path.join(resolved.out, "snapshots")
    names = sorted(os.listdir(snap_dir))
    expected = round(flow.t_final / flow.dt) // flow.store_every + 1
    if len(names) != expected:
        failures.append(f"{len(names)} snapshots, expected {expected}")
    # re-save into new files: rewriting one file would force writeback
    scratch = os.path.join(resolved.out, "roundtrip")
    os.makedirs(scratch)
    for fname in names:
        path = os.path.join(snap_dir, fname)
        copy = os.path.join(scratch, fname)
        save_snapshot(load_snapshot(path), copy)
        with open(path, "rb") as a, open(copy, "rb") as b:
            if a.read() != b.read():
                failures.append(f"snapshot {fname} does not round-trip")
    shutil.rmtree(scratch)
    return failures


OU_Z_MAX = 3.0


def _check_ou_oracle(resolved, result) -> list:
    with open(os.path.join(resolved["out"], "ou_gap.json")) as fh:
        z = json.load(fh)["z"]
    if not (_finite(z) and abs(z) <= OU_Z_MAX):
        return [f"OU gap z = {z} against the Ito-isometry oracle (|z| <= {OU_Z_MAX} required)"]
    return []


def _check_variational(resolved, result) -> list:
    failures = []
    if result.exit_code != 0:
        failures.append(f"exit code {result.exit_code}")
    for fname in ("divergence.csv", "objective.csv"):
        if not _csv_all_finite(os.path.join(resolved.out, fname)):
            failures.append(f"{fname} has a non-finite or missing value")
    with open(os.path.join(resolved.out, "divergence.json")) as fh:
        pvalue = json.load(fh)["trend_pvalue"]
    if not pvalue < 0.01:
        failures.append(f"trend_pvalue {pvalue} >= 0.01")
    return failures


CHECKS = {
    "invariance": _check_invariance,
    "evolve": _check_evolve,
    "ou-oracle": _check_ou_oracle,
    "variational": _check_variational,
}


def check(name: str, resolved, result) -> list:
    return CHECKS[name](resolved, result)
