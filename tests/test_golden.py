"""Golden-artifact guard: every CLI subcommand at a tiny pinned config must
write byte-identical artifacts and exit with the pinned code, at one and at
two worker threads.  `gnls sample` has two more cases: rejection mode, and
non-default observables (which must leave the fixed `ensemble.csv` columns
alone).  Three d = 2 cases (sample, collocation evolve on a 36-point grid,
invariance) guard the two-dimensional transforms and mode indexing.

The SHA-256 of each artifact and the exit code live in
`tests/golden/hashes.json`, beside the environment that generated them, and
the artifacts themselves under `tests/golden/artifacts/<case>/`.
`python tests/golden/make_hashes.py [case ...]` rewrites the named entries of
both (all of them when none is named).  Byte identity is the pass rule.  A
failing case names each moved artifact, with the largest change of a number
in it relative to its column's scale, in the format that script prints, and
shows both environments: the bits of the d = 1 plane flows depend on the kernel OpenBLAS
picks at run time and every case on numpy's SIMD dispatch, so another CPU can move an
artifact at rounding level with no defect.  A change that moves an artifact
on purpose regenerates it and names the moved artifacts, their changes and
the reason in CHANGES.md.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import platform

import numpy as np
import pytest
import scipy

from gnls.cli import main
from gnls.spectral import load_snapshot

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
HASHES = os.path.join(GOLDEN, "hashes.json")
ARTIFACTS = os.path.join(GOLDEN, "artifacts")

_LOW = {"d": 1, "alpha": 2.0, "beta": 0.3, "gamma": 1.0, "n_cut": 4}
_SAMPLE = {"experiment": "sample", "seed": 7, "ensemble": 40, "params": _LOW}
_D2 = {"d": 2, "alpha": 2.5, "beta": 0.2, "gamma": 1.0, "n_cut": 3}

# the cases by name, each config naming its subcommand; the invariance
# ensemble exceeds the 1024-row chunk so that two threads really split it, and
# its tiny horizon leaves the negative control undetected, hence the pinned
# exit code 2
CONFIGS = {
    "sample": _SAMPLE,
    "sample-rejection": {**_SAMPLE, "mode": "rejection"},
    "sample-observables": {
        **_SAMPLE,
        "observables": {"s_norms": [0.25, 1.0], "mode_powers": [1]},
    },
    "evolve": {
        "experiment": "evolve",
        "seed": 1,
        "params": _LOW,
        "flow": {"dt": 0.01, "t_final": 0.05, "store_every": 2},
    },
    # 20 Galerkin steps at dt 0.05: unlike "evolve", a rounding-level change
    # of the right-hand side (one ulp) moves its snapshots
    "evolve-galerkin": {
        "experiment": "evolve",
        "seed": 1,
        "params": _LOW,
        "flow": {"dt": 0.05, "t_final": 1.0, "store_every": 5},
    },
    "invariance": {
        "experiment": "invariance",
        "seed": 0,
        "ensemble": 1100,
        "t_horizon": 0.05,
        "params": {"d": 1, "alpha": 2.5, "beta": 0.2, "gamma": 1.0, "n_cut": 4},
        "flow": {"dt": 0.01},
    },
    "moments": {
        "experiment": "moments",
        "seed": 4,
        "params": {"d": 1, "alpha": 2.0, "beta": 1.0, "gamma": 1.0, "n_cut": 1},
        "moments": {"samples": 2000},
    },
    "variational": {
        "experiment": "variational",
        "seed": 9,
        "ensemble": 200,
        "params": {"d": 1, "alpha": 2.0, "beta": 0.5, "gamma": -1.0, "n_cut": 4},
        "variational": {
            "k_mass": 3.0,
            "l_ladder": [10.0, 100.0],
            "n_ladder": [2, 4],
            "dt_sde": 0.01,
        },
    },
    "gauge-check": {
        "experiment": "gauge-check",
        "seed": 11,
        "params": _LOW,
        "gauge": {"k": 2, "modes": 4, "trials": 3},
    },
    "truncation": {
        "experiment": "truncation",
        "seed": 5,
        "params": {"d": 1, "alpha": 2.0, "beta": 0.3, "gamma": 1.0, "n_cut": 16},
        "flow": {"dt": 0.01, "t_final": 0.05},
        "truncation": {"n_ladder": [4, 8], "n_ref": 16},
    },
    "sample-d2": {
        **_SAMPLE,
        "params": _D2,
        "observables": {"s_norms": [0.5], "mode_powers": [0, 1, 2]},
    },
    # n_max 4 puts the default grid at 36 points per axis
    "evolve-d2": {
        "experiment": "evolve",
        "seed": 1,
        "mode": "collocation",
        "params": {**_D2, "n_max": 4},
        "flow": {"dt": 0.01, "t_final": 0.05, "store_every": 2},
    },
    "invariance-d2": {
        "experiment": "invariance",
        "seed": 0,
        "ensemble": 1100,
        "t_horizon": 0.05,
        "params": _D2,
        "flow": {"dt": 0.01},
    },
}


def run_subcommand(name: str, workdir: str) -> dict:
    """Run case `name` in `workdir`; return its exit code and the SHA-256 of
    every file it wrote, keyed by path relative to the output directory."""
    out = os.path.join(workdir, "out")
    cfg = os.path.join(workdir, "config.json")
    with open(cfg, "w") as fh:
        json.dump(dict(CONFIGS[name], out=out), fh)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([CONFIGS[name]["experiment"], "--config", cfg])
    artifacts = {}
    for root, _, files in os.walk(out):
        for fname in files:
            path = os.path.join(root, fname)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            artifacts[os.path.relpath(path, out).replace(os.sep, "/")] = digest
    return {"exit_code": code, "artifacts": dict(sorted(artifacts.items()))}


def environment() -> dict:
    """What the artifacts' bits depend on besides the code: the versions, the
    BLAS and the SIMD targets numpy dispatches to on this CPU."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "blas": f"{blas['name']} {blas['version']}",
        "simd": [t for t in __cpu_dispatch__ if __cpu_features__.get(t)],
    }


def _json_columns(value, key="", columns=None):
    """The numbers of a JSON document grouped by the name of the key that
    holds them (list entries under their list's key), in key order."""
    columns = {} if columns is None else columns
    if isinstance(value, dict):
        for name in sorted(value):
            _json_columns(value[name], name, columns)
    elif isinstance(value, list):
        for item in value:
            _json_columns(item, key, columns)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        columns.setdefault(key, []).append(float(value))
    return columns


def artifact_columns(path: str) -> dict:
    """The numbers of an artifact by column, each in file order: a snapshot's
    float64 parts (read by `load_snapshot`) as one column, the cells of each
    CSV column that parse as floats, the numbers of a JSON document by key."""
    if path.endswith(".gnls"):
        return {"coefficients": load_snapshot(path).view(np.float64).ravel()}
    with open(path, newline="") as fh:
        if path.endswith(".json"):
            columns = _json_columns(json.load(fh))
        else:
            rows = list(csv.reader(fh))
            columns = {}
            for row in rows[1:]:
                for name, cell in zip(rows[0], row):
                    try:
                        number = float(cell)
                    except ValueError:
                        continue
                    columns.setdefault(name, []).append(number)
    return {name: np.array(numbers) for name, numbers in columns.items()}


def largest_change(old_path: str, new_path: str) -> str:
    """The largest change |new - old| of a number between two versions of an
    artifact relative to its column's scale, the largest |old| or |new| in
    that column (0 where both are equal, NaNs included; inf where only one
    is NaN), as text naming the column: a residue such as the difference of
    a conserved quantity reads against its column, not against itself."""
    old, new = artifact_columns(old_path), artifact_columns(new_path)
    worst, where = 0.0, None
    for name in sorted(set(old) | set(new)):
        a, b = old.get(name, np.empty(0)), new.get(name, np.empty(0))
        if a.shape != b.shape:
            return f"column {name}: {a.size} → {b.size} numbers"
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.nanmax(np.maximum(np.abs(a), np.abs(b)), initial=0.0)
            change = np.abs(b - a) / scale
        change[(a == b) | (np.isnan(a) & np.isnan(b))] = 0.0
        change = np.nan_to_num(change, nan=np.inf).max(initial=0.0)
        if where is None or change > worst:
            worst, where = change, name
    return f"largest change {worst:.2g} of the column scale ({where})"


def moved_artifacts(name: str, before: dict, after: dict, out: str | None = None) -> list:
    """One line per difference between two `run_subcommand` results of case
    `name`: a moved exit code, then `case/artifact: old[:12] → new[:12]` for
    each artifact whose hash moved ("-" for an artifact that is new or gone),
    followed, when `out` holds the new artifacts and the committed one
    exists, by their `largest_change`.  Empty exactly when the results are
    equal."""
    lines = []
    if before["exit_code"] != after["exit_code"]:
        lines.append(f"{name}: exit code {before['exit_code']} → {after['exit_code']}")
    for artifact in sorted(set(before["artifacts"]) | set(after["artifacts"])):
        was = before["artifacts"].get(artifact, "-")
        now = after["artifacts"].get(artifact, "-")
        if was != now:
            line = f"{name}/{artifact}: {was[:12]} → {now[:12]}"
            old = os.path.join(ARTIFACTS, name, artifact)
            if out is not None and "-" not in (was, now) and os.path.exists(old):
                line += f" ({largest_change(old, os.path.join(out, artifact))})"
            lines.append(line)
    return lines


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_golden_hashes(name, threads, tmp_path, monkeypatch):
    with open(HASHES) as fh:
        golden = json.load(fh)
    monkeypatch.setenv("GNLS_THREADS", threads)
    got = run_subcommand(name, str(tmp_path))
    moved = moved_artifacts(name, golden[name], got, os.path.join(tmp_path, "out"))
    if moved:
        moved += [f"generated on {golden['environment']}", f"running on {environment()}"]
        pytest.fail("\n".join(moved), pytrace=False)


def test_largest_change_reads_against_the_column_scale(tmp_path):
    # the mass row's diff is a rounding residue of a conserved quantity: its
    # move from -9.6e-16 to -8.0e-16 is 1.6e-16 of a column whose scale is 4e-5
    paths = []
    for name, residue in (("old.csv", "-9.6e-16"), ("new.csv", "-8.0e-16")):
        paths.append(os.path.join(tmp_path, name))
        with open(paths[-1], "w") as fh:
            fh.write(f"observable,mean0,diff\nmass,1.0,{residue}\nhamiltonian,10.0,-4e-05\n")
    assert largest_change(*paths) == "largest change 4e-12 of the column scale (diff)"
    for name, value in (("old.json", 1.0), ("new.json", float("nan"))):
        paths.append(os.path.join(tmp_path, name))
        with open(paths[-1], "w") as fh:
            json.dump({"a": {"z": value}, "b": {"z": 2.0}}, fh)
    assert largest_change(*paths[2:]) == "largest change inf of the column scale (z)"
