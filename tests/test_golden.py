"""Golden-artifact guard: every CLI subcommand at a tiny pinned config must
write byte-identical artifacts and exit with the pinned code, at one and at
two worker threads.  `gnls sample` has two more cases: rejection mode, and
non-default observables (which must leave the fixed `ensemble.csv` columns
alone).  Three d = 2 cases (sample, collocation evolve on a 36-point grid,
invariance) guard the two-dimensional transforms and mode indexing.

The SHA-256 of each artifact and the exit code live in
`tests/golden/hashes.json`; `python tests/golden/make_hashes.py [case ...]`
rewrites the named entries of that file (all of them when none is named).
A failing case names each moved artifact in the format that script prints.
A change that moves an artifact on purpose regenerates it and names the
moved artifacts and the reason in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from gnls.cli import main

HASHES = os.path.join(os.path.dirname(__file__), "golden", "hashes.json")

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


def moved_artifacts(name: str, before: dict, after: dict) -> list:
    """One line per difference between two `run_subcommand` results of case
    `name`: a moved exit code, then `case/artifact: old[:12] → new[:12]` for
    each artifact whose hash moved ("-" for an artifact that is new or gone).
    Empty exactly when the results are equal."""
    lines = []
    if before["exit_code"] != after["exit_code"]:
        lines.append(f"{name}: exit code {before['exit_code']} → {after['exit_code']}")
    for artifact in sorted(set(before["artifacts"]) | set(after["artifacts"])):
        was = before["artifacts"].get(artifact, "-")
        now = after["artifacts"].get(artifact, "-")
        if was != now:
            lines.append(f"{name}/{artifact}: {was[:12]} → {now[:12]}")
    return lines


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_artifacts_match_golden_hashes(name, threads, tmp_path, monkeypatch):
    with open(HASHES) as fh:
        expected = json.load(fh)[name]
    monkeypatch.setenv("GNLS_THREADS", threads)
    moved = moved_artifacts(name, expected, run_subcommand(name, str(tmp_path)))
    if moved:
        pytest.fail("\n".join(moved), pytrace=False)
