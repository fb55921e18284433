"""gnls benchmark: runs the workloads and prints their metrics.

    python3 perfbench/run.py --workload {invariance,evolve,ou-oracle,variational,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; gnls is imported from its `src/`.
Every repetition is a fresh child interpreter (perfbench/child.py) writing
into a fresh output directory under `.perfbench_work/`, so that neither
warm state nor writeback of a rewritten file is counted as program time.

--trace 0 measures the end-to-end metrics with tracing off:
  setup_s      import gnls and resolve the config (median of every child,
               including SETUP_PROBES set-up-only children)
  run_s        wall time of one experiment, call to artifacts on disk
  cpu_s        CPU time of all threads over the same interval
  peak_rss_mb  peak resident set size of the child
Repetitions continue while the next one is expected to end within --seconds
(at least one); each metric is the median over repetitions.

--trace 1 alternates untraced and traced repetitions (at least one of each)
and reports the per-layer metrics of spans.py, medians over the traced
repetitions, plus trace.overhead_s = median traced run_s - median untraced
run_s.

Every repetition applies its workload's correctness gate; a failed gate or a
crashed child counts as a failed operation.  The last stdout line is one JSON
object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 10
DEADLINE_S = 170  # a hung child is killed so that one workload ends within 180 s

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    _SPEC = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class ChildFailed(RuntimeError):
    pass


def _child(name, seed, out, trace=False, setup_only=False, timeout=DEADLINE_S) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", name, "--seed", str(seed), "--out", out,
    ]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, GNLS_THREADS=str(workloads.THREADS[name]))
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
    )
    if proc.returncode != 0:
        raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _environment(versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **versions,
        "git_commit": _git_commit(),
    }


class Measurement:
    """Repetitions of one workload at one seed, in fresh output directories."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.work = os.path.join(ROOT, ".perfbench_work", name)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.deadline = time.perf_counter() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def rep(self, trace=False, setup_only=False):
        """Run one child; every child is an attempted operation."""
        self.attempted += 1
        out = os.path.join(self.work, f"rep{self.attempted:03d}")
        try:
            timeout = max(1.0, self.deadline - time.perf_counter())
            record = _child(self.name, self.seed, out, trace, setup_only, timeout)
        except (ChildFailed, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            record, problems = None, [str(exc)]
        else:
            problems = record.get("failures", [])
        if problems:
            self.failed += 1
            self.failures += [f"rep {self.attempted}: {p}" for p in problems]
        shutil.rmtree(out, ignore_errors=True)
        return record


def measure(name: str, seed: int, seconds: float, trace: bool):
    """Returns (metrics, measurement, notes) for one workload; metrics maps
    a name to (median, sample count)."""
    start = time.perf_counter()
    m = Measurement(name, seed)
    probes = [m.rep(setup_only=True) for _ in range(1 if trace else SETUP_PROBES)]
    probes = [p for p in probes if p]
    notes = {"environment": _environment(probes[0]["versions"])} if probes else {}
    kinds = (False, True) if trace else (False,)
    records = {kind: [] for kind in kinds}
    durations = []
    while True:
        t = time.perf_counter()
        for kind in kinds:
            rec = m.rep(trace=kind)
            if rec:
                records[kind].append(rec)
        durations.append(time.perf_counter() - t)
        if time.perf_counter() + statistics.median(durations) > start + seconds:
            break
    if not all(records.values()):
        return None, m, notes
    plain = records[False]
    notes["artifact_bytes"] = statistics.median([r["artifact_bytes"] for r in plain])
    notes["program_exit_codes"] = [r["exit_code"] for r in plain]
    if not trace:
        setups = [r["setup_s"] for r in probes + plain]
        metrics = {"setup_s": (statistics.median(setups), len(setups))}
        for key in ("run_s", "cpu_s", "peak_rss_mb"):
            metrics[key] = (statistics.median([r[key] for r in plain]), len(plain))
        return metrics, m, notes

    traced = records[True]
    metrics = {
        key: (statistics.median([r["layers"][key] for r in traced]), len(traced))
        for key in traced[0]["layers"]
    }
    traced_run = statistics.median([r["run_s"] for r in traced])
    plain_run = statistics.median([r["run_s"] for r in plain])
    metrics["trace.overhead_s"] = (traced_run - plain_run, min(len(plain), len(traced)))
    notes["run_s traced / untraced"] = [traced_run, plain_run]
    return metrics, m, notes


def _print_table(name, metrics, units, notes):
    print(f"== {name}")
    for key, note in notes.items():
        print(f"   {key}: {json.dumps(note)}")
    for key in units:
        value, n = metrics[key]
        print(f"   {key:<42} {value:>16.6g} {units[key]:<10} n={n}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=_SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "gnls", "__init__.py")):
        print(f"perfbench: no gnls sources under {ROOT}/src", file=sys.stderr)
        return 1

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    units = PER_LAYER if args.trace else END_TO_END
    result_metrics, attempted, failed = {}, 0, 0
    for name in names:
        metrics, m, notes = measure(name, args.seed, args.seconds, bool(args.trace))
        attempted += m.attempted
        failed += m.failed
        for failure in m.failures:
            print(f"   FAILED {name} {failure}")
        if metrics is None:
            print(f"perfbench: {name}: no repetition completed", file=sys.stderr)
            return 1
        _print_table(name, metrics, units, notes)
        prefix = f"{name}." if len(names) > 1 else ""
        for key, unit in units.items():
            result_metrics[prefix + key] = {"value": metrics[key][0], "unit": unit}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
