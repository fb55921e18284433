"""Self-test of the benchmark: the trace sees every call, and changes nothing.

    python3 -m pytest perfbench/test_perfbench.py

For each workload one untraced and one traced child run at the same seed.
Every count metric must be non-zero exactly on the workloads meant to
exercise it (workloads.EXERCISED), which fails if a wrapper misses the
`from .x import` copies of a kernel; and both runs must write byte-identical
artifacts.  Takes about two minutes on two cores.
"""

import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from run import ROOT, _child  # noqa: E402

SEED = 3


def _files(root):
    found = {}
    for d, _, files in os.walk(root):
        for f in files:
            path = os.path.join(d, f)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, root)] = fh.read()
    return found


@pytest.mark.parametrize("name", workloads.NAMES)
def test_trace_counts_and_identical_artifacts(name):
    work = os.path.join(ROOT, ".perfbench_work", "selftest", name)
    shutil.rmtree(work, ignore_errors=True)
    plain_dir, traced_dir = os.path.join(work, "plain"), os.path.join(work, "traced")
    plain = _child(name, SEED, plain_dir)
    traced = _child(name, SEED, traced_dir, trace=True)
    assert plain["failures"] == [] and traced["failures"] == []

    layers = traced["layers"]
    exercised = workloads.EXERCISED[name]
    assert exercised <= set(workloads.COUNT_METRICS)
    for metric in workloads.COUNT_METRICS:
        if metric in exercised:
            assert layers[metric] > 0, f"{metric} recorded nothing on {name}"
        else:
            assert layers[metric] == 0, f"{metric} = {layers[metric]} on bypassed {name}"

    a, b = _files(plain_dir), _files(traced_dir)
    assert a and sorted(a) == sorted(b)
    for rel in a:
        assert a[rel] == b[rel], f"{rel} differs between traced and untraced runs"
