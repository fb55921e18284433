"""Span tracing of the gnls layers, installed from outside the package.

`Tracer.install` wraps every public module-level function of the layer
modules and rebinds each reference to it in every gnls namespace.  The
rebinding matters: `dynamics`, `measures`, `variational`, `harness`, `gauge`
and `experiments` import kernels such as `to_grid_array` or
`potential_array` by name (`from .spectral import ...`), so wrapping only the
defining module would leave those copies untraced and record zero calls.

Each call records one span (id, name, start, end, parent id, thread) in
memory; `write` dumps them when the run ends.  A span opened on a worker
thread with nothing open on that thread takes as parent the innermost span
open on the main thread, which is the call that handed the work to the pool.
A span's self time is its duration minus the union of its children's
intervals; a layer's self time sums its spans' self times over all threads.

Counters attached to a few boundaries record work at the call: rows of a
batched call (the leading axes of the coefficient array) and bytes of the
files a writer produced.  Sample-steps, mode-steps, transform grid points
and transform bytes are computed from argument shapes and step sizes, not
measured; README.md marks them as computed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import math
import os
import statistics
import threading
import time

# module -> layer; experiments and cli drive the harness and share its layer
LAYERS = {
    "spectral": "spectral",
    "measures": "measures",
    "dynamics": "dynamics",
    "variational": "variational",
    "harness": "harness",
    "experiments": "harness",
    "cli": "harness",
    "gauge": "gauge",
}

COMPLEX_BYTES = 16


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _rows(array, geometry, grid=False) -> int:
    per_row = math.prod(geometry.grid_shape if grid else geometry.box_shape)
    return array.size // per_row


def _ou_mode_steps(params, m, dt):
    """m x round(1/dt) x active modes: the work of the OU path stepper (d = 1)."""
    from gnls import variational

    if dt is None:
        dt = inspect.unwrap(variational.stability_dt)(params)
    n_active = int((abs(params.geometry.modes) <= params.n_cut).sum())
    return m * int(round(1.0 / dt)) * n_active


def _transform(rows_from_grid):
    def count(args, kwargs, result):
        geometry = _arg(args, kwargs, 0, "geometry")
        array = _arg(args, kwargs, 1, "values" if rows_from_grid else "coeffs")
        rows = _rows(array, geometry, grid=rows_from_grid)
        box = math.prod(geometry.box_shape)
        grid = math.prod(geometry.grid_shape)
        return {
            "rows": rows,
            "grid_points": rows * grid,
            "bytes": rows * (box + grid) * COMPLEX_BYTES,
        }

    return count


def _evolve_steps(args, kwargs, result):
    cfg = _arg(args, kwargs, 1, "cfg")
    return {"sample_steps": int(round(abs(cfg.t_final) / cfg.dt))}


def _ensemble_steps(args, kwargs, result):
    geometry, coeffs, cfg = args[0], args[1], args[2]
    rows = _rows(coeffs, geometry)
    return {"rows": rows, "sample_steps": rows * int(round(abs(cfg.t_final) / cfg.dt))}


def _weighted(args, kwargs, result):
    weights = _arg(args, kwargs, 1, "weights")
    if weights is None:
        return None
    return {"ess_fraction": result[2] / len(weights)}


COUNTERS = {
    "spectral.to_grid_array": _transform(rows_from_grid=False),
    "spectral.from_grid_array": _transform(rows_from_grid=True),
    "spectral.save_snapshot": lambda a, k, r: {"bytes": os.path.getsize(a[1])},
    "measures.sample_gaussian_coeffs": lambda a, k, r: {
        "rows": _arg(a, k, 2, "size") or 1
    },
    "measures.potential_array": lambda a, k, r: {"rows": _rows(a[1], a[0])},
    "measures.weighted_mean_stderr": _weighted,
    "dynamics.galerkin_rhs_array": lambda a, k, r: {"rows": _rows(a[1], a[0])},
    "dynamics.evolve_ensemble": _ensemble_steps,
    "dynamics.evolve": _evolve_steps,
    "dynamics.trajectory_to_csv": lambda a, k, r: {"bytes": os.path.getsize(a[1])},
    "harness.write_csv": lambda a, k, r: {"bytes": os.path.getsize(a[0])},
    "harness.write_json": lambda a, k, r: {"bytes": os.path.getsize(a[0])},
    "variational.simulate_ou_gap": lambda a, k, r: {
        "mode_steps": _ou_mode_steps(a[0], a[1], _arg(a, k, 3, "dt"))
    },
    "variational.objective_estimate": lambda a, k, r: {
        "mode_steps": _ou_mode_steps(a[0].params, a[0].m, a[0].dt_sde)
    },
    "variational.simulate_drift": lambda a, k, r: {
        "mode_steps": _ou_mode_steps(a[0].params, 1, a[0].dt_sde)
    },
}


class Tracer:
    """In-memory span recorder for the wrapped gnls functions."""

    def __init__(self) -> None:
        self.spans = []  # (id, name, start, end, parent, thread, counts)
        self.active = False
        self._ids = itertools.count(1)
        self._stacks = {}
        self._main = threading.main_thread().ident

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)
        stacks = self._stacks
        main = self._main

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            tid = threading.get_ident()
            stack = stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                outer = stacks.get(main) if tid != main else None
                parent = outer[-1] if outer else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            counts = count(args, kwargs, result) if count else None
            self.spans.append((sid, name, start, end, parent, tid, counts))
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module and start recording."""
        modules = {m: importlib.import_module(f"gnls.{m}") for m in LAYERS}
        wrapped = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in [importlib.import_module("gnls"), *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        self.active = True

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\tthread\n")
            for sid, name, start, end, parent, tid, _ in self.spans:
                fh.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent or 0}\t{tid}\n")


def _union_length(intervals, lo, hi) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _ratio(num, den, scale=1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(spans, threads: int) -> dict:
    """Per-layer metrics from recorded spans (values only; units live in
    BENCHMARK.json)."""
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        if s[4]:
            children.setdefault(s[4], []).append((s[2], s[3]))
    self_time = {
        s[0]: (s[3] - s[2]) - _union_length(children.get(s[0], ()), s[2], s[3])
        for s in spans
    }

    def select(*names):
        return [s for s in spans if s[1] in names]

    def dur(sel):
        return sum(s[3] - s[2] for s in sel)

    def self_s(sel):
        return sum(self_time[s[0]] for s in sel)

    def outermost(sel):
        names = {s[1] for s in sel}
        return [s for s in sel if s[4] not in by_id or by_id[s[4]][1] not in names]

    def total(sel, key):
        return sum(s[6][key] for s in sel if s[6])

    out = {}
    for layer in sorted(set(LAYERS.values())):
        mine = [s for s in spans if LAYERS[s[1].split(".")[0]] == layer]
        if layer == "gauge":
            out["gauge.calls"] = len(mine)
        else:
            out[f"{layer}.self_s"] = self_s(mine)

    tr = select("spectral.to_grid_array", "spectral.from_grid_array")
    rows = total(tr, "rows")
    out["spectral.transform.calls"] = len(tr)
    out["spectral.transform.rows"] = rows
    out["spectral.transform.self_s"] = self_s(tr)
    out["spectral.transform.ns_per_row"] = _ratio(self_s(tr), rows, 1e9)
    out["spectral.transform.grid_points"] = total(tr, "grid_points")
    out["spectral.transform.bytes_computed"] = total(tr, "bytes")

    snap = select("spectral.save_snapshot")
    out["spectral.snapshot.calls"] = len(snap)
    out["spectral.snapshot.bytes"] = total(snap, "bytes")
    out["spectral.snapshot.s"] = dur(snap)

    smp = outermost(select("measures.sample_gaussian_coeffs", "measures.sample_gaussian"))
    out["measures.sample.rows"] = total(
        select("measures.sample_gaussian_coeffs"), "rows"
    )
    out["measures.sample.s"] = dur(smp)

    pot = select("measures.potential_array", "measures.gibbs_weight_array")
    out["measures.potential.rows"] = total(pot, "rows")
    out["measures.potential.s"] = dur(outermost(pot))

    fractions = [
        s[6]["ess_fraction"] for s in select("measures.weighted_mean_stderr") if s[6]
    ]
    # the median skips the invariance control's mismatched weights; unweighted
    # estimates have ESS = m, so no weighted call means 1
    out["measures.ess_fraction"] = statistics.median(fractions) if fractions else 1.0

    rhs = select("dynamics.galerkin_rhs_array")
    rhs_rows = total(rhs, "rows")
    out["dynamics.rhs.calls"] = len(rhs)
    out["dynamics.rhs.self_s"] = self_s(rhs)
    out["dynamics.rhs.ns_per_row"] = _ratio(self_s(rhs), rhs_rows, 1e9)

    flows = select("dynamics.evolve")
    ens = select("dynamics.evolve_ensemble")
    flow_ids = {s[0] for s in flows}
    diag = [
        s
        for s in spans
        if s[4] in flow_ids and LAYERS[s[1].split(".")[0]] in ("measures", "spectral")
    ]
    diag_s = dur(diag)
    sample_steps = total(flows, "sample_steps") + total(ens, "sample_steps")
    step_s = dur(flows) + dur(ens) - diag_s
    out["dynamics.step.sample_steps"] = sample_steps
    out["dynamics.step.ns_per_sample_step"] = _ratio(step_s, sample_steps, 1e9)
    out["dynamics.diagnostics.calls"] = len(diag)
    out["dynamics.diagnostics.self_s"] = diag_s
    out["dynamics.diagnostics.share_of_evolve"] = _ratio(diag_s, dur(flows))

    busy = dur(ens)
    wall = (max(s[3] for s in ens) - min(s[2] for s in ens)) if ens else 0.0
    out["dynamics.ensemble.chunks"] = len(ens)
    out["dynamics.ensemble.busy_s"] = busy
    out["dynamics.ensemble.parallel_efficiency"] = _ratio(busy, wall * threads)

    csv_spans = select("dynamics.trajectory_to_csv")
    out["dynamics.trajectory_csv.bytes"] = total(csv_spans, "bytes")
    out["dynamics.trajectory_csv.s"] = self_s(csv_spans)

    ou = select(
        "variational.simulate_ou_gap",
        "variational.objective_estimate",
        "variational.simulate_drift",
    )
    mode_steps = total(ou, "mode_steps")
    out["variational.ou.mode_steps"] = mode_steps
    out["variational.ou.s"] = self_s(ou)
    out["variational.ou.ns_per_mode_step"] = _ratio(self_s(ou), mode_steps, 1e9)

    scan = select("variational.divergence_scan")
    out["variational.divergence_scan.calls"] = len(scan)
    out["variational.divergence_scan.s"] = dur(scan)

    obs = select("harness.observable_matrix")
    out["harness.observables.calls"] = len(obs)
    out["harness.observables.s"] = dur(obs)

    writes = select("harness.write_csv", "harness.write_json")
    out["harness.write.calls"] = len(writes)
    out["harness.write.bytes"] = total(writes, "bytes")
    out["harness.write.s"] = dur(writes)

    out["trace.spans"] = len(spans)
    return out
