"""Split-step integration of the exponential NLS and its spectral truncation.

The integrated system is the canonical flow of the energy

    E(u) = sum_n w_n |a_n|^2 + gamma V_beta(u),      w_n = <n>^alpha or |n|^alpha,

whose exponential exp(-E) is exactly the density of the reweighted Gaussian
ensemble (mode variance <n>^(-alpha), weight exp(-gamma V_beta)).  In mode
coordinates the equations read da_n/dt = -2i dE/d(conj a_n), i.e. the linear
part rotates each mode by exp(-2i t w_n) and the nonlinear part is
-2i gamma beta P_N[e^{beta |P_N u|^2} P_N u].  E and the mass are conserved,
the flow preserves phase-space volume, and the weighted ensemble is invariant;
any other relative normalization of the two parts conserves a different
quadratic/potential combination and visibly breaks the invariance harness.

The macro step composes an exact linear phase with a nonlinear substep:

* collocation mode: the nonlinearity is u times a real function of |u|^2,
  so on the grid the substep is the exact pointwise phase rotation
  u -> exp(-2i gamma beta t e^{beta |u|^2}) u; both the grid modulus and the
  quadrature potential are preserved exactly.
* galerkin mode: the projector destroys pointwise modulus conservation, so
  the substep is integrated by a classical 4th-order one-step method; modes
  above the cutoff are untouched.  On a d = 1 box with `plane_basis` B the
  flow runs on plane pairs (`spectral.fold_planes`), folded once and
  unfolded once per batch (in `evolve`, per diagnostics block): the grid
  planes are one product with B, the right-hand side one with B^T (both with
  the mask and the constants folded in), the linear phase rotates each
  column.  The products run in items of 2^18 // (K M) plane rows, a lone row
  as two; in an ensemble a row's bits may depend on its position in its
  fixed 1024-row chunk, never on the thread count.

Strang composition linear(dt/2) o nonlinear(dt) o linear(dt/2) is second
order; the Lie variant is provided for order checks.  Both modes commute with
conjugation reversing time, conj o Phi_h o conj = Phi_{-h}, with a constant
phase and with grid translations, to rounding.  Galerkin mode is reversible,
Phi_T o conj o Phi_T o conj = id, up to RK4's order-4 defect; collocation mode
is not (1.4e-6 at dt 0.01, T 0.2, beta 0.3), because its substep truncates
the rotated grid values back to the box.
"""

from __future__ import annotations

import csv
import functools
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .measures import ModelParams, kinetic_sum_array, mass_array, potential_array
from .spectral import (TorusGeometry, _GEMM_SIZE, _block_rows, _dense, _plane_view,
                       dispersion_weights, fold_planes, from_grid_array, save_snapshot,
                       sobolev_norm_array, to_grid_array, unfold_planes)

SYMBOLS = ("bracket", "pure")
SCHEMES = ("strang", "lie")
MODES = ("galerkin", "collocation")


@dataclass(frozen=True)
class FlowConfig:
    """Time-stepping configuration.

    dispersion_symbol selects the Fourier multiplier of the linear flow:
    'bracket' for <n>^alpha (consistent with the Gaussian weights, required
    by measure-invariance experiments) or 'pure' for |n|^alpha.
    """

    params: ModelParams
    dt: float
    t_final: float
    nonlinear_substeps: int = 1
    dispersion_symbol: str = "bracket"
    scheme: str = "strang"
    store_every: int = 1

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.nonlinear_substeps < 1:
            raise ValueError("nonlinear_substeps must be >= 1")
        if self.dispersion_symbol not in SYMBOLS:
            raise ValueError(f"dispersion_symbol must be one of {SYMBOLS}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")


@dataclass
class Trajectory:
    """Time stamps, stored snapshots and per-step conservation diagnostics."""

    times: np.ndarray
    snapshots: np.ndarray  # (k, *box): the start, every store_every-th step and the last
    snapshot_times: np.ndarray
    diagnostics: dict  # name -> array over all macro steps, stamped by times


# ---------------------------------------------------------------------------
# substeps (array kernels; leading batch axes broadcast)
# ---------------------------------------------------------------------------


def gauge_frequency(absq: np.ndarray, params: ModelParams, axes) -> np.ndarray:
    """The gauge frequency G = 2 gamma beta A[(1+beta|u|^2) e^{beta|u|^2}] from
    grid samples |u|^2, A the mean over `axes` (kept as length-one axes)."""
    b = params.beta
    mean = np.mean((1.0 + b * absq) * np.exp(b * absq), axis=axes, keepdims=True)
    return 2.0 * params.gamma * b * mean


def _collocation_work(geometry: TorusGeometry, shape: tuple) -> tuple:
    """Work buffers of the collocation substep for states of `shape`: the
    grid values, |u|^2 (then the frequency) and the phase factor."""
    grid = shape[: len(shape) - geometry.d] + geometry.grid_shape
    return np.empty(grid, np.complex128), np.empty(grid), np.empty(grid, np.complex128)


def collocation_phase_array(
    geometry: TorusGeometry, coeffs: np.ndarray, t: float, params: ModelParams,
    gauge_shift: bool = False, work: tuple | None = None,
) -> np.ndarray:
    """Exact nonlinear phase on the grid; with gauge_shift=True the spatially
    constant `gauge_frequency` is subtracted (the gauged equation's extra
    substep).  The grid lives in the buffers `work` of `_collocation_work`,
    which a call overwrites; the result is always a fresh array."""
    values, absq, rotation = work or _collocation_work(geometry, coeffs.shape)
    values = to_grid_array(geometry, coeffs, out=values, shifted=True)
    np.multiply(geometry.scale**2, np.square(np.abs(values, out=absq), out=absq), out=absq)
    shift = gauge_frequency(absq, params, geometry.axes) if gauge_shift else None
    freq = np.exp(np.multiply(params.beta, absq, out=absq), out=absq)
    freq = np.multiply(2.0 * params.gamma * params.beta, freq, out=freq)
    freq = freq if shift is None else np.subtract(freq, shift, out=freq)
    np.exp(np.multiply(-1j * t, freq, out=rotation), out=rotation)
    np.multiply(values, rotation, out=values)  # numpy's complex product rounds by operand order
    return from_grid_array(geometry, values, np.empty_like(coeffs, np.complex128), shifted=True)


def _galerkin_work(geometry: TorusGeometry, shape: tuple, params: ModelParams, mask) -> tuple:
    """Work of the Galerkin substep for states of `shape`: on a box with
    `plane_basis` B the operators c P_N B and B^T kappa P_N (c = scale
    sqrt(beta), kappa = 2 gamma sqrt(beta) / (scale M)), the (2n, K) views of
    its buffers by id (unique while `work` holds them) and the grid planes
    (2n, M), else None and the complex grid; then |u|^2, the RK4 slopes and
    stage, and their planes (2, n K) with the turn's plane signs."""
    batch, box = shape[: len(shape) - geometry.d], [np.empty(shape, complex) for _ in range(5)]
    if geometry.plane_basis is None:
        grid = batch + geometry.grid_shape
        return (None, np.empty(grid, np.complex128), np.empty(grid), *box, (*box, 1.0, box[:3]))
    (basis, transpose), root, m = geometry.plane_basis, math.sqrt(params.beta), geometry.m_grid
    cut = np.broadcast_to(1.0 if mask is None else mask, len(basis))
    grid, absq = np.empty((2 * math.prod(batch), m)), np.empty(batch + (m,))
    synthesis = (geometry.scale * root * cut)[:, None] * basis
    analysis = transpose * (2.0 * params.gamma * root / (geometry.scale * m) * cut)
    product = np.dot if grid.size * len(basis) <= _GEMM_SIZE else _dense  # np.dot: matmul's bits
    flat = {id(k): k.view(np.float64).reshape(len(grid), -1) for k in box}
    rk4 = [k.view(np.float64).reshape(2, -1) for k in box]
    rk4 += [np.array([[1.0], [-1.0]]), [x[::-1] for x in rk4[:3]]]
    ops = (synthesis, analysis, grid.reshape(2, *absq.shape), product, flat)
    return (ops, grid, absq, *box, rk4)


def galerkin_rhs_array(
    geometry: TorusGeometry, coeffs: np.ndarray, params: ModelParams, mask: np.ndarray | None,
    out: np.ndarray | None = None, work: tuple | None = None,
) -> np.ndarray:
    """-2i gamma beta P_N[e^{beta |P_N u|^2} P_N u] (`mask` None: P_N = 1), into
    `out` when given, in `work` (from `_galerkin_work`; its grid and |u|^2 are
    overwritten).  On a box with `plane_basis` the state is a plane pair
    (`fold_planes`) and the result the pair G whose turn (G1, -G0) is the
    derivative: the 2n planes times c P_N B are the grid planes of sqrt(beta)
    u, which scaled by e^{beta |u|^2} and times B^T kappa P_N give G."""
    ops, grid, absq = (work or _galerkin_work(geometry, coeffs.shape, params, mask))[:3]
    out = np.empty(coeffs.shape, np.complex128) if out is None else out
    if ops is None:
        coeffs = coeffs if mask is None else np.multiply(coeffs, mask, out=out)
        values = to_grid_array(geometry, coeffs, out=grid, shifted=True)
        np.square(np.abs(values, out=absq), out=absq)
        np.exp(np.multiply(params.beta * geometry.scale**2, absq, out=absq), out=absq)
        np.multiply(absq, values, out=values)
        conv = from_grid_array(geometry, values, out=out, shifted=True)
        conv = conv if mask is None else np.multiply(conv, mask, out=conv)
        return np.multiply(-2j * params.gamma * params.beta, conv, out=out)
    synthesis, analysis, planes, product, flat = ops
    x = flat[id(coeffs)] if id(coeffs) in flat else coeffs.view(np.float64).reshape(len(grid), -1)
    g = flat[id(out)] if id(out) in flat else out.view(np.float64).reshape(x.shape)
    product(x, synthesis, grid)
    np.einsum("i...,i...->...", planes, planes, out=absq)  # planes[0]**2 + planes[1]**2
    np.multiply(planes, np.exp(absq, out=absq), out=planes)
    product(grid, analysis, g)
    return out


def _rk4(geometry: TorusGeometry, a: np.ndarray, t: float, params: ModelParams, substeps: int,
         mask: np.ndarray | None, work: tuple) -> np.ndarray:
    """Classical RK4 over `substeps` equal steps of `galerkin_rhs_array`, in
    place on its state `a`; plane pairs combine as float64 (a complex product
    with a real factor would let a non-finite entry spoil another row)."""
    k1, k2, k3, k4, stage, (x1, x2, x3, x4, xs, sign, turns) = work[3:]
    h, xa = t / substeps, a if work[0] is None else a.view(np.float64).reshape(xs.shape)
    half, full, sixth = np.multiply.outer((0.5 * h, h, h / 6.0), sign)
    for _ in range(substeps):
        galerkin_rhs_array(geometry, a, params, mask, k1, work)
        for c, x, k_next in zip((half, half, full), turns, (k2, k3, k4)):
            np.add(xa, np.multiply(c, x, out=xs), out=xs)
            galerkin_rhs_array(geometry, stage, params, mask, k_next, work)
        # a + (h/6)(((k1 + 2 k2) + 2 k3) + k4), summed in k1
        np.add(x1, np.multiply(2.0, x2, out=x2), out=x1)
        np.add(x1, np.multiply(2.0, x3, out=x3), out=x1)
        np.add(x1, x4, out=x1)
        np.add(xa, np.multiply(sixth, turns[0], out=xs), out=xa)
    return a


def galerkin_substep_array(
    geometry: TorusGeometry, coeffs: np.ndarray, t: float, params: ModelParams,
    substeps: int, mask: np.ndarray | None, work: tuple | None = None,
) -> np.ndarray:
    """Classical RK4 over `substeps` equal steps of `galerkin_rhs_array`, from
    box coefficients to a fresh array of them, in `work` (from
    `_galerkin_work`, overwritten); on a box with `plane_basis` it runs on
    the plane pair and returns the modes outside `mask` as given."""
    work = work or _galerkin_work(geometry, coeffs.shape, params, mask)
    if work[0] is None:
        return _rk4(geometry, np.array(coeffs, np.complex128), t, params, substeps, mask, work)
    pair = _rk4(geometry, fold_planes(geometry, coeffs), t, params, substeps, mask, work)
    return np.where(True if mask is None else mask, unfold_planes(geometry, pair), coeffs)


def _flow_step(
    geometry: TorusGeometry, cfg: FlowConfig, mode: str, dt: float, coeffs: np.ndarray,
    gauge_shift: bool = False,
):
    """(fold, step, view, unfold) for states shaped like `coeffs`, made once
    after the pre-flight check that exp(beta |Pi_N u|^2) of `coeffs` is
    finite.  `step` is the macro step of `cfg` and may overwrite its state;
    `fold` makes a state of box coefficients and `unfold` takes it back (in
    Galerkin mode on a box with `plane_basis` a plane pair, whose `view` is
    its planes; else the coefficients, viewed with a length-one axis).  On
    plane pairs `first`/`last` False merge the half phases of Strang steps."""
    p = cfg.params
    mask = geometry.euclid_mask(p.n_cut)
    absq = geometry.scale**2 * np.abs(to_grid_array(geometry, coeffs * mask, shifted=True)) ** 2
    peak, limit = p.beta * float(np.max(absq, initial=0.0)), math.log(np.finfo(float).max)
    if peak > limit:
        raise ValueError(f"beta max|Pi_N u0|^2 = {peak:.6g} exceeds the exp limit {limit:.6g}")
    mask = None if mask.all() else mask  # P_N = 1 on the box, as in d = 1 at n_cut = n_max
    omega = dispersion_weights(geometry, p.alpha, cfg.dispersion_symbol)
    strang = cfg.scheme == "strang"
    # Strang: linear(dt/2) o nonlinear(dt) o linear(dt/2); Lie: nonlinear o linear
    phases = [np.exp(-2j * tau * omega) for tau in ((0.5 * dt, dt) if strang else (dt,))]
    work = (_galerkin_work(geometry, coeffs.shape, p, mask) if mode == "galerkin"
            else _collocation_work(geometry, coeffs.shape))
    planes = mode == "galerkin" and geometry.plane_basis is not None
    if not planes:
        fold, view, unfold = (lambda a: a), (lambda a: a[None]), (lambda a: a)
        rotate = lambda a, full: a * phases[0]
    else:
        fold, unfold = (functools.partial(f, geometry) for f in (fold_planes, unfold_planes))
        # (c + i s)(X0 + i X1) = (c X0 - s X1) + i (s X0 + c X1) per column, in
        # place, with the factors laid out over the rows (broadcast, they cost double)
        rows = [np.broadcast_to(ph, coeffs.shape).reshape(-1) for ph in phases]
        factors = [(r.real.copy(), np.multiply.outer([-1.0, 1.0], r.imag)) for r in rows]
        view, (y, z) = _plane_view, work[-1][:2]

        def rotate(a: np.ndarray, full: bool) -> np.ndarray:
            (cos, turn), x = factors[full], a.view(np.float64).reshape(y.shape)
            np.add(np.multiply(x, cos, out=y), np.multiply(x[::-1], turn, out=z), out=x)
            return a

    def step(a: np.ndarray, first: bool = True, last: bool = True) -> np.ndarray:
        if first or not (planes and strang):
            a = rotate(a, False)
        if mode == "collocation":
            a = collocation_phase_array(geometry, a, dt, p, gauge_shift, work)
        else:
            a = _rk4(geometry, a, dt, p, cfg.nonlinear_substeps, mask, work)
        return rotate(a, planes and not last) if strang else a

    return fold, step, view, unfold


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


def _block_diagnostics(
    geometry: TorusGeometry, block: np.ndarray, cfg: FlowConfig, mask: np.ndarray
) -> dict:
    p = cfg.params
    v = potential_array(geometry, block * mask, p.beta)
    # the conserved energy of the flow (= the measure exponent), carrying the
    # full quadratic sum rather than the half of the invariance observable
    kin = kinetic_sum_array(geometry, block, p.alpha, cfg.dispersion_symbol)
    return {
        "mass": mass_array(geometry, block),
        "potential": v,
        "hamiltonian": kin + p.gamma * v,
        "h0.5_norm": sobolev_norm_array(geometry, block, 0.5),
    }


def evolve(
    u0: np.ndarray, cfg: FlowConfig, mode: str = "galerkin", gauge_shift: bool = False
) -> Trajectory:
    """Integrate the box `u0` of cfg.params.geometry to t_final (negative
    allowed: steps run backward) recording diagnostics at every macro step and
    snapshots every store_every steps.  Raises ValueError for a `u0` of
    another shape and at the first step whose diagnostics are not finite."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    geometry = cfg.params.geometry
    if np.shape(u0) != geometry.box_shape:
        raise ValueError(f"u0 has shape {np.shape(u0)}, not the box {geometry.box_shape}")
    dt = cfg.dt if cfg.t_final >= 0 else -cfg.dt
    n_steps = int(round(abs(cfg.t_final) / cfg.dt))
    mask = geometry.euclid_mask(cfg.params.n_cut)
    coeffs = np.array(u0, np.complex128)
    fold, step, view, unfold = _flow_step(geometry, cfg, mode, dt, coeffs, gauge_shift)
    state = fold(coeffs)
    times = np.zeros(n_steps + 1)
    snaps = np.empty((-(-n_steps // cfg.store_every) + 1, *coeffs.shape), np.complex128)
    stored = []
    # blocks of states with at most _BLOCK_BYTES of grid are unfolded, checked and stored at once
    rows = _block_rows(16 * math.prod(geometry.grid_shape))
    block = np.zeros((min(rows, n_steps + 1), *coeffs.shape), np.complex128)
    stack = view(block)
    diags = {}
    for k in range(n_steps + 1):
        if k:
            state = step(state)
            times[k] = k * dt
        stack[:, k % rows] = view(state)
        if k % rows == rows - 1 or k == n_steps:
            start = k - k % rows
            states = unfold(block)[: k - start + 1]
            if not start:
                states[0] = coeffs  # the start itself, not the round trip of its fold
            keep = [j for j in range(start, k + 1) if j % cfg.store_every == 0 or j == n_steps]
            snaps[len(stored) : len(stored) + len(keep)] = states[[j - start for j in keep]]
            stored += keep
            values = _block_diagnostics(geometry, states, cfg, mask)
            for name, v in values.items():
                diags.setdefault(name, np.empty(n_steps + 1))[start : k + 1] = v
            finite = np.isfinite(np.stack(list(values.values()))).all(axis=0)
            if not finite.all():
                bad = start + int(np.argmin(finite))
                raise ValueError(f"the flow is not finite at step {bad} (t = {times[bad]:g})")
    return Trajectory(times, snaps, times[stored], diags)


def evolve_ensemble(
    geometry: TorusGeometry, coeffs: np.ndarray, cfg: FlowConfig, mode: str = "galerkin"
) -> np.ndarray:
    """Batched endpoint evolution of coeffs (m, *box), no trajectory: the macro
    steps of `evolve`, on plane pairs with the half phases of Strang steps
    merged.  Raises ValueError if any row of the endpoint is not finite."""
    dt = cfg.dt if cfg.t_final >= 0 else -cfg.dt
    n_steps = int(round(abs(cfg.t_final) / cfg.dt))
    a = np.array(coeffs, dtype=np.complex128)
    fold, step, view, unfold = _flow_step(geometry, cfg, mode, dt, a)
    a = fold(a)
    for k in range(n_steps):
        a = step(a, first=k == 0, last=k == n_steps - 1)
    a = unfold(a)
    # NaN and infinity persist under the flow, so the endpoint shows any overflow
    bad = ~np.isfinite(a).all(axis=geometry.axes)
    if bad.any():
        count = f"{np.count_nonzero(bad)} of {bad.size} rows"
        raise ValueError(f"the flow is not finite on {count} by t = {n_steps * dt:g}")
    return a


# ---------------------------------------------------------------------------
# structure checks
# ---------------------------------------------------------------------------


def liouville_check(
    params: ModelParams, dt: float, probe: np.ndarray, h: float = 1e-5,
    symbol: str = "bracket", substeps: int = 1,
) -> float:
    """|det J - 1| of one Strang Galerkin step at the box `probe`, J estimated
    by central differences on the 2 * #active-modes real coordinates.

    The active subsystem is self-contained (high modes evolve linearly and
    decouple), so only modes |n| <= n_cut are treated as coordinates.
    Dimension is capped at 20 for finite-difference conditioning.
    """
    geometry = params.geometry
    mask = geometry.euclid_mask(params.n_cut)
    idx = np.flatnonzero(mask.ravel())
    dim = 2 * idx.size
    if dim > 20:
        raise ValueError(f"phase-space dimension {dim} exceeds the cap of 20")
    cfg = FlowConfig(params, dt, dt, nonlinear_substeps=substeps, dispersion_symbol=symbol)
    base = np.array(probe, np.complex128).ravel()
    fold, macro_step, view, unfold = _flow_step(geometry, cfg, "galerkin", dt, probe)

    def step(x: np.ndarray) -> np.ndarray:
        a = base.copy()
        a[idx] = x[: idx.size] + 1j * x[idx.size :]
        a = unfold(macro_step(fold(a.reshape(geometry.box_shape))))
        flat = a.ravel()[idx]
        return np.concatenate([flat.real, flat.imag])

    x0 = np.concatenate([base[idx].real, base[idx].imag])
    jac = np.empty((dim, dim))
    for j in range(dim):
        hj = h * max(1.0, abs(x0[j]))
        xp, xm = x0.copy(), x0.copy()
        xp[j] += hj
        xm[j] -= hj
        jac[:, j] = (step(xp) - step(xm)) / (2.0 * hj)
    return abs(float(np.linalg.det(jac)) - 1.0)


@dataclass
class ConvergenceTable:
    """Truncation errors against a reference cutoff, with a log-log order fit."""

    n_values: np.ndarray
    errors: np.ndarray
    fitted_order: float


def truncation_convergence(
    u0: np.ndarray, cfg: FlowConfig, n_ladder: list, n_ref: int, s: float, mode: str = "galerkin"
) -> ConvergenceTable:
    """sup_{t<=T} ||Pi_N Phi_N(t)u0 - Phi_ref(t)u0||_{H^s} per ladder cutoff.

    The reference flow is the same integrator at cutoff n_ref, so the table
    isolates the truncation error of the projected dynamics.
    """
    if n_ref < max(n_ladder):
        raise ValueError("reference cutoff must not be below the ladder")
    geometry = cfg.params.geometry
    if geometry.n_max < n_ref:
        raise ValueError("geometry too small for the reference cutoff")
    ref_cfg = replace(cfg, params=replace(cfg.params, n_cut=n_ref))
    ref = evolve(u0, ref_cfg, mode).snapshots
    errors = []
    for n in n_ladder:
        cfg_n = replace(cfg, params=replace(cfg.params, n_cut=int(n)))
        diff = evolve(u0, cfg_n, mode).snapshots * geometry.euclid_mask(int(n)) - ref
        errors.append(float(np.max(sobolev_norm_array(geometry, diff, s))))
    n_arr = np.asarray(n_ladder, dtype=float)
    err = np.asarray(errors)
    pos = err > 0
    order = math.nan
    if pos.sum() >= 2:
        order = float(-np.polyfit(np.log(n_arr[pos]), np.log(err[pos]), 1)[0])
    return ConvergenceTable(n_arr, err, order)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def trajectory_to_csv(traj: Trajectory, path, snapshot_dir=None) -> None:
    """CSV `t, mass, hamiltonian, potential, h_s_norm...` plus optional
    per-snapshot binary field files."""
    names = list(traj.diagnostics.keys())
    ordered = ["mass", "hamiltonian", "potential"] + [
        n for n in names if n not in ("mass", "hamiltonian", "potential")
    ]
    cols = [traj.times] + [traj.diagnostics[n] for n in ordered]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + ordered)
        # floats from tolist format as np.float64 does; one block's strings live at a time
        for lo in range(0, len(traj.times), 256):
            writer.writerows(zip(*([f"{x:.17g}" for x in c[lo : lo + 256].tolist()] for c in cols)))
    if snapshot_dir is not None:
        os.makedirs(snapshot_dir, exist_ok=True)
        for t, snap in zip(traj.snapshot_times, traj.snapshots):
            save_snapshot(snap, os.path.join(snapshot_dir, f"field_t{t:.6f}.gnls"))
