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
  above the cutoff are untouched.  On a dense d = 1 box (`TorusGeometry.dft`)
  its right-hand side works on real planes: the complex grid buffer holds the
  float64 planes Re v and Im v, made and analysed by float64 products in
  `spectral._dense`'s stacked items.  The analysis products round a row
  according to its position in its item, so there a row's bits may depend on
  its position in the batch, in an ensemble on its position in its fixed
  1024-row chunk.  (Planes stored item by item transposed keep the row bits,
  but cost about 6% more right-hand-side time at N = 8.)  The chunks are
  fixed, so the output still does not depend on the thread count.

Strang composition linear(dt/2) o nonlinear(dt) o linear(dt/2) is second
order; the Lie variant is provided for order checks.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .measures import ModelParams, kinetic_sum_array, mass_array, potential_array
from .spectral import (
    TorusGeometry,
    _block_rows,
    _dense,
    dispersion_weights,
    from_grid_array,
    save_snapshot,
    sobolev_norm_array,
    to_grid_array,
)

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
    geometry: TorusGeometry,
    coeffs: np.ndarray,
    t: float,
    params: ModelParams,
    gauge_shift: bool = False,
    work: tuple | None = None,
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


def _galerkin_work(geometry: TorusGeometry, shape: tuple) -> tuple:
    """Work buffers of the Galerkin substep for states of `shape`: box, grid
    and |u|^2 (on a dense box a pair of float64 grid planes) for
    `galerkin_rhs_array`, then the four RK4 slopes and the stage."""
    grid = shape[: len(shape) - geometry.d] + geometry.grid_shape
    planes = (2,) if geometry.dft is not None else ()
    box = [np.empty(shape, np.complex128) for _ in range(6)]
    return (box[0], np.empty(grid, np.complex128), np.empty(planes + grid), *box[1:])


@functools.lru_cache(maxsize=16)
def _real_dft(geometry: TorusGeometry, beta: float, gamma: float) -> tuple:
    """The real matrix pairs of the dense Galerkin stage, read-only.  The
    synthesis pair (2K x M each) takes the float64 view of the coefficients,
    (Re a_0, Im a_0, Re a_1, ..), to the real and the imaginary plane of
    c v, v the shifted grid values and c = scale sqrt(beta), so that the
    planes' squares sum to beta |u|^2.  The analysis pair (M x 2K each)
    takes the same planes, once scaled by e^{beta |u|^2}, to two products
    whose sum is the float64 view of the box coefficients of
    -2i gamma beta e^{beta |u|^2} u."""
    synthesis, analysis = geometry.dft
    s = geometry.scale * math.sqrt(beta) * synthesis
    g = -2j * gamma * math.sqrt(beta) / geometry.scale * analysis
    k, m = s.shape
    # rows 2k, 2k+1 of a synthesis matrix meet Re a_k, Im a_k; columns 2k,
    # 2k+1 of an analysis matrix make Re, Im of the k-th coefficient
    pairs = (
        np.stack([[s.real, s.imag], [-s.imag, s.real]], 2).reshape(2, 2 * k, m),
        np.stack([[g.real, -g.imag], [g.imag, g.real]], 3).reshape(2, m, 2 * k),
    )
    for pair in pairs:
        pair.flags.writeable = False
    return pairs


def galerkin_rhs_array(
    geometry: TorusGeometry, coeffs: np.ndarray, params: ModelParams, mask: np.ndarray | None,
    out: np.ndarray | None = None, work: tuple | None = None,
) -> np.ndarray:
    """-2i gamma beta P_N[e^{beta |P_N u|^2} P_N u] (`mask` None: P_N = 1), on
    the shifted grid, into `out` when given; the first three buffers of `work`
    (from `_galerkin_work`) are overwritten.  A dense box (`TorusGeometry.dft`)
    works in real arithmetic: the complex grid buffer holds the real and
    imaginary planes of `_real_dft`'s synthesis, and its analysis writes the
    float64 view of the result."""
    box, grid, absq = (work or _galerkin_work(geometry, coeffs.shape))[:3]
    coeffs = coeffs if mask is None else np.multiply(coeffs, mask, out=box)
    if geometry.dft is None:
        values = to_grid_array(geometry, coeffs, out=grid, shifted=True)
        np.square(np.abs(values, out=absq), out=absq)
        np.exp(np.multiply(params.beta * geometry.scale**2, absq, out=absq), out=absq)
        np.multiply(absq, values, out=values)
        conv = from_grid_array(geometry, values, out=box, shifted=True)
        conv = conv if mask is None else np.multiply(conv, mask, out=conv)
        return np.multiply(-2j * params.gamma * params.beta, conv, out=out)
    synthesis, analysis = _real_dft(geometry, params.beta, params.gamma)
    x = np.ascontiguousarray(coeffs, np.complex128).view(np.float64)
    planes = grid.view(np.float64).reshape(2, *grid.shape)
    for plane, matrix in zip(planes, synthesis):
        _dense(x, matrix, plane)
    absq, square = absq
    np.add(np.square(planes[0], out=absq), np.square(planes[1], out=square), out=absq)
    np.multiply(planes, np.exp(absq, out=absq), out=planes)
    conv = np.empty(coeffs.shape, np.complex128) if out is None else out
    dst = conv.view(np.float64)
    _dense(planes[0], analysis[0], dst)
    np.add(dst, _dense(planes[1], analysis[1], box.view(np.float64)), out=dst)
    return conv if mask is None else np.multiply(conv, mask, out=conv)


def galerkin_substep_array(
    geometry: TorusGeometry, coeffs: np.ndarray, t: float, params: ModelParams,
    substeps: int, mask: np.ndarray | None, work: tuple | None = None,
) -> np.ndarray:
    """Classical RK4 over `substeps` equal steps of `galerkin_rhs_array`.  The
    stages run in the buffers `work` of `_galerkin_work`, which a call
    overwrites; the result is always a fresh array."""
    work = work or _galerkin_work(geometry, coeffs.shape)
    k1, k2, k3, k4, stage = work[3:]
    h = t / substeps
    a = coeffs
    for _ in range(substeps):
        galerkin_rhs_array(geometry, a, params, mask, k1, work)
        for c, k, k_next in ((0.5 * h, k1, k2), (0.5 * h, k2, k3), (h, k3, k4)):
            np.add(a, np.multiply(c, k, out=stage), out=stage)
            galerkin_rhs_array(geometry, stage, params, mask, k_next, work)
        # a + (h/6)(((k1 + 2 k2) + 2 k3) + k4), summed in k1
        np.add(k1, np.multiply(2.0, k2, out=k2), out=k1)
        np.add(k1, np.multiply(2.0, k3, out=k3), out=k1)
        np.add(k1, k4, out=k1)
        a = a + np.multiply(h / 6.0, k1, out=k1)
    return a


def _flow_step(
    geometry: TorusGeometry, cfg: FlowConfig, mode: str, dt: float, coeffs: np.ndarray,
    gauge_shift: bool = False,
):
    """The macro step of `cfg` for states shaped like `coeffs`, after the
    pre-flight check that exp(beta |Pi_N u|^2) of `coeffs` is finite.  The
    linear phase factor and the substep's work buffers are made once, here."""
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
    phase = np.exp(-2j * (0.5 * dt if strang else dt) * omega)
    work = (_galerkin_work if mode == "galerkin" else _collocation_work)(geometry, coeffs.shape)

    def step(a: np.ndarray) -> np.ndarray:
        a = a * phase
        if mode == "collocation":
            a = collocation_phase_array(geometry, a, dt, p, gauge_shift, work)
        else:
            a = galerkin_substep_array(
                geometry, a, dt, p, cfg.nonlinear_substeps, mask, work
            )
        return a * phase if strang else a

    return step


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
    step = _flow_step(geometry, cfg, mode, dt, coeffs, gauge_shift)
    times = np.zeros(n_steps + 1)
    snaps = np.empty((-(-n_steps // cfg.store_every) + 1, *coeffs.shape), np.complex128)
    stored = []
    # diagnostics run over blocks of states with at most _BLOCK_BYTES of grid
    rows = _block_rows(16 * math.prod(geometry.grid_shape))
    block = np.empty((min(rows, n_steps + 1), *coeffs.shape), np.complex128)
    diags = {}
    for k in range(n_steps + 1):
        if k:
            coeffs = step(coeffs)
            times[k] = k * dt
        if k % cfg.store_every == 0 or k == n_steps:
            snaps[len(stored)] = coeffs
            stored.append(k)
        block[k % len(block)] = coeffs
        if k % len(block) == len(block) - 1 or k == n_steps:
            start = k - k % len(block)
            values = _block_diagnostics(geometry, block[: k - start + 1], cfg, mask)
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
    """Batched endpoint evolution (no trajectory storage); coeffs has shape
    (m, *box) and the same macro stepping as `evolve` is applied to all rows.
    Raises ValueError if any row of the endpoint is not finite."""
    dt = cfg.dt if cfg.t_final >= 0 else -cfg.dt
    n_steps = int(round(abs(cfg.t_final) / cfg.dt))
    a = np.array(coeffs, dtype=np.complex128)
    step = _flow_step(geometry, cfg, mode, dt, a)
    for _ in range(n_steps):
        a = step(a)
    # NaN and infinity persist under the flow, so the endpoint shows any overflow
    bad = ~np.isfinite(a).all(axis=geometry.axes)
    if bad.any():
        raise ValueError(
            f"the flow is not finite on {np.count_nonzero(bad)} of {bad.size} rows"
            f" by t = {n_steps * dt:g}"
        )
    return a


# ---------------------------------------------------------------------------
# structure checks
# ---------------------------------------------------------------------------


def liouville_check(
    params: ModelParams,
    dt: float,
    probe: np.ndarray,
    h: float = 1e-5,
    symbol: str = "bracket",
    substeps: int = 1,
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
    cfg = FlowConfig(
        params=params,
        dt=dt,
        t_final=dt,
        nonlinear_substeps=substeps,
        dispersion_symbol=symbol,
    )
    base = np.array(probe, np.complex128).ravel()
    macro_step = _flow_step(geometry, cfg, "galerkin", dt, probe)

    def step(x: np.ndarray) -> np.ndarray:
        a = base.copy()
        a[idx] = x[: idx.size] + 1j * x[idx.size :]
        a = a.reshape(geometry.box_shape)
        a = macro_step(a)
        flat = a.ravel()[idx]
        return np.concatenate([flat.real, flat.imag])

    x0 = np.concatenate([base[idx].real, base[idx].imag])
    jac = np.empty((dim, dim))
    for j in range(dim):
        hj = h * max(1.0, abs(x0[j]))
        xp = x0.copy()
        xm = x0.copy()
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
    u0: np.ndarray,
    cfg: FlowConfig,
    n_ladder: list,
    n_ref: int,
    s: float,
    mode: str = "galerkin",
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
        import os

        os.makedirs(snapshot_dir, exist_ok=True)
        for t, snap in zip(traj.snapshot_times, traj.snapshots):
            save_snapshot(snap, os.path.join(snapshot_dir, f"field_t{t:.6f}.gnls"))
