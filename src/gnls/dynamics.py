"""Split-step integration of the exponential NLS and its spectral truncation.

The integrated system is the canonical flow of the energy

    E(u) = sum_n w_n |a_n|^2 + gamma V_beta(u),      w_n = <n>^alpha or |n|^alpha,

whose exponential exp(-E) is exactly the density of the reweighted Gaussian
ensemble (mode variance <n>^(-alpha), weight exp(-gamma V_beta)).  In mode
coordinates the equations read da_n/dt = -2i dE/d(conj a_n): the linear part
R(t) rotates each mode by exp(-2i t w_n), the nonlinear part N(t) integrates
-2i gamma beta P_N[e^{beta |P_N u|^2} P_N u].  E and the mass are conserved,
the flow preserves phase-space volume, and the weighted ensemble is invariant;
any other relative normalization of the two parts conserves a different
quadratic/potential combination and visibly breaks the invariance harness.

* collocation mode: N(t) rotates u by exp(-2i gamma beta t e^{beta |u|^2}) on the grid.
* galerkin mode: the projector destroys pointwise modulus conservation, so
  N(t) is classical RK4, whose k1 + 2 k2 + 2 k3 + k4 is one `einsum`; modes
  above the cutoff are untouched.  On a d = 1 box with `plane_basis` B the
  flow runs on plane pairs (`spectral.fold_planes`): the grid planes are one
  product with B, the right-hand side one with B^T (both with the mask and
  the constants folded in), R rotates each column.  beta |u|^2 is a square
  and an add below _SQUARE_ROWS rows, else one `einsum`, with the same bits
  (README times both).  `_dense` runs the two products in stacked items of
  at most 2^18 multiply-adds, 2^18 // (K M) plane rows (220 at N = 8, 60 at
  N = 16): OpenBLAS runs an item that small on the calling thread, so it
  never starts BLAS threads beside the ensemble's own, and it rounds a
  one-row product (a gemv) differently, so a lone row is computed as two.
  A row's bits then do not depend on its batch, except in the analysis,
  (2n, M) @ B^T, which rounds a row by its position (measured at N = 4 to
  28, all but N = 10): in an ensemble a row's bits may depend on its
  position in its fixed 1024-row chunk, never on the thread count.

A Galerkin flow keeps its work in one `_Galerkin` record, built once for a
state shape and an RK4 step h: the two operators and their product (None
without planes, where the grid is complex); the grid planes and their
two-plane view; |u|^2 and, below _SQUARE_ROWS rows, the squares' buffer;
the slopes, their sum and the stage, views of one buffer shaped like the
state; the turned slopes (planes reversed) and the flat rows the `einsum`
reads; the RK4 factors (h/2, h, h/6) times the turn's signs (1, -1), zipped
into the stages.  A step of a lone row makes no view.

Every flow has one step shape (`_flow_step`): consecutive Strang steps
R(dt/2) N(dt) R(dt/2) merge their inner half phases, so the first step is
R(dt/2) N(dt), each later one R(dt) N(dt), and `close` applies the last
R(dt/2) and unfolds, once at the end of `evolve_ensemble` and once per
diagnostics block of unclosed states in `evolve`.  Strang is second order;
Lie steps R(dt) N(dt), for order checks.  Both modes commute with
conjugation reversing time, conj o Phi_h o conj = Phi_{-h}, with a constant
phase and with grid translations, to rounding.  Galerkin mode is reversible,
Phi_T o conj o Phi_T o conj = id, up to RK4's order-4 defect; collocation mode
is not (1.4e-6 at dt 0.01, T 0.2, beta 0.3), because its substep truncates
the rotated grid values back to the box.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .measures import ModelParams, kinetic_sum_array, mass_array, potential_array
from .spectral import (TorusGeometry, _block_rows, dispersion_weights, fold_planes,
                       from_grid_array, save_snapshot, sobolev_norm_array, to_grid_array,
                       unfold_planes)

SYMBOLS = ("bracket", "pure")
SCHEMES = ("strang", "lie")
MODES = ("galerkin", "collocation")
_SQUARE_ROWS = 96  # see the module docstring
_GEMM_SIZE = 1 << 18  # the most multiply-adds of one plane product item
_RK4_WEIGHTS = np.array([1.0, 2.0, 2.0, 1.0])


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


def _dense(x: np.ndarray, matrix: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x @ matrix over the last axis of float64 operands, into the
    C-contiguous `out`, as stacked products of at most _GEMM_SIZE
    multiply-adds each and never of one row (np.dot's bits on one item)."""
    flat, dst = x.reshape(-1, len(matrix)), out.reshape(-1, matrix.shape[1])
    n, rows = len(flat), _GEMM_SIZE // matrix.size
    full = n - n % rows
    if full:
        np.matmul(flat[:full].reshape(-1, rows, len(matrix)), matrix,
                  out=dst[:full].reshape(-1, rows, dst.shape[1]))
    if n - full == 1:
        dst[full:] = np.matmul(flat[full:].repeat(2, axis=0), matrix)[:1]
    elif n > full:
        np.matmul(flat[full:], matrix, out=dst[full:])
    return out


class _Galerkin:
    """The Galerkin substep's work for states of `shape` and RK4 steps of h,
    made once per flow (the module docstring describes the fields)."""

    def __init__(self, geometry: TorusGeometry, shape: tuple, params: ModelParams, mask,
                 h: float = 0.0) -> None:
        batch, plane = shape[: len(shape) - geometry.d], geometry.plane_basis is not None
        box = np.empty((6, 2, *shape)) if plane else np.empty((6, *shape), np.complex128)
        self.slopes, self.total, self.stage = tuple(box[:4]), box[4], box[5]
        self.turns = tuple(k[::-1] if plane else k for k in box[:5])  # k -> (k1, k0)
        flat = box.view(np.float64).reshape(6, -1)  # the rows the `einsum` reads
        self.flat_slopes, self.flat_total = flat[:4], flat[4]
        sign = np.array([1.0, -1.0]).reshape(2, *[1] * len(shape)) if plane else 1.0
        self.h = h
        half, full, self.sixth = np.multiply.outer((0.5 * h, h, h / 6.0), sign)
        self.stages = tuple(zip((half, half, full), self.turns, self.slopes[1:]))  # to k2..k4
        self.synthesis = self.analysis = self.product = self.planes = self.squares = None
        if not plane:
            self.grid = np.empty(batch + geometry.grid_shape, np.complex128)
            self.absq = np.empty(self.grid.shape)
            return
        (basis, transpose), root, m = geometry.plane_basis, math.sqrt(params.beta), geometry.m_grid
        cut = np.broadcast_to(1.0 if mask is None else mask, len(basis))
        self.grid, self.absq = np.empty((2 * math.prod(batch), m)), np.empty(batch + (m,))
        self.planes = self.grid.reshape(2, *self.absq.shape)
        self.synthesis = (geometry.scale * root * cut)[:, None] * basis
        self.analysis = transpose * (2.0 * params.gamma * root / (geometry.scale * m) * cut)
        self.product = np.dot if self.grid.size * len(basis) <= _GEMM_SIZE else _dense
        if len(self.grid) < 2 * _SQUARE_ROWS:
            self.squares = (squares := np.empty(self.planes.shape), *squares)  # with its planes


def galerkin_rhs_array(
    geometry: TorusGeometry, coeffs: np.ndarray, params: ModelParams, mask: np.ndarray | None,
    out: np.ndarray | None = None, work: _Galerkin | None = None,
) -> np.ndarray:
    """-2i gamma beta P_N[e^{beta |P_N u|^2} P_N u] (`mask` None: P_N = 1), into
    `out` when given, in `work` (a `_Galerkin`; a call overwrites its grid and
    |u|^2).  On a box with `plane_basis` the state is float64 planes
    (`fold_planes`; else TypeError) and the result the planes G whose turn
    (G1, -G0) is the derivative: the 2n planes times c P_N B are the grid
    planes of sqrt(beta) u, which scaled by e^{beta |u|^2} and times
    B^T kappa P_N give G; a batch's `out` must be C-contiguous (ValueError)."""
    if work is None:
        if (plane := geometry.plane_basis is not None) and coeffs.dtype != np.float64:
            raise TypeError("on a box with `plane_basis` the state is float64 planes (fold_planes)")
        work = _Galerkin(geometry, coeffs.shape[1:] if plane else coeffs.shape, params, mask)
    out = np.empty(coeffs.shape, complex if work.product is None else float) if out is None else out
    if work.product is None:
        coeffs = coeffs if mask is None else np.multiply(coeffs, mask, out=out)
        values = to_grid_array(geometry, coeffs, out=work.grid, shifted=True)
        absq = np.square(np.abs(values, out=work.absq), out=work.absq)
        np.exp(np.multiply(params.beta * geometry.scale**2, absq, out=absq), out=absq)
        np.multiply(absq, values, out=values)
        conv = from_grid_array(geometry, values, out=out, shifted=True)
        conv = conv if mask is None else np.multiply(conv, mask, out=conv)
        return np.multiply(-2j * params.gamma * params.beta, conv, out=out)
    x, g = coeffs, out
    if coeffs.ndim > 2:  # a batch: the products read (2n, K) rows
        if not out.flags.c_contiguous:  # its rows would be a copy
            raise ValueError("a plane pair's `out` must be C-contiguous")
        x, g = coeffs.reshape(len(work.grid), -1), out.reshape(len(work.grid), -1)
    grid, planes, absq, squares = work.grid, work.planes, work.absq, work.squares
    work.product(x, work.synthesis, grid)
    if squares is None:  # planes[0]**2 + planes[1]**2, as the square and add below
        np.einsum("i...,i...->...", planes, planes, out=absq)
    else:
        np.square(planes, out=squares[0])
        np.add(squares[1], squares[2], out=absq)
    np.multiply(planes, np.exp(absq, out=absq), out=planes)
    work.product(grid, work.analysis, g)
    return out


def _rk4(geometry: TorusGeometry, a: np.ndarray, params: ModelParams, substeps: int,
         mask: np.ndarray | None, work: _Galerkin) -> np.ndarray:
    """Classical RK4 over `substeps` steps of `work`'s h, in place on the state
    `a`; the slopes combine as float64 (a complex product with a real factor
    would let a non-finite entry spoil another row), their sum in one
    `einsum` with the bits of ((k1 + 2 k2) + 2 k3) + k4."""
    k1, xs, turn = work.slopes[0], work.stage, work.turns[4]
    for _ in range(substeps):
        galerkin_rhs_array(geometry, a, params, mask, k1, work)
        for c, x, k_next in work.stages:
            np.add(a, np.multiply(c, x, out=xs), out=xs)
            galerkin_rhs_array(geometry, xs, params, mask, k_next, work)
        np.einsum("i,i...->...", _RK4_WEIGHTS, work.flat_slopes, out=work.flat_total)
        np.add(a, np.multiply(work.sixth, turn, out=xs), out=a)
    return a


def galerkin_substep_array(
    geometry: TorusGeometry, coeffs: np.ndarray, t: float, params: ModelParams,
    substeps: int, mask: np.ndarray | None, work: _Galerkin | None = None,
) -> np.ndarray:
    """Classical RK4 over `substeps` equal steps of `galerkin_rhs_array`, from
    box coefficients to a fresh array of them, in `work` (a `_Galerkin` for
    steps of t / substeps, else ValueError); on a box with `plane_basis` it
    runs on the planes and returns the modes outside `mask` as given."""
    work = work or _Galerkin(geometry, coeffs.shape, params, mask, t / substeps)
    if work.h != t / substeps:
        raise ValueError(f"`work` steps by {work.h:g}, not t / substeps = {t / substeps:g}")
    if work.product is None:
        return _rk4(geometry, np.array(coeffs, np.complex128), params, substeps, mask, work)
    planes = _rk4(geometry, fold_planes(geometry, coeffs), params, substeps, mask, work)
    return np.where(True if mask is None else mask, unfold_planes(geometry, planes), coeffs)


def _flow_step(
    geometry: TorusGeometry, cfg: FlowConfig, mode: str, dt: float, coeffs: np.ndarray,
    gauge_shift: bool = False,
):
    """(fold, step, close) for states shaped like `coeffs`, made once after
    the pre-flight check that exp(beta |Pi_N u|^2) of `coeffs` is finite.
    `fold` makes a state of box coefficients (in Galerkin mode on a box with
    `plane_basis` their planes, else a copy); `step(a, first)` applies
    R(dt/2), later R(dt) (Lie: always R(dt)), then N(dt), in place where it
    can; `close(a, out)` applies R(dt/2) in place (Lie: nothing) and unfolds."""
    p = cfg.params
    mask = geometry.euclid_mask(p.n_cut)
    absq = geometry.scale**2 * np.abs(to_grid_array(geometry, coeffs * mask, shifted=True)) ** 2
    peak, limit = p.beta * float(np.max(absq, initial=0.0)), math.log(np.finfo(float).max)
    if peak > limit:
        raise ValueError(f"beta max|Pi_N u0|^2 = {peak:.6g} exceeds the exp limit {limit:.6g}")
    mask = None if mask.all() else mask  # P_N = 1 on the box, as in d = 1 at n_cut = n_max
    omega = dispersion_weights(geometry, p.alpha, cfg.dispersion_symbol)
    strang = cfg.scheme == "strang"
    half, full = (np.exp(-2j * tau * omega) for tau in (0.5 * dt, dt))
    work = (_Galerkin(geometry, coeffs.shape, p, mask, dt / cfg.nonlinear_substeps)
            if mode == "galerkin" else _collocation_work(geometry, coeffs.shape))
    if mode == "collocation" or geometry.plane_basis is None:
        fold, unfold = (lambda a: np.array(a, np.complex128)), None
        rotate = advance = lambda a, phase=full: np.multiply(a, phase, out=a)
    else:
        fold, unfold = functools.partial(fold_planes, geometry), unfold_planes
        # (c + i s)(X0 + i X1) = (c X0 - s X1) + i (s X0 + c X1) per column, in place
        rows = np.broadcast_to(full, coeffs.shape)  # R(dt) laid out: half the cost
        cos, turn = rows.real.copy(), np.multiply.outer([1.0, -1.0], rows.imag)

        def rotate(a: np.ndarray, phase: np.ndarray) -> np.ndarray:
            sin = np.multiply.outer([-1.0, 1.0], phase.imag).reshape(2, *[1] * (a.ndim - 2), -1)
            return np.add(a * phase.real, a[::-1] * sin, out=a)

        def advance(a: np.ndarray) -> np.ndarray:  # in k1, k2 = (-s X1, s X0), written turned
            np.multiply(a, turn, out=work.turns[1])
            return np.add(np.multiply(a, cos, out=work.slopes[0]), work.slopes[1], out=a)

    def step(a: np.ndarray, first: bool) -> np.ndarray:
        a = rotate(a, half if strang else full) if first else advance(a)
        if mode == "collocation":
            return collocation_phase_array(geometry, a, dt, p, gauge_shift, work)
        return _rk4(geometry, a, p, cfg.nonlinear_substeps, mask, work)

    def close(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        a = rotate(a, half) if strang else a
        return a if unfold is None else unfold(geometry, a, out)

    return fold, step, close


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


def _block_diagnostics(geometry: TorusGeometry, block: np.ndarray, cfg: FlowConfig) -> dict:
    p = cfg.params
    v = potential_array(geometry, block * geometry.euclid_mask(p.n_cut), p.beta)
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
    coeffs = np.array(u0, np.complex128)
    fold, step, close = _flow_step(geometry, cfg, mode, dt, coeffs, gauge_shift)
    state = fold(coeffs)
    times = np.arange(n_steps + 1) * dt + 0.0  # + 0.0: a backward run starts at +0.0 too
    snaps = np.empty((-(-n_steps // cfg.store_every) + 1, *coeffs.shape), np.complex128)
    stored = []
    # blocks of unclosed states with at most _BLOCK_BYTES of grid are closed and stored at once
    rows = _block_rows(16 * math.prod(geometry.grid_shape))
    size = (min(rows, n_steps + 1), *coeffs.shape)  # a block of planes is planes (2, *size)
    block = np.zeros((2, *size)) if state.ndim > coeffs.ndim else np.zeros(size, np.complex128)
    closed, stack = np.empty(size, np.complex128), block.reshape(-1, *size)  # (2 or 1, *size)
    diags = {}
    for k in range(n_steps + 1):
        if k:
            state = step(state, k == 1)
        stack[:, k % rows] = state
        if k % rows == rows - 1 or k == n_steps:
            start = k - k % rows
            states = close(block, closed)[: k - start + 1]
            if not start:
                states[0] = coeffs  # the start itself, not the round trip of its fold
            keep = [j for j in range(start, k + 1) if j % cfg.store_every == 0 or j == n_steps]
            snaps[len(stored) : len(stored) + len(keep)] = states[[j - start for j in keep]]
            stored += keep
            values = _block_diagnostics(geometry, states, cfg)
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
    steps of `evolve`, closed once at the end.  Raises ValueError if any row
    of the endpoint is not finite."""
    dt = cfg.dt if cfg.t_final >= 0 else -cfg.dt
    n_steps = int(round(abs(cfg.t_final) / cfg.dt))
    a = np.array(coeffs, dtype=np.complex128)
    fold, step, close = _flow_step(geometry, cfg, mode, dt, a)
    state = fold(a)
    for k in range(n_steps):
        state = step(state, k == 0)
    a = close(state) if n_steps else a  # no step, no closing half phase
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
    idx = np.flatnonzero(geometry.euclid_mask(params.n_cut).ravel())
    dim = 2 * idx.size
    if dim > 20:
        raise ValueError(f"phase-space dimension {dim} exceeds the cap of 20")
    cfg = FlowConfig(params, dt, dt, nonlinear_substeps=substeps, dispersion_symbol=symbol)
    base = np.array(probe, np.complex128).ravel()
    fold, macro_step, close = _flow_step(geometry, cfg, "galerkin", dt, probe)

    def step(x: np.ndarray) -> np.ndarray:
        a = base.copy()
        a[idx] = x[: idx.size] + 1j * x[idx.size :]
        a = close(macro_step(fold(a.reshape(geometry.box_shape)), True))
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
    ref = evolve(u0, replace(cfg, params=replace(cfg.params, n_cut=n_ref)), mode).snapshots
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
    first = ["mass", "hamiltonian", "potential"]
    ordered = first + [n for n in traj.diagnostics if n not in first]
    cols = [traj.times] + [traj.diagnostics[n] for n in ordered]
    row = ",".join(["%.17g"] * len(cols)) + "\r\n"  # the bytes of csv.writer, a row at a time
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["t"] + ordered) + "\r\n")
        # floats from tolist format as np.float64 does; one block's string lives at a time
        for lo in range(0, len(traj.times), 256):
            fh.write("".join(row % r for r in zip(*(c[lo : lo + 256].tolist() for c in cols))))
    if snapshot_dir is not None:
        os.makedirs(snapshot_dir, exist_ok=True)
        for t, snap in zip(traj.snapshot_times, traj.snapshots):
            save_snapshot(snap, os.path.join(snapshot_dir, f"field_t{t:.6f}.gnls"))
