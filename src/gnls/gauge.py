"""Gauge transform and resonance decomposition on the circle (d = 1).

The gauge frequency G(u) = 2 gamma beta A[(1 + beta|u|^2) e^{beta|u|^2}]
(A = spatial mean) removes, order by order in beta, the self-interactions in
which a positive-sign input frequency collides with the output frequency.
At interaction order k the power nonlinearity splits as

    (|v|^{2k} - (k+1) A[|v|^{2k}]) v = N_{2k+1}(v) - R_{2k+1}(v),

where both multilinear forms run over frequency tuples (n_1, ..., n_{2k+1})
with alternating signs summing to the output frequency n_0.  N keeps the
tuples where no positive-sign slot equals n_0.  R collects the colliding
tuples: a tuple whose positive-sign slots hit n_0 exactly m >= 2 times is
counted with multiplicity m - 1, the unique weighting under which the
identity above closes (verified coefficientwise by `decomposition_check`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import FlowConfig, Trajectory, evolve, gauge_frequency
from .measures import ModelParams
from .spectral import to_grid_array

ENUMERATION_BUDGET = 10**8
_CHUNK = 1 << 21


class EnumerationBudgetError(RuntimeError):
    """Raised when a multilinear enumeration would exceed the tuple budget."""


@dataclass
class CoeffSequence:
    """Standard Fourier data u(x) = sum c_n e^{inx} on a sparse mode support.

    Conversion from the orthonormal-basis coefficients is c_n = (2pi)^(-1/2) a_n.
    """

    modes: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.modes = np.asarray(self.modes, dtype=int)
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.modes.shape != self.coeffs.shape or self.modes.ndim != 1:
            raise ValueError("modes and coeffs must be matching 1d arrays")
        order = np.argsort(self.modes)
        self.modes = self.modes[order]
        self.coeffs = self.coeffs[order]
        if len(np.unique(self.modes)) != len(self.modes):
            raise ValueError("duplicate modes")

    @classmethod
    def from_dict(cls, entries: dict) -> "CoeffSequence":
        return cls(np.array(list(entries.keys())), np.array(list(entries.values())))

    def get(self, n: int) -> complex:
        hit = np.flatnonzero(self.modes == n)
        return complex(self.coeffs[hit[0]]) if hit.size else 0.0

    def l1(self) -> float:
        return float(np.sum(np.abs(self.coeffs)))


@dataclass(frozen=True)
class MultilinearSpec:
    """Order-k interaction: 2k+1 inputs with signs iota_j = (-1)^(j+1)."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("interaction order k must be >= 1")

    @property
    def arity(self) -> int:
        return 2 * self.k + 1

    @property
    def signs(self) -> np.ndarray:
        """iota_1..iota_{2k+1}: +1 on odd slots, -1 on even slots."""
        return np.array([1 if j % 2 == 1 else -1 for j in range(1, self.arity + 1)])


# ---------------------------------------------------------------------------
# gauge functional
# ---------------------------------------------------------------------------


def gauge_value(coeffs: np.ndarray, params: ModelParams):
    """Closed-form gauge frequency G(u) = 2 gamma beta A[(1+beta|u|^2)e^{beta|u|^2}]
    of boxes of params.geometry: one value per leading batch row, a scalar for one box."""
    geometry = params.geometry
    absq = geometry.scale**2 * np.abs(to_grid_array(geometry, coeffs, shifted=True)) ** 2
    return np.squeeze(gauge_frequency(absq, params, geometry.axes), geometry.axes)[()]


# ---------------------------------------------------------------------------
# time quadrature and trajectory gauging
# ---------------------------------------------------------------------------


def cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral of uniformly sampled y: composite Simpson over
    interval pairs (even prefixes), one quadratic half-panel for odd
    prefixes; global accuracy O(h^4)."""
    y = np.asarray(y, dtype=float)
    n = y.size
    out = np.zeros(n)
    if n == 1:
        return out
    if n == 2:
        out[1] = 0.5 * h * (y[0] + y[1])
        return out
    # even prefixes: accumulate Simpson pairs (local error h^5)
    for i in range(2, n, 2):
        out[i] = out[i - 2] + h * (y[i - 2] + 4.0 * y[i - 1] + y[i]) / 3.0
    # odd prefixes: one half-panel of the quadratic through three nodes
    for i in range(1, n, 2):
        if i + 1 < n:
            out[i] = out[i - 1] + h * (5.0 * y[i - 1] + 8.0 * y[i] - y[i + 1]) / 12.0
        else:
            out[i] = out[i - 1] + h * (-y[i - 2] + 8.0 * y[i - 1] + 5.0 * y[i]) / 12.0
    return out


def apply_gauge(
    traj: Trajectory, params: ModelParams, direction: str = "forward"
) -> Trajectory:
    """Multiply each snapshot by exp(+-i int_0^t G(u) dt'), integrating the
    gauge frequency over the stored snapshots by composite Simpson.

    The initial snapshot is unchanged; every pointwise modulus is preserved
    since the factor is a spatially constant phase.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError("direction must be 'forward' or 'inverse'")
    ts = traj.snapshot_times
    if len(ts) > 1:
        steps = np.diff(ts)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise ValueError("apply_gauge requires uniform snapshot spacing")
        h = float(steps[0])
    else:
        h = 0.0
    phase = cumulative_simpson(gauge_value(traj.snapshots, params), abs(h))
    if h < 0:
        phase = -phase
    sign = 1.0 if direction == "forward" else -1.0
    factor = np.exp(1j * sign * phase).reshape(-1, *(1,) * params.geometry.d)
    return Trajectory(
        traj.times,
        traj.snapshots * factor,
        traj.snapshot_times,
        {k: v.copy() for k, v in traj.diagnostics.items()},
    )


# ---------------------------------------------------------------------------
# multilinear forms by exhaustive enumeration
# ---------------------------------------------------------------------------


def _enumerate(spec: MultilinearSpec, inputs: list, kind: str) -> CoeffSequence:
    arity = spec.arity
    if len(inputs) != arity:
        raise ValueError(f"expected {arity} inputs, got {len(inputs)}")
    sizes = [len(v.modes) for v in inputs]
    total = 1
    for s in sizes:
        total *= s
    if total > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"{total} tuples exceed the 1e8 enumeration budget"
        )
    signs = spec.signs
    mode_arrays = [v.modes for v in inputs]
    coeff_arrays = [
        v.coeffs if signs[j] == 1 else np.conj(v.coeffs)
        for j, v in enumerate(inputs)
    ]
    n_lo = -sum(int(np.abs(m).max()) for m in mode_arrays)
    n_hi = sum(int(np.abs(m).max()) for m in mode_arrays)
    out = np.zeros(n_hi - n_lo + 1, dtype=np.complex128)
    odd_slots = [j for j in range(arity) if signs[j] == 1]

    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        flat = np.arange(start, stop)
        multi = np.unravel_index(flat, sizes)
        n0 = np.zeros(stop - start, dtype=int)
        prod = np.ones(stop - start, dtype=np.complex128)
        ns = []
        for j in range(arity):
            nj = mode_arrays[j][multi[j]]
            ns.append(nj)
            n0 = n0 + signs[j] * nj
            prod = prod * coeff_arrays[j][multi[j]]
        m_res = np.zeros(stop - start, dtype=int)
        for j in odd_slots:
            m_res += ns[j] == n0
        if kind == "nonresonant":
            weight = (m_res == 0).astype(float)
        elif kind == "resonant":
            weight = np.maximum(m_res - 1, 0).astype(float)
        else:
            raise ValueError(f"unknown kind {kind!r}")
        np.add.at(out, n0 - n_lo, weight * prod)
    modes = np.arange(n_lo, n_hi + 1)
    keep = out != 0
    if not np.any(keep):
        return CoeffSequence(np.array([0]), np.array([0.0 + 0j]))
    return CoeffSequence(modes[keep], out[keep])


def multilinear_n(spec: MultilinearSpec, inputs: list) -> CoeffSequence:
    """Non-resonant form: tuples where no positive-sign slot equals n_0."""
    return _enumerate(spec, inputs, "nonresonant")


def multilinear_r(spec: MultilinearSpec, inputs: list) -> CoeffSequence:
    """Resonant form: tuples whose positive-sign slots hit n_0 m >= 2 times,
    counted with multiplicity m - 1 (see module docstring)."""
    return _enumerate(spec, inputs, "resonant")


# ---------------------------------------------------------------------------
# decomposition identity
# ---------------------------------------------------------------------------


def _conv(a_modes, a_coeffs, b_modes, b_coeffs):
    lo = int(a_modes.min() + b_modes.min())
    hi = int(a_modes.max() + b_modes.max())
    out = np.zeros(hi - lo + 1, dtype=np.complex128)
    for nb, cb in zip(b_modes, b_coeffs):
        np.add.at(out, a_modes + nb - lo, a_coeffs * cb)
    return np.arange(lo, hi + 1), out


@dataclass
class DecompositionReport:
    max_error: float
    relative_error: float
    scale: float


def decomposition_check(k: int, v: CoeffSequence) -> DecompositionReport:
    """Coefficientwise check of (|v|^{2k} - (k+1) A[|v|^{2k}]) v against
    N_{2k+1}(v) - R_{2k+1}(v); the left side is built by discrete convolution.
    """
    spec = MultilinearSpec(k)
    scale = max(v.l1(), 1e-30) ** (2 * k + 1)
    # coefficients of |v|^2: conv(c, reversed conj c)
    m2_modes, m2 = _conv(v.modes, v.coeffs, -v.modes, np.conj(v.coeffs))
    p_modes, p = m2_modes, m2
    for _ in range(k - 1):
        p_modes, p = _conv(p_modes, p, m2_modes, m2)
    mean_pow = p[np.flatnonzero(p_modes == 0)[0]]
    lhs_modes, lhs = _conv(p_modes, p, v.modes, v.coeffs)
    for n, c in zip(v.modes, v.coeffs):
        lhs[np.flatnonzero(lhs_modes == n)[0]] -= (k + 1) * mean_pow * c
    nn = multilinear_n(spec, [v] * spec.arity)
    rr = multilinear_r(spec, [v] * spec.arity)
    lo = min(lhs_modes.min(), nn.modes.min(), rr.modes.min())
    hi = max(lhs_modes.max(), nn.modes.max(), rr.modes.max())
    grid = np.arange(lo, hi + 1)
    acc = np.zeros(grid.size, dtype=np.complex128)
    acc[lhs_modes - lo] += lhs
    acc[nn.modes - lo] -= nn.coeffs
    acc[rr.modes - lo] += rr.coeffs
    err = float(np.max(np.abs(acc))) if acc.size else 0.0
    return DecompositionReport(err, err / scale, scale)


# ---------------------------------------------------------------------------
# gauged flow equivalence
# ---------------------------------------------------------------------------


@dataclass
class EquivalenceReport:
    sup_discrepancy: float
    times: np.ndarray
    discrepancies: np.ndarray


def gauged_flow_equivalence(
    u0: np.ndarray, cfg: FlowConfig, t_horizon: float
) -> EquivalenceReport:
    """Integrate the plain flow, gauge it, and independently integrate the
    gauged equation (gauge frequency as an extra exact phase substep); the
    report holds sup_t || v - G(u) ||_{L^2}."""
    from dataclasses import replace

    run_cfg = replace(cfg, t_final=t_horizon)
    plain = evolve(u0, run_cfg, mode="collocation")
    gauged_ref = apply_gauge(plain, cfg.params, "forward")
    gauged_run = evolve(u0, run_cfg, mode="collocation", gauge_shift=True)
    diff = gauged_run.snapshots - gauged_ref.snapshots
    diffs = np.linalg.norm(diff, axis=cfg.params.geometry.axes)  # one per snapshot
    return EquivalenceReport(float(diffs.max()), gauged_ref.snapshot_times, diffs)
