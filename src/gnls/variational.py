"""Focusing non-normalizability experiments (d = 1).

The partition function of the focusing Gibbs measure is probed two ways:

* directly, by Monte-Carlo over the Gaussian measure of the clipped weight
  exp(-gamma min(V_beta, L)) under a mass cutoff, scanned over the clip L;
* variationally, by evaluating the drifted objective
  gamma min(V_beta(Y(1) + Theta_N), L) 1{||Y(1)+Theta_N|| <= K} + drift cost
  with Theta_N = -Z_N(1) + eta f_N, where Z_N is the per-mode OU smoothing of
  the Brownian lift of the Gaussian field and f_N is a real bump supported on
  the frequency annulus (N, 2N] with unit-order L^2 mass and an N^(1/2) peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import (
    ModelParams,
    RngStream,
    _projected,
    kinetic_sum_array,
    potential_array,
    sample_gaussian_coeffs,
    weighted_mean_stderr,
)
from .spectral import (
    TorusGeometry,
    TWO_PI,
    _block_rows,
    sobolev_norm_array,
    to_grid_array,
)


# ---------------------------------------------------------------------------
# bump fields
# ---------------------------------------------------------------------------


def bump_coeffs(geometry: TorusGeometry, n_scale: int, x0: float) -> np.ndarray:
    """Orthonormal-basis coefficients of the bump: a_m = (2 pi N)^(-1/2) e^{-i m x0}
    on N < |m| <= 2N, zero elsewhere."""
    if geometry.d != 1:
        raise ValueError("bump fields are d=1 only")
    if n_scale < 1:
        raise ValueError("bump scale must be >= 1")
    if geometry.n_max < 2 * n_scale:
        raise ValueError("geometry must retain modes up to 2N")
    m = geometry.modes
    ann = (np.abs(m) > n_scale) & (np.abs(m) <= 2 * n_scale)
    amp = 1.0 / math.sqrt(TWO_PI * n_scale)
    return np.where(ann, amp * np.exp(-1j * m * x0), 0.0)


@dataclass
class BumpScan:
    n_values: np.ndarray
    l2_sq: np.ndarray
    sup_norm: np.ndarray
    sobolev: dict  # s -> array of H^s norms
    sup_exponent: float
    sobolev_ratio: dict  # s -> array ||f_N||_{H^s} / N^s
    near_peak_min: np.ndarray  # min f_N / sqrt(N) within |x-x0| <= 0.1/N


def bump_norm_scan(
    n_ladder: list, s_list: list, x0: float = 0.0, oversampling: float = 8.0
) -> BumpScan:
    """Measure ||f_N||_{L^2}^2, ||f_N||_inf, ||f_N||_{H^s} over a ladder of N
    and fit the sup-norm growth exponent; also record the lower bound of
    f_N / sqrt(N) near the center (the concentration estimate)."""
    n_ladder = sorted(int(n) for n in n_ladder)
    l2_sq, sup, near = [], [], []
    sob = {s: [] for s in s_list}
    for n in n_ladder:
        geo = TorusGeometry(d=1, n_max=2 * n, oversampling=oversampling)
        bump = bump_coeffs(geo, n, x0)
        l2_sq.append(float(np.sum(np.abs(bump) ** 2)))
        values = to_grid_array(geo, bump)
        sup.append(float(np.max(np.abs(values.real))))
        for s in s_list:
            sob[s].append(float(sobolev_norm_array(geo, bump, s)))
        x = geo.x
        dist = np.abs((x - x0 + math.pi) % TWO_PI - math.pi)
        nearby = dist <= 0.1 / n
        if not np.any(nearby):
            nearby = dist <= np.min(dist) + 1e-12
        near.append(float(np.min(values.real[nearby]) / math.sqrt(n)))
    n_arr = np.asarray(n_ladder, dtype=float)
    sup_arr = np.asarray(sup)
    exponent = float(np.polyfit(np.log(n_arr), np.log(sup_arr), 1)[0])
    ratios = {s: np.asarray(sob[s]) / n_arr**s for s in s_list}
    return BumpScan(
        n_arr,
        np.asarray(l2_sq),
        sup_arr,
        {s: np.asarray(v) for s, v in sob.items()},
        exponent,
        ratios,
        np.asarray(near),
    )


# ---------------------------------------------------------------------------
# OU drift paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VariationalConfig:
    """Drift experiment parameters: mass cutoff K, potential clip L, bump
    amplitude eta, SDE step dt_sde (None: stability rule), ensemble size m."""

    params: ModelParams
    k_mass: float
    l_clip: float
    eta: float
    m: int
    dt_sde: float | None = None
    x0: float = 0.0

    def __post_init__(self) -> None:
        if min(self.k_mass, self.l_clip, self.eta) <= 0:
            raise ValueError("K, L and eta must be positive")


def ou_rates(params: ModelParams) -> np.ndarray:
    """Per-mode relaxation rates a_n = <n>^(-alpha/2) N^(alpha/2)."""
    geo = params.geometry
    return geo.bracket(-params.alpha / 2.0) * params.n_cut ** (params.alpha / 2.0)


def stability_dt(params: ModelParams, safety: float = 10.0, cap: float = 1e-3) -> float:
    """Euler-Maruyama step tied to the fastest OU rate: min_n (10 a_n)^(-1),
    capped at 1e-3."""
    a_max = float(np.max(ou_rates(params)))
    return min(cap, 1.0 / (safety * a_max))


def _exact_gap(params: ModelParams, active: np.ndarray) -> np.ndarray:
    """c_n^2 (1 - e^{-2 a_n}) / (2 a_n) on the active modes: the time-1
    variance of X = cB - Z, an OU process driven by c dB, by Ito isometry."""
    c2 = params.geometry.bracket(-params.alpha)[active]
    a = ou_rates(params)[active]
    return c2 * -np.expm1(-2.0 * a) / (2.0 * a)


def ou_gap_oracle(params: ModelParams) -> float:
    """Ito-isometry closed form for E|Y(1,x) - Z_N(1,x)|^2 (x-independent):
    (2pi)^(-1) [ sum_{|n|<=N} <n>^(-alpha) (1-e^{-2 a_n}) / (2 a_n)
               + sum_{N<|n|<=n_max} <n>^(-alpha) ]."""
    geo = params.geometry
    if geo.d != 1:
        raise ValueError("d=1 only")
    active = np.abs(geo.modes) <= params.n_cut
    inner = np.sum(_exact_gap(params, active))
    outer = np.sum(geo.bracket(-params.alpha)[~active])
    return float(inner + outer) / TWO_PI


def _euler_moments(params: ModelParams, dt: float):
    """Second moments of the K = round(1/dt) step Euler-Maruyama chain of
    (B_n, Z_{N,n}) from B = Z = 0, with h = 1/K,

        Z_{k+1} = (1 - h a) Z_k + h a c B_k,   B_{k+1} = B_k + sqrt(h/2) (g + i g'),

    c = <n>^(-alpha/2), a the `ou_rates` and g, g' standard normal, per
    active mode |n| <= N: (sbb, sbz, szz) = (E|B_n(1)|^2, E B_n(1)
    conj(Z_n(1)), E|Z_n(1)|^2), all real, and the exact expected path cost
    E sum_k dt sum_n <n>^alpha |dZ_{n,k}/dt|^2 with dZ_k = a (c B_k - Z_k) dt,
    from the moments at the start of each step.  One step of the chain maps
    x = (szz, sbz, sbb, gap_sum, 1) linearly, gap_sum accumulating the gap
    variance c^2 sbb - 2c sbz + szz at the start of each step, so x(1) is the
    last column of the K-th power of that 5 x 5 map, per mode: about
    2 log2 K products instead of K steps.  Raises ValueError for a step the
    chain cannot take: |1 - dt a_n| >= 1 on some mode, or a joint law whose
    conditional variance szz - sbz^2/sbb is negative."""
    geo = params.geometry
    active = np.abs(geo.modes) <= params.n_cut
    c = geo.bracket(-params.alpha / 2.0)[active]
    a = ou_rates(params)[active]
    steps = int(round(1.0 / dt))
    bound = 2.0 / float(np.max(a))
    if steps < 1 or 1.0 / steps >= bound:
        raise ValueError(
            f"dt_sde {dt:g} is not a stable Euler OU step: 1/round(1/dt_sde) "
            f"must lie in (0, 2/max a_n) = (0, {bound:g})"
        )
    h = 1.0 / steps
    k_decay, k_drive = 1.0 - h * a, h * a * c
    step = np.zeros((a.size, 5, 5))
    step[:, 0, :3] = np.stack([k_decay**2, 2.0 * k_decay * k_drive, k_drive**2], axis=1)
    step[:, 1, 1:3] = np.stack([k_decay, k_drive], axis=1)
    step[:, 2, 2] = step[:, 3, 3] = step[:, 3, 0] = step[:, 4, 4] = 1.0
    step[:, 2, 4] = h
    step[:, 3, 1:3] = np.stack([-2.0 * c, c**2], axis=1)
    szz, sbz, sbb, gap_sum, _ = np.linalg.matrix_power(step, steps)[:, :, 4].T
    if np.any(szz - sbz**2 / sbb < 0.0):
        raise ValueError(
            f"dt_sde {dt:g}: the Euler OU endpoint law has a negative "
            f"conditional variance szz - sbz^2/sbb"
        )
    w = geo.bracket(params.alpha)[active]
    cost = h * float(np.sum(w * a**2 * gap_sum))
    return sbb, sbz, szz, cost


def ou_gap_variance(params: ModelParams, dt: float, scheme: str) -> np.ndarray:
    """Variance v_n of the gap <n>^(-alpha/2) B_n(1) - Z_{N,n}(1) ~ CN(0, v_n)
    over the box.  'euler': from the second moments of the K = round(1/dt)
    step Euler chain (`_euler_moments`).  'exact': the exact
    steps of X = cB - Z, an OU process driven by c dB, compose to its exact
    time-1 law, c^2 (1 - e^{-2a}) / (2a) whatever the step, so dt is
    ignored.  Spectators keep <n>^(-alpha)."""
    if scheme not in ("euler", "exact"):
        raise ValueError(f"unknown scheme {scheme!r}")
    geo = params.geometry
    active = np.abs(geo.modes) <= params.n_cut
    if scheme == "euler":
        c = geo.bracket(-params.alpha / 2.0)[active]
        sbb, sbz, szz, _ = _euler_moments(params, dt)
        gap = c**2 * sbb - 2.0 * c * sbz + szz
    else:
        gap = _exact_gap(params, active)
    v = geo.bracket(-params.alpha)
    v[active] = gap
    return v


def simulate_ou_gap(
    params: ModelParams, m: int, rng: RngStream, dt: float | None = None, scheme: str = "euler"
) -> np.ndarray:
    """Per-sample spatial mean of |Y(1,x) - Z_N(1,x)|^2, i.e. the Parseval
    sum (2pi)^(-1) sum_n |<n>^(-alpha/2) B_n(1) - Z_{N,n}(1)|^2 over the
    retained box, drawn from the endpoint law of the chosen scheme (see
    `ou_gap_variance`): the Euler chain's, from its matrix-power moments, or
    for 'exact' the closed-form time-1 law, which ignores dt and whose
    expectation is `ou_gap_oracle`."""
    v = ou_gap_variance(params, dt if dt is not None else stability_dt(params), scheme)
    gen = rng.generator()
    n = v.size
    g2 = gen.standard_normal((m, n)) ** 2 + gen.standard_normal((m, n)) ** 2
    return (g2 @ (0.5 * v)) / TWO_PI


# ---------------------------------------------------------------------------
# drifted objective and divergence scan
# ---------------------------------------------------------------------------


def _complex_normal(gen: np.random.Generator, shape: tuple) -> np.ndarray:
    """CN(0, 1) draws, real and imaginary parts interleaved in one buffer."""
    g = gen.standard_normal((*shape, 2)).view(np.complex128)[..., 0]
    g *= math.sqrt(0.5)
    return g


def _active_slice(params: ModelParams) -> slice:
    """The drift modes |n| <= N as a slice of the d = 1 box."""
    lo = params.geometry.n_max - params.n_cut
    return slice(lo, lo + 2 * params.n_cut + 1)


def _draw_endpoints(params: ModelParams, dt: float, gen: np.random.Generator, m: int):
    """(B(1), Z_N(1)) of the Euler chain of `_euler_moments`, drawn in one shot
    from its endpoint law: per active mode b = sqrt(sbb) g1 and
    z = (sbz / sqrt(sbb)) g1 + sqrt(szz - sbz^2 / sbb) g2 for independent
    CN(0, 1) g1, g2 and the moments of `_euler_moments` (a matrix power, not
    K steps); the spectators' B(1) is CN(0, 1).  Returns (b over the box,
    z on `_active_slice`, the expected path cost)."""
    sbb, sbz, szz, cost = _euler_moments(params, dt)
    act = _active_slice(params)
    b = _complex_normal(gen, (m, params.geometry.modes.size))
    z = _complex_normal(gen, (m, sbb.size))
    root = np.sqrt(sbb)
    z *= np.sqrt(szz - sbz**2 / sbb)
    z += (sbz / root) * b[:, act]
    b[:, act] *= root
    return b, z, cost


@dataclass
class ObjectiveReport:
    """`objective_estimate`'s result: the Monte-Carlo mean and standard error
    of the objective, the frequency of the mass indicator, the drift cost
    (an exact expectation, the same for every sample) and the mean of the
    clipped potential under the indicator."""

    estimate: float
    stderr: float
    indicator_freq: float
    mean_cost: float
    mean_clipped_potential: float


def objective_estimate(config: VariationalConfig, rng: RngStream) -> ObjectiveReport:
    """Monte-Carlo mean of
    gamma min(V_beta(Y(1)+Theta), L) 1{||Y(1)+Theta||_{L2} <= K} + drift cost,
    with Theta = -Z_N(1) + eta f_N; min and indicator are applied per sample
    before averaging.  Only the endpoints (B(1), Z_N(1)) of the Euler chain
    with step `dt_sde` enter the potential term, so they are drawn in one
    shot from the chain's endpoint law (`_draw_endpoints`), and the drift
    cost is its exact expectation: half the chain's expected path cost plus
    the bump's constant (eta^2 / 2) ||f_N||_{H^{alpha/2}}^2, with no cross
    term because the bump's annulus (N, 2N] misses the drift modes.  Both
    come from the matrix-power moments of `_euler_moments`, whose cost grows
    with log2(1/dt_sde), not with 1/dt_sde."""
    params = config.params
    geo = params.geometry
    dt = config.dt_sde if config.dt_sde is not None else stability_dt(params)
    shifted, z, cost_z = _draw_endpoints(params, dt, rng.generator(), config.m)
    # the B(1) draw becomes Y(1) - Z_N(1) + eta f_N in its own buffer
    shifted *= geo.bracket(-params.alpha / 2.0)
    shifted[:, _active_slice(params)] -= z
    f = bump_coeffs(geo, params.n_cut, config.x0)
    shifted += config.eta * f
    v = potential_array(geo, shifted, params.beta, clip=config.l_clip)
    norms = np.sqrt(np.sum(np.abs(shifted) ** 2, axis=1))
    indicator = norms <= config.k_mass
    cost_f = 0.5 * config.eta**2 * float(kinetic_sum_array(geo, f, params.alpha))
    cost = 0.5 * cost_z + cost_f
    values = params.gamma * v * indicator + cost
    est, se, _ = weighted_mean_stderr(values, None)
    return ObjectiveReport(
        est,
        se,
        float(indicator.mean()),
        cost,
        float((v * indicator).mean()),
    )


@dataclass
class DivergenceScan:
    l_values: np.ndarray
    estimates: np.ndarray
    stderrs: np.ndarray
    trend_pvalue: float
    step_increases: np.ndarray  # paired mean increments between consecutive L
    saturated: bool  # last two ladder points within one combined SE


def _bootstrap_means(values: np.ndarray, n_boot: int, gen: np.random.Generator) -> np.ndarray:
    """Means of n_boot resamples of `values` with replacement.  The int64
    indices are drawn in row blocks, which the generator's stream makes the
    rows of one (n_boot, m) draw."""
    m = values.size
    rows = _block_rows(8 * m)
    means = np.empty(n_boot)
    for lo in range(0, n_boot, rows):
        idx = gen.integers(0, m, size=(min(rows, n_boot - lo), m))
        means[lo : lo + len(idx)] = values[idx].mean(axis=1)
    return means


def divergence_scan(
    params: ModelParams, gamma_sign: float, k_mass: float | None, l_ladder: list, m: int,
    rng: RngStream, n_boot: int = 2000,
) -> DivergenceScan:
    """Direct Monte-Carlo of E_mu[ exp(-gamma min(V_beta, L)) 1{||u|| <= K} ]
    over a ladder of clips L, reusing one sample set for all L (paired).

    The trend p-value is a paired bootstrap of the total increment between the
    first and last ladder point (one-sided: P[increment <= 0]).  k_mass=None
    drops the mass cutoff.
    """
    gamma = math.copysign(abs(params.gamma) if params.gamma != 0 else 1.0, gamma_sign)
    geo = params.geometry
    gen = rng.generator()
    coeffs = sample_gaussian_coeffs(params, gen, m)
    v = potential_array(geo, _projected(geo, coeffs, params.n_cut), params.beta)
    if k_mass is None:
        ind = np.ones(m, dtype=bool)
    else:
        ind = np.sqrt(np.sum(np.abs(coeffs) ** 2, axis=geo.axes)) <= k_mass
    l_values = np.asarray(sorted(l_ladder), dtype=float)
    contrib = np.empty((l_values.size, m))
    for i, l in enumerate(l_values):
        contrib[i] = np.exp(-gamma * np.minimum(v, l)) * ind
    est = contrib.mean(axis=1)
    se = contrib.std(axis=1, ddof=1) / math.sqrt(m)
    diffs = contrib[-1] - contrib[0]
    boot_means = _bootstrap_means(diffs, n_boot, rng.generator(1))
    pvalue = float((np.sum(boot_means <= 0.0) + 1.0) / (n_boot + 1.0))
    steps = contrib[1:].mean(axis=1) - contrib[:-1].mean(axis=1)
    comb_se = math.sqrt(se[-1] ** 2 + se[-2] ** 2)
    saturated = bool(abs(est[-1] - est[-2]) <= comb_se)
    return DivergenceScan(l_values, est, se, pvalue, steps, saturated)
