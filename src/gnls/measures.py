"""Gaussian and Gibbs measures for the exponential interaction.

The Gaussian base measure is the law of the random Fourier series with
independent complex coefficients a_n of variance <n>^(-alpha).  The Gibbs
measure reweights it by exp(-gamma * V_beta(u)) with the exponential
potential V_beta(u) = int exp(beta |u|^2) dx, which is evaluated by
oversampled grid quadrature.  Because the density against the Gaussian is
explicit, exact independent sampling (importance or rejection) suffices; no
MCMC is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import (
    TorusGeometry,
    _block_rows,
    dispersion_weights,
    sigma,
    to_grid_array,
)


class NonIntegrableError(ValueError):
    """Raised where the exponential moment leaves L^1 (p*beta*sigma >= 1)."""


@dataclass(frozen=True)
class ModelParams:
    """Physical and truncation parameters of the model.

    alpha > d is required by every Gaussian sampling path; beta >= 0 and any
    real gamma are accepted so that the linear (beta = 0) and interaction-free
    (gamma = 0) controls remain expressible.
    """

    d: int
    alpha: float
    beta: float
    gamma: float
    n_cut: int
    geometry: TorusGeometry

    def __post_init__(self) -> None:
        if self.d != self.geometry.d:
            raise ValueError("params dimension disagrees with geometry")
        if self.beta < 0:
            raise ValueError("beta must be nonnegative")
        if self.n_cut < 0 or self.n_cut > self.geometry.n_max:
            raise ValueError("n_cut must lie in [0, geometry.n_max]")

    def sigma_n(self) -> float:
        """Pointwise variance of the truncated Gaussian field."""
        return sigma(self.alpha, self.n_cut, self.d)


@dataclass(frozen=True)
class RngStream:
    """Deterministic, splittable randomness source.

    Identical (seed, stream_id) reproduce identical draws; distinct stream
    ids are statistically independent.  `generator(*path)` derives further
    independent child streams deterministically.
    """

    seed: int
    stream_id: int = 0

    def generator(self, *path: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence([self.seed, self.stream_id, *path])
        )

    def child(self, k: int) -> "RngStream":
        return RngStream(self.seed, (self.stream_id << 20) + k)


def weighted_mean_stderr(values: np.ndarray, weights: np.ndarray | None):
    """Self-normalized importance estimate with linearized standard error.

    Returns (estimate, stderr, effective sample size).  With uniform weights
    this reduces to the plain mean and its standard error.
    """
    values = np.asarray(values, dtype=float)
    m = values.size
    if weights is None:
        est = float(values.mean())
        se = float(values.std(ddof=1) / math.sqrt(m)) if m > 1 else 0.0
        return est, se, float(m)
    w = np.asarray(weights, dtype=float)
    wsum = w.sum()
    est = float(np.sum(w * values) / wsum)
    resid = values - est
    se = float(np.sqrt(np.sum((w * resid) ** 2)) / wsum)
    ess = float(wsum**2 / np.sum(w**2))
    return est, se, ess


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sample_gaussian_coeffs(
    params: ModelParams, gen: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Coefficient draws a_n = g_n <n>^(-alpha/2) on |n| <= n_cut (batched)."""
    if params.alpha <= params.d:
        raise ValueError("Gaussian sampling requires alpha > d")
    geo = params.geometry
    shape = geo.box_shape if size is None else (size, *geo.box_shape)
    g = (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / math.sqrt(2.0)
    amp = geo.bracket(-params.alpha / 2.0) * geo.euclid_mask(params.n_cut)
    return g * amp


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


def mass_array(geometry: TorusGeometry, coeffs: np.ndarray) -> np.ndarray:
    """J(u) = (1/2) int |u|^2 dx = (1/2) sum |a_n|^2."""
    return 0.5 * np.sum(np.abs(coeffs) ** 2, axis=geometry.axes)


def potential_array(
    geometry: TorusGeometry,
    coeffs: np.ndarray,
    beta: float,
    clip: float | None = None,
) -> np.ndarray:
    """V_beta by grid quadrature of exp(beta |u|^2), optionally min(V, clip).
    The grid is synthesised a block of rows at a time, at most
    `_BLOCK_BYTES` of it."""
    batch = coeffs.shape[: coeffs.ndim - geometry.d]
    flat = coeffs.reshape(-1, *geometry.box_shape)
    rows = _block_rows(16 * math.prod(geometry.grid_shape))
    shape = (min(rows, len(flat)), *geometry.grid_shape)
    grid, dens = np.empty(shape, np.complex128), np.empty(shape)
    factor = beta * geometry.scale**2
    v = np.empty(len(flat))
    for lo in range(0, len(flat), rows):
        block = flat[lo : lo + rows]
        values = to_grid_array(geometry, block, out=grid[: len(block)], shifted=True)
        # exp(beta scale^2 |u|^2) in one buffer, in the operation order of
        # that expression, so its bits do not depend on the buffering
        e = np.abs(values, out=dens[: len(block)])
        np.exp(np.multiply(np.square(e, out=e), factor, out=e), out=e)
        v[lo : lo + len(block)] = geometry.quad_weight() * np.sum(e, axis=geometry.axes)
    v = v.reshape(batch)[()]
    if clip is not None:
        v = np.minimum(v, clip)
    return v


def kinetic_sum_array(
    geometry: TorusGeometry, coeffs: np.ndarray, alpha: float, symbol: str = "bracket"
) -> np.ndarray:
    """The full-weight quadratic energy sum_n w_n |a_n|^2 over
    `dispersion_weights`; the flow conserves it plus gamma V_beta, and
    half of it is the kinetic part of the `hamiltonian` observable."""
    w = dispersion_weights(geometry, alpha, symbol)
    return np.sum(w * np.abs(coeffs) ** 2, axis=geometry.axes)


def _projected(geometry: TorusGeometry, coeffs: np.ndarray, n_cut: int) -> np.ndarray:
    """Pi_N u: the coefficients on |n| <= n_cut, zero elsewhere.  Where that
    is the whole box (d = 1 at n_cut = n_max) it is `coeffs` itself, not a
    copy."""
    mask = geometry.euclid_mask(n_cut)
    return coeffs if mask.all() else coeffs * mask


def gibbs_weight_array(params: ModelParams, coeffs: np.ndarray, beta: float | None = None) -> np.ndarray:
    """Density factor exp(-gamma V_beta(Pi_N u)) against the Gaussian measure."""
    geo = params.geometry
    b = params.beta if beta is None else beta
    v = potential_array(geo, _projected(geo, coeffs, params.n_cut), b)
    return np.exp(-params.gamma * v)


# ---------------------------------------------------------------------------
# Gibbs ensembles
# ---------------------------------------------------------------------------


@dataclass
class GibbsEnsemble:
    """Sample set targeting the truncated Gibbs measure.

    Importance mode returns all proposals with weights; rejection mode
    returns the accepted subset (weights None).  The partition function
    estimate uses the weight mean in importance mode and the acceptance
    indicator in rejection mode, so the two routes stay independent.
    """

    params: ModelParams
    mode: str
    coeffs: np.ndarray  # (m, *box)
    weights: np.ndarray | None
    potential: np.ndarray  # V_beta(Pi_N u) of each row, shape (m,)
    z_estimate: float
    z_stderr: float
    n_proposed: int

    @property
    def size(self) -> int:
        return self.coeffs.shape[0]


def gibbs_ensemble(
    params: ModelParams, m: int, rng: RngStream, mode: str = "importance"
) -> GibbsEnsemble:
    gen = rng.generator()
    geo = params.geometry
    vol = geo.volume
    if mode == "importance":
        coeffs = sample_gaussian_coeffs(params, gen, m)
        v = potential_array(geo, _projected(geo, coeffs, params.n_cut), params.beta)
        w = np.exp(-params.gamma * v)
        z, z_se, _ = weighted_mean_stderr(w, None)
        return GibbsEnsemble(params, mode, coeffs, w, v, z, z_se, m)
    if mode == "rejection":
        if params.gamma < 0:
            raise ValueError("rejection sampling requires gamma >= 0 (bounded density)")
        # accept with prob exp(-gamma (V - Vol)) <= 1; the analytic supremum
        # exp(-gamma Vol) of the density normalizes the proposal.
        accepted = []
        potentials = []
        n_prop = 0
        indicators = []
        batch = max(m, 256)
        while sum(a.shape[0] for a in accepted) < m and n_prop < 10**7:
            coeffs = sample_gaussian_coeffs(params, gen, batch)
            v = potential_array(geo, _projected(geo, coeffs, params.n_cut), params.beta)
            p_acc = np.exp(-params.gamma * (v - vol))
            u = gen.uniform(size=batch)
            keep = u < p_acc
            indicators.append(keep)
            accepted.append(coeffs[keep])
            potentials.append(v[keep])
            n_prop += batch
        coeffs = np.concatenate(accepted, axis=0)[:m]
        v = np.concatenate(potentials)[:m]
        ind = np.concatenate(indicators).astype(float)
        rate, rate_se, _ = weighted_mean_stderr(ind, None)
        z = rate * math.exp(-params.gamma * vol)
        z_se = rate_se * math.exp(-params.gamma * vol)
        if coeffs.shape[0] < m:
            raise RuntimeError("rejection sampler exhausted proposal budget")
        return GibbsEnsemble(params, mode, coeffs, None, v, z, z_se, n_prop)
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# closed-form moment oracle
# ---------------------------------------------------------------------------


def exp_moment_oracle(params: ModelParams, p: float) -> float:
    """E[exp(p beta |Pi_N u(x)|^2)] = (1 - p beta sigma)^(-1), the rank-one
    Gaussian integral for the circularly symmetric complex field.

    Raises NonIntegrableError at or beyond the pole p*beta*sigma >= 1.
    """
    s = params.sigma_n()
    c = p * params.beta * s
    if c >= 1.0:
        raise NonIntegrableError(
            f"p*beta*sigma = {c:.6g} >= 1: exponential moment is infinite"
        )
    return 1.0 / (1.0 - c)
