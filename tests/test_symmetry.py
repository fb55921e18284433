"""Exact symmetries of the discrete flow, on every transform path.

The macro step commutes with three symmetries of the equation: pointwise
conjugation with time reversal, conj o Phi_h o conj = Phi_{-h} (with the
conjugate field a_n -> conj(a_{-n})); a constant phase, Phi(e^{i theta} u) =
e^{i theta} Phi(u); and translation by whole grid steps, a_n ->
e^{-2 pi i n.j/M} a_n.  Each holds in exact arithmetic for both modes, masked
or not, so the bounds are rounding-level.  A sign, frame or pairing error in
one transform path (a transposed sin block, a ramp in the wrong frame, a
mis-paired grid point) can keep mass and energy to rounding and still break
one of them.

Galerkin reversal, Phi_T o conj o Phi_T o conj = id, is not exact: RK4 is
not a symmetric method, so it holds to the order-4 defect, C dt^4 T, here
checked at two step sizes.  Collocation mode is not reversible at all (its
substep truncates the rotated grid values back to the box), so it has no
reversal test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnls import FlowConfig, ModelParams, TorusGeometry, evolve, evolve_ensemble

# (d, n_max, n_cut): d = 1 boxes whose Galerkin flow runs on plane pairs (ids
# `dense`, after their small K M) and boxes past the plane bound (K M >
# 14,000), whose flow runs the FFT, each with and without a mask below the
# box; in d = 2 the Euclidean mask always cuts the corners of the box, and
# cuts deeper below n_max
BOXES = {
    "d1-dense": (1, 4, 4),
    "d1-dense-masked": (1, 4, 2),
    "d1-fft": (1, 32, 32),
    "d1-fft-masked": (1, 32, 17),
    "d2": (2, 3, 3),
    "d2-masked": (2, 3, 2),
}
CASES = [(box, mode) for box in BOXES for mode in ("galerkin", "collocation")]
SEEDS = st.integers(0, 2**32 - 1)
RUNS = settings(max_examples=4, deadline=None, database=None)


def model(box, dt=0.01, t_final=0.2):
    d, n_max, n_cut = BOXES[box]
    geo = TorusGeometry(d=d, n_max=n_max)
    p = ModelParams(d=d, alpha=2.0, beta=0.3, gamma=1.0, n_cut=n_cut, geometry=geo)
    return geo, FlowConfig(params=p, dt=dt, t_final=t_final)


def start(geo, seed, rows=3):
    """`rows` random boxes with <n>^-1 falloff, beta |u|^2 of order one."""
    gen = np.random.default_rng(seed)
    shape = (rows, *geo.box_shape)
    g = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
    return 0.6 * g * geo.bracket(-1.0)


def conj(geo, a):
    """The coefficients of the pointwise conjugate field: conj(a_{-n})."""
    return np.conj(np.flip(a, axis=geo.axes))


def flow(geo, cfg, a, mode, t_final=None):
    cfg = cfg if t_final is None else FlowConfig(cfg.params, cfg.dt, t_final)
    return evolve_ensemble(geo, a, cfg, mode)


def rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("box, mode", CASES)
@RUNS
@given(seed=SEEDS)
def test_conjugation_reverses_time(box, mode, seed):
    geo, cfg = model(box)
    a = start(geo, seed)
    backward = flow(geo, cfg, a, mode, -cfg.t_final)
    assert rel(conj(geo, flow(geo, cfg, conj(geo, a), mode)), backward) <= 1e-13


@pytest.mark.parametrize("box, mode", CASES)
@RUNS
@given(seed=SEEDS, theta=st.floats(0.0, 2.0 * math.pi))
def test_phase_equivariance(box, mode, seed, theta):
    geo, cfg = model(box)
    a, turn = start(geo, seed), np.exp(1j * theta)
    assert rel(flow(geo, cfg, turn * a, mode), turn * flow(geo, cfg, a, mode)) <= 1e-13


@pytest.mark.parametrize("box, mode", CASES)
@RUNS
@given(seed=SEEDS, steps=st.lists(st.integers(1, 200), min_size=2, max_size=2))
def test_grid_translation_commutes(box, mode, seed, steps):
    geo, cfg = model(box)
    # a_n -> e^{-i n.x_j} a_n is u -> u(. - x_j), x_j a grid point
    n = np.stack(np.meshgrid(*[geo.modes] * geo.d, indexing="ij"))
    shift = np.exp(-2j * math.pi * np.tensordot(steps[: geo.d], n, 1) / geo.m_grid)
    a = start(geo, seed)
    assert rel(flow(geo, cfg, shift * a, mode), shift * flow(geo, cfg, a, mode)) <= 1e-13


@pytest.mark.parametrize("box", BOXES)
def test_galerkin_reversal_is_fourth_order(box):
    # the defect of Phi_T o conj o Phi_T o conj at T = 0.4 and beta |u|^2 of
    # order one is C dt^4 T with C below 1e-3 on every box, far above rounding
    # at both step sizes (measured C 0.6e-4 to 2e-4; halving dt cuts the
    # defect about 32x, as the leading local terms cancel)
    geo, _ = model(box)
    a = start(geo, 11)
    defects = []
    for dt in (0.1, 0.05):
        geo, cfg = model(box, dt=dt, t_final=0.4)
        back = conj(geo, flow(geo, cfg, conj(geo, flow(geo, cfg, a, "galerkin")), "galerkin"))
        defects.append(rel(back, a))
        assert defects[-1] <= 1e-3 * dt**4 * 0.4
    assert defects[0] / defects[1] >= 12.0


def test_single_field_path_keeps_the_symmetries():
    # `evolve` steps one box rather than a batch; conjugation and phase, once
    geo, cfg = model("d1-dense-masked")
    a = start(geo, 5, rows=1)[0]
    end = evolve(a, cfg).snapshots[-1]
    back = evolve(conj(geo, a), FlowConfig(cfg.params, cfg.dt, -cfg.t_final)).snapshots[-1]
    assert rel(conj(geo, back), evolve_ensemble(geo, a[None], cfg)[0]) <= 1e-13
    assert rel(evolve(1j * a, cfg).snapshots[-1], 1j * end) <= 1e-13
