import csv
import io
import math

import numpy as np
import pytest

from gnls import (
    FlowConfig,
    ModelParams,
    RngStream,
    TorusGeometry,
    collocation_phase_array,
    dispersion_weights,
    evolve,
    evolve_ensemble,
    from_grid_array,
    galerkin_substep_array,
    kinetic_sum_array,
    liouville_check,
    mass_array,
    potential_array,
    sample_gaussian_coeffs,
    sigma,
    sobolev_norm_array,
    to_grid_array,
    truncation_convergence,
)
from gnls import dynamics, spectral
from gnls.dynamics import (
    Trajectory,
    _collocation_work,
    _dense,
    _Galerkin,
    galerkin_rhs_array,
    gauge_frequency,
    trajectory_to_csv,
)
from gnls.spectral import TWO_PI, fold_planes, unfold_planes

from conftest import direct_synthesis, from_modes, random_field, smooth_field

GEN = np.random.default_rng(3)


def make_cfg(params, dt=1e-3, t_final=1.0, symbol="bracket", **kw):
    return FlowConfig(
        params=params, dt=dt, t_final=t_final, dispersion_symbol=symbol, **kw
    )


def make_params(geo, alpha=2.0, beta=0.5, gamma=1.0, n_cut=None):
    return ModelParams(
        d=1, alpha=alpha, beta=beta, gamma=gamma,
        n_cut=geo.n_max if n_cut is None else n_cut, geometry=geo,
    )


def linear(u, t, cfg):
    """Exact linear flow of u over time t under cfg's dispersion symbol."""
    omega = dispersion_weights(cfg.params.geometry, cfg.params.alpha, cfg.dispersion_symbol)
    return u * np.exp(-2j * t * omega)


def collocation(u, t, params):
    return collocation_phase_array(params.geometry, u, t, params)


def galerkin(u, t, params, substeps):
    mask = params.geometry.euclid_mask(params.n_cut)
    return galerkin_substep_array(params.geometry, u, t, params, substeps, mask)


class TestLinearSubstep:
    def test_preserves_every_sobolev_norm(self, geo16, params16):
        u = random_field(geo16, GEN)
        v = linear(u, 0.37, make_cfg(params16))
        for s in (-1.0, 0.0, 0.5, 2.0):
            assert sobolev_norm_array(geo16, v, s) == pytest.approx(
                sobolev_norm_array(geo16, u, s), rel=1e-14
            )

    def test_pure_symbol_periodicity_alpha2(self, geo16, params16):
        # exp(2 pi i n^2) = 1 for integer n
        u = random_field(geo16, GEN)
        v = linear(u, TWO_PI, make_cfg(params16, symbol="pure"))
        assert np.allclose(v, u, atol=1e-12)

    def test_pure_symbol_fixes_mean_mode(self, geo16, params16):
        u = random_field(geo16, GEN)
        v = linear(u, 1.234, make_cfg(params16, symbol="pure"))
        assert v[geo16.n_max] == u[geo16.n_max]

    def test_mode_moduli_exact(self, geo16, params16):
        u = random_field(geo16, GEN)
        v = linear(u, 0.1, make_cfg(params16))
        assert np.max(np.abs(np.abs(v) - np.abs(u))) < 1e-15


class TestCollocationSubstep:
    def test_constant_field_closed_form(self, geo16):
        p = make_params(geo16, beta=1.0, gamma=1.0)
        one = from_modes(geo16, {0: math.sqrt(TWO_PI)})
        for t in (0.1, 0.7):
            out = collocation(one, t, p)
            expected = math.sqrt(TWO_PI) * np.exp(-2j * math.e * t)
            assert abs(out[geo16.n_max] - expected) < 1e-13

    def test_pointwise_modulus_preserved(self, geo16, params16):
        # exact on the grid; the spectrally decaying field keeps the
        # re-analysis truncation at the tail level
        u = smooth_field(geo16, bandwidth=3, scale=0.3)
        out = collocation(u, 0.3, params16)
        gu = np.abs(to_grid_array(geo16, u))
        gv = np.abs(to_grid_array(geo16, out))
        assert np.max(np.abs(gu - gv)) < 1e-10

    def test_gamma_zero_identity(self, geo16):
        p = make_params(geo16, gamma=0.0)
        u = random_field(geo16, GEN)
        out = collocation(u, 0.5, p)
        assert np.allclose(out, u, atol=1e-15)


class TestGalerkinSubstep:
    def test_constant_field_matches_collocation(self, geo16):
        p = make_params(geo16, beta=1.0, gamma=1.0)
        one = from_modes(geo16, {0: 0.8 - 0.3j})
        a = galerkin(one, 0.1, p, substeps=16)
        b = collocation(one, 0.1, p)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_high_modes_untouched(self, geo16):
        p = make_params(geo16, n_cut=4)
        u = random_field(geo16, GEN)
        out = galerkin(u, 0.2, p, substeps=2)
        high = np.abs(geo16.modes) > 4
        assert np.array_equal(out[high], u[high])

    def test_mass_drift_fourth_order(self, geo16):
        p = make_params(geo16, beta=0.5, gamma=1.0)
        u = random_field(geo16, GEN, decay=2.0, scale=0.8)
        m0 = float(np.sum(np.abs(u) ** 2))
        subs = (2, 4, 8, 16)
        drift = []
        for sub in subs:
            out = galerkin(u, 0.4, p, substeps=sub)
            drift.append(abs(float(np.sum(np.abs(out) ** 2)) - m0))
        # defect of the order-4 integrator: halving the internal step cuts it
        # by at least ~16x (observed ~32x: the leading local terms cancel)
        slope = np.polyfit(np.log([0.4 / s for s in subs]), np.log(drift), 1)[0]
        assert 3.8 <= slope <= 5.5
        assert drift[1] / drift[2] >= 12.0


class TestPublicGalerkinSubstep:
    @pytest.mark.parametrize("n_max, n_cut, batch", [(8, 8, ()), (16, 9, (2,))])
    def test_plane_box_takes_and_returns_box_coefficients(self, n_max, n_cut, batch):
        # on a box with `plane_basis` the public kernel folds and unfolds
        # inside: RK4 on the true-frame formula -2i gamma beta P_N[e^{beta
        # |u|^2} u] (direct sum and quadrature) over box coefficients, and the
        # modes outside the mask come back as given
        geo = TorusGeometry(d=1, n_max=n_max)
        assert geo.plane_basis is not None
        p = ModelParams(d=1, alpha=2.0, beta=0.5, gamma=1.0, n_cut=n_cut, geometry=geo)
        mask = geo.euclid_mask(n_cut)
        shape = (*batch, *geo.box_shape)
        a = 0.3 * (GEN.standard_normal(shape) + 1j * GEN.standard_normal(shape))

        def rhs(b):
            u = direct_synthesis(geo, b * mask)
            f = np.exp(p.beta * np.abs(u) ** 2) * u
            return -2j * p.gamma * p.beta * geo.quad_weight() * direct_synthesis(geo, f, True) * mask

        want, h = a, 0.1
        for _ in range(2):
            k1 = rhs(want)
            k2 = rhs(want + 0.5 * h * k1)
            k3 = rhs(want + 0.5 * h * k2)
            k4 = rhs(want + h * k3)
            want = want + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        got = galerkin_substep_array(geo, a, 0.2, p, 2, mask)
        assert got.shape == a.shape and got is not a
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.array_equal(got[..., ~mask], a[..., ~mask])


def allocating_galerkin(geometry, coeffs, t, params, substeps, mask):
    """The Galerkin substep written with a fresh array per operation, in the
    operation order `galerkin_substep_array` must keep bit for bit: on a box
    with `plane_basis` B, the folded coefficients' float64 planes times
    c P_N B (c = scale sqrt(beta)), the grid planes scaled by their
    exponential times B^T kappa P_N, turned symplectically, the RK4 stages
    combined as float64, and the unfolded result with the modes outside the
    mask as given; on any other box the complex grid."""
    planes = geometry.plane_basis is not None
    if planes:
        (basis, transpose), root = geometry.plane_basis, math.sqrt(params.beta)
        synthesis = (geometry.scale * root * mask)[:, None] * basis
        kappa = 2.0 * params.gamma * root / (geometry.scale * geometry.m_grid)
        analysis = transpose * (kappa * mask)

    def rhs(x):
        if not planes:
            values = to_grid_array(geometry, x * mask, shifted=True)
            values = np.exp(params.beta * geometry.scale**2 * np.abs(values) ** 2) * values
            conv = from_grid_array(geometry, values, shifted=True)
            return -2j * params.gamma * params.beta * (conv * mask)
        v = _dense(x, synthesis, np.empty((*x.shape[:-1], synthesis.shape[1])))
        f = v * np.exp(v[0] ** 2 + v[1] ** 2)
        g = _dense(f, analysis, np.empty((*f.shape[:-1], analysis.shape[1])))
        return np.stack([g[1], -g[0]])

    h, x = t / substeps, fold_planes(geometry, coeffs) if planes else coeffs
    for _ in range(substeps):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h * k2)
        k4 = rhs(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.where(mask, unfold_planes(geometry, x), coeffs) if planes else x


def allocating_collocation(geometry, coeffs, t, params, gauge_shift):
    """The collocation substep with a fresh array per operation, in the
    operation order `collocation_phase_array` must keep bit for bit (for
    grids below 256 KiB: from there numpy's temporary elision evaluates
    `values * phase` as `phase * values`, which rounds differently)."""
    values = to_grid_array(geometry, coeffs, shifted=True)
    absq = geometry.scale**2 * np.abs(values) ** 2
    freq = 2.0 * params.gamma * params.beta * np.exp(params.beta * absq)
    if gauge_shift:
        freq = freq - gauge_frequency(absq, params, geometry.axes)
    return from_grid_array(geometry, values * np.exp(-1j * t * freq), shifted=True)


class TestBufferedCollocation:
    @pytest.mark.parametrize("d, batch", [(1, ()), (1, (3,)), (2, (2,))])
    @pytest.mark.parametrize("gauge_shift", [False, True])
    def test_reused_collocation_buffers_match_fresh_ones(self, d, batch, gauge_shift):
        geo = TorusGeometry(d=d, n_max=4)
        p = ModelParams(d=d, alpha=2.0, beta=0.5, gamma=1.0, n_cut=4, geometry=geo)
        shape = (*batch, *geo.box_shape)
        u, v = (0.3 * (GEN.standard_normal(shape) + 1j * GEN.standard_normal(shape))
                for _ in range(2))
        fresh = collocation_phase_array(geo, u, 0.2, p, gauge_shift)
        want = allocating_collocation(geo, u, 0.2, p, gauge_shift)
        assert fresh.tobytes() == want.tobytes()
        work = _collocation_work(geo, shape)
        for w in work:
            w[...] = np.nan
        first = collocation_phase_array(geo, v, 0.2, p, gauge_shift, work)
        again = collocation_phase_array(geo, u, 0.2, p, gauge_shift, work)
        assert again.tobytes() == fresh.tobytes()
        assert first.tobytes() == collocation_phase_array(geo, v, 0.2, p, gauge_shift).tobytes()


class TestBufferedGalerkin:
    @pytest.mark.parametrize("d, batch", [(1, ()), (1, (3,)), (2, (2,))])
    def test_reused_buffers_match_fresh_ones(self, d, batch):
        geo = TorusGeometry(d=d, n_max=4)
        p = ModelParams(d=d, alpha=2.0, beta=0.5, gamma=1.0, n_cut=3, geometry=geo)
        mask = geo.euclid_mask(3)
        shape = (*batch, *geo.box_shape)
        u, v = (0.3 * (GEN.standard_normal(shape) + 1j * GEN.standard_normal(shape))
                for _ in range(2))
        fresh = galerkin_substep_array(geo, u, 0.2, p, 2, mask)
        assert fresh.tobytes() == allocating_galerkin(geo, u, 0.2, p, 2, mask).tobytes()
        work = _Galerkin(geo, shape, p, mask, 0.1)  # steps of 0.2 / 2
        # every buffer; the other arrays of the record are views of these
        assert (work.squares is None) == (d == 2)  # the planes' squares on every plane box
        squares = () if work.squares is None else work.squares[:1]
        for w in (work.grid, work.absq, *squares, *work.slopes, work.total, work.stage):
            w[...] = np.nan  # stale contents must never leak into a result
        first = galerkin_substep_array(geo, v, 0.2, p, 2, mask, work)
        again = galerkin_substep_array(geo, u, 0.2, p, 2, mask, work)
        assert again.tobytes() == fresh.tobytes()
        # the second call left the first result alone
        assert first.tobytes() == galerkin_substep_array(geo, v, 0.2, p, 2, mask).tobytes()
        with pytest.raises(ValueError, match="t / substeps"):  # the record fixes h
            galerkin_substep_array(geo, v, 0.2, p, 4, mask, work)

    def test_preflight_refuses_an_overflowing_start(self):
        # |u|^2 = 800 everywhere: e^{beta |u|^2} is not a float64 at beta = 1
        geo = TorusGeometry(d=1, n_max=4)
        p = ModelParams(d=1, alpha=2.0, beta=1.0, gamma=1.0, n_cut=4, geometry=geo)
        u0 = from_modes(geo, {0: math.sqrt(800.0 * TWO_PI)})
        cfg = make_cfg(p, dt=1e-2, t_final=0.05)
        message = r"^beta max\|Pi_N u0\|\^2 = 800 exceeds the exp limit 709\.783$"
        with pytest.raises(ValueError, match=message):
            evolve(u0, cfg)
        rows = np.stack([0.1 * u0, u0])
        with pytest.raises(ValueError, match=message):
            evolve_ensemble(geo, rows, cfg)


class TestShiftedFrameKernels:
    # no mask in d = 1 at n_cut = n_max; a sharp cut below n_max, or in d = 2
    # the Euclidean corners of the box, otherwise.  The d = 1 boxes up to
    # n_max 28 run on plane pairs: the smallest one, a lone row, n_max 16, and
    # at n_max = 10 a masked batch and 75 rows, whose 150 plane rows fill one
    # float64 item of 2^18 // (21 * 84) = 148 rows and a two-row tail; the
    # n_max 32 box, past the plane bound, runs the FFT
    @pytest.mark.parametrize(
        "d, n_max, n_cut, batch",
        [
            (1, 8, 8, ()), (1, 8, 5, (3,)), (1, 16, 16, (2,)), (2, 4, 4, (2,)), (2, 4, 2, ()),
            (1, 0, 0, ()), (1, 10, 10, (75,)), (1, 10, 6, (2,)), (1, 8, 8, (1,)),
            (1, 32, 24, (2,)),
        ],
    )
    def test_galerkin_rhs_matches_the_true_frame_formula(self, d, n_max, n_cut, batch):
        geo = TorusGeometry(d=d, n_max=n_max)
        p = ModelParams(d=d, alpha=2.0, beta=0.5, gamma=1.0, n_cut=n_cut, geometry=geo)
        mask = geo.euclid_mask(n_cut)
        shape = (*batch, *geo.box_shape)
        a = 0.3 * (GEN.standard_normal(shape) + 1j * GEN.standard_normal(shape))
        planes = geo.plane_basis is not None
        state = fold_planes(geo, a) if planes else a
        got = galerkin_rhs_array(geo, state, p, None if mask.all() else mask)
        if planes:  # the derivative is the symplectic turn (G1, -G0) of G
            got = unfold_planes(geo, np.stack([got[1], -got[0]]))
        # -2i gamma beta P_N[e^{beta |u|^2} u], u = P_N a sampled by the direct sum
        # and analysed by the direct quadrature
        u = direct_synthesis(geo, a * mask)
        f = np.exp(p.beta * np.abs(u) ** 2) * u
        coeffs = geo.quad_weight() * direct_synthesis(geo, f, adjoint=True)
        want = -2j * p.gamma * p.beta * coeffs * mask
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n_max", [8, 32])
    def test_galerkin_rhs_into_a_strided_out(self, n_max):
        # a plane box refuses an `out` whose plane rows would be a copy,
        # which would keep the product; the FFT box writes through the strides
        geo = TorusGeometry(d=1, n_max=n_max)
        p = ModelParams(d=1, alpha=2.0, beta=0.5, gamma=1.0, n_cut=n_max, geometry=geo)
        shape = (3, *geo.box_shape)
        a = 0.3 * (GEN.standard_normal(shape) + 1j * GEN.standard_normal(shape))
        if geo.plane_basis is not None:
            planes = np.full((2, 6, *geo.box_shape), np.nan)
            with pytest.raises(ValueError, match="C-contiguous"):
                galerkin_rhs_array(geo, fold_planes(geo, a), p, None, out=planes[:, ::2])
        else:
            buf = np.full((6, *geo.box_shape), np.nan, np.complex128)
            assert galerkin_rhs_array(geo, a, p, None, out=buf[::2]).base is buf
            assert buf[::2].tobytes() == galerkin_rhs_array(geo, a, p, None).tobytes()

    def test_galerkin_rhs_refuses_box_coefficients_on_a_plane_box(self):
        # a plane box's state is float64 planes; complex coefficients read as
        # planes would give wrong numbers without a word
        geo = TorusGeometry(d=1, n_max=8)
        p = ModelParams(d=1, alpha=2.0, beta=0.5, gamma=1.0, n_cut=8, geometry=geo)
        a = 0.3 * (GEN.standard_normal((3, 17)) + 1j * GEN.standard_normal((3, 17)))
        with pytest.raises(TypeError, match="float64 planes"):
            galerkin_rhs_array(geo, a, p, None)

    @pytest.mark.parametrize("n_max", [8, 32])
    def test_ensemble_calls_the_module_rhs_per_stage(self, n_max, monkeypatch):
        # the RK4 stages go through the module-level `galerkin_rhs_array`,
        # four per substep, on a plane box and on an FFT box
        geo = TorusGeometry(d=1, n_max=n_max)
        assert (geo.plane_basis is not None) == (n_max == 8)
        p = ModelParams(d=1, alpha=2.0, beta=0.5, gamma=1.0, n_cut=n_max, geometry=geo)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return galerkin_rhs_array(*args, **kwargs)

        monkeypatch.setattr(dynamics, "galerkin_rhs_array", counted)
        a = random_field(geo, GEN, decay=1.5, scale=0.3)
        evolve_ensemble(geo, np.stack([a, 0.5 * a]), make_cfg(p, 1e-2, 0.05, nonlinear_substeps=3))
        assert len(calls) == 4 * 3 * 5

    @pytest.mark.parametrize("d, n_max", [(1, 0), (1, 8), (2, 3)])
    def test_potential_matches_direct_quadrature(self, d, n_max):
        geo = TorusGeometry(d=d, n_max=n_max)
        shape = (5, *geo.box_shape)
        a = 0.5 * (GEN.standard_normal(shape) + 1j * GEN.standard_normal(shape))
        u = direct_synthesis(geo, a)
        want = geo.quad_weight() * np.sum(np.exp(0.7 * np.abs(u) ** 2), axis=geo.axes)
        got = potential_array(geo, a, 0.7)
        assert np.max(np.abs(got - want) / want) <= 1e-13


class TestFastLengthGrid:
    def test_default_grid_agrees_with_the_unrounded_one(self):
        # criterion 5's model: the default 70-point grid against the 68 = 4 * 17
        # points that ceil(4 (2N + 1)) gives before rounding to a fast length
        n_cut, alpha = 8, 2.5
        beta = 0.1 / sigma(alpha, n_cut, 1)
        flows = []
        for geo in (TorusGeometry(d=1, n_max=n_cut), TorusGeometry(d=1, n_max=n_cut, m_grid=68)):
            p = ModelParams(d=1, alpha=alpha, beta=beta, gamma=1.0, n_cut=n_cut, geometry=geo)
            flows.append((geo, make_cfg(p, dt=2e-3, t_final=0.1)))
        assert [geo.m_grid for geo, _ in flows] == [70, 68]
        a0 = sample_gaussian_coeffs(flows[0][1].params, RngStream(5).generator(), 256)
        v0 = [potential_array(geo, a0, beta) for geo, _ in flows]
        np.testing.assert_allclose(v0[0], v0[1], rtol=1e-11, atol=0)
        ends = [evolve_ensemble(geo, a0, cfg) for geo, cfg in flows]
        v1 = [potential_array(geo, a, beta) for (geo, _), a in zip(flows, ends)]
        np.testing.assert_allclose(v1[0], v1[1], rtol=1e-11, atol=0)
        np.testing.assert_allclose(ends[0], ends[1], rtol=0, atol=1e-10)


class TestBlockDiagnostics:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("mode", ["galerkin", "collocation"])
    def test_blocks_match_the_kernels_per_snapshot(self, d, mode, monkeypatch):
        geo = TorusGeometry(d=d, n_max=4)
        # three states per block: 11 steps fill blocks of 3, 3, 3 and 2
        monkeypatch.setattr(spectral, "_BLOCK_BYTES", 3 * 16 * math.prod(geo.grid_shape))
        p = ModelParams(d=d, alpha=2.5, beta=0.3, gamma=1.0, n_cut=3, geometry=geo)
        u0 = random_field(geo, GEN, decay=1.5, scale=0.3)
        traj = evolve(u0, make_cfg(p, dt=1e-2, t_final=0.1, store_every=1), mode)
        assert len(traj.snapshots) == len(traj.times) == 11
        mask = geo.euclid_mask(3)
        rows = list(traj.snapshots)
        v = [potential_array(geo, a * mask, p.beta) for a in rows]
        expected = {
            "mass": [mass_array(geo, a) for a in rows],
            "potential": v,
            "hamiltonian": [kinetic_sum_array(geo, a, p.alpha) + p.gamma * vi
                            for a, vi in zip(rows, v)],
            "h0.5_norm": [sobolev_norm_array(geo, a, 0.5) for a in rows],
        }
        assert list(traj.diagnostics) == list(expected)
        for name, values in expected.items():
            assert traj.diagnostics[name].tobytes() == np.array(values).tobytes(), name

    @pytest.mark.parametrize("mode", ["galerkin", "collocation"])
    def test_snapshots_do_not_depend_on_the_block(self, mode, monkeypatch):
        # store_every 4 over blocks of three states leaves the blocks of steps
        # 9-11 and 21-23 without a stored step; the start is u0 itself
        geo = TorusGeometry(d=1, n_max=8)
        p = ModelParams(d=1, alpha=2.5, beta=0.3, gamma=1.0, n_cut=6, geometry=geo)
        u0 = random_field(geo, GEN, decay=1.5, scale=0.3)
        cfg = make_cfg(p, dt=1e-2, t_final=0.25, store_every=4)
        whole = evolve(u0, cfg, mode)
        monkeypatch.setattr(spectral, "_BLOCK_BYTES", 3 * 16 * geo.m_grid)
        blocks = evolve(u0, cfg, mode)
        assert list(blocks.snapshot_times) == [0.0, 0.04, 0.08, 0.12, 0.16, 0.2, 0.24, 0.25]
        assert blocks.snapshots.tobytes() == whole.snapshots.tobytes()
        assert blocks.snapshots[0].tobytes() == u0.tobytes()

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("mode", ["galerkin", "collocation"])
    def test_first_non_finite_step_mid_block(self, d, mode, monkeypatch):
        # a chirp that the linear flow (gamma = 0) focuses at t = 0.3: beta |u|^2
        # peaks at 834 there, above the exp limit, and stays below 700 at the
        # steps before
        geo = TorusGeometry(d=d, n_max=4)
        p = ModelParams(d=d, alpha=2.0, beta=1.0, gamma=0.0, n_cut=4, geometry=geo)
        mask = geo.euclid_mask(4)
        w = dispersion_weights(geo, 2.0, "pure")
        amp = math.sqrt(834.0 * TWO_PI**d) / np.count_nonzero(mask)
        u0 = amp * mask * np.exp(2j * 0.3 * w)
        cfg = make_cfg(p, dt=0.05, t_final=1.0, symbol="pure")
        # blocks of four states hold steps 4..7, so step 6 falls mid-block
        for rows in (1, 4):
            monkeypatch.setattr(spectral, "_BLOCK_BYTES", rows * 16 * math.prod(geo.grid_shape))
            with np.errstate(all="ignore"):
                with pytest.raises(ValueError) as err:
                    evolve(u0, cfg, mode)
            assert str(err.value) == "the flow is not finite at step 6 (t = 0.3)"


class TestEvolve:
    def test_refuses_a_start_of_another_shape(self, geo16, params16):
        cfg = make_cfg(params16, dt=1e-2, t_final=0.05)
        # another geometry's box, a d = 2 box, a batch of boxes and a scalar
        for shape in ((15,), (33, 33), (2, 33), ()):
            with pytest.raises(ValueError, match=r"not the box \(33,\)"):
                evolve(np.zeros(shape, np.complex128), cfg)

    def test_gamma_zero_is_linear_flow(self, geo16):
        p = make_params(geo16, gamma=0.0)
        u0 = random_field(geo16, GEN)
        cfg = make_cfg(p, dt=1e-2, t_final=0.3)
        traj = evolve(u0, cfg, "galerkin")
        expected = linear(u0, 0.3, cfg)
        assert np.max(np.abs(traj.snapshots[-1] - expected)) < 1e-12
        for snap in traj.snapshots:
            assert np.allclose(np.abs(snap), np.abs(u0), atol=1e-14)

    def test_mass_conservation(self, geo16):
        p = make_params(geo16)
        u0 = smooth_field(geo16, scale=0.3)
        traj = evolve(u0, make_cfg(p, dt=1e-3, t_final=1.0, store_every=100))
        m = traj.diagnostics["mass"]
        assert np.max(np.abs(m - m[0])) / m[0] <= 1e-10

    def test_hamiltonian_second_order(self, geo16):
        p = make_params(geo16)
        u0 = smooth_field(geo16, scale=0.3)
        drifts = []
        for dt in (4e-3, 2e-3, 1e-3):
            traj = evolve(u0, make_cfg(p, dt=dt, t_final=0.5, store_every=1000))
            h = traj.diagnostics["hamiltonian"]
            drifts.append(np.max(np.abs(h - h[0])) / abs(h[0]))
        slope = np.polyfit(np.log([4e-3, 2e-3, 1e-3]), np.log(drifts), 1)[0]
        assert 1.8 <= slope <= 2.2

    def test_time_reversibility(self, geo16):
        p = make_params(geo16)
        u0 = smooth_field(geo16, scale=0.2)
        fw = evolve(u0, make_cfg(p, dt=1e-2, t_final=1.0), "galerkin").snapshots[-1]
        bw = evolve(fw, make_cfg(p, dt=1e-2, t_final=-1.0), "galerkin").snapshots[-1]
        assert np.max(np.abs(bw - u0)) < 1e-9

    def test_high_modes_follow_linear_flow_exactly(self, geo16):
        p = make_params(geo16, n_cut=6)
        u0 = random_field(geo16, GEN, decay=1.0, scale=0.3)
        cfg = make_cfg(p, dt=5e-3, t_final=0.25)
        traj = evolve(u0, cfg, "galerkin")
        high = np.abs(geo16.modes) > 6
        expected = linear(u0, 0.25, cfg)[high]
        assert np.max(np.abs(traj.snapshots[-1][high] - expected)) < 1e-12

    def test_collocation_trajectory_conserves_mass(self, geo16):
        p = make_params(geo16, beta=0.3)
        u0 = smooth_field(geo16, scale=0.3)
        traj = evolve(u0, make_cfg(p, dt=1e-3, t_final=0.5, store_every=100), "collocation")
        m = traj.diagnostics["mass"]
        assert np.max(np.abs(m - m[0])) / m[0] < 1e-10

    def test_collocation_substep_conserves_mass_and_potential(self, geo16):
        # the nonlinear substep alone fixes |u(x)| pointwise, hence the
        # quadrature mass and potential; the linear substep moves V
        p = make_params(geo16, beta=0.3)
        u0 = smooth_field(geo16, scale=0.3)
        out = collocation(u0, 0.7, p)
        assert mass_array(geo16, out) == pytest.approx(
            mass_array(geo16, u0), rel=1e-12
        )
        assert potential_array(geo16, out, p.beta) == pytest.approx(
            potential_array(geo16, u0, p.beta), rel=1e-12
        )

    def test_lie_scheme_first_order(self, geo16):
        p = make_params(geo16)
        u0 = smooth_field(geo16, scale=0.3)
        drifts = []
        for dt in (4e-3, 1e-3):
            traj = evolve(
                u0, make_cfg(p, dt=dt, t_final=0.5, scheme="lie", store_every=1000)
            )
            h = traj.diagnostics["hamiltonian"]
            drifts.append(np.max(np.abs(h - h[0])) / abs(h[0]))
        slope = np.polyfit(np.log([4e-3, 1e-3]), np.log(drifts), 1)[0]
        assert 0.7 <= slope <= 1.3


    # a plane box, a d = 1 box past the plane bound (the FFT's) and a d = 2 box
    @pytest.mark.parametrize(
        "d, n_max, mode", [(1, 16, "galerkin"), (1, 32, "galerkin"), (2, 4, "collocation")]
    )
    @pytest.mark.parametrize("scheme", ["strang", "lie"])
    def test_evolve_takes_the_steps_of_evolve_ensemble(self, d, n_max, mode, scheme):
        # both run every macro step in the one step shape of `_flow_step`:
        # `evolve` closes its states a diagnostics block at a time, the
        # ensemble once at the end
        geo = TorusGeometry(d=d, n_max=n_max)
        assert (geo.plane_basis is not None) == (n_max == 16)
        p = ModelParams(d=d, alpha=2.5, beta=0.3, gamma=1.0, n_cut=n_max - 1, geometry=geo)
        u0 = random_field(geo, GEN, decay=1.5, scale=0.3)
        cfg = make_cfg(p, dt=1e-2, t_final=0.1, scheme=scheme)
        last = evolve(u0, cfg, mode).snapshots[-1]
        assert last.tobytes() == evolve_ensemble(geo, u0[None], cfg, mode)[0].tobytes()


class TestLiouville:
    def test_unitary_when_linear(self):
        geo = TorusGeometry(d=1, n_max=2)
        p = make_params(geo, gamma=0.0, n_cut=2)
        probe = sample_gaussian_coeffs(p, RngStream(4).generator())
        assert liouville_check(p, 1e-3, probe) <= 1e-10

    def test_nonlinear_volume_preserved(self):
        geo = TorusGeometry(d=1, n_max=2)
        p = make_params(geo, beta=0.5, gamma=1.0, n_cut=2)
        probe = sample_gaussian_coeffs(p, RngStream(5).generator())
        assert liouville_check(p, 1e-3, probe) <= 1e-6

    def test_probe_independence(self):
        geo = TorusGeometry(d=1, n_max=2)
        p = make_params(geo, beta=0.5, gamma=1.0, n_cut=2)
        devs = [
            liouville_check(p, 1e-3, sample_gaussian_coeffs(p, RngStream(100 + i).generator()))
            for i in range(5)
        ]
        assert max(devs) <= 1e-6

    def test_dimension_cap(self):
        geo = TorusGeometry(d=1, n_max=8)
        p = make_params(geo, n_cut=8)
        probe = sample_gaussian_coeffs(p, RngStream(6).generator())
        with pytest.raises(ValueError):
            liouville_check(p, 1e-3, probe)


class TestTruncationConvergence:
    def make_setup(self, beta=0.5, scale=0.5):
        geo = TorusGeometry(d=1, n_max=64)
        p = make_params(geo, beta=beta, n_cut=64)
        u0 = smooth_field(geo, bandwidth=3, scale=scale)
        return geo, p, u0

    def test_reference_error_zero(self):
        geo, p, u0 = self.make_setup()
        cfg = make_cfg(p, dt=5e-3, t_final=0.2, store_every=10)
        table = truncation_convergence(u0, cfg, [8, 64], 64, 0.5)
        assert table.errors[-1] == 0.0

    def test_errors_decrease(self):
        geo, p, u0 = self.make_setup(scale=0.6)
        cfg = make_cfg(p, dt=2e-3, t_final=0.5, store_every=10)
        table = truncation_convergence(u0, cfg, [8, 16, 32], 64, 0.5)
        assert table.errors[0] > table.errors[1] > table.errors[2]

    def test_linear_flow_matches_projection_tail(self):
        geo = TorusGeometry(d=1, n_max=32)
        p = make_params(geo, gamma=0.0, n_cut=32)
        u0 = random_field(geo, GEN, decay=2.0)
        cfg = make_cfg(p, dt=1e-2, t_final=0.2, store_every=5)
        table = truncation_convergence(u0, cfg, [4, 8], 32, 0.5)
        for n, err in zip(table.n_values, table.errors):
            tail = u0 * (np.abs(geo.modes) > n)
            expected = float(
                np.sqrt(np.sum(geo.bracket(1.0) * np.abs(tail) ** 2))
            )
            assert err == pytest.approx(expected, rel=1e-12)


class TestExport:
    def test_trajectory_csv(self, tmp_path, geo16):
        p = make_params(geo16)
        u0 = smooth_field(geo16, scale=0.2)
        traj = evolve(u0, make_cfg(p, dt=1e-2, t_final=0.05))
        out = tmp_path / "traj.csv"
        trajectory_to_csv(traj, out, snapshot_dir=tmp_path / "snaps")
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("t,mass,hamiltonian,potential")
        assert len(lines) == len(traj.times) + 1
        assert len(list((tmp_path / "snaps").iterdir())) == len(traj.snapshots)

    def test_trajectory_csv_bytes_match_csv_writer(self, tmp_path):
        # every value formatted as f"{x:.17g}" by csv.writer, extremes included
        values = [-0.0, 5e-324, 1e308, np.nan, np.inf, -np.inf, 0.1, -2.5e-300]
        times = np.arange(600) * 0.01
        cols = [np.resize(np.roll(values, k), 600) for k in range(4)]
        names = ["mass", "hamiltonian", "potential", "h0.5_norm"]
        traj = Trajectory(times, np.zeros((1, 3), complex), times[:1], dict(zip(names, cols)))
        trajectory_to_csv(traj, tmp_path / "traj.csv")
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["t", *names])
        writer.writerows([f"{x:.17g}" for x in row] for row in zip(times, *cols))
        assert (tmp_path / "traj.csv").read_bytes() == want.getvalue().encode()
