import math

import numpy as np
import pytest

from gnls import (
    CoeffSequence,
    FlowConfig,
    ModelParams,
    MultilinearSpec,
    TorusGeometry,
    apply_gauge,
    decomposition_check,
    evolve,
    gauge_value,
    gauged_flow_equivalence,
    multilinear_n,
    multilinear_r,
    to_grid_array,
)
from gnls.gauge import EnumerationBudgetError, cumulative_simpson
from gnls.spectral import TWO_PI

from conftest import from_modes, smooth_field

GEN = np.random.default_rng(11)


def make_params(geo, alpha=2.0, beta=0.5, gamma=1.0):
    return ModelParams(d=1, alpha=alpha, beta=beta, gamma=gamma, n_cut=geo.n_max, geometry=geo)


def gauge_value_series(u, params, terms=50):
    """Series oracle 2 gamma beta sum_k (beta^k / k!) (k+1) A[|u|^{2k}]."""
    absq = np.abs(to_grid_array(params.geometry, u)) ** 2
    total = 0.0
    term = np.ones_like(absq)  # beta^k |u|^{2k} / k!
    for k in range(terms):
        total += (k + 1) * float(np.mean(term))
        term = term * params.beta * absq / (k + 1)
    return 2.0 * params.gamma * params.beta * total


def random_sequence(n_modes=4, span=4):
    modes = GEN.choice(np.arange(-span, span + 1), size=n_modes, replace=False)
    coeffs = GEN.standard_normal(n_modes) + 1j * GEN.standard_normal(n_modes)
    return CoeffSequence(modes, coeffs)


class TestMeanFunctional:
    """A[f] = (1/2pi) int f dx, which `gauge_frequency` takes as the grid mean:
    exact for the trigonometric polynomials the grid resolves."""

    def test_constant(self):
        geo = TorusGeometry(d=1, n_max=4)
        u = from_modes(geo, {0: 2.5 * math.sqrt(TWO_PI)})
        assert np.mean(to_grid_array(geo, u)) == pytest.approx(2.5)

    def test_oscillation_averages_out(self):
        geo = TorusGeometry(d=1, n_max=4)
        u = from_modes(geo, {1: 1.0})
        assert abs(np.mean(to_grid_array(geo, u))) < 1e-15

    def test_mean_of_modulus_squared(self):
        # A[|u|^2] = sum |c_n|^2 for u = sum c_n e^{inx}
        geo = TorusGeometry(d=1, n_max=4)
        c0, c1 = 1.0, 2.0
        u = from_modes(
            geo, {0: c0 * math.sqrt(TWO_PI), 1: c1 * math.sqrt(TWO_PI)}
        )
        absq = np.abs(to_grid_array(geo, u)) ** 2
        assert np.mean(absq) == pytest.approx(5.0, rel=1e-12)

    def test_coefficient_sequence(self):
        # on a coefficient sequence A is the zero mode, 0 when it is absent
        v = CoeffSequence.from_dict({0: 3.0 + 1j, 2: -1.0})
        assert v.get(0) == 3.0 + 1j
        assert CoeffSequence.from_dict({2: -1.0}).get(0) == 0.0


class TestGaugeValue:
    def test_zero_field(self):
        geo = TorusGeometry(d=1, n_max=4)
        p = make_params(geo, beta=0.7, gamma=1.3)
        assert gauge_value(np.zeros(geo.box_shape, np.complex128), p) == pytest.approx(
            2.0 * 1.3 * 0.7
        )

    def test_constant_one(self):
        geo = TorusGeometry(d=1, n_max=4)
        p = make_params(geo, beta=0.7, gamma=1.0)
        one = from_modes(geo, {0: math.sqrt(TWO_PI)})
        expected = 2.0 * 0.7 * (1 + 0.7) * math.exp(0.7)
        assert gauge_value(one, p) == pytest.approx(expected, rel=1e-13)

    def test_series_oracle(self):
        geo = TorusGeometry(d=1, n_max=16)
        p = make_params(geo, beta=0.3)
        u = smooth_field(geo, bandwidth=4, scale=0.5, seed=3)
        closed = gauge_value(u, p)
        series = gauge_value_series(u, p, terms=50)
        assert abs(closed - series) < 1e-12 * max(1.0, abs(closed))

    def test_batch_matches_rows(self):
        # one call over a stack of boxes gives each row's value bit for bit
        geo = TorusGeometry(d=1, n_max=16)
        p = make_params(geo, beta=0.3)
        rows = np.stack([smooth_field(geo, bandwidth=4, scale=0.5, seed=s) for s in range(3)])
        batched = gauge_value(rows, p)
        assert batched.shape == (3,)
        assert batched.tolist() == [gauge_value(a, p) for a in rows]


class TestCumulativeSimpson:
    def test_exact_on_quadratics(self):
        h = 0.1
        x = h * np.arange(11)
        y = 3.0 * x**2 - 2.0 * x + 1.0
        exact = x**3 - x**2 + x
        out = cumulative_simpson(y, h)
        assert np.max(np.abs(out - exact)) < 1e-13

    def test_fourth_order(self):
        errs = []
        for n in (16, 32):
            h = 1.0 / n
            x = h * np.arange(n + 1)
            out = cumulative_simpson(np.cos(4 * x), h)
            errs.append(np.max(np.abs(out - np.sin(4 * x) / 4.0)))
        assert errs[0] / errs[1] > 10.0


class TestApplyGauge:
    def setup_traj(self, beta=0.5, gamma=1.0, t_final=0.2):
        geo = TorusGeometry(d=1, n_max=16)
        p = make_params(geo, beta=beta, gamma=gamma)
        u0 = smooth_field(geo, bandwidth=2, scale=0.4, seed=5)
        cfg = FlowConfig(params=p, dt=1e-3, t_final=t_final, dispersion_symbol="pure")
        return p, evolve(u0, cfg, "collocation")

    def test_roundtrip_identity(self):
        p, traj = self.setup_traj()
        back = apply_gauge(apply_gauge(traj, p, "forward"), p, "inverse")
        for a, b in zip(back.snapshots, traj.snapshots):
            assert np.max(np.abs(a - b)) < 1e-10

    def test_initial_snapshot_unchanged(self):
        p, traj = self.setup_traj()
        g = apply_gauge(traj, p, "forward")
        assert np.array_equal(g.snapshots[0], traj.snapshots[0])

    def test_modulus_unchanged(self):
        p, traj = self.setup_traj()
        g = apply_gauge(traj, p, "forward")
        for a, b in zip(g.snapshots, traj.snapshots):
            assert np.max(
                np.abs(
                    np.abs(to_grid_array(p.geometry, a))
                    - np.abs(to_grid_array(p.geometry, b))
                )
            ) < 1e-12

    def test_constant_field_phase_rate(self):
        # u(t) constant in modulus: accumulated phase = G(u) * t
        geo = TorusGeometry(d=1, n_max=8)
        p = make_params(geo, beta=0.4, gamma=1.0)
        one = from_modes(geo, {0: math.sqrt(TWO_PI)})
        cfg = FlowConfig(params=p, dt=1e-3, t_final=0.3, dispersion_symbol="pure")
        traj = evolve(one, cfg, "collocation")
        g = apply_gauge(traj, p, "forward")
        rate = 2.0 * 0.4 * (1 + 0.4) * math.exp(0.4)
        for t, a, b in zip(traj.snapshot_times, g.snapshots, traj.snapshots):
            phase = a[geo.n_max] / b[geo.n_max]
            assert abs(phase - np.exp(1j * rate * t)) < 1e-8


class TestMultilinearForms:
    def test_hand_case_cubic(self):
        v = CoeffSequence.from_dict({0: 1.0, 1: 2.0})
        spec = MultilinearSpec(1)
        r3 = multilinear_r(spec, [v] * 3)
        n3 = multilinear_n(spec, [v] * 3)
        assert r3.get(0) == pytest.approx(1.0)
        assert r3.get(1) == pytest.approx(8.0)
        assert abs(n3.get(0)) < 1e-14
        # cubic resonant part is |c_n|^2 c_n at every mode
        assert r3.get(1) == pytest.approx(abs(2.0) ** 2 * 2.0)

    def test_single_mode_fully_resonant(self):
        v = CoeffSequence.from_dict({0: 1.0})
        n3 = multilinear_n(MultilinearSpec(1), [v] * 3)
        assert np.max(np.abs(n3.coeffs)) == 0.0

    def test_budget_guard(self):
        big = CoeffSequence(np.arange(-40, 41), np.ones(81, dtype=complex))
        with pytest.raises(EnumerationBudgetError):
            multilinear_n(MultilinearSpec(3), [big] * 7)

    def test_conjugation_reflection_symmetry(self):
        # conjugating every input conjugates and reflects the output
        spec = MultilinearSpec(2)
        vs = [random_sequence() for _ in range(5)]
        out = multilinear_n(spec, vs)
        conj = multilinear_n(
            spec, [CoeffSequence(-v.modes, np.conj(v.coeffs)) for v in vs]
        )
        for n in out.modes:
            assert conj.get(-n) == pytest.approx(np.conj(out.get(n)), abs=1e-12)

    def test_cubic_resonant_depends_only_on_moduli(self):
        # k = 1: R_3(n) = |v(n)|^2 v(n); phase rotations of other modes
        # cannot move it
        v = random_sequence(4, 3)
        spec = MultilinearSpec(1)
        base = multilinear_r(spec, [v] * 3)
        m0 = v.modes[1]
        rotated = v.coeffs.copy()
        rotated[1] *= np.exp(0.73j)
        w = CoeffSequence(v.modes, rotated)
        out = multilinear_r(spec, [w] * 3)
        for n in v.modes:
            if n != m0:
                assert out.get(n) == pytest.approx(base.get(n), abs=1e-12)


class TestDecomposition:
    def test_hand_value(self):
        # LHS at n=0: conv(0) - 2 A[|v|^2] c_0 = 9 - 10 = -1 = N(0) - R(0)
        v = CoeffSequence.from_dict({0: 1.0, 1: 2.0})
        spec = MultilinearSpec(1)
        n3 = multilinear_n(spec, [v] * 3)
        r3 = multilinear_r(spec, [v] * 3)
        assert n3.get(0) - r3.get(0) == pytest.approx(-1.0)
        rep = decomposition_check(1, v)
        assert rep.max_error < 1e-12

    def test_zero_field(self):
        v = CoeffSequence.from_dict({0: 0.0})
        rep = decomposition_check(2, v)
        assert rep.max_error == 0.0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_random_inputs(self, k):
        for _ in range(10):
            rep = decomposition_check(k, random_sequence())
            assert rep.relative_error < 1e-10

    def test_identity_with_five_modes(self):
        v = random_sequence(5, 4)
        rep = decomposition_check(2, v)
        assert rep.relative_error < 1e-10


class TestGaugedFlowEquivalence:
    def make_setup(self, gamma=1.0, beta=0.5):
        geo = TorusGeometry(d=1, n_max=24)
        p = make_params(geo, beta=beta, gamma=gamma)
        u0 = from_modes(
            geo, {-1: 0.4 + 0.1j, 0: 0.5 - 0.2j, 2: 0.2 + 0.3j}
        )
        return p, u0

    def test_linear_flow_no_discrepancy(self):
        p, u0 = self.make_setup(gamma=0.0)
        cfg = FlowConfig(params=p, dt=1e-3, t_final=0.2, dispersion_symbol="pure")
        rep = gauged_flow_equivalence(u0, cfg, 0.2)
        assert rep.sup_discrepancy < 1e-12

    def test_constant_datum(self):
        geo = TorusGeometry(d=1, n_max=8)
        p = make_params(geo, beta=0.4, gamma=1.0)
        u0 = from_modes(geo, {0: 1.0})
        cfg = FlowConfig(params=p, dt=1e-3, t_final=0.3, dispersion_symbol="pure")
        rep = gauged_flow_equivalence(u0, cfg, 0.3)
        assert rep.sup_discrepancy < 1e-9

    def test_second_order_in_dt(self):
        p, u0 = self.make_setup()
        sups = []
        for dt in (4e-4, 2e-4):
            cfg = FlowConfig(params=p, dt=dt, t_final=0.25, dispersion_symbol="pure")
            sups.append(gauged_flow_equivalence(u0, cfg, 0.25).sup_discrepancy)
        assert sups[0] / sups[1] == pytest.approx(4.0, rel=0.5)
