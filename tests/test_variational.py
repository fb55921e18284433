import math
from dataclasses import dataclass

import numpy as np
import pytest

from gnls import (
    ModelParams,
    RngStream,
    TorusGeometry,
    bump_norm_scan,
    divergence_scan,
    kinetic_sum_array,
    objective_estimate,
    ou_gap_oracle,
    simulate_ou_gap,
    stability_dt,
    to_grid_array,
)
from gnls import spectral
from gnls.spectral import TWO_PI
from gnls.variational import (
    VariationalConfig,
    _active_slice,
    _bootstrap_means,
    _draw_endpoints,
    _euler_moments,
    bump_coeffs,
    ou_gap_variance,
    ou_rates,
)

from conftest import traced_peak


def make_params(n_cut, alpha=2.0, beta=0.5, gamma=-1.0, n_max=None):
    geo = TorusGeometry(d=1, n_max=n_max or 2 * n_cut, oversampling=2.0)
    return ModelParams(d=1, alpha=alpha, beta=beta, gamma=gamma, n_cut=n_cut, geometry=geo)


def stepwise_moments(p, dt):
    """The Euler chain's moment recursion `_euler_moments` powers, one step
    at a time in np.longdouble from the chain's float64 coefficients:
    (sbb, sbz, szz, expected path cost)."""
    geo = p.geometry
    active = np.abs(geo.modes) <= p.n_cut
    c = geo.bracket(-p.alpha / 2.0)[active]
    a = ou_rates(p)[active]
    steps = int(round(1.0 / dt))
    h = 1.0 / steps
    k_decay, k_drive, c = (np.asarray(x, np.longdouble) for x in (1.0 - h * a, h * a * c, c))
    sbb = sbz = szz = gap_sum = np.zeros_like(c)
    for _ in range(steps):
        gap_sum = gap_sum + (c**2 * sbb - 2.0 * c * sbz + szz)
        szz, sbz, sbb = (
            k_decay**2 * szz + 2.0 * k_decay * k_drive * sbz + k_drive**2 * sbb,
            k_decay * sbz + k_drive * sbb,
            sbb + np.longdouble(h),
        )
    w = geo.bracket(p.alpha)[active]
    return sbb, sbz, szz, h * np.sum(w * a**2 * gap_sum)


def assert_endpoint_moments(b, z, moments):
    """Per mode, the sample means of |b|^2, Re b conj(z) and |z|^2 lie within
    4 SE of (sbb, sbz, szz), and that of Im b conj(z) within 4 SE of 0."""
    bz = b * z.conj()
    samples = (np.abs(b) ** 2, bz.real, np.abs(z) ** 2, bz.imag)
    for sample, want in zip(samples, (*moments, 0.0)):
        se = sample.std(axis=0, ddof=1) / math.sqrt(len(sample))
        assert np.all(np.abs(sample.mean(axis=0) - want) <= 4 * se)


@dataclass
class DriftPath:
    """One realization of the coupled per-mode paths (B_n, Z_{N,n}) on [0,1],
    the path-by-path oracle of the Euler chain whose endpoint law and
    expected cost `_euler_moments` gives."""

    params: ModelParams
    times: np.ndarray
    b_path: np.ndarray  # (steps+1, n_active) complex
    z_path: np.ndarray
    active_modes: np.ndarray


def ou_stepper(
    params: ModelParams,
    gen: np.random.Generator,
    m: int,
    dt: float,
    keep_paths: bool = False,
    chunk: int = 2000,
):
    """Euler-Maruyama co-simulation of (B_n, Z_{N,n}), dZ = a (c B - Z) dt, on
    the active modes |n| <= N; the Brownian endpoints of the spectator modes
    above the cutoff are drawn in one shot (their law at t = 1 is the same and
    nothing couples to them in time).  Returns (b_final, z_final, steps, dt,
    active, paths_b, paths_z) with full-box final arrays.
    """
    geo = params.geometry
    modes = geo.modes
    n_modes = modes.size
    active = np.abs(modes) <= params.n_cut
    n_act = int(active.sum())
    c_act = geo.bracket(-params.alpha / 2.0)[active]
    a_act = c_act * params.n_cut ** (params.alpha / 2.0)
    steps = int(round(1.0 / dt))
    dt = 1.0 / steps
    noise_scale = math.sqrt(dt / 2.0)
    k_decay = 1.0 - dt * a_act
    k_drive = dt * a_act * c_act

    b_final = np.zeros((m, n_modes), dtype=np.complex128)
    z_final = np.zeros((m, n_modes), dtype=np.complex128)
    paths_b = paths_z = None

    for lo in range(0, m, chunk):
        hi = min(lo + chunk, m)
        mm = hi - lo
        b = np.zeros((mm, n_act), dtype=np.complex128)
        z = np.zeros((mm, n_act), dtype=np.complex128)
        if keep_paths and lo == 0:
            paths_b = [b[0].copy()]
            paths_z = [z[0].copy()]
        for _ in range(steps):
            noise = noise_scale * (
                gen.standard_normal((mm, n_act))
                + 1j * gen.standard_normal((mm, n_act))
            )
            z = k_decay * z + k_drive * b
            b += noise
            if keep_paths and lo == 0:
                paths_b.append(b[0].copy())
                paths_z.append(z[0].copy())
        b_final[lo:hi, active] = b
        z_final[lo:hi, active] = z
    # spectator modes: only B(1) ~ CN(0, 1) is ever used downstream
    n_tail = n_modes - n_act
    if n_tail:
        b_final[:, ~active] = (
            gen.standard_normal((m, n_tail)) + 1j * gen.standard_normal((m, n_tail))
        ) / math.sqrt(2.0)
    return b_final, z_final, steps, dt, active, paths_b, paths_z


def simulate_drift(config: VariationalConfig, rng: RngStream) -> DriftPath:
    """One realization of the coupled Brownian / OU mode paths on [0, 1]."""
    params = config.params
    dt = config.dt_sde if config.dt_sde is not None else stability_dt(params)
    gen = rng.generator()
    _, _, steps, dt, active, pb, pz = ou_stepper(
        params, gen, 1, dt, keep_paths=True
    )
    times = np.linspace(0.0, 1.0, steps + 1)
    return DriftPath(
        params, times, np.stack(pb), np.stack(pz), params.geometry.modes[active]
    )


def drift_cost(path: DriftPath, config: VariationalConfig) -> float:
    """(1/2) int_0^1 ||<grad>^{alpha/2} (-dZ/dt + eta f_N)||_{L^2}^2 dt.

    The bump lives on the annulus (N, 2N], disjoint from the drift modes, so
    the cross term vanishes and the bump contributes its constant
    (eta^2 / 2) ||f_N||_{H^{alpha/2}}^2.
    """
    params = config.params
    geo = params.geometry
    active = np.abs(geo.modes) <= params.n_cut
    w_active = geo.bracket(params.alpha)[active]
    dt = float(path.times[1] - path.times[0])
    dz = np.diff(path.z_path, axis=0) / dt
    cost_z = 0.5 * dt * float(np.sum(w_active * np.abs(dz) ** 2))
    f = bump_coeffs(geo, params.n_cut, config.x0)
    cost_f = 0.5 * config.eta**2 * float(kinetic_sum_array(geo, f, params.alpha))
    return cost_z + cost_f


class TestBump:
    def test_l2_mass_exact(self):
        geo = TorusGeometry(d=1, n_max=64)
        for n in (1, 8, 32):
            b = bump_coeffs(geo, n, 0.7)
            assert np.sum(np.abs(b) ** 2) == pytest.approx(
                1.0 / math.pi, abs=1e-14
            )

    def test_real_on_grid(self):
        geo = TorusGeometry(d=1, n_max=32)
        b = bump_coeffs(geo, 8, 2.1)
        vals = to_grid_array(geo, b)
        assert np.max(np.abs(vals.imag)) < 1e-12

    def test_peak_value(self):
        geo = TorusGeometry(d=1, n_max=64, oversampling=8.0)
        n = 16
        x0 = geo.x[40]  # grid-aligned center so the peak is sampled exactly
        b = bump_coeffs(geo, n, x0)
        vals = to_grid_array(geo, b).real
        assert vals[40] == pytest.approx(math.sqrt(n) / math.pi, rel=1e-12)

    def test_translation_equivariance(self):
        geo = TorusGeometry(d=1, n_max=32)
        shift = geo.x[12]
        a = bump_coeffs(geo, 8, shift)
        b = bump_coeffs(geo, 8, 0.0)
        translated = b * np.exp(-1j * geo.modes * shift)
        assert np.max(np.abs(a - translated)) < 1e-14

    def test_spectral_support_annulus(self):
        geo = TorusGeometry(d=1, n_max=32)
        b = bump_coeffs(geo, 8, 0.0)
        inside = (np.abs(geo.modes) > 8) & (np.abs(geo.modes) <= 16)
        assert np.all(b[~inside] == 0)
        assert np.all(b[inside] != 0)

    def test_geometry_too_small(self):
        geo = TorusGeometry(d=1, n_max=8)
        with pytest.raises(ValueError):
            bump_coeffs(geo, 8, 0.0)


class TestBumpScan:
    def test_scaling_exponents(self):
        scan = bump_norm_scan([8, 16, 32, 64, 128, 256, 512], [1.0])
        assert np.max(np.abs(scan.l2_sq - 1.0 / math.pi)) < 1e-12
        assert 0.45 <= scan.sup_exponent <= 0.55
        ratios = scan.sobolev_ratio[1.0]
        assert np.max(ratios) < 2.0 * np.min(ratios)  # bounded, no growth
        assert np.all(scan.near_peak_min > 0.25)  # concentration bound


class TestDriftPaths:
    def test_deterministic_replay(self):
        p = make_params(8)
        cfg = VariationalConfig(params=p, k_mass=1.0, l_clip=10.0, eta=0.5, m=1)
        a = simulate_drift(cfg, RngStream(3))
        b = simulate_drift(cfg, RngStream(3))
        assert np.array_equal(a.z_path, b.z_path)
        assert np.array_equal(a.b_path, b.b_path)

    def test_starts_at_zero_and_shapes(self):
        p = make_params(8)
        cfg = VariationalConfig(params=p, k_mass=1.0, l_clip=10.0, eta=0.5, m=1)
        path = simulate_drift(cfg, RngStream(4))
        assert np.all(path.z_path[0] == 0)
        assert np.all(path.b_path[0] == 0)
        assert path.z_path.shape[1] == path.active_modes.size == 17
        assert path.times[0] == 0.0 and path.times[-1] == 1.0

    def test_stability_rule(self):
        p = make_params(16, alpha=2.0)
        # fastest rate is N^(alpha/2) = 16 at the zero mode
        assert stability_dt(p) == pytest.approx(min(1e-3, 1.0 / 160.0))
        p64 = make_params(64, alpha=2.5)
        assert stability_dt(p64) == pytest.approx(1.0 / (10 * 64**1.25))

    def test_gap_oracle_small_case(self):
        p = make_params(4)
        oracle = ou_gap_oracle(p)
        vals = simulate_ou_gap(p, 4000, RngStream(5), scheme="exact")
        est, se = vals.mean(), vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(est - oracle) <= 3 * se

    def test_gap_decreases_with_cutoff(self):
        oracles = [ou_gap_oracle(make_params(n)) for n in (4, 16, 64)]
        assert oracles[0] > oracles[1] > oracles[2]

    def test_euler_and_exact_agree_in_distribution(self):
        p = make_params(8)
        a = simulate_ou_gap(p, 4000, RngStream(6), scheme="euler")
        b = simulate_ou_gap(p, 4000, RngStream(7), scheme="exact")
        se = math.hypot(a.std(ddof=1) / 63.2, b.std(ddof=1) / 63.2)
        assert abs(a.mean() - b.mean()) <= 4 * se


class TestGapLaw:
    """The endpoint law that `simulate_ou_gap` draws from, per scheme."""

    def test_exact_recursion_is_the_oracle(self):
        # the exact time-1 law of the gap sums to the Ito isometry
        for alpha in (2.0, 2.5):
            for n_cut in (4, 16, 64):
                geo = TorusGeometry(d=1, n_max=2 * n_cut, oversampling=1.0)
                p = ModelParams(
                    d=1, alpha=alpha, beta=0.5, gamma=-1.0, n_cut=n_cut, geometry=geo
                )
                v = ou_gap_variance(p, stability_dt(p), "exact")
                assert v.sum() / TWO_PI == pytest.approx(ou_gap_oracle(p), rel=1e-12)

    @pytest.mark.parametrize("n_cut", [4, 8, 16])
    def test_euler_power_matches_stepwise_recursion(self, n_cut):
        p = make_params(n_cut)
        for dt in (stability_dt(p), 1e-4):
            got = _euler_moments(p, dt)
            for g, want in zip(got, stepwise_moments(p, dt)):
                rel = np.abs((np.asarray(g, np.longdouble) - want) / want)
                assert np.max(rel) <= 1e-12, (n_cut, dt)

    def test_exact_law_ignores_dt(self):
        # K exact steps compose to the time-1 law, whatever K is
        p = make_params(16, alpha=2.5)
        v = ou_gap_variance(p, 1e-3, "exact")
        for dt in (1e-2, 0.5):
            assert np.array_equal(ou_gap_variance(p, dt, "exact"), v)
        active = np.abs(p.geometry.modes) <= p.n_cut
        a = ou_rates(p)[active]
        terms = p.geometry.bracket(-p.alpha)[active] * (1.0 - np.exp(-2.0 * a)) / (2.0 * a)
        assert np.allclose(v[active], terms, rtol=1e-15, atol=0.0)
        assert v.sum() / TWO_PI == pytest.approx(ou_gap_oracle(p), rel=1e-15)

    def test_euler_recursion_matches_path_simulator(self):
        # ties the recursion to the Euler path simulator behind
        # simulate_drift, whose endpoint law objective_estimate draws; the
        # modes are independent, so the pooled ratio sees a 1% per-mode error
        # the 4-SE per-mode comparison alone can miss
        p = make_params(4, n_max=8)
        m, dt = 20000, stability_dt(p)
        b, z, _, _, active, _, _ = ou_stepper(p, RngStream(30).generator(), m, dt)
        c = p.geometry.bracket(-p.alpha / 2.0)
        g2 = np.abs(c * b - z)[:, active] ** 2
        v = ou_gap_variance(p, dt, "euler")[active]
        se = g2.std(axis=0, ddof=1) / math.sqrt(m)
        assert np.all(np.abs(g2.mean(axis=0) - v) <= 4 * se)
        ratio = (g2 / v).mean(axis=1)
        assert abs(ratio.mean() - 1.0) <= 4 * ratio.std(ddof=1) / math.sqrt(m)
        # each of the three joint moments, not only the gap they combine into
        assert_endpoint_moments(b[:, active], z[:, active], _euler_moments(p, dt)[:3])

    def test_euler_bias_at_criterion_7b_cell(self):
        geo = TorusGeometry(d=1, n_max=128, oversampling=1.0)
        p = ModelParams(d=1, alpha=2.0, beta=0.5, gamma=-1.0, n_cut=64, geometry=geo)
        mean = ou_gap_variance(p, stability_dt(p), "euler").sum() / TWO_PI
        assert mean == pytest.approx(0.0145503, abs=1e-6)
        assert ou_gap_oracle(p) == pytest.approx(0.0144233, abs=1e-6)

    def test_spectators_and_scheme_check(self):
        p = make_params(4, n_max=8)
        outside = np.abs(p.geometry.modes) > 4
        for scheme in ("euler", "exact"):
            v = ou_gap_variance(p, stability_dt(p), scheme)
            assert np.array_equal(v[outside], p.geometry.bracket(-p.alpha)[outside])
        with pytest.raises(ValueError):
            ou_gap_variance(p, stability_dt(p), "milstein")


class TestEndpointLaw:
    """The one-shot endpoint draw and exact mean cost of `objective_estimate`."""

    def test_endpoint_draw_matches_moments(self):
        p = make_params(4, n_max=8)
        dt = stability_dt(p)
        b, z, _ = _draw_endpoints(p, dt, RngStream(31).generator(), 20000)
        act = _active_slice(p)
        assert np.array_equal(p.geometry.modes[act], np.arange(-4, 5))
        assert_endpoint_moments(b[:, act], z, _euler_moments(p, dt)[:3])
        spectators = np.concatenate([b[:, : act.start], b[:, act.stop :]], axis=1)
        power = np.abs(spectators) ** 2
        se = power.std(axis=0, ddof=1) / math.sqrt(len(power))
        assert np.all(np.abs(power.mean(axis=0) - 1.0) <= 4 * se)

    def test_expected_cost_matches_path_oracle(self):
        # the per-path cost the Euler stepper used to accumulate, step by step
        p = make_params(4)
        m, dt = 20000, 0.01
        geo = p.geometry
        active = np.abs(geo.modes) <= p.n_cut
        c = geo.bracket(-p.alpha / 2.0)[active]
        a = ou_rates(p)[active]
        w = geo.bracket(p.alpha)[active]
        gen = RngStream(32).generator()
        b = np.zeros((m, c.size), dtype=np.complex128)
        z = np.zeros_like(b)
        cost = np.zeros(m)
        for _ in range(100):
            noise = math.sqrt(dt / 2.0) * (
                gen.standard_normal(b.shape) + 1j * gen.standard_normal(b.shape)
            )
            z_new = (1.0 - dt * a) * z + dt * a * c * b
            b += noise
            dz = (z_new - z) / dt
            cost += dt * np.sum(w * np.abs(dz) ** 2, axis=1)
            z = z_new
        want = _euler_moments(p, dt)[3]
        assert abs(cost.mean() - want) <= 4 * cost.std(ddof=1) / math.sqrt(m)

    def test_objective_cost_is_the_expectation(self):
        p = make_params(8)
        cfg = VariationalConfig(params=p, k_mass=2.0, l_clip=50.0, eta=0.3, m=50, dt_sde=0.01)
        f = bump_coeffs(p.geometry, p.n_cut, 0.0)
        cost_f = 0.5 * 0.3**2 * float(np.sum(p.geometry.bracket(p.alpha) * np.abs(f) ** 2))
        want = 0.5 * _euler_moments(p, 0.01)[3] + cost_f
        assert objective_estimate(cfg, RngStream(33)).mean_cost == pytest.approx(want, rel=1e-12)

    def test_unstable_step_raises(self):
        # a_n peaks at N^(alpha/2) = 4 on the zero mode: the bound is 2/4
        p = make_params(4)
        assert np.all(np.isfinite(_euler_moments(p, 1.0 / 3.0)[:3]))
        for dt in (0.5, 1.0, 5.0, -0.1):
            with pytest.raises(ValueError, match=r"dt_sde .* 2/max a_n\) = \(0, 0\.5\)"):
                _euler_moments(p, dt)
        cfg = VariationalConfig(params=p, k_mass=2.0, l_clip=50.0, eta=0.3, m=10, dt_sde=0.5)
        with pytest.raises(ValueError, match="dt_sde 0.5 "):
            objective_estimate(cfg, RngStream(34))
        with pytest.raises(ValueError, match="dt_sde 0.5 "):
            ou_gap_variance(p, 0.5, "euler")
        # at alpha 2, N 64 the chain at dt 0.05 would reach an expected cost
        # of order 1e13 instead of failing
        geo = TorusGeometry(d=1, n_max=128, oversampling=1.0)
        p64 = ModelParams(d=1, alpha=2.0, beta=0.5, gamma=-1.0, n_cut=64, geometry=geo)
        with pytest.raises(ValueError, match=r"dt_sde 0.05 .*\(0, 0\.03125\)"):
            _euler_moments(p64, 0.05)


class TestDriftCost:
    def test_pure_bump_cost_closed_form(self):
        p = make_params(8)
        cfg = VariationalConfig(params=p, k_mass=1.0, l_clip=10.0, eta=0.7, m=1)
        path = simulate_drift(cfg, RngStream(8))
        # suppress the stochastic part: cost reduces to the bump term exactly
        path.z_path[:] = 0.0
        f = bump_coeffs(p.geometry, p.n_cut, 0.0)
        h_half_sq = float(np.sum(p.geometry.bracket(p.alpha) * np.abs(f) ** 2))
        assert drift_cost(path, cfg) == pytest.approx(0.5 * 0.7**2 * h_half_sq, rel=1e-12)

    def test_cost_nonnegative_and_grows_with_eta(self):
        p = make_params(8)
        costs = []
        for eta in (0.1, 0.5, 1.0):
            cfg = VariationalConfig(params=p, k_mass=1.0, l_clip=10.0, eta=eta, m=1)
            path = simulate_drift(cfg, RngStream(9))
            costs.append(drift_cost(path, cfg))
        assert all(c > 0 for c in costs)
        assert costs[0] < costs[1] < costs[2]

    def test_cost_growth_exponent(self):
        # ensemble mean cost grows no faster than max(d + alpha/2, alpha)
        means = []
        ladder = (4, 8, 16, 32)
        for n in ladder:
            p = make_params(n)
            cfg = VariationalConfig(params=p, k_mass=1.0, l_clip=10.0, eta=0.5, m=1)
            reps = [
                drift_cost(simulate_drift(cfg, RngStream(20 + r, n)), cfg)
                for r in range(4)
            ]
            means.append(np.mean(reps))
        slope = np.polyfit(np.log(ladder), np.log(means), 1)[0]
        assert slope <= max(1.0 + 2.0 / 2.0, 2.0) + 0.2


class TestObjective:
    def test_defocusing_control_nonnegative(self):
        p = make_params(8, gamma=1.0)
        cfg = VariationalConfig(params=p, k_mass=2.0, l_clip=50.0, eta=0.3, m=200)
        rep = objective_estimate(cfg, RngStream(10))
        assert rep.estimate >= 0.0

    def test_indicator_frequency_reasonable(self):
        # eta << K^2 keeps the shifted field inside the mass ball
        p = make_params(16, gamma=-1.0)
        cfg = VariationalConfig(params=p, k_mass=2.0, l_clip=1e4, eta=0.3, m=400)
        rep = objective_estimate(cfg, RngStream(11))
        assert rep.indicator_freq >= 0.5

    def test_focusing_objective_decreases_along_cutoff_ladder(self):
        # the bump peak contributes exp(~beta eta^2 N / pi^2) to the clipped
        # potential, overtaking the N^alpha drift cost once eta is large
        ests, ses = [], []
        eta = 4.0
        for n in (8, 16, 32):
            p = make_params(n, gamma=-1.0, beta=0.5)
            l_clip = 100.0 * math.exp(0.9 * 0.5 * eta**2 * n / math.pi**2)
            cfg = VariationalConfig(params=p, k_mass=3.5, l_clip=l_clip, eta=eta, m=400)
            rep = objective_estimate(cfg, RngStream(12, n))
            ests.append(rep.estimate)
            ses.append(rep.stderr)
        assert ests[0] > ests[1] > ests[2]
        # trend significance: last vs first separated well beyond noise
        assert (ests[2] - ests[0]) / math.hypot(ses[0], ses[2]) < -2.33


class TestDivergenceScan:
    def test_focusing_trend(self):
        # a mass cutoff of K = 3 leaves room for the clipped weight to grow
        # with the clip (K = 1 suppresses every sample beyond V ~ 10)
        p = make_params(16, gamma=-1.0, beta=0.5, n_max=16)
        scan = divergence_scan(p, -1.0, 3.0, [10.0, 100.0, 1000.0, 10000.0], 4000, RngStream(13))
        assert scan.trend_pvalue < 0.01
        assert scan.estimates[1] > scan.estimates[0]

    def test_focusing_saturates_beyond_potential_bound(self):
        # on {||u|| <= K} the potential is bounded by Vol*exp(beta (2N+1) K^2 / Vol):
        # clips above that bound cannot change a single sample, so the upper
        # ladder estimates coincide bit for bit
        p = make_params(16, gamma=-1.0, beta=0.5, n_max=16)
        scan = divergence_scan(p, -1.0, 1.0, [100.0, 1000.0, 10000.0], 2000, RngStream(14))
        bound = TWO_PI * math.exp(0.5 * 33 * 1.0 / TWO_PI)
        assert bound < 100.0
        assert scan.estimates[0] == scan.estimates[1] == scan.estimates[2]

    def test_defocusing_control_saturates(self):
        p = make_params(16, gamma=1.0, beta=0.5, n_max=16)
        scan = divergence_scan(p, 1.0, 1.0, [10.0, 100.0, 1000.0, 10000.0], 3000, RngStream(15))
        assert scan.saturated

    def test_dropping_mass_cutoff_increases_estimates(self):
        p = make_params(16, gamma=-1.0, beta=0.5, n_max=16)
        with_k = divergence_scan(p, -1.0, 1.0, [10.0, 100.0], 2000, RngStream(16))
        without = divergence_scan(p, -1.0, None, [10.0, 100.0], 2000, RngStream(16))
        assert np.all(without.estimates > with_k.estimates)


class TestBlockedBootstrap:
    @pytest.mark.parametrize("m", [4000, 3999])
    def test_blocks_are_rows_of_one_draw(self, m, monkeypatch):
        # indices below 2**32 take 32 bits each, two to a 64-bit word, and the
        # generator keeps the spare half between calls; an odd m (and an odd
        # block) puts block boundaries mid-word
        values = np.random.default_rng(1).standard_normal(m)
        idx = np.random.default_rng(2).integers(0, m, size=(2000, m))
        want = values[idx].mean(axis=1)
        for rows in (1, 7, 100, 256):
            monkeypatch.setattr(spectral, "_BLOCK_BYTES", rows * 8 * m)
            got = _bootstrap_means(values, 2000, np.random.default_rng(2))
            assert got.tobytes() == want.tobytes(), rows

    @pytest.mark.parametrize("m", [400, 399])
    def test_trend_pvalue_matches_one_draw(self, m, monkeypatch):
        p = make_params(16, gamma=-1.0, beta=0.5, n_max=16)
        # clips that only a sample or two of the ensemble exceed, so that many
        # resamples miss them and the p-value lies inside (0, 1)
        ladder = [14.0, 1000.0]
        # one block of n_boot rows is the single (n_boot, m) draw
        monkeypatch.setattr(spectral, "_BLOCK_BYTES", 2000 * 8 * m)
        want = divergence_scan(p, -1.0, 3.0, ladder, m, RngStream(17)).trend_pvalue
        assert 0.01 < want < 0.99
        for rows in (1, 7, 100, 256):
            monkeypatch.setattr(spectral, "_BLOCK_BYTES", rows * 8 * m)
            got = divergence_scan(p, -1.0, 3.0, ladder, m, RngStream(17)).trend_pvalue
            assert got == want, rows

    def test_traced_peak_has_no_bootstrap_matrix(self):
        # one (2000, 4000) int64 index matrix alone takes 61 MiB
        p = make_params(16, gamma=-1.0, beta=0.5, n_max=16)
        ladder = [10.0, 100.0, 1000.0]
        peak = traced_peak(divergence_scan, p, -1.0, 3.0, ladder, 4000, RngStream(13), 2000)
        assert peak < 24 * 2**20
