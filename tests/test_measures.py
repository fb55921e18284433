import math

import numpy as np
import pytest

from gnls import (
    ModelParams,
    NonIntegrableError,
    RngStream,
    TorusGeometry,
    exp_moment_oracle,
    gibbs_ensemble,
    gibbs_weight_array,
    kinetic_sum_array,
    mass_array,
    potential_array,
    sample_gaussian_coeffs,
    sigma,
    to_grid_array,
)
from gnls import spectral
from gnls.measures import weighted_mean_stderr
from gnls.spectral import TWO_PI

from conftest import from_modes, traced_peak


def make_params(alpha=2.0, beta=0.5, gamma=1.0, n_cut=8, n_max=None, d=1):
    geo = TorusGeometry(d=d, n_max=n_max or n_cut)
    return ModelParams(d=d, alpha=alpha, beta=beta, gamma=gamma, n_cut=n_cut, geometry=geo)


class TestSampling:
    def test_deterministic_replay(self):
        p = make_params()
        u1 = sample_gaussian_coeffs(p, RngStream(99, 3).generator())
        u2 = sample_gaussian_coeffs(p, RngStream(99, 3).generator())
        assert np.array_equal(u1, u2)

    def test_streams_independent(self):
        p = make_params()
        u1 = sample_gaussian_coeffs(p, RngStream(99, 0).generator())
        u2 = sample_gaussian_coeffs(p, RngStream(99, 1).generator())
        assert not np.allclose(u1, u2)

    def test_requires_supercritical_alpha(self):
        p = make_params(alpha=1.0)
        with pytest.raises(ValueError):
            sample_gaussian_coeffs(p, RngStream(0).generator())

    def test_mean_l2_mass_low_cutoff(self):
        # E ||Pi_1 u||^2 = 1 + 1/2 + 1/2 = 2 for alpha = 2
        p = make_params(n_cut=1)
        coeffs = sample_gaussian_coeffs(p, RngStream(5).generator(), 40000)
        norms = 2.0 * mass_array(p.geometry, coeffs)
        est, se, _ = weighted_mean_stderr(norms, None)
        assert abs(est - 2.0) <= 3 * se

    def test_mean_l2_matches_sigma_identity(self):
        p = make_params(alpha=2.5, n_cut=6)
        coeffs = sample_gaussian_coeffs(p, RngStream(6).generator(), 40000)
        norms = 2.0 * mass_array(p.geometry, coeffs)
        expected = TWO_PI * sigma(2.5, 6, 1)
        est, se, _ = weighted_mean_stderr(norms, None)
        assert abs(est - expected) <= 3 * se

    def test_modes_beyond_cutoff_unpopulated(self):
        p = make_params(n_cut=3, n_max=8)
        u = sample_gaussian_coeffs(p, RngStream(1).generator())
        assert np.all(u[np.abs(p.geometry.modes) > 3] == 0)


class TestObservables:
    def test_potential_of_zero(self):
        geo = TorusGeometry(d=1, n_max=4)
        zero = np.zeros(geo.box_shape, np.complex128)
        assert potential_array(geo, zero, 1.0) == pytest.approx(TWO_PI)

    def test_potential_constant_one(self):
        geo = TorusGeometry(d=1, n_max=4)
        one = from_modes(geo, {0: math.sqrt(TWO_PI)})
        assert potential_array(geo, one, 1.0) == pytest.approx(
            TWO_PI * math.e, rel=1e-12
        )

    def test_potential_single_oscillation(self):
        # |phi_1|^2 = 1/(2pi) pointwise
        geo = TorusGeometry(d=1, n_max=4)
        u = from_modes(geo, {1: 1.0})
        for beta in (0.3, 1.0, 2.5):
            expected = TWO_PI * math.exp(beta / TWO_PI)
            assert potential_array(geo, u, beta) == pytest.approx(
                expected, rel=1e-12
            )

    def test_potential_clip(self):
        geo = TorusGeometry(d=1, n_max=4)
        one = from_modes(geo, {0: math.sqrt(TWO_PI)})
        assert potential_array(geo, one, 1.0, clip=7.0) == pytest.approx(7.0)

    def test_mass_values_and_scaling(self):
        geo = TorusGeometry(d=1, n_max=4)
        one = from_modes(geo, {0: math.sqrt(TWO_PI)})
        assert mass_array(geo, one) == pytest.approx(math.pi)
        u = from_modes(geo, {0: 1.0})
        assert mass_array(geo, u) == pytest.approx(0.5)
        c = 1.7 - 0.3j
        scaled = c * u
        assert mass_array(geo, scaled) == pytest.approx(
            abs(c) ** 2 * mass_array(geo, u)
        )

    def test_hamiltonian_single_mode(self):
        p = make_params(alpha=2.0, beta=1.0, gamma=1.0, n_cut=4)
        u = from_modes(p.geometry, {1: 1.0})
        expected = 1.0 + TWO_PI * math.exp(1.0 / TWO_PI)
        # the half-weight energy of the invariance observable
        kin = kinetic_sum_array(p.geometry, u, p.alpha)
        h = 0.5 * kin + p.gamma * potential_array(p.geometry, u, p.beta)
        assert h == pytest.approx(expected, rel=1e-12)

    def test_kinetic_sum_full_weight(self):
        # w_n = <n>^2 = 1 + n^2 (bracket) or |n|^2 (pure), no factor 1/2
        geo = TorusGeometry(d=1, n_max=4)
        u = from_modes(geo, {1: 1.0, -2: 0.5j})
        assert kinetic_sum_array(geo, u, 2.0) == pytest.approx(2.0 + 5.0 * 0.25)
        assert kinetic_sum_array(geo, u, 2.0, "pure") == pytest.approx(1.0 + 4.0 * 0.25)
        batch = np.stack([u, 2.0 * u])
        assert np.allclose(kinetic_sum_array(geo, batch, 2.0), [3.25, 13.0])

    def test_gibbs_weight_bound_and_limits(self):
        p = make_params(beta=0.5, gamma=2.0)
        u = sample_gaussian_coeffs(p, RngStream(3).generator())
        w = gibbs_weight_array(p, u)
        assert 0 < w <= math.exp(-p.gamma * TWO_PI)
        p0 = make_params(beta=0.5, gamma=0.0)
        assert gibbs_weight_array(p0, u) == 1.0
        z = np.zeros(p.geometry.box_shape, np.complex128)
        p1 = make_params(beta=1.0, gamma=1.0)
        assert gibbs_weight_array(p1, z) == pytest.approx(math.exp(-TWO_PI), rel=1e-12)


def one_shot_potential(geo, coeffs, beta, clip=None):
    """V_beta of every row at once, the quadrature before row blocks."""
    values = to_grid_array(geo, coeffs, shifted=True)
    v = geo.quad_weight() * np.sum(
        np.exp(beta * geo.scale**2 * np.abs(values) ** 2), axis=geo.axes
    )
    return v if clip is None else np.minimum(v, clip)


def complex_rows(geo, batch, seed, scale=0.4):
    gen = np.random.default_rng(seed)
    shape = (*batch, *geo.box_shape)
    return scale * (gen.standard_normal(shape) + 1j * gen.standard_normal(shape))


class TestBlockedPotential:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("batch", [(), (5,), (3, 3)])
    @pytest.mark.parametrize("clipped", [False, True])
    def test_blocks_equal_one_shot(self, d, batch, clipped, monkeypatch):
        geo = TorusGeometry(d=d, n_max=3)
        # four rows per block: 5 rows fill blocks of 4 and 1, 9 rows 4, 4 and 1
        monkeypatch.setattr(spectral, "_BLOCK_BYTES", 4 * 16 * math.prod(geo.grid_shape))
        a = complex_rows(geo, batch, seed=3 * d + len(batch))
        clip = float(np.median(one_shot_potential(geo, a, 0.7))) if clipped else None
        got = potential_array(geo, a, 0.7, clip)
        want = one_shot_potential(geo, a, 0.7, clip)
        assert type(got) is type(want) and np.shape(got) == batch
        assert got.tobytes() == want.tobytes()

    def test_default_blocks_equal_one_shot(self):
        geo = TorusGeometry(d=1, n_max=8)
        rows = spectral._block_rows(16 * geo.m_grid)
        a = complex_rows(geo, (2 * rows + 7,), seed=5)
        assert potential_array(geo, a, 0.5).tobytes() == one_shot_potential(geo, a, 0.5).tobytes()

    def test_traced_peak_is_one_block(self):
        # a one-shot grid of 20000 rows at m_grid 70 alone takes 21.36 MiB
        geo = TorusGeometry(d=1, n_max=8)
        a = complex_rows(geo, (20000,), seed=6)
        assert traced_peak(potential_array, geo, a, 0.5) < 4 * 2**20


class TestGibbsEnsemble:
    def test_small_beta_limit(self):
        p = make_params(beta=1e-9, gamma=1.0, n_cut=4)
        ens = gibbs_ensemble(p, 200, RngStream(7))
        assert np.allclose(ens.weights, math.exp(-TWO_PI), rtol=1e-6)
        assert ens.z_estimate == pytest.approx(math.exp(-TWO_PI), rel=1e-6)

    def test_importance_vs_rejection_mutual_oracle(self):
        p = make_params(alpha=2.0, beta=0.1, gamma=1.0, n_cut=8)
        imp = gibbs_ensemble(p, 4000, RngStream(21), "importance")
        rej = gibbs_ensemble(p, 4000, RngStream(22), "rejection")
        ji = mass_array(p.geometry, imp.coeffs)
        jr = mass_array(p.geometry, rej.coeffs)
        est_i, se_i, _ = weighted_mean_stderr(ji, imp.weights)
        est_r, se_r, _ = weighted_mean_stderr(jr, None)
        assert abs(est_i - est_r) <= 3 * math.hypot(se_i, se_r)
        # partition function agreement via the two independent routes
        assert abs(imp.z_estimate - rej.z_estimate) <= 3 * math.hypot(
            imp.z_stderr, rej.z_stderr
        )

    def test_ess_bounded_by_ensemble_size(self):
        p = make_params(beta=0.3)
        ens = gibbs_ensemble(p, 500, RngStream(8))
        j = mass_array(p.geometry, ens.coeffs)
        _, _, ess = weighted_mean_stderr(j, ens.weights)
        assert ess <= 500.0 + 1e-9

    def test_partition_monotone_in_beta(self):
        zs = []
        for beta in (0.1, 0.3, 0.6):
            p = make_params(beta=beta, gamma=1.0, n_cut=6)
            zs.append(gibbs_ensemble(p, 3000, RngStream(11)).z_estimate)
        assert zs[0] > zs[1] > zs[2]

    def test_rejection_rejects_focusing(self):
        p = make_params(gamma=-1.0)
        with pytest.raises(ValueError):
            gibbs_ensemble(p, 10, RngStream(1), "rejection")


class TestMomentOracle:
    def test_zero_exponent(self):
        p = make_params(beta=0.5, n_cut=4)
        assert exp_moment_oracle(p, 0.0) == 1.0

    def test_reference_value(self):
        p = make_params(alpha=2.0, beta=1.0, n_cut=1)
        assert exp_moment_oracle(p, 1.0) == pytest.approx(1.0 / (1.0 - 1.0 / math.pi))

    def test_pole(self):
        p = make_params(alpha=2.0, beta=1.0, n_cut=1)
        sig = p.sigma_n()
        near = exp_moment_oracle(p, 0.999 / sig)
        assert near > 100.0
        with pytest.raises(NonIntegrableError):
            exp_moment_oracle(p, 1.0 / sig)

    def test_monte_carlo_agreement(self):
        # field sampled through the full pipeline, evaluated at x = 0
        p = make_params(alpha=2.0, beta=1.0, n_cut=1)
        gen = RngStream(17).generator()
        coeffs = sample_gaussian_coeffs(p, gen, 10**5)
        u0 = np.sum(coeffs, axis=-1) / math.sqrt(TWO_PI)
        vals = np.exp(np.abs(u0) ** 2)
        est, se, _ = weighted_mean_stderr(vals, None)
        assert abs(est - exp_moment_oracle(p, 1.0)) <= 3 * se

    def test_moderate_grid_coverage(self):
        # p*beta*sigma <= 0.5: the estimator has (just) finite variance and
        # plain 3-SE coverage is reliable
        fails = 0
        for alpha, n_cut in ((1.5, 4), (2.0, 4), (3.0, 16)):
            p = make_params(alpha=alpha, beta=1.0, n_cut=n_cut)
            sig = p.sigma_n()
            for rep in range(5):
                gen = RngStream(100 + rep, n_cut).generator()
                coeffs = sample_gaussian_coeffs(p, gen, 20000)
                u0 = np.sum(coeffs, axis=-1) / math.sqrt(TWO_PI)
                for target in (0.2, 0.5):
                    c = target / sig
                    vals = np.exp(c * np.abs(u0) ** 2)
                    est, se, _ = weighted_mean_stderr(vals, None)
                    if abs(est - 1.0 / (1.0 - target)) > 3 * se:
                        fails += 1
        assert fails <= 2


class TestReports:
    def test_ensemble_report_contract(self):
        # the weighted statistics `gnls sample` reports, built from an
        # importance ensemble and its per-row potential
        p = make_params()
        ens = gibbs_ensemble(p, 400, RngStream(0), "importance")
        assert ens.size == 400
        masked = ens.coeffs * p.geometry.euclid_mask(p.n_cut)
        assert np.allclose(ens.potential, potential_array(p.geometry, masked, p.beta))
        vals = {"potential": ens.potential, "mass": mass_array(p.geometry, ens.coeffs)}
        for name in vals:
            est, se, ess = weighted_mean_stderr(vals[name], ens.weights)
            assert se >= 0
            assert ess <= 400.0 + 1e-9
        assert 0 < np.max(ens.weights) / np.sum(ens.weights) < 1

    def test_weighted_reduces_to_plain_mean(self):
        vals = np.arange(10.0)
        est_w, se_w, _ = weighted_mean_stderr(vals, np.ones(10))
        est_p, se_p, _ = weighted_mean_stderr(vals, None)
        assert est_w == pytest.approx(est_p)
        # linearized weighted SE uses the 1/n normalization
        assert se_w == pytest.approx(se_p * math.sqrt(9.0 / 10.0), rel=1e-12)
