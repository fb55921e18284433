"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1 and 8 are implemented exactly as stated and are expected to fail
at specific cells for reasons proved in the analysis notes: the pointwise
exponential-moment estimator has infinite variance once p*beta*sigma >= 1/2,
so plain 3-SE coverage breaks down at 0.8; and under the mass cutoff K = 1
the clipped potential is bounded a.s. by ~87, so the clip ladder saturates
from its second rung.  Companion tests (marked "mechanism") demonstrate the
underlying physics in the attainable regime.
"""

import functools
import math
import time

import numpy as np
import pytest

from gnls import (
    CoeffSequence,
    FlowConfig,
    ModelParams,
    MultilinearSpec,
    RngStream,
    TorusGeometry,
    bump_norm_scan,
    divergence_scan,
    evolve,
    gauged_flow_equivalence,
    invariance_test,
    liouville_check,
    multilinear_n,
    multilinear_r,
    ou_gap_oracle,
    sigma,
    simulate_ou_gap,
    truncation_convergence,
)
from gnls.gauge import decomposition_check
from gnls.measures import sample_gaussian_coeffs, weighted_mean_stderr
from gnls.spectral import TWO_PI

from conftest import from_modes


def announce(num, name, passed, detail=""):
    verdict = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {verdict}  {detail}")


# ---------------------------------------------------------------------------
# 1. moment oracle coverage grid
# ---------------------------------------------------------------------------


@functools.cache
def moment_oracle_grid():
    """Criterion 1's coverage grid, drawn once: {(alpha, n_cut, p beta sigma):
    the repeats of 20 whose estimate lies within 3 SE of the oracle}, and the
    seconds the draw took.  Criterion 1b reads the cells at p beta sigma <= 0.5
    of the same ensembles."""
    t0 = time.time()
    repeats = 20
    m = 10**5
    cells = {}
    for alpha in (1.5, 2.0, 3.0):
        for n_cut in (1, 4, 16):
            geo = TorusGeometry(d=1, n_max=n_cut)
            p = ModelParams(d=1, alpha=alpha, beta=1.0, gamma=1.0, n_cut=n_cut, geometry=geo)
            sig = p.sigma_n()
            hits = {0.2: 0, 0.5: 0, 0.8: 0}
            for rep in range(repeats):
                gen = RngStream(0, 1000 * n_cut + rep).generator(int(10 * alpha))
                coeffs = sample_gaussian_coeffs(p, gen, m)
                u0 = np.sum(coeffs, axis=-1) / math.sqrt(TWO_PI)
                absq = np.abs(u0) ** 2
                for target in hits:
                    vals = np.exp(target / sig * absq)
                    est, se, _ = weighted_mean_stderr(vals, None)
                    if abs(est - 1.0 / (1.0 - target)) <= 3 * se:
                        hits[target] += 1
            for target, h in hits.items():
                cells[(alpha, n_cut, target)] = h
    return cells, time.time() - t0


def test_criterion_1_moment_oracle():
    repeats = 20
    # the draw's own time, whichever of criteria 1 and 1b made it
    cells, elapsed = moment_oracle_grid()
    bad = {k: v for k, v in cells.items() if v < 0.95 * repeats}
    lines = ", ".join(f"{k}:{v}/20" for k, v in sorted(bad.items()))
    passed = not bad and elapsed < 30.0
    announce(
        1,
        "moment oracle",
        passed,
        f"runtime {elapsed:.1f}s; cells below 95%: {lines or 'none'}",
    )
    assert elapsed < 30.0
    assert not bad, (
        "3-SE coverage fails where p*beta*sigma = 0.8: the estimator "
        "exp(p beta |u|^2) has infinite variance for p*beta*sigma >= 1/2 "
        f"(failing cells: {lines})"
    )


def test_criterion_1_mechanism_finite_variance_cells():
    # the same grid restricted to p*beta*sigma <= 0.5 meets the bar
    cells, _ = moment_oracle_grid()
    worst = min(hits for (_, _, target), hits in cells.items() if target <= 0.5)
    announce("1b", "moment oracle, finite-variance cells", worst >= 19, f"worst cell {worst}/20")
    assert worst >= 19


# ---------------------------------------------------------------------------
# 2. resonance decomposition
# ---------------------------------------------------------------------------


def test_criterion_2_resonance_decomposition():
    gen = np.random.default_rng(202)
    worst = 0.0
    for k in (1, 2, 3):
        for _ in range(100):
            modes = gen.choice(np.arange(-4, 5), size=4, replace=False)
            coeffs = gen.standard_normal(4) + 1j * gen.standard_normal(4)
            rep = decomposition_check(k, CoeffSequence(modes, coeffs))
            worst = max(worst, rep.relative_error)
    v = CoeffSequence.from_dict({0: 1.0, 1: 2.0})
    spec = MultilinearSpec(1)
    hand = multilinear_n(spec, [v] * 3).get(0) - multilinear_r(spec, [v] * 3).get(0)
    ok = worst <= 1e-10 and hand == pytest.approx(-1.0, abs=1e-14)
    announce(2, "resonance decomposition", ok, f"max rel err {worst:.2e}; hand case {hand:.6f}")
    assert worst <= 1e-10
    assert hand == pytest.approx(-1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# 3. conservation
# ---------------------------------------------------------------------------


def acceptance_initial_datum(geo, scale=0.08, bandwidth=3, seed=7):
    gen = np.random.default_rng(seed)
    u0 = np.zeros(geo.box_shape, np.complex128)
    for n in range(-bandwidth, bandwidth + 1):
        u0[geo.n_max + n] = scale * (
            gen.standard_normal() + 1j * gen.standard_normal()
        ) / (1 + abs(n))
    return u0


def test_criterion_3_conservation():
    t0 = time.time()
    geo = TorusGeometry(d=1, n_max=16)
    p = ModelParams(d=1, alpha=2.0, beta=0.5, gamma=1.0, n_cut=16, geometry=geo)
    u0 = acceptance_initial_datum(geo)
    cfg = FlowConfig(params=p, dt=1e-3, t_final=10.0, store_every=10000)
    traj = evolve(u0, cfg, "galerkin")
    m = traj.diagnostics["mass"]
    h = traj.diagnostics["hamiltonian"]
    mass_drift = float(np.max(np.abs(m - m[0])) / m[0])
    ham_drift = float(np.max(np.abs(h - h[0])) / abs(h[0]))
    drifts = []
    ladder = (4e-3, 2e-3, 1e-3, 5e-4)
    for dt in ladder:
        traj_dt = evolve(
            u0, FlowConfig(params=p, dt=dt, t_final=10.0, store_every=100000), "galerkin"
        )
        hh = traj_dt.diagnostics["hamiltonian"]
        drifts.append(float(np.max(np.abs(hh - hh[0])) / abs(hh[0])))
    slope = float(np.polyfit(np.log(ladder), np.log(drifts), 1)[0])
    elapsed = time.time() - t0
    ok = mass_drift <= 1e-10 and ham_drift <= 1e-6 and 1.8 <= slope <= 2.2 and elapsed < 60
    announce(
        3,
        "conservation",
        ok,
        f"mass {mass_drift:.1e}, energy {ham_drift:.1e}, order {slope:.2f}, {elapsed:.0f}s",
    )
    assert mass_drift <= 1e-10
    assert ham_drift <= 1e-6
    assert 1.8 <= slope <= 2.2
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 4. Liouville
# ---------------------------------------------------------------------------


def test_criterion_4_liouville():
    geo = TorusGeometry(d=1, n_max=2)
    p = ModelParams(d=1, alpha=2.0, beta=0.5, gamma=1.0, n_cut=2, geometry=geo)
    devs = [
        liouville_check(p, 1e-3, sample_gaussian_coeffs(p, RngStream(400 + i).generator()))
        for i in range(5)
    ]
    worst = max(devs)
    announce(4, "Liouville", worst <= 1e-6, f"max |det J - 1| = {worst:.2e} over 5 probes")
    assert worst <= 1e-6


# ---------------------------------------------------------------------------
# 5. invariance
# ---------------------------------------------------------------------------


def test_criterion_5_invariance():
    t0 = time.time()
    n_cut, alpha = 8, 2.5
    geo = TorusGeometry(d=1, n_max=n_cut)
    beta = 0.1 / sigma(alpha, n_cut, 1)
    p = ModelParams(d=1, alpha=alpha, beta=beta, gamma=1.0, n_cut=n_cut, geometry=geo)
    cfg = FlowConfig(params=p, dt=2e-3, t_final=1.0)
    report = invariance_test(p, cfg, 1.0, 20000, RngStream(0))
    elapsed = time.time() - t0
    ok = report.passed and report.control_failed and elapsed < 600
    announce(
        5,
        "invariance",
        ok,
        f"max|z| = {report.max_abs_z:.2f}, control z = {report.control_z:.2f}, {elapsed:.0f}s",
    )
    assert report.passed, f"observable z-scores {report.observables}"
    assert report.control_failed, "negative control must exceed the threshold"
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 6. bump scaling
# ---------------------------------------------------------------------------


def test_criterion_6_bump_scaling():
    scan = bump_norm_scan([8, 16, 32, 64, 128, 256, 512], [1.0])
    l2_err = float(np.max(np.abs(scan.l2_sq - 1.0 / math.pi)))
    ratios = scan.sobolev_ratio[1.0]
    bounded = float(np.max(ratios))
    ok = l2_err <= 1e-12 and 0.45 <= scan.sup_exponent <= 0.55 and bounded < 1.0
    announce(
        6,
        "bump scaling",
        ok,
        f"L2 err {l2_err:.1e}, sup exponent {scan.sup_exponent:.3f}, max H1/N {bounded:.3f}",
    )
    assert l2_err <= 1e-12
    assert 0.45 <= scan.sup_exponent <= 0.55
    assert bounded < 1.0


# ---------------------------------------------------------------------------
# 7. OU oracle
# ---------------------------------------------------------------------------


def test_criterion_7_ou_oracle():
    t0 = time.time()
    zs = {}
    for alpha in (2.0, 2.5):
        for n_cut in (4, 16, 64):
            geo = TorusGeometry(d=1, n_max=2 * n_cut, oversampling=1.0)
            p = ModelParams(
                d=1, alpha=alpha, beta=0.5, gamma=-1.0, n_cut=n_cut, geometry=geo
            )
            vals = simulate_ou_gap(p, 10**4, RngStream(700, n_cut), scheme="exact")
            oracle = ou_gap_oracle(p)
            se = vals.std(ddof=1) / 100.0
            zs[(alpha, n_cut)] = (vals.mean() - oracle) / se
    worst = max(abs(z) for z in zs.values())
    elapsed = time.time() - t0
    detail = ", ".join(f"({a},{n}): {z:+.2f}" for (a, n), z in zs.items())
    announce(7, "OU oracle", worst <= 3.0, f"z = [{detail}], {elapsed:.0f}s")
    assert worst <= 3.0


def test_criterion_7_mechanism_euler_bias_documented():
    # the Euler-Maruyama route at the stability-rule step carries a positive
    # O(a_max dt) weak bias that the 3-SE comparison detects at N = 64; the
    # exact-update cross-check mode (used by criterion 7) is unbiased
    geo = TorusGeometry(d=1, n_max=128, oversampling=1.0)
    p = ModelParams(d=1, alpha=2.0, beta=0.5, gamma=-1.0, n_cut=64, geometry=geo)
    vals = simulate_ou_gap(p, 10**4, RngStream(701), scheme="euler")
    oracle = ou_gap_oracle(p)
    z = (vals.mean() - oracle) / (vals.std(ddof=1) / 100.0)
    announce("7b", "OU Euler bias at rule step", z > 3.0, f"z = {z:+.2f} (expected > 3)")
    assert z > 3.0


# ---------------------------------------------------------------------------
# 8. focusing divergence
# ---------------------------------------------------------------------------


def test_criterion_8_focusing_divergence():
    geo = TorusGeometry(d=1, n_max=16)
    p = ModelParams(d=1, alpha=2.0, beta=0.5, gamma=-1.0, n_cut=16, geometry=geo)
    ladder = [10.0, 100.0, 1000.0, 10000.0]
    scan = divergence_scan(p, -1.0, 1.0, ladder, 4000, RngStream(800))
    control = divergence_scan(p, +1.0, 1.0, ladder, 4000, RngStream(800))
    strictly_increasing = bool(np.all(np.diff(scan.estimates) > 0))
    ok = strictly_increasing and scan.trend_pvalue < 0.01 and control.saturated
    announce(
        8,
        "focusing divergence",
        ok,
        f"estimates {np.round(scan.estimates, 4).tolist()}, trend p = "
        f"{scan.trend_pvalue:.3f}, control saturated = {control.saturated}",
    )
    assert control.saturated, "defocusing control must saturate"
    # With K = 1 the potential is a.s. bounded by Vol*exp(beta(2N+1)K^2/Vol)
    # ~ 86.9 on the cutoff event, so min(V, L) is L-independent for L >= 87
    # and the conditional law suppresses even the first rung at this sample
    # size: the stated strict increase cannot occur.
    assert strictly_increasing, (
        f"ladder is flat: estimates {scan.estimates.tolist()} "
        f"(potential bounded by {TWO_PI * math.exp(0.5 * 33 / TWO_PI):.1f} under the mass cutoff)"
    )
    assert scan.trend_pvalue < 0.01


def test_criterion_8_mechanism_divergence_at_viable_cutoff():
    # the same scan with K = 3 leaves headroom: the clipped weight grows with
    # the clip at high significance while the defocusing control saturates
    geo = TorusGeometry(d=1, n_max=16)
    p = ModelParams(d=1, alpha=2.0, beta=0.5, gamma=-1.0, n_cut=16, geometry=geo)
    ladder = [10.0, 100.0, 1000.0, 10000.0]
    scan = divergence_scan(p, -1.0, 3.0, ladder, 4000, RngStream(801))
    control = divergence_scan(p, +1.0, 3.0, ladder, 4000, RngStream(801))
    ok = scan.trend_pvalue < 0.01 and scan.estimates[1] > scan.estimates[0] and control.saturated
    announce(
        "8b",
        "divergence mechanism at K=3",
        ok,
        f"trend p = {scan.trend_pvalue:.4f}, first step "
        f"{scan.estimates[0]:.1f} -> {scan.estimates[1]:.1f}, control saturated = {control.saturated}",
    )
    assert scan.trend_pvalue < 0.01
    assert scan.estimates[1] > scan.estimates[0]
    assert control.saturated


# ---------------------------------------------------------------------------
# 9. gauge equivalence
# ---------------------------------------------------------------------------


def test_criterion_9_gauge_equivalence():
    geo = TorusGeometry(d=1, n_max=24)
    p = ModelParams(d=1, alpha=2.0, beta=0.5, gamma=1.0, n_cut=24, geometry=geo)
    u0 = from_modes(
        geo, {-1: 0.4 + 0.1j, 0: 0.5 - 0.2j, 2: 0.2 + 0.3j}
    )
    sups = {}
    for dt in (4e-4, 2e-4, 1e-4):
        cfg = FlowConfig(params=p, dt=dt, t_final=0.5, dispersion_symbol="pure")
        sups[dt] = gauged_flow_equivalence(u0, cfg, 0.5).sup_discrepancy
    order = float(
        np.polyfit(np.log([4e-4, 2e-4, 1e-4]), np.log([sups[4e-4], sups[2e-4], sups[1e-4]]), 1)[0]
    )
    ok = sups[1e-4] <= 1e-6 and 1.7 <= order <= 2.3
    announce(
        9,
        "gauge equivalence",
        ok,
        f"sup discrepancy {sups[1e-4]:.2e} at dt=1e-4, order fit {order:.2f}",
    )
    assert sups[1e-4] <= 1e-6
    assert 1.7 <= order <= 2.3


# ---------------------------------------------------------------------------
# 10. truncation convergence
# ---------------------------------------------------------------------------


def test_criterion_10_truncation_convergence():
    geo = TorusGeometry(d=1, n_max=64)
    p = ModelParams(d=1, alpha=2.0, beta=0.5, gamma=1.0, n_cut=64, geometry=geo)
    u0 = acceptance_initial_datum(geo, scale=0.9, bandwidth=3, seed=9)
    cfg = FlowConfig(params=p, dt=2e-3, t_final=1.0, store_every=20)
    table = truncation_convergence(u0, cfg, [8, 16, 32], 64, 0.5)
    decreasing = bool(np.all(np.diff(table.errors) < 0))
    announce(
        10,
        "truncation convergence",
        decreasing,
        "errors " + ", ".join(f"{e:.2e}" for e in table.errors),
    )
    assert decreasing
