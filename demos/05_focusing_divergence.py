"""Why the focusing ensemble has no normalization: high-frequency bumps of
unit-order mass drive the clipped partition-function estimate upward without
bound, and the drifted variational objective turns unboundedly negative along
a frequency ladder.  The objective draws the OU endpoints in one shot from the
Euler chain's endpoint law, and the drift cost it prints is the exact
expected cost, not a sample mean.

Run:  python demos/05_focusing_divergence.py
"""

import math

from gnls import (
    ModelParams,
    RngStream,
    TorusGeometry,
    bump_norm_scan,
    divergence_scan,
    objective_estimate,
    ou_gap_oracle,
    simulate_ou_gap,
)
from gnls.variational import VariationalConfig


def make_params(n_cut, gamma, n_max=None):
    geo = TorusGeometry(d=1, n_max=n_max or 2 * n_cut, oversampling=2.0)
    return ModelParams(d=1, alpha=2.0, beta=0.5, gamma=gamma, n_cut=n_cut, geometry=geo)


def main():
    print("== the bump family: fixed L2 mass, sqrt(N) peak ==")
    scan = bump_norm_scan([8, 32, 128, 512], [1.0])
    for n, l2, sup in zip(scan.n_values, scan.l2_sq, scan.sup_norm):
        print(f"N = {int(n):4d}: ||f||_L2^2 = {l2:.10f},  ||f||_inf = {sup:8.3f}")
    print(f"fitted sup-norm exponent: {scan.sup_exponent:.3f} (expected 1/2)")

    print("\n== OU smoothing of the Brownian lift vs the Ito closed form ==")
    p = make_params(16, -1.0)
    vals = simulate_ou_gap(p, 4000, RngStream(1), scheme="exact")
    est, se = vals.mean(), vals.std(ddof=1) / math.sqrt(len(vals))
    print(f"E|Y(1,x) - Z_N(1,x)|^2: simulated {est:.5f} +- {se:.5f}, oracle {ou_gap_oracle(p):.5f}")

    print("\n== drifted objective along the frequency ladder (more negative) ==")
    eta = 4.0
    for n in (8, 16, 32):
        pp = make_params(n, -1.0)
        l_clip = 100.0 * math.exp(0.45 * eta**2 * n / math.pi**2)
        cfg = VariationalConfig(params=pp, k_mass=3.5, l_clip=l_clip, eta=eta, m=400)
        rep = objective_estimate(cfg, RngStream(12, n))
        print(
            f"N = {n:3d}: objective {rep.estimate:14.1f}  "
            f"(indicator freq {rep.indicator_freq:.2f}, mean drift cost {rep.mean_cost:9.1f})"
        )

    print("\n== direct clipped partition-function scan ==")
    p16 = make_params(16, -1.0, n_max=16)
    ladder = [10.0, 100.0, 1000.0, 10000.0]
    scan = divergence_scan(p16, -1.0, 3.0, ladder, 4000, RngStream(13))
    for l, e, s in zip(scan.l_values, scan.estimates, scan.stderrs):
        print(f"L = {l:8.0f}: estimate {e:12.2f} +- {s:.2f}")
    print(f"increasing-trend p-value: {scan.trend_pvalue:.4f}")
    control = divergence_scan(p16, +1.0, 3.0, ladder, 4000, RngStream(13))
    print(f"defocusing control saturates: {control.saturated}")


if __name__ == "__main__":
    main()
