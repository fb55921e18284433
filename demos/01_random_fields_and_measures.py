"""Sample the fractional Gaussian field, reweight it to the interaction
ensemble, and check the closed-form exponential moment against Monte Carlo.

Run:  python demos/01_random_fields_and_measures.py
"""

import math

import numpy as np

from gnls import (
    ModelParams,
    RngStream,
    TorusGeometry,
    exp_moment_oracle,
    gibbs_ensemble,
    mass_array,
    potential_array,
    sample_gaussian,
    sample_gaussian_coeffs,
    sigma,
)
from gnls.measures import weighted_mean_stderr
from gnls.spectral import TWO_PI


def main():
    geo = TorusGeometry(d=1, n_max=16)
    params = ModelParams(d=1, alpha=2.0, beta=0.5, gamma=1.0, n_cut=16, geometry=geo)
    rng = RngStream(seed=2024)

    print("== one Gaussian sample ==")
    u = sample_gaussian(params, rng)
    print(f"mass J(u)      = {mass_array(geo, u.coeffs):.4f}")
    v = potential_array(geo, u.coeffs, params.beta)
    print(f"potential V(u) = {v:.4f}  (>= vol = {TWO_PI:.4f})")

    print("\n== pointwise variance and the moment pole ==")
    sig = params.sigma_n()
    print(f"sigma_(alpha,N) = {sig:.6f};  infinite-cutoff value {sigma(2.0, math.inf, 1):.6f}")
    for target in (0.2, 0.5, 0.8):
        p = target / (params.beta * sig)
        print(f"  p*beta*sigma = {target:.1f}: E exp(p beta |u(x)|^2) = {exp_moment_oracle(params, p):.4f}")

    print("\n== Monte-Carlo check of the closed form (p beta sigma = 0.5) ==")
    gen = rng.generator(1)
    coeffs = sample_gaussian_coeffs(params, gen, 50000)
    u_at_zero = np.sum(coeffs, axis=-1) / math.sqrt(TWO_PI)
    c = 0.5 / sig
    vals = np.exp(c * np.abs(u_at_zero) ** 2)
    est, se, _ = weighted_mean_stderr(vals, None)
    print(f"MC {est:.4f} +- {se:.4f} vs oracle {1.0 / (1.0 - 0.5):.4f}")

    print("\n== importance vs rejection sampling of the interaction ensemble ==")
    small = ModelParams(d=1, alpha=2.0, beta=0.1, gamma=1.0, n_cut=8,
                        geometry=TorusGeometry(d=1, n_max=8))
    imp = gibbs_ensemble(small, 4000, RngStream(7), "importance")
    rej = gibbs_ensemble(small, 4000, RngStream(8), "rejection")
    ji, _, _ = weighted_mean_stderr(mass_array(small.geometry, imp.coeffs), imp.weights)
    jr, _, _ = weighted_mean_stderr(mass_array(small.geometry, rej.coeffs), None)
    print(f"E[J] importance = {ji:.4f}   rejection = {jr:.4f}")
    print(f"Z    importance = {imp.z_estimate:.5f} +- {imp.z_stderr:.5f}")
    print(f"Z    rejection  = {rej.z_estimate:.5f} +- {rej.z_stderr:.5f}")


if __name__ == "__main__":
    main()
