"""Integrate the truncated flow and watch its conserved quantities: mass to
near machine precision, the flow energy to O(dt^2), and the phase-space
volume of one step to finite-difference accuracy.

Run:  python demos/02_split_step_conservation.py
"""

import numpy as np

from gnls import (
    FlowConfig,
    ModelParams,
    RngStream,
    TorusGeometry,
    evolve,
    liouville_check,
    sample_gaussian_coeffs,
)


def main():
    geo = TorusGeometry(d=1, n_max=16)
    params = ModelParams(d=1, alpha=2.0, beta=0.5, gamma=1.0, n_cut=16, geometry=geo)
    gen = np.random.default_rng(5)
    u0 = np.zeros(geo.box_shape, np.complex128)
    for n in range(-3, 4):
        u0[16 + n] = 0.08 * (gen.standard_normal() + 1j * gen.standard_normal())

    print("== conservation over t in [0, 10], dt = 1e-3 ==")
    cfg = FlowConfig(params=params, dt=1e-3, t_final=10.0, store_every=1000)
    traj = evolve(u0, cfg, "galerkin")
    m = traj.diagnostics["mass"]
    h = traj.diagnostics["hamiltonian"]
    print(f"relative mass drift   {np.max(np.abs(m - m[0])) / m[0]:.2e}")
    print(f"relative energy drift {np.max(np.abs(h - h[0])) / abs(h[0]):.2e}")

    print("\n== second-order energy error under dt halving ==")
    for dt in (4e-3, 2e-3, 1e-3):
        cfg = FlowConfig(params=params, dt=dt, t_final=2.0, store_every=2000)
        traj = evolve(u0, cfg, "galerkin")
        h = traj.diagnostics["hamiltonian"]
        print(f"dt = {dt:.0e}: energy drift {np.max(np.abs(h - h[0])) / abs(h[0]):.3e}")

    print("\n== Liouville: |det J - 1| of one step (N = 2, ten coordinates) ==")
    geo2 = TorusGeometry(d=1, n_max=2)
    p2 = ModelParams(d=1, alpha=2.0, beta=0.5, gamma=1.0, n_cut=2, geometry=geo2)
    for seed in range(3):
        probe = sample_gaussian_coeffs(p2, RngStream(seed).generator())
        print(f"probe {seed}: {liouville_check(p2, 1e-3, probe):.2e}")


if __name__ == "__main__":
    main()
