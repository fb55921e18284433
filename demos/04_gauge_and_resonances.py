"""Gauge transform and the resonant/non-resonant split of the power
nonlinearities: check the coefficient identity by brute-force enumeration,
then integrate the gauged equation and compare with gauging the plain flow.

Run:  python demos/04_gauge_and_resonances.py
"""

import numpy as np

from gnls import (
    CoeffSequence,
    FlowConfig,
    ModelParams,
    MultilinearSpec,
    TorusGeometry,
    decomposition_check,
    gauged_flow_equivalence,
    multilinear_n,
    multilinear_r,
)


def main():
    print("== hand-checkable cubic case: v = 1 + 2 e^{ix} ==")
    v = CoeffSequence.from_dict({0: 1.0, 1: 2.0})
    spec = MultilinearSpec(1)
    n3 = multilinear_n(spec, [v] * 3)
    r3 = multilinear_r(spec, [v] * 3)
    print(f"N_3(0) = {n3.get(0):.0f},  R_3(0) = {r3.get(0):.0f},  R_3(1) = {r3.get(1):.0f}")
    print(f"N_3(0) - R_3(0) = {n3.get(0) - r3.get(0):.0f}   (expected -1)")

    print("\n== decomposition identity on random sequences ==")
    gen = np.random.default_rng(0)
    for k in (1, 2, 3):
        worst = 0.0
        for _ in range(20):
            modes = gen.choice(np.arange(-4, 5), size=4, replace=False)
            coeffs = gen.standard_normal(4) + 1j * gen.standard_normal(4)
            rep = decomposition_check(k, CoeffSequence(modes, coeffs))
            worst = max(worst, rep.relative_error)
        print(f"order k = {k}: worst relative coefficient error {worst:.2e}")

    print("\n== gauged flow vs gauge of the flow ==")
    geo = TorusGeometry(d=1, n_max=24)
    params = ModelParams(d=1, alpha=2.0, beta=0.5, gamma=1.0, n_cut=24, geometry=geo)
    u0 = np.zeros(geo.box_shape, np.complex128)
    u0[24 + np.array([-1, 0, 2])] = [0.4 + 0.1j, 0.5 - 0.2j, 0.2 + 0.3j]  # modes -1, 0, 2
    for dt in (4e-4, 2e-4, 1e-4):
        cfg = FlowConfig(params=params, dt=dt, t_final=0.5, dispersion_symbol="pure")
        rep = gauged_flow_equivalence(u0, cfg, 0.5)
        print(f"dt = {dt:.0e}: sup_t ||v - G(u)||_L2 = {rep.sup_discrepancy:.3e}")


if __name__ == "__main__":
    main()
