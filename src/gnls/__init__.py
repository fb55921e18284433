"""gnls: pseudo-spectral and Monte-Carlo laboratory for the exponential
nonlinear Schrodinger equation on the flat torus."""

from .spectral import (
    DivergentSeriesError,
    SpectralField,
    TorusGeometry,
    dispersion_weights,
    from_grid_array,
    load_snapshot,
    save_snapshot,
    sigma,
    sobolev_norm_array,
    to_grid_array,
)
from .measures import (
    GibbsEnsemble,
    ModelParams,
    NonIntegrableError,
    RngStream,
    exp_moment_oracle,
    gibbs_ensemble,
    gibbs_weight_array,
    kinetic_sum_array,
    mass_array,
    potential_array,
    sample_gaussian,
    sample_gaussian_coeffs,
)
from .dynamics import (
    FlowConfig,
    Trajectory,
    collocation_phase_array,
    evolve,
    evolve_ensemble,
    galerkin_substep_array,
    liouville_check,
    truncation_convergence,
)
from .gauge import (
    CoeffSequence,
    MultilinearSpec,
    apply_gauge,
    decomposition_check,
    gauge_value,
    gauged_flow_equivalence,
    multilinear_n,
    multilinear_r,
)
from .variational import (
    VariationalConfig,
    bump_norm_scan,
    divergence_scan,
    objective_estimate,
    ou_gap_oracle,
    simulate_ou_gap,
    stability_dt,
)
from .harness import (
    ExperimentConfig,
    InvarianceReport,
    invariance_test,
    observable_matrix,
    run,
)

__version__ = "0.1.0"
