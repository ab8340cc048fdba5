"""Numerics for random Schroedinger operators on the lattice.

Finite-volume Hamiltonians with Dirichlet, periodic, or quasimomentum
boundary conditions, the integrated density of states and its periodic
approximation, a resolvent-integral functional calculus for compactly
supported smooth functions, and the probabilistic probes (eigenvalue
counting bounds, multiscale schedule arithmetic, regularity tests) that
accompany localization estimates at weak disorder.
"""

from .bands import (
    BandEdgeReport,
    BandStructure,
    BrillouinZone,
    brillouin_zone,
    check_regularity,
    compute_bands,
    find_band_edges,
)
from .config import ConfigError, build_model, config_hash, load_config, resolve_config
from .disorder import DisorderModel, DisorderSample, sample_disorder
from .hamiltonian import (
    AssembledHamiltonian,
    BoundaryCondition,
    GridSpec,
    NumericalFailure,
    PeriodicPotential,
    SingleSitePotential,
    assemble_anderson,
    assemble_h0,
    assemble_periodic_approx,
)
from .hscalc import (
    AlmostAnalyticExtension,
    CutoffFunction,
    QuadratureSpec,
    SmoothCompactFunction,
    dbar_bound_check,
    extend,
    hs_transform,
    matrix_function_eigh,
    matrix_function_hs,
    plateau_function,
    smoothstep,
)
from .ids import (
    IdsCurve,
    LifshitzFit,
    ids_difference_experiment,
    ids_dirichlet_box,
    ids_periodic_approx,
    lifshitz_fit,
    mass_window,
)
from .model import AndersonModel, align_band_edge
from .probes import (
    GapProbabilityEstimate,
    MsaSchedule,
    alpha_n_feasible,
    combes_thomas_profile,
    fixed_theta_check,
    m_regularity_test,
    msa_schedule,
    theta_average_check,
    theta_bounds_check,
    wilson_interval,
)
from .runner import ResultEnvelope, VERSION, parallel_map, run

__version__ = VERSION

__all__ = [
    "AndersonModel",
    "AssembledHamiltonian",
    "AlmostAnalyticExtension",
    "BandEdgeReport",
    "BandStructure",
    "BoundaryCondition",
    "BrillouinZone",
    "ConfigError",
    "CutoffFunction",
    "DisorderModel",
    "DisorderSample",
    "GapProbabilityEstimate",
    "GridSpec",
    "IdsCurve",
    "LifshitzFit",
    "MsaSchedule",
    "NumericalFailure",
    "PeriodicPotential",
    "QuadratureSpec",
    "ResultEnvelope",
    "SingleSitePotential",
    "SmoothCompactFunction",
    "VERSION",
    "align_band_edge",
    "alpha_n_feasible",
    "assemble_anderson",
    "assemble_h0",
    "assemble_periodic_approx",
    "brillouin_zone",
    "build_model",
    "check_regularity",
    "combes_thomas_profile",
    "compute_bands",
    "config_hash",
    "dbar_bound_check",
    "extend",
    "find_band_edges",
    "fixed_theta_check",
    "hs_transform",
    "ids_difference_experiment",
    "ids_dirichlet_box",
    "ids_periodic_approx",
    "lifshitz_fit",
    "load_config",
    "m_regularity_test",
    "mass_window",
    "matrix_function_eigh",
    "matrix_function_hs",
    "msa_schedule",
    "parallel_map",
    "plateau_function",
    "resolve_config",
    "run",
    "sample_disorder",
    "smoothstep",
    "theta_average_check",
    "theta_bounds_check",
    "wilson_interval",
]
