"""Cavity-mirror entanglement dynamics with a memory-carrying bath.

The package computes logarithmic negativity between an optical cavity
mode and a mechanical mirror mode coupled through radiation pressure,
with the mirror damped by a bosonic bath whose correlation time is
finite.  Three engines produce the reduced state: Gaussian moment
equations, a truncated number-basis master equation, and averaged
stochastic pure-state trajectories.
"""

from .errors import ConfigError, NumericalFailure, TruncationError
from .stepping import TimeGrid
from .params import (
    PhysicalParams,
    MeanFieldSolution,
    LinearizedSystem,
    solve_mean_field,
    linearize,
)
from .kernel import (
    OUKernel,
    DeltaKernel,
    TabulatedKernel,
    spectral_density,
    sample_noise_batch,
    path_seed,
    read_kernel_table,
    write_kernel_table,
)
from .ocoeff import (
    OCoefficientSeries,
    markov_series,
    solve_ou_closed,
    solve_two_time_grid,
    solve_ocoeff,
)
from .moments import (
    MomentTrajectory,
    MOMENT_LABELS,
    coherent,
    integrate_moments,
    vacuum,
)
from .gaussian_ent import (
    EntanglementResult,
    log_negativity,
)
from .fock import (
    FockOperators,
    RhoTrajectory,
    AveragedEnsemble,
    build_operators,
    basis_state,
    projector,
    moments_from_rho,
    integrate_master,
    integrate_thermal_master,
    propagate_ensemble,
    average_trajectories,
)
from .thermal import (
    EffectiveKernels,
    ThermalOCoefficients,
    thermal_occupation,
    effective_kernels,
    solve_thermal_ocoeff,
)
from .cli_runner import RunConfig, parse_config, run_scenario, main

__all__ = [
    "ConfigError",
    "NumericalFailure",
    "TruncationError",
    "TimeGrid",
    "PhysicalParams",
    "MeanFieldSolution",
    "LinearizedSystem",
    "solve_mean_field",
    "linearize",
    "OUKernel",
    "DeltaKernel",
    "TabulatedKernel",
    "spectral_density",
    "sample_noise_batch",
    "path_seed",
    "read_kernel_table",
    "write_kernel_table",
    "OCoefficientSeries",
    "markov_series",
    "solve_ou_closed",
    "solve_two_time_grid",
    "solve_ocoeff",
    "MomentTrajectory",
    "MOMENT_LABELS",
    "coherent",
    "integrate_moments",
    "vacuum",
    "EntanglementResult",
    "log_negativity",
    "FockOperators",
    "RhoTrajectory",
    "AveragedEnsemble",
    "build_operators",
    "basis_state",
    "projector",
    "moments_from_rho",
    "integrate_master",
    "integrate_thermal_master",
    "propagate_ensemble",
    "average_trajectories",
    "EffectiveKernels",
    "ThermalOCoefficients",
    "thermal_occupation",
    "effective_kernels",
    "solve_thermal_ocoeff",
    "RunConfig",
    "parse_config",
    "run_scenario",
    "main",
]
