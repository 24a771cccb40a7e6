"""Pseudo-spectral solver and verification toolkit for the damped
Navier-Stokes-Bardina equations on a periodic box."""

from .spectral import (
    GridSpec,
    SpectralField,
    VectorField,
    PhysParams,
    NormBundle,
    forward_transform,
    inverse_transform,
    helmholtz_filter,
    leray_project,
    gradient,
    divergence,
    laplacian,
    dealias,
    norms,
    h1alpha_inner,
    pressure_from_velocity,
)
from .fields import FieldRecipe, generate
from .dynamics import (
    SimState,
    Trajectory,
    nonlinear_term,
    step,
    evolve,
    energy_budget_residual,
    decay_envelope_check,
    absorbing_ball_entry,
)
from .stationary import (
    NonConvergenceError,
    StationaryResult,
    stationary_map,
    solve_stationary,
    stationary_residual_pde,
)
from .attractor import (
    EtaReport,
    DimensionBound,
    eta,
    lieb_thirring_constant,
    dimension_bound,
    gram,
    linearized_rhs,
    lyapunov_sum_bound,
    orthonormalize,
    transport_frame,
    trajectory_gap,
    steady_convergence,
    zero_force_decay,
)

__version__ = "0.1.0"
