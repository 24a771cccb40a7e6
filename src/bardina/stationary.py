"""Steady states of the damped Bardina equations via damped Picard iteration
on the fixed-point form U = (-nu Lap + beta)^{-1} [ f - P div((U (x) U)_alpha) ],
posed on the retained box: every iterate is a box field."""

from dataclasses import dataclass, field

import numpy as np

from .dynamics import nonlinear_term
from .spectral import VectorField, modes, norms

__all__ = [
    "StationaryResult",
    "NonConvergenceError",
    "stationary_map",
    "solve_stationary",
    "stationary_residual_pde",
]


class NonConvergenceError(RuntimeError):
    def __init__(self, residual_history):
        self.residual_history = residual_history
        super().__init__(
            f"stationary iteration did not converge; final residual "
            f"{residual_history[-1]:.3e} after {len(residual_history)} iterations"
        )


@dataclass
class StationaryResult:
    U: VectorField
    residual: float
    iterations: int
    energy_slack: float  # (2/beta^2)|f|^2_{H1a} - (|U|^2_{H1a} + nu a^2 |U|^2_{H2})
    residual_history: list = field(default_factory=list)


def _linear_symbol(grid, params):
    """nu |k|^2 + beta on the retained box."""
    return params.nu * modes(grid, grid.box_shape).ksq + params.beta


def stationary_map(U, force, params):
    """One application of the fixed-point operator T; a box field."""
    if U.grid != force.grid:
        raise ValueError("U and force do not share a grid")
    rhs = force.box - nonlinear_term(U, params.alpha).hat
    return VectorField(U.grid, rhs * (1.0 / _linear_symbol(U.grid, params)))


def _diff_norm(a, b, alpha):
    d = VectorField(a.grid, a.hat - b.hat)
    return np.sqrt(norms(d, alpha).h1alpha_sq)


def solve_stationary(force, params, relaxation=1.0, tol=1e-12, max_iter=200):
    """Damped Picard iteration from U = 0 until |U - T(U)|_{H1_alpha} <= tol.

    The relaxation weight is halved whenever the residual increases; outside
    the small-force contractive regime the iteration may legitimately fail,
    which raises NonConvergenceError carrying the residual history.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not 0.0 < relaxation <= 1.0:
        raise ValueError("relaxation must lie in (0, 1]")
    grid = force.grid
    U = VectorField(grid, np.zeros((3,) + grid.box_shape, complex), div_free=True)
    omega = relaxation
    history = []
    for it in range(1, max_iter + 1):
        TU = stationary_map(U, force, params)
        res = _diff_norm(U, TU, params.alpha)
        history.append(res)
        if res <= tol:
            return _finish(U, force, params, res, it, history)
        if len(history) >= 2 and history[-1] > history[-2]:
            omega = max(omega / 2.0, 1.0 / 64.0)
        U = VectorField(
            grid, (1.0 - omega) * U.hat + omega * TU.hat, div_free=True
        )
    TU = stationary_map(U, force, params)
    res = _diff_norm(U, TU, params.alpha)
    history.append(res)
    if res <= tol:
        return _finish(U, force, params, res, max_iter, history)
    raise NonConvergenceError(history)


def _finish(U, force, params, res, iterations, history):
    nb = norms(U, params.alpha)
    f_sq = norms(force, params.alpha).h1alpha_sq
    slack = (2.0 / params.beta**2) * f_sq - (
        nb.h1alpha_sq + params.nu * params.alpha**2 * nb.h2dot_sq
    )
    return StationaryResult(U, res, iterations, slack, history)


def stationary_residual_pde(U, force, params):
    """L2 norm of -nu Lap U + P div((U (x) U)_alpha) + beta U - f on the
    retained box, where the Galerkin steady state solves it."""
    lin = _linear_symbol(U.grid, params) * U.box
    res = lin + nonlinear_term(U, params.alpha).hat - force.box
    return np.sqrt(norms(VectorField(U.grid, res), 0.0).l2_sq)
