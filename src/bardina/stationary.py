"""Steady states of the damped Bardina equations via damped Picard iteration
on the fixed-point form U = (-nu Lap + beta)^{-1} [ f - P div((U (x) U)_alpha) ],
posed on the retained box: every iterate is a box field."""

from dataclasses import dataclass, field
from itertools import count

import numpy as np

from .dynamics import damping_symbol, nonlinear_term
from .spectral import VectorField, _check_shared_grid, h1alpha_diff_sq, norms

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


def stationary_map(U, force, params):
    """One application of the fixed-point operator T."""
    grid = _check_shared_grid(U, force)
    rhs = force.hat - nonlinear_term(U, params.alpha).hat
    return VectorField(grid, rhs * (1.0 / damping_symbol(grid, params)))


def solve_stationary(force, params, relaxation=1.0, tol=1e-12, max_iter=200):
    """Damped Picard iteration from U = 0 until |U - T(U)|_{H1_alpha} <= tol.

    The relaxation weight is halved whenever the residual increases; outside
    the small-force contractive regime the iteration may legitimately fail,
    which raises NonConvergenceError carrying the residual history, as does
    a diverging iteration at its first non-finite residual.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not 0.0 < relaxation <= 1.0:
        raise ValueError("relaxation must lie in (0, 1]")
    grid = force.grid
    U = VectorField(grid, np.zeros((3,) + grid.box_shape, complex), div_free=True)
    omega = relaxation
    history = []
    # a diverging iterate overflows, silently, up to its first non-finite residual
    with np.errstate(over="ignore", invalid="ignore"):
        for it in count(1):  # pass max_iter + 1 only checks U
            TU = stationary_map(U, force, params)
            res = np.sqrt(h1alpha_diff_sq(U, TU, params.alpha))
            history.append(res)
            if res <= tol:
                return _finish(U, force, params, res, min(it, max_iter), history)
            if it > max_iter or not np.isfinite(res):
                raise NonConvergenceError(history)
            if len(history) >= 2 and history[-1] > history[-2]:
                omega = max(omega / 2.0, 1.0 / 64.0)
            U = VectorField(
                grid, (1.0 - omega) * U.hat + omega * TU.hat, div_free=True
            )


def _finish(U, force, params, res, iterations, history):
    nb = norms(U, params.alpha)
    f_sq = norms(force, params.alpha).h1alpha_sq
    slack = (2.0 / params.beta**2) * f_sq - (
        nb.h1alpha_sq + params.nu * params.alpha**2 * nb.h2dot_sq
    )
    return StationaryResult(U, res, iterations, slack, history)


def stationary_residual_pde(U, force, params):
    """L2 norm of -nu Lap U + P div((U (x) U)_alpha) + beta U - f on the
    retained box, where the Galerkin steady state solves it; ValueError if U
    and the force are on different grids."""
    grid = _check_shared_grid(U, force)
    lin = damping_symbol(grid, params) * U.hat
    res = lin + nonlinear_term(U, params.alpha).hat - force.hat
    return np.sqrt(norms(VectorField(grid, res), 0.0).l2_sq)
