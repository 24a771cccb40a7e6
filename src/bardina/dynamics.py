"""Time integration of the damped Bardina system and energy diagnostics.

The semi-linear structure du/dt = L u + N(u) + f is integrated with a
second-order exponential (ETD2RK) scheme.  The linear symbol
lambda(k) = -(nu |k|^2 + beta) is diagonal in Fourier space and treated
exactly; the nonlinear term and the force enter through phi-function
weights.
"""

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .spectral import (
    VectorField,
    _frozen,
    bilinear,
    dealias,
    dealiased_physical,
    h1alpha_inner,
    modes,
    norms,
    vector_to_physical,
)

__all__ = [
    "SimState",
    "DiagnosticsSample",
    "Trajectory",
    "BlowUpError",
    "CFLError",
    "nonlinear_term",
    "step",
    "sampled_states",
    "evolve",
    "cfl_cap",
    "check_cfl",
    "energy_budget_residual",
    "decay_envelope_check",
    "absorbing_ball_entry",
]


class BlowUpError(RuntimeError):
    """Raised when the state develops NaN/Inf coefficients."""

    def __init__(self, t, detail=""):
        self.t = t
        super().__init__(f"non-finite state at t={t:.6g} {detail}".rstrip())


class CFLError(ValueError):
    """Raised when the time step exceeds the advective CFL cap of a state."""

    def __init__(self, t, dt, cap):
        self.t, self.dt, self.cap = t, dt, cap
        super().__init__(f"dt={dt} exceeds the CFL cap {cap:.3e} at t={t:.6g}")


@dataclass
class SimState:
    u: VectorField
    t: float
    params: "PhysParams"
    force: VectorField


@dataclass(frozen=True)
class DiagnosticsSample:
    t: float
    l2_sq: float
    h1dot_sq: float
    h2dot_sq: float
    h1alpha_sq: float
    dissipation: float  # nu (|u|_H1^2 + alpha^2 |u|_H2^2)
    damping: float      # beta |u|_{H1_alpha}^2
    force_pairing: float  # <f, u>_{H1_alpha}


@dataclass
class Trajectory:
    samples: list = field(default_factory=list)

    @property
    def times(self):
        return np.array([s.t for s in self.samples])

    def series(self, name):
        return np.array([getattr(s, name) for s in self.samples])

    def integral(self, name):
        """Cumulative trapezoid integral of a diagnostic series."""
        t = self.times
        y = self.series(name)
        if len(t) < 2:
            return np.zeros_like(t)
        return np.concatenate(([0.0], np.cumsum(np.diff(t) * (y[1:] + y[:-1]) / 2.0)))


def nonlinear_term(u, alpha, u_phys=None):
    """P div((u (x) u)_alpha) = B(u, u): the Bardina nonlinearity, dealiased.
    u_phys: see bilinear."""
    return bilinear(u, u, alpha, u_phys)


PHI_SERIES_BELOW = 0.2  # |z| below which phi_1, phi_2 are summed as series
PHI_SERIES_TERMS = 13  # the first term dropped is below 1e-18 relative there


def _phi(z, j, closed_form):
    """phi_j(z) = sum_i z^i / (i + j)!: Horner's rule on the series for
    |z| < PHI_SERIES_BELOW, where the closed form cancels, else the closed form."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    small = np.abs(z) < PHI_SERIES_BELOW
    zs = z[small]
    acc = np.ones_like(zs)
    for i in range(PHI_SERIES_TERMS - 1, 0, -1):
        acc = 1.0 + acc * zs / (i + j)
    out[small] = acc / math.factorial(j)
    out[~small] = closed_form(z[~small])
    return out


def _phi1(z):
    """(e^z - 1)/z."""
    return _phi(z, 1, lambda z: np.expm1(z) / z)


def _phi2(z):
    """(e^z - z - 1)/z^2."""
    return _phi(z, 2, lambda z: (np.expm1(z) - z) / z**2)


@lru_cache(maxsize=32)
def _etd_weights(grid, params, dt):
    """exp(z), dt phi_1(z), dt phi_2(z) on the retained box, z = lambda dt;
    cached, because a run takes every step with one grid, params and dt."""
    lam = -(params.nu * modes(grid, grid.box_shape).ksq + params.beta)
    z = lam * dt
    return tuple(_frozen(w) for w in (np.exp(z), dt * _phi1(z), dt * _phi2(z)))


def _rhs_nonlinear(u, force, alpha, u_phys=None):
    """N(u) + f on the retained box, with N(u) = -P div((u (x) u)_alpha)."""
    return force.box - nonlinear_term(u, alpha, u_phys).hat


def cfl_cap(u, grid, u_phys=None):
    """Advective CFL limit 0.5 * dx / max|u| (inf when the field is zero);
    u_phys, when given, are the physical samples of u."""
    umax = np.abs(vector_to_physical(u) if u_phys is None else u_phys).max()
    if umax == 0:
        return np.inf
    return 0.5 * grid.dx / umax


def check_cfl(state, dt, u_phys=None):
    """Raise CFLError if dt exceeds the CFL cap of the state."""
    cap = cfl_cap(state.u, state.u.grid, u_phys)
    if dt > cap:
        raise CFLError(state.t, dt, cap)


def step(state, dt):
    """Advance one ETD2RK step of the Galerkin system: the state and force
    are read on the retained box, and the new state is a box field.  Raises
    CFLError if dt exceeds the CFL cap of the input state, BlowUpError on
    non-finite output."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid = state.u.grid
    alpha = state.params.alpha
    expz, w1, w2 = _etd_weights(grid, state.params, dt)

    u_phys = dealiased_physical(state.u)  # shared by the CFL check and N(u)
    check_cfl(state, dt, u_phys)
    n0 = _rhs_nonlinear(state.u, state.force, alpha, u_phys)
    del u_phys
    predictor = expz * state.u.box + w1 * n0
    upred = VectorField(grid, predictor)
    n1 = _rhs_nonlinear(upred, state.force, alpha)
    out = predictor + w2 * (n1 - n0)

    if not np.all(np.isfinite(out)):
        raise BlowUpError(state.t + dt)
    u_new = VectorField(grid, out, div_free=True)
    return SimState(u_new, state.t + dt, state.params, state.force)


def sampled_states(state, n_steps, dt, sample_every=1):
    """Yield the state, then the state after every sample_every-th of n_steps
    ETD2RK steps and after the last one.  The velocity and the force are
    taken on the retained box (dealias) from the start, so every yielded
    state is a box field."""
    state = replace(state, u=dealias(state.u), force=dealias(state.force))
    yield state
    for i in range(1, n_steps + 1):
        state = step(state, dt)
        if i % sample_every == 0 or i == n_steps:
            yield state


def sample_diagnostics(state):
    p = state.params
    nb = norms(state.u, p.alpha)
    return DiagnosticsSample(
        t=state.t,
        l2_sq=nb.l2_sq,
        h1dot_sq=nb.h1dot_sq,
        h2dot_sq=nb.h2dot_sq,
        h1alpha_sq=nb.h1alpha_sq,
        dissipation=p.nu * (nb.h1dot_sq + p.alpha**2 * nb.h2dot_sq),
        damping=p.beta * nb.h1alpha_sq,
        force_pairing=h1alpha_inner(state.force, state.u, p.alpha),
    )


def evolve(state, t_end, dt, sample_every=1):
    """Repeated stepping with diagnostics sampling every sample_every steps.

    Returns (final_state, Trajectory).  The trajectory always contains the
    initial and the final sample.
    """
    if t_end < state.t:
        raise ValueError("t_end precedes current state time")
    n_steps = int(round((t_end - state.t) / dt))
    if n_steps == 0 and t_end > state.t:
        n_steps = 1
    traj = Trajectory()
    for state in sampled_states(state, n_steps, dt, sample_every):
        traj.samples.append(sample_diagnostics(state))
    return state, traj


def energy_budget_residual(trajectory):
    """Relative defect of the energy equality (nu-corrected form) per sample:

      E(t) - E(0) + 2 int diss + 2 int damp - 2 int force = 0,

    normalized by max(E(0), 1), with trapezoid quadrature in time.
    """
    e = trajectory.series("h1alpha_sq")
    if len(e) == 0:
        return np.array([])
    i_diss = trajectory.integral("dissipation")
    i_damp = trajectory.integral("damping")
    i_force = trajectory.integral("force_pairing")
    return (e - e[0] + 2 * i_diss + 2 * i_damp - 2 * i_force) / max(e[0], 1.0)


@dataclass(frozen=True)
class EnvelopeReport:
    pointwise_slack: float   # max over samples of E(t) - envelope(t)
    windowed_slack: float    # max over windows of lhs - rhs of the window bound
    passed: bool


def decay_envelope_check(trajectory, force, params, slack_tol=None):
    """Check the two decay controls of the damped model.

      E(t) <= E(0) e^{-beta t} + (4/beta^2) |f|_{H1_alpha}^2            (pointwise)
      nu int_t^{t+T} |u|_H1^2 + alpha^2 int |u|_H2^2
          <= (2T/beta) |f|_{H1_alpha}^2 + E(t)                          (windows)

    Windows run from each sample time to the final time.  Returns an
    EnvelopeReport with the worst (most positive) slack of each family.
    """
    p = params
    t = trajectory.times
    e = trajectory.series("h1alpha_sq")
    f_sq = norms(force, p.alpha).h1alpha_sq
    if slack_tol is None:
        slack_tol = 1e-12 * max(e[0], 1.0)

    envelope = e[0] * np.exp(-p.beta * (t - t[0])) + (4.0 / p.beta**2) * f_sq
    pointwise = float((e - envelope).max())

    i_h1 = trajectory.integral("h1dot_sq")
    i_h2 = trajectory.integral("h2dot_sq")
    lhs_total = p.nu * i_h1 + p.alpha**2 * i_h2
    # windows [t_i, t_end] for every sample i
    windowed = -np.inf
    for i in range(len(t)):
        lhs = lhs_total[-1] - lhs_total[i]
        rhs = (2.0 * (t[-1] - t[i]) / p.beta) * f_sq + e[i]
        windowed = max(windowed, lhs - rhs)
    windowed = float(windowed)

    return EnvelopeReport(
        pointwise_slack=pointwise,
        windowed_slack=windowed,
        passed=bool(pointwise <= slack_tol and windowed <= slack_tol),
    )


def absorbing_ball_entry(trajectory, force, params):
    """First sample time with E(t) <= (8/beta^2) |f|_{H1_alpha}^2.

    Returns (entry_time_or_None, radius_sq, analytic_bound_or_None).  With a
    zero force the ball degenerates to {0}; entry is then reported only for
    an identically zero state.
    """
    p = params
    f_sq = norms(force, p.alpha).h1alpha_sq
    radius_sq = (8.0 / p.beta**2) * f_sq
    t = trajectory.times
    e = trajectory.series("h1alpha_sq")
    if f_sq == 0:
        entry = t[0] if e[0] == 0 else None
        return entry, 0.0, None
    inside = np.nonzero(e <= radius_sq)[0]
    entry = float(t[inside[0]]) if len(inside) else None
    bound = None
    if e[0] > radius_sq:
        bound = (1.0 / p.beta) * np.log(p.beta**2 * e[0] / (4.0 * f_sq))
    return entry, radius_sq, bound
