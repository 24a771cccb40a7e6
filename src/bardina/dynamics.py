"""Time integration of the damped Bardina system and energy diagnostics.

The semi-linear structure du/dt = L u + N(u) + f is integrated with a
second-order exponential (ETD2RK) scheme.  The linear symbol
lambda(k) = -(nu |k|^2 + beta) is diagonal in Fourier space and treated
exactly; the nonlinear term and the force enter through phi-function
weights.
"""

import math
from collections import namedtuple
from functools import cached_property, lru_cache

import numpy as np

from .spectral import (
    VectorField,
    _abs_max,
    _check_shared_grid,
    _frozen,
    bilinear,
    h1alpha_inner,
    inverse_transform,
    modes,
    norms,
)

__all__ = [
    "SimState",
    "Trajectory",
    "integral",
    "BlowUpError",
    "CFLError",
    "nonlinear_term",
    "step",
    "step_count",
    "step_index",
    "sample_steps",
    "damping_symbol",
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


class SimState:
    """A state of a run: velocity u at time t, with its params and force.
    step drops u from its input once it has read it, so a stepped state has
    no u (reading it raises AttributeError) and its velocity is freed unless
    a caller holds it.  u_phys, the physical samples of u, is formed on
    first read by a consumer; step passes it to its first nonlinear_term
    call if formed, never forms it, and drops it too.  u_max, max |u|
    over those samples, is set by step from the sups that call reports
    (one per slab on grids beyond spectral.SLAB_BYTES), else formed from
    u_phys on first read."""

    def __init__(self, u, t, params, force):
        self.u, self.t, self.params, self.force = u, t, params, force

    @cached_property
    def u_phys(self):
        return inverse_transform(self.u)

    @cached_property
    def u_max(self):
        return _abs_max(self.u_phys)


# The samples of a run as columns, or one sample; dissipation is
# nu (|u|_H1^2 + alpha^2 |u|_H2^2), damping beta |u|_{H1_alpha}^2 and
# force_pairing <f, u>_{H1_alpha}.
Trajectory = namedtuple(
    "Trajectory", "t l2_sq h1dot_sq h2dot_sq h1alpha_sq dissipation damping force_pairing"
)


def integral(t, y):
    """Cumulative trapezoid integral of the series y over the times t."""
    if len(t) < 2:
        return np.zeros_like(t)
    return np.concatenate(([0.0], np.cumsum(np.diff(t) * (y[1:] + y[:-1]) / 2.0)))


def nonlinear_term(u, alpha, u_phys=None, sups=None):
    """P div((u (x) u)_alpha) = B(u, u): the Bardina nonlinearity, dealiased.
    u_phys and sups: see bilinear; step passes a list as sups to take max |u|
    from the samples the kernel reads.  The hat is a view of a work array,
    valid as bilinear's."""
    return bilinear(u, u, alpha, u_phys, sups)


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


def damping_symbol(grid, params):
    """nu |k|^2 + beta = -lambda on the retained box: the Stokes operator
    plus the damping, a new array per call.  Not cached: a run's steps read
    it folded into _etd_weights, and its other readers form it per call."""
    return params.nu * modes(grid).ksq + params.beta


@lru_cache(maxsize=32)
def _etd_weights(grid, params, dt):
    """exp(z), dt phi_1(z), dt phi_2(z) on the retained box, z = lambda dt;
    cached, because a run takes every step with one grid, params and dt."""
    z = -damping_symbol(grid, params) * dt
    return tuple(_frozen(w) for w in (np.exp(z), dt * _phi1(z), dt * _phi2(z)))


def cfl_cap(state):
    """Advective CFL limit 0.5 * dx / max|u| of a state, from state.u_max:
    the sup step's kernel reported, else that of state.u_phys (inf when the
    field is zero)."""
    umax = state.u_max
    return 0.5 * state.u.grid.dx / umax if umax else np.inf


def check_cfl(state, dt):
    """Raise CFLError if dt exceeds the CFL cap of the state (cfl_cap)."""
    cap = cfl_cap(state)
    if dt > cap:
        raise CFLError(state.t, dt, cap)


def step(state, dt):
    """One ETD2RK step of the Galerkin system on the grid's retained box, from
    step i = step_index(state.t, dt) to time (i + 1) dt.  N(u) reads state.u_phys
    if a consumer formed it, and the step then drops it from the input state;
    else the kernel forms u's samples, slab by slab beyond spectral.SLAB_BYTES,
    so the step makes no sample array there.  Both N(u) and N(predictor) are
    nonlinear_term calls; the first reports the kernel's max |u| over the
    samples it read in a sups list, whose np.max (NaN if any entry is)
    becomes state.u_max, which the CFL check compares with dt before N(u)
    is used.  Both kernel results are views of the kernel's work array: the
    step forms the predictor, drops the input state's u once the predictor
    has read it, forms n0 = f - N(u) and puts w1 n0 into N(u)'s hat, and
    forms the combine in N(predictor)'s hat and the predictor, so its
    plateau is three box arrays (the force, u and the predictor, then the
    force, the predictor and n0) beside the kernel's "box slot" scratch.
    n0 is freed before the new state's certificate check.  Raises
    ValueError as step_index or on two grids, CFLError if dt exceeds the
    input's CFL cap (the input left whole), BlowUpError on non-finite
    output."""
    t = (step_index(state.t, dt) + 1) * dt
    grid = _check_shared_grid(state.u, state.force)
    alpha = state.params.alpha
    expz, w1, w2 = _etd_weights(grid, state.params, dt)

    sups = []
    nl = nonlinear_term(state.u, alpha, vars(state).get("u_phys"), sups).hat
    state.u_max = np.max(sups)
    check_cfl(state, dt)
    predictor = expz * state.u.hat
    del state.u  # its last read: u is freed here unless a caller holds it
    n0 = state.force.hat - nl
    vars(state).pop("u_phys", None)  # after n0, which would split its freed pages
    predictor += np.multiply(w1, n0, out=nl)  # N(u) is read: w1 n0 takes its slots
    del nl
    n1 = nonlinear_term(VectorField(grid, predictor), alpha).hat
    np.subtract(state.force.hat, n1, out=n1)
    n1 -= n0
    np.multiply(w2, n1, out=n1)
    out = np.add(predictor, n1, out=predictor)  # owns its 3 slots
    del n0, n1  # the checks below read out alone

    if not np.all(np.isfinite(out)):
        raise BlowUpError(t)
    u_new = VectorField(grid, out, div_free=True)
    return SimState(u_new, t, state.params, state.force)


def step_count(t, t_end, dt):
    """ETD2RK steps of dt from t to t_end: round((t_end - t) / dt), at least
    one when t_end > t, none when t_end == t.  The one place a run's length
    is decided; ValueError if dt <= 0, t_end < t or (t_end - t) / dt is not finite."""
    if not dt > 0 or t_end < t or not math.isfinite((t_end - t) / dt):
        raise ValueError(f"no step count from t={t} to t_end={t_end} by dt={dt}: dt is not "
                         "positive, t_end precedes t, or (t_end - t) / dt is not finite")
    return max(int(round((t_end - t) / dt)), int(t_end > t))


def step_index(t, dt):
    """The step index i with i dt = t to 1e-9 relative (the t_end rule), else ValueError."""
    i = step_count(0.0, t, dt)
    if abs(i * dt - t) > 1e-9 * t:
        raise ValueError(f"time {t} is not a whole number of dt={dt} steps")
    return i


def sample_steps(t, t_end, dt, every):
    """The sample rule: the step indices of the states a run from t to t_end
    samples, its first, every every-th after it and its last (one if t_end == t)."""
    first = step_index(t, dt)
    last = first + step_count(t, t_end, dt)
    return [*range(first, last, every), last]


def sampled_states(state, t_end, dt, sample_every=1):
    """Yield the state at each index of sample_steps(state.t, t_end, dt,
    sample_every), stepping between them; the last is also the return value.
    A consumer that reads a yielded state's u_phys saves the next step its
    transform; it reads the state's u before it advances the generator, as
    the step drops it.  Raises ValueError, before any step, as sample_steps
    or when the velocity and the force are on different grids."""
    marks = sample_steps(state.t, t_end, dt, sample_every)
    _check_shared_grid(state.u, state.force)
    yield state
    for i, j in zip(marks, marks[1:]):
        for _ in range(i, j):
            state = step(state, dt)
        yield state
    return state


def sample_diagnostics(state):
    """The diagnostics of one state: a Trajectory of one sample."""
    p = state.params
    nb = norms(state.u, p.alpha)
    return Trajectory(
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
    """Step from state.t to t_end (step_count steps) with diagnostics at
    every state sampled_states yields, each at time i dt for its step index i.

    Returns (final_state, Trajectory), its columns built once at the end; it
    always holds the initial and the final sample, one when t_end == state.t.
    No state is held here between samples: each is dropped once sampled,
    and the initial one is held by the generator only, until its step, which
    frees its velocity unless the caller holds it.
    """
    states = sampled_states(state, t_end, dt, sample_every)
    del state
    rows = []
    try:
        while True:
            rows.append(sample_diagnostics(next(states)))
    except StopIteration as stop:
        return stop.value, Trajectory(*np.array(rows).T)


def energy_budget_residual(trajectory):
    """Relative defect of the energy equality (nu-corrected form) per sample:

      E(t) - E(0) + 2 int diss + 2 int damp - 2 int force = 0,

    normalized by max(E(0), 1), with trapezoid quadrature in time.
    """
    t, e = trajectory.t, trajectory.h1alpha_sq
    i_diss = integral(t, trajectory.dissipation)
    i_damp = integral(t, trajectory.damping)
    i_force = integral(t, trajectory.force_pairing)
    return (e - e[0] + 2 * i_diss + 2 * i_damp - 2 * i_force) / max(e[0], 1.0)


# The worst slack of the pointwise envelope, max over samples of E(t) -
# envelope(t), and of the window bound, max over windows of lhs - rhs.
EnvelopeReport = namedtuple("EnvelopeReport", "pointwise_slack windowed_slack passed")


def decay_envelope_check(trajectory, force, params, slack_tol=None):
    """Check the two decay controls of the damped model.

      E(t) <= E(0) e^{-beta t} + (4/beta^2) |f|_{H1_alpha}^2            (pointwise)
      nu int_t^{t+T} |u|_H1^2 + alpha^2 int |u|_H2^2
          <= (2T/beta) |f|_{H1_alpha}^2 + E(t)                          (windows)

    Windows run from each sample time to the final time.  Returns an
    EnvelopeReport with the worst (most positive) slack of each family.
    """
    p = params
    t, e = trajectory.t, trajectory.h1alpha_sq
    f_sq = norms(force, p.alpha).h1alpha_sq
    if slack_tol is None:
        slack_tol = 1e-12 * max(e[0], 1.0)

    envelope = e[0] * np.exp(-p.beta * (t - t[0])) + (4.0 / p.beta**2) * f_sq
    pointwise = float((e - envelope).max())

    lhs_total = (p.nu * integral(t, trajectory.h1dot_sq)
                 + p.alpha**2 * integral(t, trajectory.h2dot_sq))
    # windows [t_i, t_end] for every sample i
    rhs = (2.0 * (t[-1] - t) / p.beta) * f_sq + e
    windowed = float(((lhs_total[-1] - lhs_total) - rhs).max())

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
    t, e = trajectory.t, trajectory.h1alpha_sq
    if f_sq == 0:
        entry = t[0] if e[0] == 0 else None
        return entry, 0.0, None
    inside = np.nonzero(e <= radius_sq)[0]
    entry = float(t[inside[0]]) if len(inside) else None
    bound = None
    if e[0] > radius_sq:
        bound = (1.0 / p.beta) * np.log(p.beta**2 * e[0] / (4.0 * f_sq))
    return entry, radius_sq, bound
