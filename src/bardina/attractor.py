"""Explicit attractor diagnostics: the eta(beta) regime quantity, contraction
and convergence checks, zero-force decay envelopes, Lyapunov sums and frame
transport for the linearized flow, and the closed-form fractal-dimension bound."""

import math
from collections import namedtuple

import numpy as np

from .dynamics import SimState, _etd_weights, damping_symbol, sampled_states
from .spectral import (
    CertificateError,
    VectorField,
    _check_shared_grid,
    bilinear,
    h1alpha_diff_sq,
    h1alpha_inner,
    h1alpha_weights,
    inverse_transform,
    norms,
)

__all__ = [
    "EtaReport",
    "DimensionBound",
    "eta",
    "lieb_thirring_constant",
    "dimension_bound",
    "gram",
    "linearized_rhs",
    "lyapunov_sum_bound",
    "orthonormalize",
    "transport_frame",
    "trajectory_gap",
    "steady_convergence",
    "zero_force_decay",
]

GRAM_TOL = 1e-8
RANK_TOL = 1e-10  # relative norm below which orthonormalize calls a field dependent


EtaReport = namedtuple("EtaReport", "eta_value regime")  # regime: "positive" | "zero" | "negative"
DimensionBound = namedtuple("DimensionBound", "c_lt c_abn bound")


def eta(params, f_norm):
    """Regime quantity eta(beta) = c |f|_{H1_alpha} / (alpha^{5/2} beta) - beta."""
    if f_norm < 0:
        raise ValueError("force norm must be nonnegative")
    value = params.eta_c * f_norm / (params.alpha**2.5 * params.beta) - params.beta
    if value > 0:
        regime = "positive"
    elif value < 0:
        regime = "negative"
    else:
        regime = "zero"
    return EtaReport(value, regime)


def lieb_thirring_constant():
    """Closed form (3/5^{5/3}) (16 pi^{3/2} Gamma(7/2)/Gamma(5))^{2/3}."""
    inner = 16.0 * math.pi**1.5 * math.gamma(3.5) / math.gamma(5.0)
    return 3.0 / 5.0 ** (5.0 / 3.0) * inner ** (2.0 / 3.0)


def dimension_bound(params, f_norm):
    """Upper bound for the fractal dimension of the global attractor:

      c(a,b,nu) = (1/beta) [ 2 C_LT^4 / (nu^{12/5} a^{6/5}) * 2^{16/5}/a^{14/5}
                             + 3/(4 beta) ]
      bound = c(a,b,nu) * max(|f|^{14/5}, |f|^2)
    """
    if f_norm < 0:
        raise ValueError("force norm must be nonnegative")
    c_lt = lieb_thirring_constant()
    a, b, nu = params.alpha, params.beta, params.nu
    c_abn = (1.0 / b) * (
        2.0 * c_lt**4 / (nu ** (12.0 / 5.0) * a ** (6.0 / 5.0))
        * 2.0 ** (16.0 / 5.0) / a ** (14.0 / 5.0)
        + 3.0 / (4.0 * b)
    )
    bound = c_abn * max(f_norm ** (14.0 / 5.0), f_norm**2)
    return DimensionBound(c_lt, c_abn, bound)


def linearized_rhs(w, u, params):
    """L(t, u0) w = -P(((w.grad)u + (u.grad)w)_alpha) + nu Lap w - beta w
    = -2 B(u, w) - (nu |k|^2 + beta) w on the retained box (a box field).
    ValueError if u and w are on different grids."""
    grid = _check_shared_grid(u, w)
    advection = -2.0 * bilinear(u, w, params.alpha).hat
    return VectorField(grid, advection - damping_symbol(grid, params) * w.hat)


def lyapunov_sum_bound(m, u, params):
    """Right side of the Lyapunov-sum estimate:
    -beta m + 2 C_LT^4/(nu^{12/5} alpha^{6/5}) |u|_H1^{14/5} + (3/8) a^2 |u|_H2^2."""
    c_lt = lieb_thirring_constant()
    nb = norms(u, params.alpha)
    return (
        -params.beta * m
        + 2.0 * c_lt**4 / (params.nu ** 2.4 * params.alpha ** 1.2)
        * nb.h1dot_sq ** 1.4
        + 0.375 * params.alpha**2 * nb.h2dot_sq
    )


def gram(frame, alpha):
    """The m x m matrix of h1alpha_inner products of the frame, a list of
    fields: one weighted copy of each field and m(m+1)/2 dot products over
    every mode of the box.  ValueError if the fields are on two grids."""
    weight = h1alpha_weights(_check_shared_grid(*frame), alpha)
    g = np.empty((len(frame), len(frame)))
    for i, v in enumerate(frame):
        wv = weight * v.hat
        for j in range(i + 1):
            g[i, j] = g[j, i] = np.vdot(wv, frame[j].hat).real
    return g


def transport_frame(frame, state, dt, n_steps):
    """The Lyapunov sum at the state of the frame, a list of fields,
    sum_i [L(t, u0) w_i, w_i]_alpha, and the frame moved n_steps
    exponential-Euler steps of dt by the flow linearized about the frozen
    state and re-orthonormalized (the frame itself when n_steps is 0):
    (frame, sum), all in the state's alpha.  Each -2 B(u, w_i) is formed
    once, with state.u_phys, for the sum and the first step.  Each field
    moves in its own hat once the sum has read it, and orthonormalize
    overwrites those hats: when n_steps > 0 the input frame is consumed,
    its hats now those of the frame returned.  ValueError if a field is not
    on the state's grid; CertificateError if the frame is not orthonormal
    in the state's alpha, as every frame this program builds is."""
    u, p = state.u, state.params
    grid = _check_shared_grid(u, *frame)
    defect = np.abs(gram(frame, p.alpha) - np.eye(len(frame))).max()
    if not defect <= GRAM_TOL:
        raise CertificateError(f"frame is not orthonormal (Gram deviation {defect:.3e})")
    damping = damping_symbol(grid, p)
    expz, w1, _ = _etd_weights(grid, p, dt)
    total = 0.0
    for w in frame:
        nl = -2.0 * bilinear(u, w, p.alpha, state.u_phys).hat
        total += h1alpha_inner(VectorField(grid, nl - damping * w.hat), w, p.alpha)
        for k in range(n_steps):  # transport part only; expz treats the linear decay exactly
            if k:
                nl = -2.0 * bilinear(u, w, p.alpha, state.u_phys).hat
            np.multiply(expz, w.hat, out=w.hat)
            w.hat += np.multiply(w1, nl, out=nl)
    return (orthonormalize(frame, p.alpha) if n_steps else frame), total


def orthonormalize(fields, alpha):
    """Modified Gram-Schmidt in the H^1_alpha inner product, in place: each
    field's hat is overwritten by its orthonormal field (w -= c q, then
    w /= |w|, each projection one Re vdot(weights * q, w)), and the
    orthonormal fields, on those hats, are returned as a list.  ValueError
    if the list is empty, the fields are on two grids or dependent."""
    if not fields:
        raise ValueError("empty field list")
    grid = _check_shared_grid(*fields)
    weight = h1alpha_weights(grid, alpha)
    hats = [v.hat for v in fields]
    scale = max(np.sqrt(np.vdot(weight * w, w).real) for w in hats)
    if scale == 0:
        raise ValueError("rank-deficient input: all fields vanish")
    for i, w in enumerate(hats):
        for q in hats[:i]:
            w -= np.vdot(weight * q, w).real * q
        nrm = np.sqrt(np.vdot(weight * w, w).real)
        if nrm <= RANK_TOL * scale:
            raise ValueError("rank-deficient input: dependent field encountered")
        w /= nrm
    return [VectorField(grid, w) for w in hats]


# gap_sq is |u_a - u_b|^2_{H1_alpha} per sample; eta_value is the
# regime of the force, orbital_stable says g(t) <= g(0) at all samples
# and decay_rate is the fitted slope of log g(t), negative for a
# contraction (None with fewer than two positive gaps).
GapReport = namedtuple("GapReport", "times gap_sq eta_value orbital_stable decay_rate")


def trajectory_gap(u0_a, u0_b, force, params, t_end, dt, sample_every=1):
    """Run two simulations under one force in lockstep and track the squared
    energy-norm gap, with the force's eta, the orbital-stability flag (g
    nonincreasing relative to g(0)) and a log-linear fit of the decay rate.
    No reference to u0_a or u0_b is kept here once stepping starts: each is
    freed at its run's first step unless the caller holds it.
    """
    runs = zip(
        sampled_states(SimState(u0_a, 0.0, params, force), t_end, dt, sample_every),
        sampled_states(SimState(u0_b, 0.0, params, force), t_end, dt, sample_every),
    )
    del u0_a, u0_b
    times, gaps = np.array([(a.t, h1alpha_diff_sq(a.u, b.u, params.alpha)) for a, b in runs]).T

    f_norm = np.sqrt(norms(force, params.alpha).h1alpha_sq)
    orbital = bool(np.all(gaps <= gaps[0] * (1.0 + 1e-10) + 1e-300))
    positive = gaps > 0
    rate = _log_slope(times[positive], gaps[positive]) if positive.sum() >= 2 else None
    return GapReport(times, gaps, eta(params, f_norm).eta_value, orbital, rate)


# r is |u(t) - U|_{H1_alpha} and r_inf max_x |u(t, x) - U(x)|, from the
# physical samples of u and U; monotone says r is nonincreasing over the
# sampled times, profile_envelope_ok r_inf(t) <= C t^{-3/4} for t >= 1,
# C fit at t = 1.
ConvergenceReport = namedtuple("ConvergenceReport", "times r r_inf monotone profile_envelope_ok")


def steady_convergence(u0, force, params, U, t_end, dt, sample_every=1):
    """Track convergence of a trajectory to a steady state U.

    Requires eta(beta) < 0 for the conclusion to be meaningful; the caller is
    expected to verify the regime.  The whole-space t^{-3/4} profile is
    checked as an upper envelope only (box decay is exponential).  r_inf
    reads each sampled state's u_phys, which the next step reuses, and U's
    samples, held for the run.  No reference to u0 is kept here once
    stepping starts.
    """
    U_phys = inverse_transform(U)
    states = sampled_states(SimState(u0, 0.0, params, force), t_end, dt, sample_every)
    del u0
    times, rs, rinfs = np.array([
        (s.t, np.sqrt(h1alpha_diff_sq(s.u, U, params.alpha)), _sup_distance(s.u_phys, U_phys))
        for s in states
    ]).T

    monotone = bool(np.all(np.diff(rs) <= 1e-12 * max(rs[0], 1e-300)))
    envelope_ok = _late_envelope(times, rinfs, lambda t: t**-0.75)
    return ConvergenceReport(times, rs, rinfs, monotone, envelope_ok)


# Per p: lp_norms the series of |u(t)|_{L^p}, fitted_rates the slope of
# log |u(t)|_{L^p} for t >= 1 (0 unless every such value is positive),
# envelopes_ok whether the envelope C_p e^{-2 beta t / p} holds, C_p fit at
# t = 1 (so a series that reaches 0 may hold it, one that leaves 0 not).
ZeroForceDecayReport = namedtuple("ZeroForceDecayReport",
                                  "times lp_norms fitted_rates envelopes_ok")


def _log_slope(t, y):
    """The least-squares slope of log y against t, in closed form: the line
    fit of degree 1 without a LAPACK solve."""
    dt, dy = t - t.mean(), np.log(y)
    dy -= dy.mean()
    return float(np.dot(dt, dy) / np.dot(dt, dt))


def _late_envelope(times, values, envelope):
    """Whether values <= C envelope(times) at every sampled time t >= 1, up
    to a relative 1e-9, with C fit at the first such time; True with fewer
    than two such times."""
    late = times >= 1.0
    if late.sum() < 2:
        return True
    t, v = times[late], values[late]
    c_fit = v[0] / envelope(t[0])
    return bool(np.all(v <= c_fit * envelope(t) * (1.0 + 1e-9) + 1e-300))


def _sup_distance(a, b):
    """max |u(x) - v(x)| on the grid, from the samples of u and v, bit for
    bit (sqrt is monotone; NaN if any sample is), in one component-sized
    temporary, half the x rows at a time, summed as np.sum(d**2, axis=0)
    sums."""
    n = a.shape[-3]
    s, d = np.empty((2, n // 2) + a.shape[-2:])
    tops = []
    for x in (slice(0, n // 2), slice(n // 2, n)):
        np.square(np.subtract(a[0, x], b[0, x], out=s), out=s)
        for i in (1, 2):
            s += np.square(np.subtract(a[i, x], b[i, x], out=d), out=d)
        tops.append(s.max())
    return np.sqrt(np.max(tops))


def _lp_norms(samples, p_list, dx):
    """The L^p norms, p in p_list, of a field from its physical samples
    (3, n, n, n) on a grid of spacing dx, in two component-sized slots: |u|
    in the first, its square summed as np.sum(u**2, axis=0) sums, and each
    |u|^p in the second."""
    mag, s = np.empty((2,) + samples.shape[1:])
    np.square(samples[0], out=mag)
    for i in (1, 2):
        mag += np.square(samples[i], out=s)
    np.sqrt(mag, out=mag)
    return [mag.max() if p == np.inf
            else float((dx**3 * np.sum(np.power(mag, p, out=s))) ** (1.0 / p))
            for p in p_list]


def zero_force_decay(u0, params, t_end, dt, p_list=(2, 4, np.inf), sample_every=1):
    """Unforced run with L^p-norm envelopes C_p e^{-(2 beta / p) t} for t >= 1
    (rate 0 for p = infinity, i.e. a plain monotone bound).  No reference to
    u0 is kept here once stepping starts."""
    if not all(p >= 1 for p in p_list):
        raise ValueError(f"L^p norms need p >= 1 or inf, got p_list = {p_list}")
    grid = u0.grid
    force = VectorField(grid, np.zeros((3,) + grid.box_shape, complex), div_free=True)
    states = sampled_states(SimState(u0, 0.0, params, force), t_end, dt, sample_every)
    del u0
    rows = []
    for state in states:
        rows.append([state.t, *_lp_norms(state.u_phys, p_list, grid.dx)])
    times, *columns = np.array(rows).T
    series = dict(zip(p_list, columns))

    rates, ok = {}, {}
    late = times >= 1.0
    for p in p_list:
        vals = series[p]
        rate = 0.0 if p == np.inf else -2.0 * params.beta / p
        fit = late.sum() >= 2 and np.all(vals[late] > 0)  # the log needs them positive
        rates[p] = _log_slope(times[late], vals[late]) if fit else 0.0
        ok[p] = _late_envelope(times, vals, lambda t: np.exp(rate * t))
    return ZeroForceDecayReport(times, series, rates, ok)
