"""Explicit attractor diagnostics: the eta(beta) regime quantity, contraction
and convergence checks, zero-force decay envelopes, Lyapunov sums for the
linearized flow, and the closed-form fractal-dimension bound."""

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import SimState, _etd_weights, sampled_states
from .spectral import (
    CertificateError,
    VectorField,
    bilinear,
    dealiased_physical,
    h1alpha_inner,
    modes,
    norms,
)

__all__ = [
    "EtaReport",
    "DimensionBound",
    "OrthoFrame",
    "eta",
    "lieb_thirring_constant",
    "dimension_bound",
    "linearized_rhs",
    "lyapunov_sum",
    "lyapunov_sum_bound",
    "orthonormalize",
    "transport_frame",
    "trajectory_gap",
    "steady_convergence",
    "zero_force_decay",
]

GRAM_TOL = 1e-8


@dataclass(frozen=True)
class EtaReport:
    eta_value: float
    regime: str  # "positive" | "zero" | "negative"


@dataclass(frozen=True)
class DimensionBound:
    c_lt: float
    c_abn: float
    bound: float


@dataclass
class OrthoFrame:
    """Vector fields orthonormal under the H^1_alpha inner product."""

    fields: list
    alpha: float

    def gram(self):
        """The m x m matrix of h1alpha_inner products: one weighted copy of
        each field and m(m+1)/2 dot products over every mode of the fields'
        common layout."""
        grid, symbols = self.fields[0].grid, self.fields[0].symbols
        weight = (1.0 + self.alpha**2 * symbols.ksq) * symbols.weights
        weight = grid.box_len**3 * np.repeat(weight, 2, axis=-1)  # re, im interleaved
        x = [f.hat.view(np.float64) for f in self.fields]
        g = np.empty((len(x), len(x)))
        for i, xi in enumerate(x):
            wxi = xi * weight
            for j in range(i + 1):
                g[i, j] = g[j, i] = np.vdot(wxi, x[j])
        return g

    def gram_defect(self):
        return np.abs(self.gram() - np.eye(len(self.fields))).max()


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


def linearized_rhs(w, u, params, u_phys=None):
    """L(t, u0) w = -P(((w.grad)u + (u.grad)w)_alpha) + nu Lap w - beta w
    = -2 B(u, w) - (nu |k|^2 + beta) w on the retained box (a box field).
    u_phys: see bilinear."""
    grid = u.grid
    lin = params.nu * modes(grid, grid.box_shape).ksq + params.beta
    out = -2.0 * bilinear(u, w, params.alpha, u_phys).hat - lin * w.box
    return VectorField(grid, out)


def lyapunov_sum(frame, u, params, u_phys=None):
    """Sum over the frame of [L(t,u0) w_i, w_i]_alpha.  u_phys: see bilinear.
    The frames this program builds are orthonormal, so a frame that is not
    raises CertificateError."""
    defect = frame.gram_defect()
    if defect > GRAM_TOL:
        raise CertificateError(f"frame is not orthonormal (Gram deviation {defect:.3e})")
    total = 0.0
    for w in frame.fields:
        lw = linearized_rhs(w, u, params, u_phys)
        total += h1alpha_inner(lw, w, params.alpha)
    return total


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


def transport_frame(frame, state_u, params, dt, n_steps, u_phys=None):
    """Advance frame fields with the linearized flow (exponential Euler on the
    frozen base state), then re-orthonormalize in the energy inner product.
    u_phys: see bilinear."""
    grid = state_u.grid
    expz, w1, _ = _etd_weights(grid, params, dt)
    evolved = []
    for w in frame.fields:
        cur = w
        for _ in range(n_steps):
            # transport part only; expz treats the linear decay exactly
            nl = -2.0 * bilinear(state_u, cur, params.alpha, u_phys).hat
            cur = VectorField(grid, expz * cur.box + w1 * nl)
        evolved.append(cur)
    return orthonormalize(evolved, params.alpha)


def orthonormalize(fields, alpha, rank_tol=1e-10):
    """Modified Gram-Schmidt in the H^1_alpha inner product."""
    if not fields:
        raise ValueError("empty field list")
    grid = fields[0].grid
    scale = max(
        np.sqrt(norms(v, alpha).h1alpha_sq) for v in fields
    )
    if scale == 0:
        raise ValueError("rank-deficient input: all fields vanish")
    out = []
    for v in fields:
        w = v.hat.copy()
        for q in out:
            w -= h1alpha_inner(VectorField(grid, w), q, alpha) * q.hat
        cand = VectorField(grid, w)
        nrm = np.sqrt(norms(cand, alpha).h1alpha_sq)
        if nrm <= rank_tol * scale:
            raise ValueError("rank-deficient input: dependent field encountered")
        out.append(VectorField(grid, w / nrm))
    return OrthoFrame(out, alpha)


@dataclass
class GapReport:
    times: np.ndarray
    gap_sq: np.ndarray           # |u_a - u_b|^2_{H1_alpha} per sample
    eta_value: float | None
    orbital_stable: bool | None  # g(t) <= g(0) at all samples (same-force runs)
    decay_rate: float | None     # fitted slope of log g(t); negative = contraction


def _gap_sq(ua, ub, alpha):
    d = VectorField(ua.grid, ua.hat - ub.hat)
    return norms(d, alpha).h1alpha_sq


def trajectory_gap(u0_a, u0_b, force_a, force_b, params, t_end, dt, sample_every=1):
    """Run two simulations in lockstep and track the squared energy-norm gap.

    With identical forces the report also carries the orbital-stability flag
    (g nonincreasing relative to g(0)) and a log-linear fit of the decay rate.
    """
    n_steps = max(int(round(t_end / dt)), 1)
    runs = zip(
        sampled_states(SimState(u0_a, 0.0, params, force_a), n_steps, dt, sample_every),
        sampled_states(SimState(u0_b, 0.0, params, force_b), n_steps, dt, sample_every),
    )
    times, gaps = [], []
    for sa, sb in runs:
        times.append(sa.t)
        gaps.append(_gap_sq(sa.u, sb.u, params.alpha))
    times = np.array(times)
    gaps = np.array(gaps)

    same_force = np.array_equal(force_a.hat, force_b.hat)
    eta_value = orbital = rate = None
    if same_force:
        f_norm = np.sqrt(norms(force_a, params.alpha).h1alpha_sq)
        eta_value = eta(params, f_norm).eta_value
        orbital = bool(np.all(gaps <= gaps[0] * (1.0 + 1e-10) + 1e-300))
        positive = gaps > 0
        if positive.sum() >= 2:
            rate = float(
                np.polyfit(times[positive], np.log(gaps[positive]), 1)[0]
            )
    return GapReport(times, gaps, eta_value, orbital, rate)


@dataclass
class ConvergenceReport:
    times: np.ndarray
    r: np.ndarray            # |u(t) - U|_{H1_alpha}
    r_inf: np.ndarray        # max-norm of u(t) - U in physical space
    monotone: bool           # r nonincreasing over the sampled times
    profile_envelope_ok: bool  # r_inf(t) <= C t^{-3/4} for t >= 1, C fit at t=1


def steady_convergence(u0, force, params, U, t_end, dt, sample_every=1):
    """Track convergence of a trajectory to a steady state U.

    Requires eta(beta) < 0 for the conclusion to be meaningful; the caller is
    expected to verify the regime.  The whole-space t^{-3/4} profile is
    checked as an upper envelope only (box decay is exponential).
    """
    n_steps = max(int(round(t_end / dt)), 1)
    times, rs, rinfs = [], [], []
    for s in sampled_states(SimState(u0, 0.0, params, force), n_steps, dt, sample_every):
        d = VectorField(u0.grid, s.u.hat - U.box)
        times.append(s.t)
        rs.append(np.sqrt(norms(d, params.alpha).h1alpha_sq))
        rinfs.append(_magnitude(d).max())
    times = np.array(times)
    rs = np.array(rs)
    rinfs = np.array(rinfs)

    monotone = bool(np.all(np.diff(rs) <= 1e-12 * max(rs[0], 1e-300)))
    late = times >= 1.0
    envelope_ok = True
    if late.sum() >= 2:
        t_late = times[late]
        c_fit = rinfs[late][0] * t_late[0] ** 0.75
        envelope_ok = bool(
            np.all(rinfs[late] <= c_fit * t_late ** -0.75 * (1.0 + 1e-9) + 1e-300)
        )
    return ConvergenceReport(times, rs, rinfs, monotone, envelope_ok)


@dataclass
class ZeroForceDecayReport:
    times: np.ndarray
    lp_norms: dict           # p -> series of |u(t)|_{L^p}
    fitted_rates: dict       # p -> slope of log |u(t)|_{L^p} for t >= 1
    envelopes_ok: dict       # p -> envelope C_p e^{-2 beta t / p} holds, C_p fit at t=1


def _magnitude(u):
    """|u(x)| on the grid; for a box field, dealiased_physical is its samples."""
    return np.sqrt(np.sum(dealiased_physical(u) ** 2, axis=0))


def _lp_norm(mag, p, dx):
    """L^p norm of a field from its magnitude samples on a grid of spacing dx."""
    if p == np.inf:
        return mag.max()
    return float((dx**3 * np.sum(mag**p)) ** (1.0 / p))


def zero_force_decay(u0, params, t_end, dt, p_list=(2, 4, np.inf), sample_every=1):
    """Unforced run with L^p-norm envelopes C_p e^{-(2 beta / p) t} for t >= 1
    (rate 0 for p = infinity, i.e. a plain monotone bound)."""
    force = VectorField(u0.grid, np.zeros((3,) + u0.grid.box_shape, complex), div_free=True)
    n_steps = max(int(round(t_end / dt)), 1)
    times, series = [], {p: [] for p in p_list}
    for state in sampled_states(SimState(u0, 0.0, params, force), n_steps, dt, sample_every):
        times.append(state.t)
        mag = _magnitude(state.u)
        for p in p_list:
            series[p].append(_lp_norm(mag, p, u0.grid.dx))
    times = np.array(times)
    series = {p: np.array(v) for p, v in series.items()}

    rates, ok = {}, {}
    late = times >= 1.0
    for p in p_list:
        vals = series[p]
        rate_envelope = 0.0 if p == np.inf else -2.0 * params.beta / p
        if late.sum() >= 2 and np.all(vals[late] > 0):
            t_late = times[late]
            rates[p] = float(np.polyfit(t_late, np.log(vals[late]), 1)[0])
            c_fit = vals[late][0] * np.exp(-rate_envelope * t_late[0])
            ok[p] = bool(
                np.all(
                    vals[late]
                    <= c_fit * np.exp(rate_envelope * t_late) * (1.0 + 1e-9) + 1e-300
                )
            )
        else:
            rates[p] = 0.0
            ok[p] = bool(np.all(vals == 0) or late.sum() < 2)
    return ZeroForceDecayReport(times, series, rates, ok)
