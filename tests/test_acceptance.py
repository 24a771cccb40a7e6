"""End-to-end acceptance checks, one test per criterion.

Each test prints a single machine-readable pass/fail line of the form

    [criterion NN] <name>: PASS|FAIL

before asserting, so the full verdict list survives in the test log.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from bardina import (
    FieldRecipe,
    GridSpec,
    PhysParams,
    SimState,
    VectorField,
    absorbing_ball_entry,
    dealias,
    decay_envelope_check,
    dimension_bound,
    energy_budget_residual,
    eta,
    evolve,
    generate,
    helmholtz_filter,
    leray_project,
    lieb_thirring_constant,
    linearized_rhs,
    lyapunov_sum_bound,
    nonlinear_term,
    norms,
    orthonormalize,
    solve_stationary,
    stationary_residual_pde,
    steady_convergence,
    step,
    trajectory_gap,
    transport_frame,
    zero_force_decay,
)
from bardina.cli import main as cli_main
from bardina.spectral import modes

from conftest import half_hat, random_field
from oracles import dealias_mask, half_spectrum, oracle_linearized_transport, oracle_nonlinear


def _report(num, name, ok):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {num} ({name}) failed"


def _rel_err(got, expected):
    scale = max(np.abs(expected).max(), 1e-300)
    return np.abs(got - expected).max() / scale


def _zero(grid):
    return VectorField(
        grid, np.zeros((3,) + grid.box_shape, dtype=np.complex128), div_free=True
    )


def test_criterion_01_operator_oracles(grid8):
    alpha = 0.8
    params = PhysParams(alpha=alpha, beta=1.0, nu=0.5)
    # fields with modes beyond grid8's cutoff 2, on the fraction-1 grid (whose
    # box is the half spectrum); the kernel reads their restriction to grid8
    full = replace(grid8, dealias_fraction=1.0)
    u1 = random_field(full, seed=300, amplitude=1.2, k_max=3)
    w1 = random_field(full, seed=301, amplitude=0.9, k_max=3)
    u, w = dealias(u1, grid8), dealias(w1, grid8)
    k = modes(full).k
    ksq = np.sum(k**2, axis=0)

    # filter: per-mode multiplier 1/(1 + alpha^2 |k|^2)
    filt = helmholtz_filter(u1, alpha)
    expected_f = u1.hat / (1.0 + alpha**2 * ksq)
    err_filter = _rel_err(filt.hat, expected_f)

    # Leray: per-mode matrix I - k k^T / |k|^2 applied in a plain loop
    raw = VectorField(full, random_field(full, seed=302).hat + 0.3 * u1.hat)
    proj = leray_project(raw)
    expected_p = np.empty_like(raw.hat)
    for a, b, c in np.ndindex(full.box_shape):
        kv = np.array([k[0][a, b, c], k[1][a, b, c], k[2][a, b, c]])
        v = raw.hat[:, a, b, c]
        s = kv @ kv
        expected_p[:, a, b, c] = v if s == 0 else v - kv * (kv @ v) / s
    err_leray = _rel_err(proj.hat, expected_p)

    # nonlinear term and linearized transport versus convolution sums over
    # the retained modes of the unrestricted fields: the kernel dealiases
    # its inputs
    nl = nonlinear_term(u, alpha)
    err_nl = _rel_err(
        nl.coeffs,
        oracle_nonlinear(u1.coeffs, grid8.dealias_cutoff, grid8.box_len, alpha),
    )
    lin = linearized_rhs(w, u, params)
    transport = oracle_linearized_transport(
        w1.coeffs, u1.coeffs, grid8.dealias_cutoff, grid8.box_len, alpha
    )
    expected_l = (
        half_spectrum(transport) - (params.nu * ksq + params.beta) * w1.hat
    ) * dealias_mask(grid8)
    err_lin = _rel_err(half_hat(lin), expected_l)

    worst = max(err_filter, err_leray, err_nl, err_lin)
    _report(1, "operator-oracles", worst <= 1e-10)


def test_criterion_02_shear_exact_decay():
    grid = GridSpec(16)
    params = PhysParams(alpha=1.0, beta=1.0, nu=0.5)
    u0 = generate(FieldRecipe("shear", 1.0), grid)
    lam = params.nu * (2 * np.pi / grid.box_len) ** 2 + params.beta
    state = SimState(u0.copy(), 0.0, params, _zero(grid))
    dt = 1e-3
    worst = 0.0
    for i in range(1, 5001):
        state = step(state, dt)
        if i % 500 == 0:
            expected = np.exp(-lam * state.t) * u0.coeffs
            worst = max(worst, _rel_err(state.u.coeffs, expected))
    _report(2, "shear-exact-decay", worst <= 1e-10)


def test_criterion_03_energy_identity():
    grid = GridSpec(32)
    params = PhysParams(alpha=1.0, beta=1.0, nu=0.25)
    u0 = generate(FieldRecipe("random_band", 0.3, seed=220, k_min=1, k_max=2), grid)
    force = generate(FieldRecipe("random_band", 0.2, seed=221, k_min=1, k_max=2), grid)

    def max_residual(dt):
        st = SimState(u0.copy(), 0.0, params, force)
        _, traj = evolve(st, 1.0, dt, sample_every=1)
        return np.abs(energy_budget_residual(traj)).max()

    r_coarse = max_residual(1e-3)
    r_fine = max_residual(5e-4)
    order = np.log2(r_coarse / r_fine)
    _report(
        3,
        "energy-identity",
        r_coarse <= 1e-6 and 1.8 <= order <= 2.2,
    )


def test_criterion_04_decay_envelopes():
    grid = GridSpec(8)
    sweep = [
        (0.5, 1.0, 1.0),
        (1.0, 1.0, 1.0),
        (2.0, 0.5, 0.5),
        (1.0, 2.0, 2.0),
        (0.5, 2.0, 0.5),
    ]
    all_ok = True
    for alpha, beta, nu in sweep:
        p = PhysParams(alpha, beta, nu)
        u0 = generate(
            FieldRecipe("random_band", 0.5, seed=230, k_min=1, k_max=2), grid, alpha
        )
        f = generate(
            FieldRecipe("random_band", 0.3, seed=231, k_min=1, k_max=2), grid, alpha
        )
        _, traj = evolve(SimState(u0, 0.0, p, f), 10.0, 0.01, sample_every=10)
        e0 = traj.samples[0].h1alpha_sq
        rep = decay_envelope_check(traj, f, p, slack_tol=1e-12 * e0)
        all_ok = all_ok and rep.passed
    _report(4, "decay-envelopes", all_ok)


def test_criterion_05_stationary_solver(grid8, params):
    f_shear = generate(FieldRecipe("shear", 0.3), grid8)
    res = solve_stationary(f_shear, params, tol=1e-13)
    lam = params.nu * (2 * np.pi / grid8.box_len) ** 2 + params.beta
    err_closed = _rel_err(res.U.coeffs, f_shear.coeffs / lam)
    ok = err_closed <= 1e-10
    for seed in range(310, 320):
        f = generate(
            FieldRecipe("random_band", 0.2, seed=seed, k_min=1, k_max=2),
            grid8,
            params.alpha,
        )
        r = solve_stationary(f, params, tol=1e-12)
        ok = ok and stationary_residual_pde(r.U, f, params) <= 1e-8
        ok = ok and r.energy_slack >= 0.0
    _report(5, "stationary-solver", ok)


def test_criterion_06_contraction_regime():
    grid = GridSpec(16)
    params = PhysParams(alpha=1.0, beta=1.0, nu=0.1, eta_c=1.0)
    f = generate(
        FieldRecipe("random_band", 0.05, seed=201, k_min=1, k_max=2), grid, params.alpha
    )
    f_norm = np.sqrt(norms(f, params.alpha).h1alpha_sq)
    regime = eta(params, f_norm)
    assert regime.eta_value < 0
    rate = abs(regime.eta_value)

    u0a = generate(
        FieldRecipe("random_band", 0.3, seed=202, k_min=1, k_max=2), grid, params.alpha
    )
    u0b = generate(
        FieldRecipe("random_band", 0.3, seed=203, k_min=1, k_max=2), grid, params.alpha
    )
    rep = trajectory_gap(u0a, u0b, f, f, params, 20.0 / rate, 0.01, sample_every=5)
    g = np.sqrt(rep.gap_sq)
    below = np.nonzero(g <= g[0] / 2.0)[0]
    ok = len(below) > 0
    if ok:
        t_half = rep.times[below[0]]
        target = np.log(2.0) / rate
        ok = 0.5 * target <= t_half <= 1.5 * target
    ok = ok and g[-1] < 1e-8

    steady = solve_stationary(f, params, tol=1e-13)
    _, traj = evolve(SimState(u0a.copy(), 0.0, params, f), 5.0, 0.01, sample_every=10)
    entry, _, _ = absorbing_ball_entry(traj, f, params)
    conv = steady_convergence(u0a, f, params, steady.U, 5.0, 0.01, sample_every=10)
    after = conv.times >= (entry if entry is not None else 0.0)
    r_after = conv.r[after]
    ok = ok and entry is not None
    ok = ok and bool(np.all(np.diff(r_after) <= 1e-12 * max(r_after[0], 1e-300)))
    _report(6, "contraction-regime", ok)


def test_criterion_07_zero_force_decay():
    grid = GridSpec(16)
    params = PhysParams(alpha=1.0, beta=1.0, nu=0.05)
    ok = True
    for seed in (211, 212, 213):
        u0 = generate(
            FieldRecipe("random_band", 0.5, seed=seed, k_min=1, k_max=1),
            grid,
            params.alpha,
        )
        rep = zero_force_decay(
            u0, params, 3.0, 0.01, p_list=(2, 4, np.inf), sample_every=10
        )
        ok = ok and abs(rep.fitted_rates[2] + params.beta) <= 0.1 * params.beta
        ok = ok and rep.envelopes_ok[4] and rep.envelopes_ok[np.inf]
    _report(7, "zero-force-decay", ok)


def test_criterion_08_lyapunov_sum_bound():
    grid = GridSpec(16)
    params = PhysParams(alpha=1.0, beta=1.0, nu=0.5)
    u0 = generate(FieldRecipe("random_band", 0.5, seed=320, k_min=1, k_max=2), grid)
    force = generate(FieldRecipe("random_band", 0.3, seed=321, k_min=1, k_max=2), grid)
    ok = True
    for m in (1, 2, 4):
        frame = orthonormalize(
            [
                generate(
                    FieldRecipe("random_band", 1.0, seed=330 + 10 * m + i, k_min=1, k_max=3),
                    grid,
                    params.alpha,
                )
                for i in range(m)
            ],
            params.alpha,
        )
        state = SimState(u0.copy(), 0.0, params, force)
        for i in range(51):
            if i % 10 == 0:
                total = transport_frame(frame, state, 0.02, 0)[1]
                bound = lyapunov_sum_bound(m, state.u, params)
                ok = ok and (bound - total) >= 0.0
            state = step(state, 0.02)
    _report(8, "lyapunov-sum-bound", ok)


def test_criterion_09_dimension_bound():
    c_lt = lieb_thirring_constant()
    ok = abs(c_lt - 1.0956) <= 1e-4
    p = PhysParams(alpha=1.0, beta=1.0, nu=1.0)
    bound = dimension_bound(p, 1.0).bound
    closed = 2.0 * c_lt**4 * 2.0 ** (16.0 / 5.0) + 0.75
    ok = ok and abs(bound - closed) <= 1e-12 * closed
    ok = ok and dimension_bound(p, 0.0).bound == 0.0
    _report(9, "dimension-bound", ok)


CLI_INI = """\
[grid]
n = 8
[params]
alpha = 1.0
beta = 1.0
nu = 0.5
[initial]
kind = random_band
amplitude = 0.3
seed = 4
k_min = 1
k_max = 2
[force]
kind = random_band
amplitude = 0.2
seed = 5
k_min = 1
k_max = 2
[time]
dt = 0.02
t_end = 0.5
sample_every = 5
"""


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(CLI_INI)
    artifacts = {
        "simulate": ["trajectory.csv", "simulate_report.json", "final_state.bard"],
        "stationary": ["stationary_report.json", "stationary.bard"],
        "bound": ["bound_report.json"],
        "gap": ["gap.csv", "gap_report.json"],
        "decay": ["decay.csv", "decay_report.json"],
        "lyapunov": ["lyapunov.csv", "lyapunov_report.json"],
    }
    ok = True
    for sub, names in artifacts.items():
        d1, d2 = tmp_path / f"{sub}_1", tmp_path / f"{sub}_2"
        for d in (d1, d2):
            code = cli_main([sub, "--config", str(cfg), "--out", str(d)])
            ok = ok and code == 0
        for name in names + ["effective_config.ini"]:
            ok = ok and (d1 / name).read_bytes() == (d2 / name).read_bytes()
    _report(10, "determinism", ok)
