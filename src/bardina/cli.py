"""Command-line entry point: deterministic experiment runs from one config.

Usage: bardina <subcommand> --config <path> [--out <dir>]

Exit codes: 0 success, 2 config error, 3 numerical blow-up,
4 stationary non-convergence, 5 assertion/report failure,
6 time step above the CFL cap, 7 a violated divergence certificate or a
non-orthonormal Lyapunov frame (spectral.CertificateError, a defect of the
program, not of its input).  Codes 3, 6 and 7 write blowup_report.json,
cfl_report.json or certificate_report.json.
"""

import argparse
import dataclasses
import json
import sys
import time as _time
from pathlib import Path

import numpy as np

from . import __version__
from .attractor import (
    dimension_bound,
    eta,
    lyapunov_sum_bound,
    orthonormalize,
    transport_frame,
    steady_convergence,
    trajectory_gap,
    zero_force_decay,
)
from .checkpoint import STEADY_STATE_TIME, write_checkpoint
from .config import ConfigError, load_config
from .dynamics import (
    BlowUpError,
    CFLError,
    DiagnosticsSample,
    SimState,
    absorbing_ball_entry,
    decay_envelope_check,
    energy_budget_residual,
    evolve,
    sampled_states,
    step_count,
)
from .fields import FieldRecipe, generate
from .spectral import CertificateError, VectorField, norms
from .stationary import NonConvergenceError, solve_stationary

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_NONCONV = 4
EXIT_CHECK = 5
EXIT_CFL = 6
EXIT_CERTIFICATE = 7


def _fmt(x):
    return repr(float(x))  # inf, -inf and nan included


def _write_json(path, obj):
    # encode first, so a report that json refuses (a non-finite number) leaves no file
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


class Runner:
    def __init__(self, cfg, out_dir):
        self.cfg = cfg
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.artifacts = []

    def path(self, name):
        self.artifacts.append(name)
        return self.out / name

    def csv(self, name, columns, rows):
        with open(self.path(name), "w") as fh:
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")

    def report(self, name, check_name, ok, **fields):
        """Write the report `name` and return its exit code: 0 if ok, else 5."""
        p = self.cfg.params
        _write_json(
            self.path(name),
            {
                "check_name": check_name,
                "params": {"alpha": p.alpha, "beta": p.beta, "nu": p.nu, "eta_c": p.eta_c},
                "pass": bool(ok),
                **fields,
            },
        )
        return EXIT_OK if ok else EXIT_CHECK

    def force_field(self):
        cfg = self.cfg
        if cfg.force is None:
            zero = np.zeros((3,) + cfg.grid.box_shape, dtype=np.complex128)
            return VectorField(cfg.grid, zero, div_free=True)
        return generate(cfg.force, cfg.grid, cfg.params.alpha)

    def initial_field(self):
        return generate(self.cfg.initial, self.cfg.grid, self.cfg.params.alpha)

    def finalize(self, subcommand):
        with open(self.path("effective_config.ini"), "w") as fh:
            fh.write(self.cfg.serialize())
        meta = {
            "subcommand": subcommand,
            "config_sha256": self.cfg.digest(),
            "version": __version__,
            "artifacts": sorted(set(self.artifacts)),
            "timestamp": _time.strftime("%Y-%m-%dT%H:%M:%SZ", _time.gmtime()),
        }
        _write_json(self.out / "run_meta.json", meta)


def cmd_simulate(runner):
    cfg = runner.cfg
    force = runner.force_field()
    state = SimState(runner.initial_field(), 0.0, cfg.params, force)
    state, traj = evolve(state, cfg.t_end, cfg.dt, cfg.sample_every)
    residuals = energy_budget_residual(traj)
    runner.csv(
        "trajectory.csv",
        [f.name for f in dataclasses.fields(DiagnosticsSample)] + ["energy_residual"],
        [dataclasses.astuple(s) + (r,) for s, r in zip(traj.samples, residuals)],
    )
    write_checkpoint(runner.path("final_state.bard"), state.u, cfg.params, state.t)
    report = decay_envelope_check(traj, force, cfg.params)
    entry, radius_sq, analytic = absorbing_ball_entry(traj, force, cfg.params)
    return runner.report(
        "simulate_report.json",
        "decay_envelopes",
        report.passed,
        max_slack=max(report.pointwise_slack, report.windowed_slack),
        pointwise_slack=report.pointwise_slack,
        windowed_slack=report.windowed_slack,
        max_energy_residual=float(np.abs(residuals).max()),
        absorbing_ball={
            "entry_time": entry,
            "radius_sq": radius_sq,
            "analytic_bound": analytic,
        },
        series_file="trajectory.csv",
    )


def cmd_stationary(runner):
    cfg = runner.cfg
    force = runner.force_field()
    result = _solve_stationary(runner, force, "stationary_report.json", "stationary_solve")
    if result is None:
        return EXIT_NONCONV
    write_checkpoint(
        runner.path("stationary.bard"), result.U, cfg.params, STEADY_STATE_TIME
    )
    ok = result.energy_slack >= -1e-10 * norms(force, cfg.params.alpha).h1alpha_sq
    return runner.report(
        "stationary_report.json",
        "stationary_solve",
        ok,
        converged=True,
        residual=result.residual,
        iterations=result.iterations,
        energy_slack=result.energy_slack,
    )


def _solve_stationary(runner, force, report, check_name):
    """The steady state for `force`; None once a solve that did not converge
    has been reported under `report`, a non-finite residual as null."""
    cfg = runner.cfg
    try:
        return solve_stationary(force, cfg.params, cfg.relaxation, cfg.tol, cfg.max_iter)
    except NonConvergenceError as exc:
        history = [float(r) if np.isfinite(r) else None for r in exc.residual_history]
        runner.report(report, check_name, False, converged=False, residual_history=history)
        return None


def cmd_bound(runner):
    cfg = runner.cfg
    f_norm = cfg.f_norm
    if f_norm is None:
        f_norm = float(np.sqrt(norms(runner.force_field(), cfg.params.alpha).h1alpha_sq))
    eta_rep = eta(cfg.params, f_norm)
    dim = dimension_bound(cfg.params, f_norm)
    return runner.report(
        "bound_report.json",
        "dimension_bound",
        True,
        f_norm=f_norm,
        eta=eta_rep.eta_value,
        eta_regime=eta_rep.regime,
        lieb_thirring_constant=dim.c_lt,
        c_alpha_beta_nu=dim.c_abn,
        dimension_bound=dim.bound,
    )


def cmd_lyapunov(runner):
    """One base trajectory serves every frame size: each sampled state's
    u_phys, formed once, serves the frame work and the next base step.  At
    each sampled state, transport_frame gives each frame's Lyapunov sum and
    moves the frame by the base steps up to the next sample: sample_every,
    fewer in a short last window, none after the last sample.  The base
    steps check the CFL cap."""
    cfg = runner.cfg
    p, dt, every = cfg.params, cfg.dt, cfg.sample_every
    force = runner.force_field()
    base = SimState(runner.initial_field(), 0.0, p, force)
    rng = np.random.default_rng(cfg.frame_seed)
    frames = [_random_frame(cfg, rng, m) for m in cfg.m_list]
    rows = [[] for _ in frames]  # one group per frame size
    n_steps = step_count(base.t, cfg.t_end, dt)
    for k, st in enumerate(sampled_states(base, cfg.t_end, dt, every)):
        window = min(every, max(n_steps - k * every, 0))
        for i, m in enumerate(cfg.m_list):
            frames[i], total = transport_frame(frames[i], st, dt, window)
            bound = lyapunov_sum_bound(m, st.u, p)
            rows[i].append([m, st.t, total, bound, bound - total])
    rows = [row for group in rows for row in group]
    all_ok = all(total <= bound + 1e-10 * p.beta * m for m, _, total, bound, _ in rows)
    runner.csv("lyapunov.csv", ["m", "t", "lyapunov_sum", "bound", "slack"], rows)
    return runner.report(
        "lyapunov_report.json",
        "lyapunov_sum_bound",
        all_ok,
        max_slack=float(min(r[4] for r in rows)),
        series_file="lyapunov.csv",
    )


def _random_band(cfg, amplitude, seed, k_max):
    """A random_band field on modes 1 <= |k| <= k_max, within the dealias cutoff."""
    k_max = min(k_max, cfg.grid.dealias_cutoff)
    recipe = FieldRecipe("random_band", amplitude, seed=seed, k_min=1, k_max=k_max)
    return generate(recipe, cfg.grid, cfg.params.alpha)


def _random_frame(cfg, rng, m):
    frame = [_random_band(cfg, 1.0, int(rng.integers(0, 2**63)), 3) for _ in range(m)]
    return orthonormalize(frame, cfg.params.alpha)


def cmd_gap(runner):
    cfg = runner.cfg
    force = runner.force_field()
    u0_a = runner.initial_field()
    perturb = _random_band(cfg, cfg.perturb_amplitude, cfg.perturb_seed, 2)
    u0_b = VectorField(cfg.grid, u0_a.hat + perturb.hat, div_free=True)
    report = trajectory_gap(
        u0_a, u0_b, force, force, cfg.params, cfg.t_end, cfg.dt, cfg.sample_every
    )
    runner.csv("gap.csv", ["t", "gap_sq"], zip(report.times, report.gap_sq))
    ok = report.orbital_stable if report.eta_value is not None and report.eta_value <= 0 else True
    return runner.report(
        "gap_report.json",
        "trajectory_gap",
        ok,
        eta=report.eta_value,
        orbital_stable=report.orbital_stable,
        decay_rate=report.decay_rate,
        series_file="gap.csv",
    )


def cmd_decay(runner):
    cfg = runner.cfg
    u0 = runner.initial_field()
    if cfg.decay_mode == "zero_force":
        report = zero_force_decay(
            u0, cfg.params, cfg.t_end, cfg.dt, cfg.p_list, cfg.sample_every
        )
        keys = ["p%g" % p if not np.isinf(p) else "pinf" for p in cfg.p_list]
        rows = zip(report.times, *(report.lp_norms[p] for p in cfg.p_list))
        runner.csv("decay.csv", ["t"] + keys, rows)
        return runner.report(
            "decay_report.json",
            "zero_force_decay",
            all(report.envelopes_ok.values()),
            fitted_rates={k: report.fitted_rates[p] for k, p in zip(keys, cfg.p_list)},
            envelopes_ok={k: report.envelopes_ok[p] for k, p in zip(keys, cfg.p_list)},
            series_file="decay.csv",
        )

    force = runner.force_field()
    stat = _solve_stationary(runner, force, "decay_report.json", "steady_convergence")
    if stat is None:
        return EXIT_NONCONV
    report = steady_convergence(
        u0, force, cfg.params, stat.U, cfg.t_end, cfg.dt, cfg.sample_every
    )
    rows = zip(report.times, report.r, report.r_inf)
    runner.csv("decay.csv", ["t", "r", "r_inf"], rows)
    return runner.report(
        "decay_report.json",
        "steady_convergence",
        report.monotone and report.profile_envelope_ok,
        monotone=report.monotone,
        profile_envelope_ok=report.profile_envelope_ok,
        series_file="decay.csv",
    )


COMMANDS = {
    "simulate": cmd_simulate,
    "stationary": cmd_stationary,
    "bound": cmd_bound,
    "lyapunov": cmd_lyapunov,
    "gap": cmd_gap,
    "decay": cmd_decay,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="bardina", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=".")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    runner = Runner(cfg, args.out)
    try:
        code = COMMANDS[args.subcommand](runner)
    except (BlowUpError, CFLError, CertificateError) as exc:
        if isinstance(exc, CFLError):
            name, code, fields = "cfl", EXIT_CFL, {"time": exc.t, "dt": exc.dt, "cap": exc.cap}
        elif isinstance(exc, BlowUpError):
            name, code, fields = "blow_up", EXIT_BLOWUP, {"time": exc.t}
        else:  # the solver broke its own invariant: no time to report
            name, code, fields = "certificate", EXIT_CERTIFICATE, {}
        _write_json(
            runner.path(name.replace("_", "") + "_report.json"),
            {"check_name": name, "pass": False, "detail": str(exc), **fields},
        )
    except ValueError as exc:  # ConfigError included
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    runner.finalize(args.subcommand)
    return code


if __name__ == "__main__":
    sys.exit(main())
