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
    SimState,
    Trajectory,
    absorbing_ball_entry,
    decay_envelope_check,
    energy_budget_residual,
    evolve,
    sample_steps,
    sampled_states,
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
    def __init__(self, cfg, out_dir, subcommand):
        self.cfg, self.out, self.subcommand = cfg, Path(out_dir), subcommand
        self.artifacts = []
        self.series = {}  # the series_file of the report, once csv has written it

    def path(self, name):
        self.out.mkdir(parents=True, exist_ok=True)  # at the first artifact, not before
        self.artifacts.append(name)
        return self.out / name

    def csv(self, name, columns, rows):
        self.series = {"series_file": name}
        with open(self.path(name), "w") as fh:
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")

    def report(self, check_name, ok, **fields):
        """Write <subcommand>_report.json, with the CSV written before it as
        its series_file, and return its exit code: 0 if ok, else 5."""
        p = self.cfg.params
        _write_json(
            self.path(f"{self.subcommand}_report.json"),
            {
                "check_name": check_name,
                "params": {"alpha": p.alpha, "beta": p.beta, "nu": p.nu, "eta_c": p.eta_c},
                "pass": bool(ok),
                **self.series,
                **fields,
            },
        )
        return EXIT_OK if ok else EXIT_CHECK

    def force_field(self):
        cfg = self.cfg
        if cfg.force is None:
            zero = np.zeros((3,) + cfg.grid.box_shape, dtype=np.complex128)
            return VectorField(cfg.grid, zero, div_free=True)
        return _generate(cfg, "force", cfg.force)

    def initial_field(self):
        return _generate(self.cfg, "initial", self.cfg.initial)

    def finalize(self):
        with open(self.path("effective_config.ini"), "w") as fh:
            fh.write(self.cfg.serialize())
        meta = {
            "subcommand": self.subcommand,
            "config_sha256": self.cfg.digest(),
            "version": __version__,
            "artifacts": sorted(set(self.artifacts)),
            "timestamp": _time.strftime("%Y-%m-%dT%H:%M:%SZ", _time.gmtime()),
        }
        _write_json(self.out / "run_meta.json", meta)


def cmd_simulate(runner):
    cfg = runner.cfg
    force = runner.force_field()
    # no local holds the initial state: evolve drops it at its first step
    state, traj = evolve(
        SimState(runner.initial_field(), 0.0, cfg.params, force),
        cfg.t_end, cfg.dt, cfg.sample_every,
    )
    residuals = energy_budget_residual(traj)
    runner.csv(
        "trajectory.csv",
        [*Trajectory._fields, "energy_residual"],
        zip(*traj, residuals),
    )
    write_checkpoint(runner.path("final_state.bard"), state.u, cfg.params, state.t)
    report = decay_envelope_check(traj, force, cfg.params)
    entry, radius_sq, analytic = absorbing_ball_entry(traj, force, cfg.params)
    return runner.report(
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
    )


def cmd_stationary(runner):
    cfg = runner.cfg
    force = runner.force_field()
    result = _solve_stationary(runner, force, "stationary_solve")
    if result is None:
        return EXIT_NONCONV
    write_checkpoint(
        runner.path("stationary.bard"), result.U, cfg.params, STEADY_STATE_TIME
    )
    ok = result.energy_slack >= -1e-10 * norms(force, cfg.params.alpha).h1alpha_sq
    return runner.report(
        "stationary_solve",
        ok,
        converged=True,
        residual=result.residual,
        iterations=result.iterations,
        energy_slack=result.energy_slack,
    )


def _solve_stationary(runner, force, check_name):
    """The steady state for `force`; None once a solve that did not converge
    has been reported under `check_name`, a non-finite residual as null."""
    cfg = runner.cfg
    try:
        return solve_stationary(force, cfg.params, cfg.relaxation, cfg.tol, cfg.max_iter)
    except NonConvergenceError as exc:
        history = [float(r) if np.isfinite(r) else None for r in exc.residual_history]
        runner.report(check_name, False, converged=False, residual_history=history)
        return None


def cmd_bound(runner):
    cfg = runner.cfg
    f_norm = cfg.f_norm
    if f_norm is None:
        f_norm = float(np.sqrt(norms(runner.force_field(), cfg.params.alpha).h1alpha_sq))
    eta_rep = eta(cfg.params, f_norm)
    dim = dimension_bound(cfg.params, f_norm)
    return runner.report(
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
    moves the frame by the base steps up to the next sample (sample_steps),
    none after the last sample.  The base steps check the CFL cap."""
    cfg = runner.cfg
    p, dt, every = cfg.params, cfg.dt, cfg.sample_every
    force = runner.force_field()
    rng = np.random.default_rng(cfg.frame_seed)
    frames = [_random_frame(cfg, rng, m) for m in cfg.m_list]
    rows = [[] for _ in frames]  # one group per frame size
    windows = [*np.diff(sample_steps(0.0, cfg.t_end, dt, every)), 0]
    base = sampled_states(SimState(runner.initial_field(), 0.0, p, force), cfg.t_end, dt, every)
    for window, st in zip(windows, base):
        for i, m in enumerate(cfg.m_list):
            frames[i], total = transport_frame(frames[i], st, dt, window)
            bound = lyapunov_sum_bound(m, st.u, p)
            rows[i].append([m, st.t, total, bound, bound - total])
    rows = [row for group in rows for row in group]
    all_ok = all(total <= bound + 1e-10 * p.beta * m for m, _, total, bound, _ in rows)
    runner.csv("lyapunov.csv", ["m", "t", "lyapunov_sum", "bound", "slack"], rows)
    return runner.report(
        "lyapunov_sum_bound",
        all_ok,
        max_slack=float(min(r[4] for r in rows)),
    )


def _generate(cfg, section, recipe):
    """The field of a recipe for `section`; a recipe refused on this grid is a
    ConfigError naming the section, as one refused at parse time is."""
    try:
        return generate(recipe, cfg.grid, cfg.params.alpha)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _random_band(cfg, section, amplitude, seed, k_max):
    """A random_band field on modes 1 <= |k| <= k_max, within the dealias
    cutoff, generated for `section`; a grid whose cutoff is below the band is
    a ConfigError naming the section, as a refused recipe is."""
    cutoff = cfg.grid.dealias_cutoff
    if cutoff < 1:
        raise ConfigError(f"{section}: the grid's dealias cutoff {cutoff} is below the band "
                          f"1 <= |k| <= {k_max} of its random fields")
    recipe = FieldRecipe("random_band", amplitude, seed=seed, k_min=1, k_max=min(k_max, cutoff))
    return _generate(cfg, section, recipe)


def _random_frame(cfg, rng, m):
    frame = [_random_band(cfg, "lyapunov", 1.0, int(rng.integers(0, 2**63)), 3) for _ in range(m)]
    return orthonormalize(frame, cfg.params.alpha)


def cmd_gap(runner):
    cfg = runner.cfg
    force = runner.force_field()
    # the call pops both initial fields: none is held here once stepping starts
    u0 = [runner.initial_field()]
    perturb = _random_band(cfg, "gap", cfg.perturb_amplitude, cfg.perturb_seed, 2)
    u0.append(VectorField(cfg.grid, u0[0].hat + perturb.hat, div_free=True))
    del perturb
    report = trajectory_gap(u0.pop(0), u0.pop(), force, cfg.params, cfg.t_end, cfg.dt,
                            cfg.sample_every)
    runner.csv("gap.csv", ["t", "gap_sq"], zip(report.times, report.gap_sq))
    return runner.report(
        "trajectory_gap",
        report.eta_value > 0 or report.orbital_stable,
        eta=report.eta_value,
        orbital_stable=report.orbital_stable,
        decay_rate=report.decay_rate,
    )


def cmd_decay(runner):
    cfg = runner.cfg
    u0 = [runner.initial_field()]  # popped by the driver's call: not held here once it steps
    if cfg.decay_mode == "zero_force":
        report = zero_force_decay(
            u0.pop(), cfg.params, cfg.t_end, cfg.dt, cfg.p_list, cfg.sample_every
        )
        keys = ["p%g" % p if not np.isinf(p) else "pinf" for p in cfg.p_list]
        rows = zip(report.times, *(report.lp_norms[p] for p in cfg.p_list))
        runner.csv("decay.csv", ["t"] + keys, rows)
        return runner.report(
            "zero_force_decay",
            all(report.envelopes_ok.values()),
            fitted_rates={k: report.fitted_rates[p] for k, p in zip(keys, cfg.p_list)},
            envelopes_ok={k: report.envelopes_ok[p] for k, p in zip(keys, cfg.p_list)},
        )

    force = runner.force_field()
    stat = _solve_stationary(runner, force, "steady_convergence")
    if stat is None:
        return EXIT_NONCONV
    report = steady_convergence(
        u0.pop(), force, cfg.params, stat.U, cfg.t_end, cfg.dt, cfg.sample_every
    )
    rows = zip(report.times, report.r, report.r_inf)
    runner.csv("decay.csv", ["t", "r", "r_inf"], rows)
    return runner.report(
        "steady_convergence",
        report.monotone and report.profile_envelope_ok,
        monotone=report.monotone,
        profile_envelope_ok=report.profile_envelope_ok,
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

    runner = Runner(cfg, args.out, args.subcommand)
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
    runner.finalize()
    return code


if __name__ == "__main__":
    sys.exit(main())
