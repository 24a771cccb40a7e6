"""The benchmark's workloads: one bardina CLI run each, configured by an INI
generated from the workload seed.

The seed drives every random_band seed and the Lyapunov frame seed.  Force
amplitudes are H^1_alpha norms, so the regime eta(beta) of each workload is
the same for every seed.
"""

import csv
import json
import random
from dataclasses import dataclass

DEFAULT_SEED = 0

# Headline scalars on DEFAULT_SEED, recorded with the solver as first
# benchmarked.  A run on that seed must reproduce each to REFERENCE_RTOL
# (relative); the tolerance leaves room for a change of summation order,
# not for a change of the numerics.
REFERENCE_RTOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    report: str  # report JSON the CLI writes; its "pass" must be true
    ini_template: str
    reference: dict  # headline scalar -> value on DEFAULT_SEED

    def ini(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        seeds = {k: rng.randrange(2**31) for k in ("init_seed", "force_seed", "frame_seed")}
        return self.ini_template.format(**seeds)


SIMULATE_N64 = Workload(
    name="simulate-n64",
    subcommand="simulate",
    report="simulate_report.json",
    ini_template="""\
[grid]
n = 64

[params]
alpha = 0.5
beta = 1.0
nu = 0.05

[initial]
kind = random_band
amplitude = 0.8
seed = {init_seed}
k_min = 1
k_max = 6

[force]
kind = random_band
amplitude = 1.0
seed = {force_seed}
k_min = 1
k_max = 3

[time]
dt = 0.01
t_end = 0.04
sample_every = 2
""",
    reference={
        "final_h1alpha_sq": 0.53781580665692,
        "max_energy_residual": 8.797035122562512e-05,
    },
)

STEADY_N32 = Workload(
    name="steady-n32",
    subcommand="decay",
    report="decay_report.json",
    ini_template="""\
[grid]
n = 32

[params]
alpha = 1.0
beta = 1.0
nu = 0.1

[initial]
kind = random_band
amplitude = 0.3
seed = {init_seed}
k_min = 1
k_max = 2

[force]
kind = random_band
amplitude = 0.05
seed = {force_seed}
k_min = 1
k_max = 2

[time]
dt = 0.01
t_end = 0.3
sample_every = 1

[stationary]
tol = 1e-10

[decay]
mode = steady
""",
    reference={"final_steady_gap_r": 0.20719543864978895},
)

LYAPUNOV_N16 = Workload(
    name="lyapunov-n16",
    subcommand="lyapunov",
    report="lyapunov_report.json",
    ini_template="""\
[grid]
n = 16

[params]
alpha = 1.0
beta = 1.0
nu = 0.5

[initial]
kind = random_band
amplitude = 0.5
seed = {init_seed}
k_min = 1
k_max = 2

[force]
kind = random_band
amplitude = 0.3
seed = {force_seed}
k_min = 1
k_max = 2

[time]
dt = 0.02
t_end = 0.5
sample_every = 5

[lyapunov]
m_list = 1 2 4 8
frame_seed = {frame_seed}
""",
    reference={
        "lyapunov_min_slack": 2.0843111373958547,
        "final_lyapunov_sum": -24.097424363283995,
    },
)

WORKLOADS = {w.name: w for w in (SIMULATE_N64, STEADY_N32, LYAPUNOV_N16)}


def _last_row(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows[-1]


def headline_scalars(subcommand, out_dir):
    """The scalars checked against the reference, read from a run's output."""
    if subcommand == "simulate":
        report = json.loads((out_dir / "simulate_report.json").read_text())
        return {
            "final_h1alpha_sq": float(_last_row(out_dir / "trajectory.csv")["h1alpha_sq"]),
            "max_energy_residual": report["max_energy_residual"],
        }
    if subcommand == "decay":
        return {"final_steady_gap_r": float(_last_row(out_dir / "decay.csv")["r"])}
    if subcommand == "lyapunov":
        # The min slack comes from one frame size; the final sum covers the
        # largest frame at the end of the trajectory.
        report = json.loads((out_dir / "lyapunov_report.json").read_text())
        return {
            "lyapunov_min_slack": report["max_slack"],
            "final_lyapunov_sum": float(_last_row(out_dir / "lyapunov.csv")["lyapunov_sum"]),
        }
    raise ValueError(f"no headline scalars for {subcommand!r}")


def etd_steps(cfg, subcommand):
    """ETD2RK steps the CLI takes on the base trajectory for this config."""
    n = max(int(round(cfg.t_end / cfg.dt)), 1)
    if subcommand == "lyapunov":
        windows = max(int(round(cfg.t_end / (cfg.dt * cfg.sample_every))), 1)
        return len(cfg.m_list) * (windows + 1) * cfg.sample_every
    return n
