"""Peak memory of a short run per grid size: the data behind config.peak_bytes.

Usage, from anywhere inside the repository:

    python3 tools/peak_memory.py [--n N ...] [--runs R] [--where]
        [--subcommand RUN ...]

For each n (default 32, 64 and 128; at least 18, whose dealias cutoff
holds the bands below) R fresh processes (default 3) each import
bardina.cli from this tree's src/, generate two random_band fields (the
initial field and the force recipes of the benchmark's simulate-n64
workload: amplitudes 0.8 and 1.0, seeds 0 and 1, bands 1..6 and 1..3) and
take two ETD2RK steps, with α 0.5, β 1 and ν 0.05; no name holds the
initial field, so its first step can free it.  With --subcommand each
process instead runs each named RUN (simulate, stationary, gap,
decay-steady, decay-zero-force, lyapunov; `all` for every one) in-process
through bardina.cli.main, on a config of those recipes and parameters that
takes 4 steps of dt 1e-3 and samples every step, lyapunov with m_list = 1
2 4 8.  Each process reports its peak resident set after the import and at
the end: VmHWM of /proc/self/status, in KiB, the peak of the process's own
memory (getrusage's ru_maxrss keeps, across exec, the peak of the process
that started it, which from a larger parent such as a test run hides the
child's).  One line per n (and RUN, with its exit codes) gives the median
of each in MB (1e6 bytes, the unit of config.peak_bytes) beside
config.peak_bytes(n) and the margin of the estimate over the largest peak.

With --where each process also reads VmHWM at every return of a Python or
C function after the import (sys.setprofile) and records each new maximum
with its location: the line of the first call to return after it, then its
two callers'.  A line per n and location gives, with the number of runs
that agree, the first location whose maximum lies within SLACK_KB = 128 KiB
(131 kB) of the run's final peak, as `file:line (function)` joined by `<`,
paths relative to the repository (an arithmetic operator is no call: its
line may come just before).  The slack exceeds the few pages by which
VmHWM still creeps after the last step (~30 kB at n = 64, in the report
writers) and stays below one n = 32 box array (233 kB), so a run's arrays,
not its writers, are named.  The sampling slows the runs several-fold; the
peaks it reports are those of the same runs.

To compare two trees, run each copy's own script from paths of one
length: the peak moves with the length of the paths a process holds (one
tree read `lyapunov` 48.4 MB at n = 32 from one path and 49.2 MB from a
copy at another), so a difference of path length reads as one of
code.
"""

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """\
import json, sys


def hwm():
    # the peak resident set of this process's memory, in KiB
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))


import bardina.cli
from bardina import FieldRecipe, GridSpec, PhysParams, SimState, generate, step
imported = hwm()
top, maxima, DEPTH = imported, [], 3


def sample(frame, event, arg):
    # after each return: each new maximum, with the line of the call that
    # returned and its DEPTH - 1 callers
    global top
    if event in ("return", "c_return"):
        rss = hwm()
        if rss > top:
            f, where = frame.f_back if event == "return" else frame, []
            while f is not None and len(where) < DEPTH:
                where.append((f.f_code.co_filename, f.f_lineno, f.f_code.co_name))
                f = f.f_back
            maxima.append((rss, where))
            top = rss


if sys.argv[2] == "1":
    sys.setprofile(sample)
code = None
if len(sys.argv) > 3:  # a CLI run: subcommand, config, output directory
    code = bardina.cli.main([sys.argv[3], "--config", sys.argv[4], "--out", sys.argv[5]])
else:
    grid, params = GridSpec(int(sys.argv[1])), PhysParams(0.5, 1.0, 0.05)
    state = SimState(generate(FieldRecipe("random_band", 0.8, 0, 1, 6), grid, params.alpha),
                     0.0, params,
                     generate(FieldRecipe("random_band", 1.0, 1, 1, 3), grid, params.alpha))
    for _ in range(2):
        state = step(state, 1e-3)
sys.setprofile(None)
end = hwm()
print(json.dumps({"import_kb": imported, "peak_kb": end, "maxima": maxima, "exit": code}))
"""

INI = """\
[grid]
n = {n}
[params]
alpha = 0.5
beta = 1.0
nu = 0.05
[initial]
kind = random_band
amplitude = 0.8
seed = 0
k_min = 1
k_max = 6
[force]
kind = random_band
amplitude = 1.0
seed = 1
k_min = 1
k_max = 3
[time]
dt = 1e-3
t_end = 4e-3
sample_every = 1
[lyapunov]
m_list = 1 2 4 8
[decay]
mode = {mode}
"""
# RUN -> (subcommand, decay mode)
RUNS = {
    "simulate": ("simulate", "zero_force"),
    "stationary": ("stationary", "zero_force"),
    "gap": ("gap", "zero_force"),
    "decay-steady": ("decay", "steady"),
    "decay-zero-force": ("decay", "zero_force"),
    "lyapunov": ("lyapunov", "zero_force"),
}
SLACK_KB = 128  # how far below the final peak a located maximum may lie, in KiB


def measure(n, runs, where=False, run=None):
    """The median import and end peaks in MB (1e6 bytes), the largest end
    peak, and {location: runs} of the first `file:line (function)` at which
    each run came within SLACK_KB of its end peak (empty unless `where`;
    "unseen" for a run with no sampled maximum there), of `runs` fresh
    processes on an n-grid, each taking two steps or, given a RUN name, that
    CLI run, and the sorted exit codes of those runs ([None] for the steps)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        args = [str(n), str(int(where))]
        if run is not None:
            subcommand, mode = RUNS[run]
            ini = Path(tmp, "run.ini")
            ini.write_text(INI.format(n=n, mode=mode))
            args += [subcommand, str(ini), str(Path(tmp, "out"))]
        for _ in range(runs):
            proc = subprocess.run([sys.executable, "-c", CHILD, *args], env=env,
                                  capture_output=True, text=True, check=True)
            out.append(json.loads(proc.stdout.splitlines()[-1]))
    imported = statistics.median(r["import_kb"] for r in out) * 1024 / 1e6
    peaks = [r["peak_kb"] * 1024 / 1e6 for r in out]
    places = {}
    if where:
        places = collections.Counter(_place(near_peak(r["maxima"], r["peak_kb"])) for r in out)
    codes = sorted({r["exit"] for r in out})
    return imported, statistics.median(peaks), max(peaks), places, codes


def near_peak(maxima, peak_kb):
    """The location of the first of a run's sampled maxima, [(KiB, location),
    ...] in the order they were reached, that lies within SLACK_KB of its
    final peak peak_kb; None when none does."""
    return next((where for kb, where in maxima if kb >= peak_kb - SLACK_KB), None)


def _place(where):
    """`file:line (function) < ...` of a child's [file, line, function]
    frames, innermost first, each file relative to the repository when it
    lies inside; "unseen" for None."""
    if where is None:
        return "unseen"
    out = []
    for path, line, func in where:
        try:
            path = Path(path).resolve().relative_to(ROOT).as_posix()
        except ValueError:
            pass
        out.append(f"{path}:{line} ({func})")
    return " < ".join(out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[32, 64, 128])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--where", action="store_true",
                        help="also locate the first line at which each run's peak is reached")
    parser.add_argument("--subcommand", nargs="+", choices=[*RUNS, "all"], metavar="RUN",
                        help=f"run the CLI instead of two steps: {', '.join(RUNS)} or all")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from bardina.config import peak_bytes

    runs = [None]
    if args.subcommand:
        runs = list(RUNS) if "all" in args.subcommand else args.subcommand
    for n in args.n:
        for run in runs:
            imported, peak, top, places, codes = measure(n, args.runs, args.where, run)
            estimate = peak_bytes(n) / 1e6
            label = f"n={n}" if run is None else f"n={n} {run}"
            print(f"{label}: import {imported:.1f} MB, peak {peak:.1f} MB (max {top:.1f}), "
                  f"peak_bytes {estimate:.1f} MB, margin {estimate - top:+.1f} MB"
                  + ("" if run is None else f", exit {' '.join(map(str, codes))}"))
            for place, count in places.items():
                print(f"{label}: peak first reached (within {SLACK_KB} KiB) at {place} "
                      f"in {count} of {args.runs} runs")


if __name__ == "__main__":
    main()
