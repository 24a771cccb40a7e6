"""Peak memory of a short run per grid size: the data behind config.peak_bytes.

Usage, from anywhere inside the repository:

    python3 tools/peak_memory.py [--n N ...] [--runs R] [--where]

For each n (default 32, 64 and 128; at least 18, whose dealias cutoff
holds the bands below) R fresh processes (default 3) each import
bardina.cli from this tree's src/, generate two random_band fields (the
initial field and the force recipes of the benchmark's simulate-n64
workload: amplitudes 0.8 and 1.0, bands 1..6 and 1..3) and take two ETD2RK
steps.  Each reports its peak resident set after the import and at the
end: VmHWM of /proc/self/status, in KiB, the peak of the process's own
memory (getrusage's ru_maxrss keeps, across exec, the peak of the process
that started it, which from a larger parent such as a test run hides the
child's).  One line per n gives the median
of each in MB (1e6 bytes, the unit of config.peak_bytes) beside
config.peak_bytes(n) and the margin of the estimate over the largest peak.

With --where each process also reads VmHWM at every return of a Python or
C function after the import (sys.setprofile), and a line per n and
location gives, with the number of runs that agree, the first
`file:line (function)` at which the run's final peak is reached: the line
of the first call to return after the peak, then its two callers' after
`<`, paths relative to the repository (an arithmetic operator is no call:
its line may come just before).  The sampling slows the runs several-fold;
the peaks it reports are those of the same runs.
"""

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys
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
top, where, DEPTH = imported, None, 3


def sample(frame, event, arg):
    # after each return: the peak so far, and the line of the call that
    # returned with its DEPTH - 1 callers
    global top, where
    if event in ("return", "c_return"):
        rss = hwm()
        if rss > top:
            f, where = frame.f_back if event == "return" else frame, []
            while f is not None and len(where) < DEPTH:
                where.append((f.f_code.co_filename, f.f_lineno, f.f_code.co_name))
                f = f.f_back
            top = rss


if sys.argv[2] == "1":
    sys.setprofile(sample)
grid, params = GridSpec(int(sys.argv[1])), PhysParams(0.5, 1.0, 0.05)
u, f = (generate(FieldRecipe("random_band", a, seed, 1, k), grid, params.alpha)
        for a, seed, k in ((0.8, 0, 6), (1.0, 1, 3)))
state = SimState(u, 0.0, params, f)
for _ in range(2):
    state = step(state, 1e-3)
sys.setprofile(None)
end = hwm()
print(json.dumps({"import_kb": imported, "peak_kb": end, "where": where if top == end else None}))
"""


def measure(n, runs, where=False):
    """The median import and end peaks in MB (1e6 bytes), the largest end
    peak, and {location: runs} of the first `file:line (function)` at which
    each run reached its end peak (empty unless `where`; "unseen" for a run
    whose peak no sampled return saw), of `runs` fresh processes on an
    n-grid."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", CHILD, str(n), str(int(where))], env=env,
                              capture_output=True, text=True, check=True)
        out.append(json.loads(proc.stdout))
    imported = statistics.median(r["import_kb"] for r in out) * 1024 / 1e6
    peaks = [r["peak_kb"] * 1024 / 1e6 for r in out]
    places = collections.Counter(_place(r["where"]) for r in out) if where else {}
    return imported, statistics.median(peaks), max(peaks), places


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
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from bardina.config import peak_bytes

    for n in args.n:
        imported, peak, top, places = measure(n, args.runs, args.where)
        estimate = peak_bytes(n) / 1e6
        print(f"n={n}: import {imported:.1f} MB, peak {peak:.1f} MB (max {top:.1f}), "
              f"peak_bytes {estimate:.1f} MB, margin {estimate - top:+.1f} MB")
        for place, count in places.items():
            print(f"n={n}: peak first reached at {place} in {count} of {args.runs} runs")


if __name__ == "__main__":
    main()
