"""Peak memory of a short run per grid size: the data behind config.peak_bytes.

Usage, from anywhere inside the repository:

    python3 tools/peak_memory.py [--n N ...] [--runs R]

For each n (default 32, 64 and 128; at least 18, whose dealias cutoff
holds the bands below) R fresh processes (default 3) each import
bardina.cli from this tree's src/, generate two random_band fields (the
initial field and the force recipes of the benchmark's simulate-n64
workload: amplitudes 0.8 and 1.0, bands 1..6 and 1..3) and take two ETD2RK
steps.  Each reports its peak resident set (getrusage ru_maxrss, in KiB on
Linux) after the import and at the end.  One line per n gives the median
of each in MB (1e6 bytes, the unit of config.peak_bytes) beside
config.peak_bytes(n) and the margin of the estimate over the largest peak.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHILD = """\
import json, resource, sys
import bardina.cli
from bardina import FieldRecipe, GridSpec, PhysParams, SimState, generate, step
imported = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
grid, params = GridSpec(int(sys.argv[1])), PhysParams(0.5, 1.0, 0.05)
u, f = (generate(FieldRecipe("random_band", a, seed, 1, k), grid, params.alpha)
        for a, seed, k in ((0.8, 0, 6), (1.0, 1, 3)))
state = SimState(u, 0.0, params, f)
for _ in range(2):
    state = step(state, 1e-3)
end = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"import_kb": imported, "peak_kb": end}))
"""


def measure(n, runs):
    """The median import and end peaks in MB (1e6 bytes), and the largest
    end peak, of `runs` fresh processes on an n-grid."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", CHILD, str(n)], env=env,
                              capture_output=True, text=True, check=True)
        out.append(json.loads(proc.stdout))
    imported = statistics.median(r["import_kb"] for r in out) * 1024 / 1e6
    peaks = [r["peak_kb"] * 1024 / 1e6 for r in out]
    return imported, statistics.median(peaks), max(peaks)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[32, 64, 128])
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from bardina.config import peak_bytes

    for n in args.n:
        imported, peak, top = measure(n, args.runs)
        estimate = peak_bytes(n) / 1e6
        print(f"n={n}: import {imported:.1f} MB, peak {peak:.1f} MB (max {top:.1f}), "
              f"peak_bytes {estimate:.1f} MB, margin {estimate - top:+.1f} MB")


if __name__ == "__main__":
    main()
