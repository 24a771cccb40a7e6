"""Compare the CLI artifacts of the working tree with those of a git revision.

Usage, from anywhere inside the repository:

    python3 tools/artifact_diff.py --base REV [--rtol X]

The base revision's src/ is extracted with `git archive` into a temporary
directory, so the repository is untouched.  Each tree runs every config in
one single-threaded process that imports bardina from that tree and calls
bardina.cli.main in-process, as the benchmark's child processes do.

The configs are stated once, in configs(): the benchmark's workload INIs
(perfbench/workloads.py) at seeds 0 and 1, the analytic initial fields
shear, taylor_green and abc at n = 16 under every subcommand, decay in both
modes, abc at n = 16 with dealias_fraction 0.5 and 1.0 (where the box
is the half spectrum) under every subcommand, decay in steady mode, and one
n = 64 simulate whose dt exceeds the CFL cap at t = 0 (exit 6), so that the
refusal on a grid the kernel runs slab by slab writes a cfl_report.json to
compare.

For each config the report prints both exit codes, then, for each artifact
but run_meta.json (which holds a timestamp): `identical`, or the largest
relative deviation of each CSV column (|delta| over the column's largest
magnitude), of each JSON number (over its own magnitude) and of each
checkpoint.  Both sides of a .bard are decoded with the working tree's
bardina.checkpoint.read_checkpoint, which reads the one checkpoint version
the program writes, version 2 (so the base must be b488f31 or later): the
deviation of the coefficients is the largest |delta c| of the full spectra
over the largest |c|, that of each header number (box_len, alpha, beta, nu,
time, eta_c, dealias_fraction) is relative to its own magnitude.  Any other
binary artifact that differs, a checkpoint that does not decode (one of an
older version included) or holds another n, a changed header, row count,
string or JSON layout counts as an infinite deviation.  The exit status is 1
when an exit code differs, an artifact is missing on one side, or a
deviation exceeds --rtol (default 0: any difference counts).
"""

import argparse
import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = {"run_meta.json"}

ANALYTIC_INI = """\
[grid]
n = 16
[params]
alpha = 1.0
beta = 1.0
nu = 0.5
[initial]
kind = {kind}
amplitude = 0.5
[force]
kind = random_band
amplitude = 0.2
seed = 3
k_min = 1
k_max = 2
[time]
dt = 0.02
t_end = 0.2
sample_every = {every}
[lyapunov]
m_list = 1 2 4
frame_seed = 7
[decay]
mode = {mode}
"""
SUBCOMMANDS = ["simulate", "stationary", "bound", "lyapunov", "gap", "decay"]
# max |u| = 0.0535 at t = 0, negative and in x row 22 (a middle slab), puts
# the CFL cap at 0.918 < dt
CFL_N64_INI = """\
[grid]
n = 64
[params]
alpha = 0.5
beta = 1.0
nu = 0.05
[initial]
kind = random_band
amplitude = 0.8
seed = 5
k_min = 1
k_max = 6
[force]
kind = random_band
amplitude = 1.0
seed = 6
k_min = 1
k_max = 3
[time]
dt = 1.0
t_end = 2.0
"""


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS.values()


def configs():
    """(name, subcommand, INI text) of every compared run."""
    out = [(f"{w.name}-seed{seed}", w.subcommand, w.ini(seed))
           for w in _workloads() for seed in (0, 1)]
    for kind in ("shear", "taylor_green", "abc"):
        for sub in SUBCOMMANDS:
            for mode in ("zero_force", "steady") if sub == "decay" else ("zero_force",):
                name = f"{kind}-n16-{sub}" + (f"-{mode}" if sub == "decay" else "")
                every = 1 if mode == "steady" else 2
                out.append((name, sub, ANALYTIC_INI.format(kind=kind, every=every, mode=mode)))
    for fraction in (0.5, 1.0):
        for sub in SUBCOMMANDS:
            mode = "steady" if sub == "decay" else "zero_force"
            ini = ANALYTIC_INI.format(kind="abc", every=1 if sub == "decay" else 2, mode=mode)
            ini = ini.replace("n = 16\n", f"n = 16\ndealias_fraction = {fraction}\n")
            out.append((f"abc-n16-fraction{fraction:g}-{sub}", sub, ini))
    out.append(("random-n64-simulate-cfl", "simulate", CFL_N64_INI))
    return out

# Runs (name, argv) pairs through bardina.cli.main in one process and prints
# {name: exit code}; an exception out of main counts as exit code 1.
WORKER = """\
import json, sys, traceback
from bardina.cli import main
codes = {}
for name, argv in json.loads(sys.argv[1]):
    try:
        codes[name] = main(argv)
    except SystemExit as exc:
        codes[name] = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        codes[name] = 1
print(json.dumps(codes))
"""


def extract_tree(rev, dest, paths=("src",)):
    """The given top-level paths of git revision rev, unpacked under dest;
    returns dest."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, *paths],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return Path(dest)


def start_tree(src, runs, work):
    """Start one process running every (name, subcommand, INI) on the tree at src,
    with outputs in work/<name>."""
    jobs = []
    for name, sub, ini in runs:
        (work / name).mkdir(parents=True)
        (work / f"{name}.ini").write_text(ini)
        jobs.append((name, [sub, "--config", str(work / f"{name}.ini"), "--out", str(work / name)]))
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return subprocess.Popen([sys.executable, "-c", WORKER, json.dumps(jobs)], env=env,
                            stdout=subprocess.PIPE, text=True)


def finish_trees(procs):
    """{name: exit code} of each tree, once every worker has ended."""
    outs = [p.communicate()[0] for p in procs]
    failed = [p.returncode for p in procs if p.returncode != 0]
    if failed:
        raise RuntimeError(f"a worker process failed with exit code {failed[0]}")
    return [json.loads(out.strip().splitlines()[-1]) for out in outs]


def _rel(a, b, scale):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b) / scale if scale > 0 else math.inf


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def csv_deviations(a_text, b_text):
    """{column: largest |a - b| over the column's largest magnitude in a}; a
    changed header or row count is {"<layout>": inf}, a changed non-numeric
    cell an infinite deviation of its column."""
    a, b = list(csv.reader(io.StringIO(a_text))), list(csv.reader(io.StringIO(b_text)))
    if not a or not b or a[0] != b[0] or len(a) != len(b):
        return {"<layout>": math.inf}
    out = {}
    for j, col in enumerate(a[0]):
        pairs = [(ra[j], rb[j]) for ra, rb in zip(a[1:], b[1:])]
        nums = [(_number(x), _number(y)) for x, y in pairs]
        if any((x is None or y is None) and p[0] != p[1] for (x, y), p in zip(nums, pairs)):
            out[col] = math.inf
            continue
        vals = [(x, y) for x, y in nums if x is not None and y is not None]
        scale = max((abs(x) for x, _ in vals if math.isfinite(x)), default=0.0)
        out[col] = max((_rel(x, y, scale) for x, y in vals), default=0.0)
    return out


def _leaves(obj, path=""):
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _leaves(obj[k], f"{path}.{k}" if path else str(k))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, obj


def json_deviations(a_text, b_text):
    """{path: |a - b| over max(|a|, |b|)} for each JSON number that differs; a
    changed layout, string, bool or null is an infinite deviation."""
    a, b = dict(_leaves(json.loads(a_text))), dict(_leaves(json.loads(b_text)))
    if a.keys() != b.keys():
        return {"<layout>": math.inf}
    out = {}
    for key, x in a.items():
        y = b[key]
        if x == y and type(x) is type(y):
            continue
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
        out[key] = _rel(x, y, max(abs(x), abs(y))) if numeric else math.inf
    return out


def bard_deviations(path_a, path_b):
    """{"coeffs": largest |c_a - c_b| over the largest |c_a|, header number:
    |a - b| over max(|a|, |b|)} of two checkpoints, decoded with the working
    tree's reader; a file that does not decode or another n is {"<layout>": inf}."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from bardina.checkpoint import read_checkpoint

    try:
        (ua, pa, ta), (ub, pb, tb) = read_checkpoint(path_a), read_checkpoint(path_b)
    except ValueError:
        return {"<layout>": math.inf}
    if ua.grid.n != ub.grid.n:
        return {"<layout>": math.inf}
    ca, cb = ua.coeffs, ub.coeffs
    scale = float(abs(ca).max())
    out = {"coeffs": _rel(0.0, float(abs(ca - cb).max()), scale)}
    headers = [("box_len", ua.grid.box_len, ub.grid.box_len), ("time", ta, tb)]
    headers += [(k, getattr(pa, k), getattr(pb, k)) for k in ("alpha", "beta", "nu", "eta_c")]
    headers.append(("dealias_fraction", ua.grid.dealias_fraction, ub.grid.dealias_fraction))
    for key, x, y in headers:
        out[key] = _rel(x, y, max(abs(x), abs(y)))
    return out


def compare_dirs(a, b):
    """[(artifact, deviations or None when missing on one side)] for the
    artifacts of two output directories; deviations is {} when identical."""
    names = sorted({p.name for d in (a, b) for p in d.iterdir() if p.is_file()} - SKIP)
    out = []
    for name in names:
        pa, pb = a / name, b / name
        if not (pa.exists() and pb.exists()):
            out.append((name, None))
            continue
        xa, xb = pa.read_bytes(), pb.read_bytes()
        if xa == xb:
            out.append((name, {}))
        elif name.endswith(".csv"):
            out.append((name, csv_deviations(xa.decode(), xb.decode())))
        elif name.endswith(".json"):
            out.append((name, json_deviations(xa.decode(), xb.decode())))
        elif name.endswith(".bard"):
            out.append((name, bard_deviations(pa, pb)))
        else:
            out.append((name, {"<bytes>": math.inf}))
    return out


def diff_trees(base_src, head_src, runs, work, rtol=0.0):
    """Run `runs` on both trees and compare; returns (report lines, ok)."""
    work = Path(work)
    procs = [start_tree(src, runs, work / side)
             for side, src in (("base", base_src), ("head", head_src))]
    codes = finish_trees(procs)
    lines, ok = [], True
    for name, sub, _ in runs:
        cb, ch = codes[0][name], codes[1][name]
        ok &= cb == ch
        lines.append(f"{name} ({sub}): exit {cb} {ch}" + ("" if cb == ch else "  EXIT CODES DIFFER"))
        for artifact, dev in compare_dirs(work / "base" / name, work / "head" / name):
            if dev is None:
                ok = False
                lines.append(f"  {artifact}: MISSING on one side")
            elif not dev or max(dev.values()) == 0:
                lines.append(f"  {artifact}: identical")
            else:
                worst = max(dev.values())
                ok &= worst <= rtol
                cols = ", ".join(f"{k} {v:.2g}" for k, v in dev.items() if v > 0)
                lines.append(f"  {artifact}: {cols}" + ("  ABOVE RTOL" if worst > rtol else ""))
    return lines, ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--rtol", type=float, default=0.0, help="largest accepted relative deviation")
    args = parser.parse_args(argv)
    runs = configs()
    with tempfile.TemporaryDirectory(prefix="artifact_diff_") as tmp:
        base_src = extract_tree(args.base, tmp) / "src"
        lines, ok = diff_trees(base_src, ROOT / "src", runs, Path(tmp) / "runs", args.rtol)
    print("\n".join(lines))
    print(f"{len(runs)} configs against {args.base}: " + ("OK" if ok else "DIFFERENCES"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
