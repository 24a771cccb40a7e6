"""Alternating benchmark pairs: the working tree against a git revision.

Usage, from anywhere inside the repository:

    python3 tools/bench_pairs.py --base REV --pairs N --seconds S
        [--workload W ...] [--seed K] [--dirs D] --label L

The base revision's src/ and perfbench/ are extracted with `git archive`
into a temporary directory, as tools/artifact_diff.py extracts src/, and
those of the working tree are copied beside them without their __pycache__
directories, each side into D directories whose paths differ in length
(default 1): pair i runs both sides from directory i mod D, so that a
difference that follows where a tree lies (the heap layout of a small grid
shifts with the length of the paths a process holds) shows as a spread
between directories, not as one of the code.  Each tree is then compiled
from its own files, `python -m compileall -q src perfbench` in it, and each
side runs its own `perfbench/run.py --workload W --seed K --seconds S
--trace 0` in its own tree, one run at a time, with
PYTHONDONTWRITEBYTECODE=1: every process reads its tree's bytecode and
writes none, so neither side's set-up time or peak RSS holds a compile of
its sources, whose cost would grow with their size.  A pair is one run
per side; the base goes first in even-numbered pairs and the working tree
in odd ones, so a drift of the host's speed over the session weighs on
both sides alike.  The workloads (default: all of perfbench's) take their
pairs in turn, pair 0 of each, then pair 1 of each, and so on.

The result is written to BENCH_<label>.json at the root of the repository,
in one schema:

  * label, command, seconds, seed, pairs, dirs; base {rev, sha}; head {sha,
    dirty, diff_sha256}, dirty when src/ or perfbench/ differ from HEAD and
    diff_sha256 the SHA-256 of `git diff --binary HEAD -- src perfbench`
    (None when clean), which names the measured tree; python, numpy,
    scipy, cpu_count, machine; blas {name, version, config}, numpy's BLAS
    as numpy.show_config reports it; bytecode {env, trees}, the environment
    each run gets on top of this one's and how its tree was made;
  * workloads: {W: {runs, metrics, minor_faults, minor_faults_by_dir}}.
    Each run is {pair, dir, first, base, head}, each side {correct, attempted, failed, kernel_ms,
    minor_faults, threads, metrics}, its metrics the values of run.py's
    result line, threads the thread variables (OPENBLAS_NUM_THREADS and the
    like) its perfbench gives its CLI processes, from the `# threads` line
    ({} without one),
    kernel_ms the reference kernel's median (refclock.kernel_ms) and
    minor_faults the minor page faults of the whole perfbench run, all its
    processes (the change of getrusage(RUSAGE_CHILDREN).ru_minflt around
    it).  Each metric is {unit, better, bound, base, head, rel_change,
    over_bound}: per side the median, q1 and q3 over the runs that
    reported it, the pairs it won and the runs that were not correct;
    rel_change is (head median - base median) / base median.  `unit`,
    `better` and `bound` come from BENCHMARK.json; a metric it does not
    list wins no pair.  over_bound is whether the head's median is worse
    than the base's by more than `bound`, relative to the base's median
    (None without a bound, a direction or both medians).  minor_faults is
    per side the median, q1 and q3 of the runs' counts, and of each run's
    count over its processes (`attempted`, the warm-up included) the
    median, per_process, the quartiles, per_process_q1 and per_process_q3,
    and the range, per_process_min and per_process_max: a side that runs
    faster fits more processes into the same seconds, and an allocation
    change on a small grid is judged by the spread of the parent's counts
    per process.  minor_faults_by_dir holds the same summary of each
    directory's runs.

Per workload and metric it prints the base's median and [q1, q3], the
head's median, the relative change, the pairs the head won and `over
bound` when over_bound is true; then the minor faults per process, per
side and, with several directories, per directory.

The exit status is 1 when a run of either side was not correct.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from artifact_diff import ROOT, extract_tree

SIDES = ("base", "head")
OUT = ROOT  # the directory of BENCH_<label>.json
KERNEL = re.compile(r"^# reference kernel: median ([0-9.]+) ms")
THREADS = re.compile(r"^# threads (.*)$")
RUN_TIMEOUT_S = 600
TREE = ["src", "perfbench"]  # what each side's tree holds
BYTECODE = {  # recorded in BENCH_<label>.json
    "env": {"PYTHONDONTWRITEBYTECODE": "1"},
    "trees": "base extracted with git archive, head copied from the working tree without "
             "__pycache__, each compiled from its own files by python -m compileall -q "
             "src perfbench",
}


def copy_tree(dest):
    """The working tree's TREE copied under dest without its __pycache__
    directories; returns dest."""
    for p in TREE:
        shutil.copytree(ROOT / p, Path(dest) / p, ignore=shutil.ignore_patterns("__pycache__"))
    return Path(dest)


def compile_tree(tree):
    """The bytecode of tree's TREE, compiled from its own files by
    `python -m compileall -q`; returns tree."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", *TREE], cwd=tree, check=True)
    return Path(tree)


def run_side(tree, workload, seed, seconds):
    """One perfbench run in `tree`: {correct, attempted, failed, kernel_ms,
    metrics}; a run that ends without a result line is not correct."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, env=dict(os.environ, **BYTECODE["env"]))
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
    except (subprocess.TimeoutExpired, IndexError, ValueError):
        return {"correct": False, "attempted": 0, "failed": 0, "kernel_ms": None,
                "minor_faults": None, "threads": {}, "metrics": {}}
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    kernel = [float(m.group(1)) for m in map(KERNEL.match, lines) if m]
    threads = [m.group(1).split() for m in map(THREADS.match, lines) if m]
    return {
        "correct": result["correct"] is True and proc.returncode == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "kernel_ms": kernel[0] if kernel else None,
        "minor_faults": faults,
        "threads": dict(v.split("=", 1) for v in threads[0]) if threads else {},
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def _spread(values):
    """{median, q1, q3} of a non-empty list."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs, spec):
    """Per-metric summary of the runs of one workload (see the module
    docstring); spec maps a metric's name to its BENCHMARK.json entry."""
    names = sorted({m for r in runs for side in SIDES for m in r[side]["metrics"]})
    out = {}
    for name in names:
        entry = {k: spec.get(name, {}).get(k) for k in ("unit", "better", "bound")}
        for side in SIDES:
            values = [r[side]["metrics"][name] for r in runs if name in r[side]["metrics"]]
            entry[side] = dict(_spread(values) if values else {}, wins=0,
                               failed_runs=sum(not r[side]["correct"] for r in runs))
        sign = {"lower": -1, "higher": 1}.get(entry["better"], 0)
        for r in runs:
            a, b = (r[side]["metrics"].get(name) for side in SIDES)
            if sign and a is not None and b is not None and a != b:
                entry["head" if sign * (b - a) > 0 else "base"]["wins"] += 1
        base, head = entry["base"].get("median"), entry["head"].get("median")
        rel = (head - base) / base if base and head is not None else None
        entry["rel_change"] = rel
        entry["over_bound"] = (None if None in (rel, entry["bound"]) or not sign
                               else -sign * rel > entry["bound"])
        out[name] = entry
    return out


def summarize_faults(runs):
    """Per side the spread of the runs' minor_faults and of their counts per
    process (see the module docstring); {} for a side without counts."""
    out = {}
    for side in SIDES:
        counted = [r[side] for r in runs if r[side]["minor_faults"] is not None]
        if not counted:
            out[side] = {}
            continue
        per_process = [c["minor_faults"] / c["attempted"] for c in counted]
        spread = _spread(per_process)
        out[side] = dict(_spread([c["minor_faults"] for c in counted]),
                         per_process=spread["median"], per_process_q1=spread["q1"],
                         per_process_q3=spread["q3"], per_process_min=min(per_process),
                         per_process_max=max(per_process))
    return out


def _metric_line(m, pairs):
    """`base median [q1, q3]  head median  change  head wins w/pairs`, and
    `over bound` when the head is worse than the base beyond the bound."""
    base, head, rel = m["base"], m["head"], m["rel_change"]
    nan = float("nan")
    return (f"base {base.get('median', nan):10.4f} [{base.get('q1', nan):.4f}, "
            f"{base.get('q3', nan):.4f}]  head {head.get('median', nan):10.4f}  "
            f"{nan if rel is None else 100 * rel:+6.2f} %  head wins {head['wins']}/{pairs}"
            + ("  over bound" if m["over_bound"] else ""))


def _fault_spread(f):
    """`median [q1, q3] (min-max)` of a side's faults per process; "none"
    for a side without counts."""
    if not f:
        return "none"
    return (f"{f['per_process']:.0f} [{f['per_process_q1']:.0f}, {f['per_process_q3']:.0f}] "
            f"({f['per_process_min']:.0f}-{f['per_process_max']:.0f})")


def bench_pairs(trees, workloads, pairs, seconds, seed, log=print):
    """{workload: [run]}: `pairs` alternating pairs per workload, pair i on
    the {"base": path, "head": path} trees of directory i mod len(trees)."""
    runs = {w: [] for w in workloads}
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        d = i % len(trees)
        for w in workloads:
            run = {"pair": i, "dir": d, "first": order[0]}
            for side in order:
                run[side] = run_side(trees[d][side], w, seed, seconds)
            runs[w].append(run)
            log(f"# {w} pair {i} dir {d}: " + ", ".join(
                f"{side} wall_cal_s {run[side]['metrics'].get('wall_cal_s', float('nan')):.4f}"
                + ("" if run[side]["correct"] else " NOT CORRECT") for side in SIDES))
    return runs


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def _versions():
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "blas": _blas()}


def _blas():
    """{name, version, config} of the BLAS numpy was built with, as
    numpy.show_config reports it (config: OpenBLAS's build line, or None)."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version"),
            "config": blas.get("openblas configuration")}


def _benchmark_metrics():
    """{metric: its entry} of BENCHMARK.json's end-to-end metrics: unit,
    better ("lower" or "higher") and bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="per perfbench run")
    parser.add_argument("--workload", nargs="+", action="extend",
                        help="one or more names, the flag repeatable; default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dirs", type=int, default=1,
                        help="directories per side, taken in turn by the pairs")
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    workloads = args.workload or list(WORKLOADS)
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown or args.pairs < 1 or args.dirs < 1:
        parser.error(f"unknown workload {unknown[0]}" if unknown
                     else "--pairs and --dirs must be >= 1")
    spec = _benchmark_metrics()
    dirty = bool(_git("status", "--porcelain", "--", "src", "perfbench"))
    result = {
        "label": args.label,
        "command": "python3 tools/bench_pairs.py " + " ".join(argv or sys.argv[1:]),
        "seconds": args.seconds, "seed": args.seed, "pairs": args.pairs, "dirs": args.dirs,
        "base": {"rev": args.base, "sha": _git("rev-parse", args.base + "^{commit}")},
        "head": {"sha": _git("rev-parse", "HEAD"), "dirty": dirty, "diff_sha256": (
            hashlib.sha256(_git("diff", "--binary", "HEAD", "--", *TREE).encode()).hexdigest()
            if dirty else None)},
        **_versions(),
        "bytecode": BYTECODE,
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        dirs = [Path(tmp) / ("d" * (1 + 8 * d)) for d in range(args.dirs)]
        trees = [{"base": compile_tree(extract_tree(args.base, d / "base", TREE)),
                  "head": compile_tree(copy_tree(d / "head"))} for d in dirs]
        runs = bench_pairs(trees, workloads, args.pairs, args.seconds, args.seed)
    result["workloads"] = {w: {"runs": r, "metrics": summarize(r, spec),
                               "minor_faults": summarize_faults(r),
                               "minor_faults_by_dir": [
                                   summarize_faults([x for x in r if x["dir"] == d])
                                   for d in range(args.dirs)]}
                           for w, r in runs.items()}
    path = OUT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    for w, entry in result["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{w:14s} {name:16s} {_metric_line(m, len(entry['runs']))}")
        faults = entry["minor_faults"]
        print(f"{w:14s} {'minor_faults':16s} per process, median [q1, q3] (min-max): "
              + "  ".join(f"{side} {_fault_spread(faults[side])}" for side in SIDES))
        for d, f in enumerate(entry["minor_faults_by_dir"] if args.dirs > 1 else []):
            print(f"{w:14s} {'  dir ' + str(d):16s} "
                  + "  ".join(f"{side} {_fault_spread(f[side])}" for side in SIDES))
    print(f"wrote {path}")
    ok = all(r[side]["correct"] for rs in runs.values() for r in rs for side in SIDES)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
