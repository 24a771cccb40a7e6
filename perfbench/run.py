"""Benchmark of the bardina CLI, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client drives a closed loop: each CLI run is a fresh single-threaded
process (child.py) that imports bardina from ./src, loads the INI generated
from the seed and calls bardina.cli.main in-process; the next process starts
only after the previous one has ended.  One untraced warm-up process runs
first and is checked but not timed.

--trace 0 reports the end-to-end metrics, medians over the timed processes.
The run times are calibrated to the speed of a reference kernel timed during
each run (refclock.py), because neighbours on a shared host change the
machine's speed by more than the bounds; the raw wall times are printed too.
--trace 1 alternates untraced and traced processes and reports per-layer
metrics from the traced ones (medians), the tracing overhead and each
layer's share of the traced wall time.

Every process passes the correctness gate: exit code 0, "pass": true in its
report, byte-identical artifacts across the processes of the run, a
checkpoint whose header matches the config, and, on the default seed, the
recorded headline scalars.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from refclock import NOMINAL_S
from tracer import LAYERS, layer_totals
from workloads import DEFAULT_SEED, REFERENCE_RTOL, WORKLOADS, headline_scalars

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Single-threaded runs: every BLAS/OpenMP pool and the solver get one thread.
THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BARDINA_THREADS": "1",
}
# A hung process is killed well inside the 180 s a whole run may take.
CHILD_TIMEOUT_S = 100
MIN_TIMED = 3  # timed processes per kind, however short --seconds is

END_TO_END = [
    ("setup_s", "s"),
    ("wall_cal_s", "s"),
    ("steps_per_cal_s", "1/s"),
    ("peak_rss_mb", "MB"),
]
RAW_UNITS = {"setup_raw_s": "s", "wall_s": "s", "steps_per_s": "1/s"}

# (metric, unit, layer, field of tracer.layer_totals)
SPAN_METRICS = [
    ("spectral.fft_calls", "count", "spectral.fft", "calls"),
    ("spectral.fft_elems", "count", "spectral.fft", "elems"),
    ("spectral.fft_ms", "ms", "spectral.fft", "ms"),
    ("spectral.products_self_ms", "ms", "spectral.products", "self_ms"),
    ("spectral.symbols_calls", "count", "spectral.symbols", "calls"),
    ("spectral.symbols_self_ms", "ms", "spectral.symbols", "self_ms"),
    ("spectral.div_check_calls", "count", "spectral.div_check", "calls"),
    ("spectral.div_check_ms", "ms", "spectral.div_check", "ms"),
    ("spectral.norms_ms", "ms", "spectral.norms", "ms"),
    ("dynamics.step_calls", "count", "dynamics.step", "calls"),
    ("dynamics.step_self_ms", "ms", "dynamics.step", "self_ms"),
    ("dynamics.nonlinear_self_ms", "ms", "dynamics.nonlinear", "self_ms"),
    ("dynamics.diagnostics_ms", "ms", "dynamics.diagnostics", "ms"),
    ("stationary.iterations", "count", "stationary.map", "calls"),
    ("stationary.solve_ms", "ms", "stationary.solve", "ms"),
    ("attractor.linearized_calls", "count", "attractor.linearized", "calls"),
    ("attractor.linearized_self_ms", "ms", "attractor.linearized", "self_ms"),
    ("attractor.frame_ms", "ms", "attractor.frame", "ms"),
    ("attractor.convergence_self_ms", "ms", "attractor.convergence", "self_ms"),
    ("checkpoint.write_ms", "ms", "checkpoint.write", "ms"),
    ("fields.generate_ms", "ms", "fields.generate", "ms"),
    ("config.load_ms", "ms", "config.load", "ms"),
    ("cli.self_ms", "ms", "cli.main", "self_ms"),
]

# Per-layer metrics measured outside the spans.
OTHER_METRICS = [
    ("checkpoint.write_bytes", "B"),
    ("checkpoint.read_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("trace.overhead_s", "s"),
    ("trace.absent_targets", "count"),
    ("refclock.kernel_ms", "ms"),
]

PER_LAYER = [(m, u) for m, u, _, _ in SPAN_METRICS] + OTHER_METRICS


def git_sha():
    """HEAD of the checkout, read without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def workload_why(name):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return next((w["why"] for w in spec["workloads"] if w["name"] == name), None)


def print_header(args):
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# git {git_sha() or 'unknown (not a git checkout)'}; "
          f"python {platform.python_version()}; numpy {version('numpy')}; "
          f"scipy {version('scipy')}; nproc {os.cpu_count()}")
    print("# threads " + " ".join(f"{k}={v}" for k, v in THREAD_VARS.items()))
    print(f"# why: {workload_why(args.workload) or '-'}")
    print("# load: closed loop, 1 client, one CLI process at a time")


class Run:
    """The processes of one benchmark invocation and their gate results."""

    def __init__(self, workload, seed, work):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.ini = work / "run.ini"
        self.ini.write_text(workload.ini(seed))
        self.env = dict(os.environ, **THREAD_VARS)
        self.attempted = 0
        self.failures = []  # one line per failed process or set-level check
        self.digests = None
        self.ok = []  # (kind, result) of processes that passed the gate

    def process(self, kind):
        """Start one CLI process of kind "warmup", "untraced" or "traced",
        wait for it and gate its output."""
        i = self.attempted
        self.attempted += 1
        out = self.work / f"p{i}"
        result_path = self.work / f"p{i}.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(result_path),
               repr(time.monotonic()), str(SRC), "1" if kind == "traced" else "0",
               self.workload.subcommand, str(self.ini), str(out)]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.failures.append(f"process {i}: timed out after {CHILD_TIMEOUT_S} s")
            return
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        if proc.returncode != 0 or not result_path.exists():
            self.failures.append(f"process {i}: child exited {proc.returncode}: {tail}")
            return
        res = json.loads(result_path.read_text())
        result_path.unlink()
        try:
            problem = self._gate(res, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if problem:
            self.failures.append(f"process {i}: {problem} {tail}".rstrip())
        else:
            self.ok.append((kind, res))

    def _gate(self, res, out):
        if res["code"] != 0:
            return f"bardina exited {res['code']}"
        if not Path(res["module"]).is_relative_to(SRC):
            return f"imported bardina from {res['module']}, not from {SRC}"
        report = json.loads((out / self.workload.report).read_text())
        if report.get("pass") is not True:
            return f"{self.workload.report} has pass={report.get('pass')}"
        if res["checkpoint"] and res["checkpoint"]["problems"]:
            return "checkpoint: " + "; ".join(res["checkpoint"]["problems"])
        if self.digests is None:
            self.digests = res["digests"]
        elif res["digests"] != self.digests:
            diff = sorted(k for k in set(self.digests) | set(res["digests"])
                          if self.digests.get(k) != res["digests"].get(k))
            return f"artifacts differ from the first process: {', '.join(diff)}"
        if self.seed == DEFAULT_SEED:
            got = headline_scalars(self.workload.subcommand, out)
            for key, want in self.workload.reference.items():
                if not math.isclose(got[key], want, rel_tol=REFERENCE_RTOL, abs_tol=0.0):
                    return f"{key} = {got[key]!r}, reference {want!r} (rtol {REFERENCE_RTOL})"
        return None

    def results(self, kind):
        return [r for k, r in self.ok if k == kind]


def drive(run, seconds, trace):
    """Warm up, then alternate process kinds in a closed loop for `seconds`.
    The first failure ends the loop: it is reported, not timed at length."""
    run.process("warmup")
    kinds = ["untraced", "traced"] if trace else ["untraced"]
    deadline = time.monotonic() + seconds
    i = 0
    while not run.failures:
        run.process(kinds[i % len(kinds)])
        i += 1
        if time.monotonic() >= deadline and i >= MIN_TIMED * len(kinds):
            break


def end_to_end(timed):
    return {
        "setup_s": statistics.median(r["setup_cal_s"] for r in timed),
        "wall_cal_s": statistics.median(r["wall_cal_s"] for r in timed),
        "steps_per_cal_s": statistics.median(r["steps"] / r["wall_cal_s"] for r in timed),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
    }


def raw_times(timed):
    """Uncalibrated figures, printed beside the result but not part of it."""
    return {
        "setup_raw_s": statistics.median(r["setup_s"] for r in timed),
        "wall_s": statistics.median(r["wall_s"] for r in timed),
        "steps_per_s": statistics.median(r["steps"] / r["wall_s"] for r in timed),
    }


def per_layer(untraced, traced):
    """Per-layer metrics and the set of span metrics whose layer is absent."""
    missing = set(traced[0]["missing"])
    absent = {m for m, _, layer, _ in SPAN_METRICS
              if all(t in missing for t in LAYERS[layer])}
    totals = [layer_totals(r["spans"]) for r in traced]
    values = {}
    for metric, _, layer, field in SPAN_METRICS:
        values[metric] = statistics.median(t.get(layer, {}).get(field, 0) for t in totals)
    ckpts = [r["checkpoint"] for r in untraced + traced if r["checkpoint"]]
    values["checkpoint.write_bytes"] = ckpts[0]["bytes"] if ckpts else 0
    values["checkpoint.read_ms"] = statistics.median(c["read_ms"] for c in ckpts) if ckpts else 0.0
    values["cli.import_ms"] = statistics.median(r["import_ms"] for r in untraced)
    # Untraced wall net of the reference kernel's time, which runs there only.
    values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                  - statistics.median(r["wall_s"] - r["kernel_s"]
                                                      for r in untraced))
    values["trace.absent_targets"] = len(missing)
    values["refclock.kernel_ms"] = statistics.median(r["kernel_ms"] for r in untraced)
    return values, absent, totals, missing


def print_shares(totals, traced):
    """Each layer's self time as a share of the traced wall time."""
    wall_ms = 1e3 * statistics.median(r["wall_s"] for r in traced)
    shares = {layer: statistics.median(t.get(layer, {}).get("self_ms", 0.0) for t in totals)
              / wall_ms for layer in LAYERS}
    print(f"# layer self-time shares of the traced wall ({wall_ms:.1f} ms, "
          f"median of {len(traced)} traced processes):")
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"#   {layer:24s} {100 * share:6.2f} %")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bardina" / "__init__.py").is_file():
        print(f"perfbench: no bardina sources under {SRC}", file=sys.stderr)
        return 2

    print_header(args)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        run = Run(WORKLOADS[args.workload], args.seed, work)
        drive(run, args.seconds, args.trace == 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in run.failures:
        print(f"# FAIL {line}")
    untraced, traced = run.results("untraced"), run.results("traced")
    if not untraced or (args.trace and not traced):
        print("perfbench: no process passed the correctness gate", file=sys.stderr)
        return 1

    failed = len(run.failures)
    print(f"# gate: {run.attempted - failed} of {run.attempted} processes passed"
          " (warm-up included)")
    if args.trace:
        values, absent, totals, missing = per_layer(untraced, traced)
        units = dict(PER_LAYER)
        print_shares(totals, traced)
        for target in missing:
            print(f"# absent target: {target}")
    else:
        values, absent = end_to_end(untraced), set()
        units = dict(END_TO_END)
        for name in ("wall_s", "wall_cal_s"):
            walls = sorted(r[name] for r in untraced)
            quartiles = " ".join(f"{q:.4f}" for q in statistics.quantiles(walls, n=4))
            print(f"# {len(walls)} timed processes, medians below; {name} min"
                  f" {walls[0]:.4f} quartiles {quartiles} max {walls[-1]:.4f}")
        print(f"# reference kernel: median {statistics.median(r['kernel_ms'] for r in untraced):.4f}"
              f" ms, nominal {1e3 * NOMINAL_S:.4f} ms")
    for name, value in values.items():
        note = "  (absent: no traced target left in the program)" if name in absent else ""
        print(f"{name:32s} {value:14.6f} {units[name]}{note}")
    if not args.trace:
        # Printed here but kept out of the result line: the raw times move
        # with the host's load by more than any useful bound, and fail_frac
        # is 0 on a healthy run ("failed" and "attempted" carry it there).
        for name, value in raw_times(untraced).items():
            print(f"{name:32s} {value:14.6f} {RAW_UNITS[name]}  (uncalibrated)")
        print(f"{'fail_frac':32s} {failed / run.attempted:14.6f} frac")

    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
