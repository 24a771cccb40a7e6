"""One benchmark process: import bardina, load the config, run one CLI
subcommand in-process, then check its checkpoint.  Writes a JSON result.
An untraced process also times the reference kernel (refclock.py) from
just after start-up to the end of the run, and reports its set-up and run
times calibrated to the kernel's speed.

Usage: child.py RESULT_JSON SPAWN_MONOTONIC SRC_DIR TRACE SUBCOMMAND INI OUT_DIR

SPAWN_MONOTONIC is time.monotonic() in the parent just before it started
this process; CLOCK_MONOTONIC is shared by all processes on the machine, so
set-up time is measured from process start.
"""

import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def _digests(out):
    meta = json.loads((out / "run_meta.json").read_text())
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in meta["artifacts"]
    }


def _check_checkpoint(path, cfg, read_checkpoint):
    """Read a checkpoint back; return (read_ms, problems with its header)."""
    t = time.perf_counter()
    u, params, t_final = read_checkpoint(path)
    read_ms = 1e3 * (time.perf_counter() - t)
    n = cfg.grid.n
    problems = []
    if u.grid.n != n or u.coeffs.shape != (3, n, n, n):
        problems.append(f"grid n={u.grid.n} shape={u.coeffs.shape}, expected n={n}")
    if u.grid.box_len != cfg.grid.box_len:
        problems.append(f"box_len {u.grid.box_len} != {cfg.grid.box_len}")
    for name in ("alpha", "beta", "nu"):
        if getattr(params, name) != getattr(cfg.params, name):
            problems.append(f"{name} {getattr(params, name)} != {getattr(cfg.params, name)}")
    if abs(t_final - cfg.t_end) > 1e-9 * max(1.0, cfg.t_end):
        problems.append(f"time {t_final} != t_end {cfg.t_end}")
    return read_ms, problems


def main(argv):
    result_path, spawned, src, trace, subcommand, ini, out = argv
    spawned = float(spawned)
    trace = trace == "1"
    sys.path.insert(0, src)

    tracer = clock = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install_fft()
    else:
        from refclock import RefClock, calibrate  # imports numpy before bardina

        clock = RefClock()
        clock.start()

    t = time.perf_counter()
    import bardina.cli
    from bardina.checkpoint import read_checkpoint
    from bardina.config import load_config

    import_ms = 1e3 * (time.perf_counter() - t)
    cfg = load_config(ini)
    setup_s = time.monotonic() - spawned
    setup_kernel_s = clock.lap() if clock else 0.0

    from workloads import etd_steps  # after set-up, which it is not part of

    steps = etd_steps(cfg, subcommand)
    if tracer is not None:
        tracer.install_layers()
    elif clock is not None:
        clock.lap()  # kernel time between set-up and the run is neither's
    t = time.perf_counter()
    try:
        code = bardina.cli.main([subcommand, "--config", ini, "--out", out])
    finally:
        wall_s = time.perf_counter() - t
        wall_kernel_s = clock.stop() if clock else 0.0
    if tracer is not None:
        tracer.uninstall()

    out = Path(out)
    result = {
        "code": code,
        "module": str(Path(bardina.__file__).resolve()),
        "setup_s": setup_s,
        "import_ms": import_ms,
        "wall_s": wall_s,
        "kernel_s": wall_kernel_s,
        "kernel_ms": 1e3 * statistics.mean(clock.times) if clock else None,
        "setup_cal_s": calibrate(setup_s, setup_kernel_s, clock.times) if clock else None,
        "wall_cal_s": calibrate(wall_s, wall_kernel_s, clock.times) if clock else None,
        "steps": steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": _digests(out) if code == 0 else {},
        "checkpoint": None,
    }
    ckpt = out / "final_state.bard"
    if code == 0 and ckpt.exists():
        read_ms, problems = _check_checkpoint(ckpt, cfg, read_checkpoint)
        result["checkpoint"] = {
            "read_ms": read_ms,
            "bytes": ckpt.stat().st_size,
            "problems": problems,
        }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["missing"] = tracer.missing
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
