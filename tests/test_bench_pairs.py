"""Self-test of tools/bench_pairs.py: pair order, the summary, one tiny pair."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))  # bench_pairs imports artifact_diff beside it
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def side(correct=True, minor_faults=4000, **metrics):
    return {"correct": correct, "attempted": 4, "failed": 0 if correct else 1,
            "kernel_ms": 1.8, "minor_faults": minor_faults, "metrics": metrics}


def test_sides_alternate_which_goes_first(monkeypatch):
    calls = []
    monkeypatch.setattr(bench_pairs, "run_side",
                        lambda tree, w, seed, seconds: calls.append((w, tree)) or side())
    runs = bench_pairs.bench_pairs([{"base": "B", "head": "H"}], ["w1", "w2"], 3, 0.1, 0,
                                   log=lambda line: None)
    assert calls == [("w1", "B"), ("w1", "H"), ("w2", "B"), ("w2", "H"),
                     ("w1", "H"), ("w1", "B"), ("w2", "H"), ("w2", "B"),
                     ("w1", "B"), ("w1", "H"), ("w2", "B"), ("w2", "H")]
    assert [r["first"] for r in runs["w2"]] == ["base", "head", "base"]


def test_pairs_take_the_directories_in_turn(monkeypatch):
    calls = []
    monkeypatch.setattr(bench_pairs, "run_side",
                        lambda tree, w, seed, seconds: calls.append(tree) or side())
    trees = [{"base": "B0", "head": "H0"}, {"base": "B1", "head": "H1"}]
    runs = bench_pairs.bench_pairs(trees, ["w1"], 3, 0.1, 0, log=lambda line: None)
    assert calls == ["B0", "H0", "H1", "B1", "B0", "H0"]
    assert [r["dir"] for r in runs["w1"]] == [0, 1, 0]


def test_summary_counts_wins_by_direction():
    walls = [(1.0, 0.8), (1.2, 0.9), (0.9, 1.0), (1.1, 0.7)]
    runs = [{"pair": i, "first": "base", "base": side(wall_cal_s=b, peak_rss_mb=60.0),
             "head": side(i != 3, wall_cal_s=h, peak_rss_mb=61.0)}
            for i, (b, h) in enumerate(walls)]
    out = bench_pairs.summarize(runs, {"wall_cal_s": {"unit": "s", "better": "lower"},
                                       "peak_rss_mb": {"better": "lower"}})
    wall = out["wall_cal_s"]
    assert (wall["unit"], wall["better"], wall["bound"]) == ("s", "lower", None)
    assert (wall["base"]["wins"], wall["head"]["wins"]) == (1, 3)
    assert wall["base"]["median"] == 1.05 and wall["head"]["median"] == pytest.approx(0.85)
    assert wall["base"]["q1"] <= wall["base"]["median"] <= wall["base"]["q3"]
    assert (wall["base"]["failed_runs"], wall["head"]["failed_runs"]) == (0, 1)
    assert wall["rel_change"] == pytest.approx(-0.2 / 1.05)
    assert (out["peak_rss_mb"]["base"]["wins"], out["peak_rss_mb"]["head"]["wins"]) == (4, 0)


def test_summary_flags_a_change_over_its_bound():
    # medians: wall 1.0 -> 1.3 (+30 %, worse), rate 100 -> 70 (-30 %, worse),
    # rss 40 -> 41 (+2.5 %, worse within 5 %), setup 0.2 -> 0.1 (better)
    values = {"wall_cal_s": ([0.9, 1.0, 1.1], [1.2, 1.3, 1.4]),
              "steps_per_cal_s": ([90.0, 100.0, 110.0], [60.0, 70.0, 80.0]),
              "peak_rss_mb": ([40.0, 40.0, 40.0], [41.0, 41.0, 41.0]),
              "setup_s": ([0.2, 0.2, 0.2], [0.1, 0.1, 0.1]),
              "unlisted": ([1.0, 1.0, 1.0], [9.0, 9.0, 9.0])}
    runs = [{"pair": i, "first": "base",
             "base": side(**{k: v[0][i] for k, v in values.items()}),
             "head": side(**{k: v[1][i] for k, v in values.items()})} for i in range(3)]
    spec = {"wall_cal_s": {"unit": "s", "better": "lower", "bound": 0.25},
            "steps_per_cal_s": {"unit": "1/s", "better": "higher", "bound": 0.25},
            "peak_rss_mb": {"unit": "MB", "better": "lower", "bound": 0.05},
            "setup_s": {"unit": "s", "better": "lower", "bound": 0.25}}
    out = bench_pairs.summarize(runs, spec)
    assert {k: m["over_bound"] for k, m in out.items()} == {
        "wall_cal_s": True, "steps_per_cal_s": True, "peak_rss_mb": False,
        "setup_s": False, "unlisted": None}
    assert out["wall_cal_s"]["bound"] == 0.25 and out["unlisted"]["bound"] is None
    assert out["steps_per_cal_s"]["rel_change"] == pytest.approx(-0.3)
    assert bench_pairs._metric_line(out["wall_cal_s"], 3) == (
        "base     1.0000 [0.9000, 1.1000]  head     1.3000  +30.00 %  head wins 0/3  over bound")
    assert bench_pairs._metric_line(out["setup_s"], 3) == (
        "base     0.2000 [0.2000, 0.2000]  head     0.1000  -50.00 %  head wins 3/3")


def test_fault_summary_per_side():
    counts = [(4000, 8000), (4400, 6000), (3600, None)]
    runs = [{"pair": i, "first": "base", "base": side(minor_faults=b),
             "head": side(minor_faults=h)} for i, (b, h) in enumerate(counts)]
    out = bench_pairs.summarize_faults(runs)
    assert out["base"]["median"] == 4000 and out["base"]["per_process"] == 1000
    assert out["base"]["q1"] <= 4000 <= out["base"]["q3"]
    assert out["head"]["median"] == 7000 and out["head"]["per_process"] == 1750
    assert bench_pairs.summarize_faults(runs[2:])["head"] == {}


def test_fault_summary_per_process_spread():
    # counts per process 1000, 1100, 900, 2000 (one outlier the median hides)
    runs = [{"pair": i, "first": "base", "base": side(minor_faults=4 * f), "head": side()}
            for i, f in enumerate((1000, 1100, 900, 2000))]
    base = bench_pairs.summarize_faults(runs)["base"]
    assert base["per_process"] == 1050
    assert base["per_process_q1"] == 925 and base["per_process_q3"] == 1775
    assert (base["per_process_min"], base["per_process_max"]) == (900, 2000)
    assert bench_pairs._fault_spread(base) == "1050 [925, 1775] (900-2000)"
    assert bench_pairs._fault_spread({}) == "none"


def test_each_tree_runs_on_bytecode_compiled_from_its_own_files(tmp_path, monkeypatch):
    calls = []

    def fake_run(cmd, cwd, env, **kwargs):
        calls.append((cmd, cwd, env))
        line = json.dumps({"correct": True, "attempted": 2, "failed": 0, "metrics": {}})
        return subprocess.CompletedProcess(cmd, 0, stdout=header + line + "\n", stderr="")

    with monkeypatch.context() as m:
        m.setattr(bench_pairs.subprocess, "run", fake_run)
        header = "# perfbench workload=w1\n"
        assert bench_pairs.run_side("T0", "w1", 0, 0.1)["threads"] == {}  # no threads line
        header = "# threads OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=2\n"
        calls.clear()
        out = bench_pairs.run_side("TREE", "w1", 0, 0.1)
    assert out["correct"]
    assert out["threads"] == {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "2"}
    ((cmd, cwd, env),) = calls
    assert cwd == "TREE" and cmd[1] == "perfbench/run.py"
    assert env["PYTHONDONTWRITEBYTECODE"] == "1"

    # the working tree holds a stale __pycache__, the bytecode of x = 2
    repo = tmp_path / "repo"
    for d in ("src/pkg/__pycache__", "perfbench"):
        (repo / d).mkdir(parents=True)
    (repo / "src/pkg/m.py").write_text("x = 2\n")
    (repo / "perfbench/run.py").write_text("y = 1\n")
    stale = Path(importlib.util.cache_from_source(str(repo / "src/pkg/m.py")))
    subprocess.run([sys.executable, "-m", "py_compile", str(repo / "src/pkg/m.py")], check=True)
    (repo / "src/pkg/m.py").write_text("x = 1\n")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    head = bench_pairs.copy_tree(tmp_path / "head")
    copied = sorted(p.relative_to(head).as_posix() for p in head.rglob("*") if p.is_file())
    assert copied == ["perfbench/run.py", "src/pkg/m.py"]

    # compiled from the copy's own files: one .pyc per source, none the stale one
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)  # timestamp-checked .pyc
    assert bench_pairs.compile_tree(head) == head
    for src in head.rglob("*.py"):
        pyc = Path(importlib.util.cache_from_source(str(src)))
        assert pyc.is_file() and pyc.read_bytes() != stale.read_bytes()

    # a run reads that bytecode and writes none: a source edited to the same
    # size and mtime still runs as compiled
    m_py = head / "src/pkg/m.py"
    stat = m_py.stat()
    m_py.write_text("x = 3\n")
    os.utime(m_py, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    files = {p: p.stat().st_mtime_ns for p in head.rglob("*")}
    probe = ("import sys; sys.path.insert(0, 'src/pkg'); import m; "
             "print(m.x, sys.dont_write_bytecode)")
    ran = subprocess.run([sys.executable, "-c", probe], cwd=head, capture_output=True,
                         text=True, check=True, env=dict(bench_pairs.BYTECODE["env"]))
    assert ran.stdout.split() == ["1", "True"]
    assert {p: p.stat().st_mtime_ns for p in head.rglob("*")} == files
    assert bench_pairs.BYTECODE["env"] == {"PYTHONDONTWRITEBYTECODE": "1"}


@pytest.mark.parametrize("args, expected", [
    (["--workload", "steady-n32", "lyapunov-n16"], ["steady-n32", "lyapunov-n16"]),
    (["--workload", "steady-n32", "--workload", "lyapunov-n16", "simulate-n64"],
     ["steady-n32", "lyapunov-n16", "simulate-n64"]),
    ([], ["simulate-n64", "steady-n32", "lyapunov-n16"]),
])
def test_workload_flag_takes_several_names(tmp_path, monkeypatch, args, expected):
    seen = []
    monkeypatch.setattr(bench_pairs, "OUT", tmp_path)
    monkeypatch.setattr(bench_pairs, "_git", lambda *a: "")
    for name in ("extract_tree", "copy_tree"):
        monkeypatch.setattr(bench_pairs, name, lambda *a: tmp_path)
    monkeypatch.setattr(bench_pairs, "compile_tree", lambda tree: tree)
    monkeypatch.setattr(bench_pairs, "bench_pairs",
                        lambda trees, workloads, *a: seen.append(workloads)
                        or {w: [{"pair": 0, "dir": 0, "first": "base", "base": side(),
                                 "head": side()}] for w in workloads})
    assert bench_pairs.main(["--base", "HEAD", "--pairs", "1", "--seconds", "0.01",
                             *args, "--label", "t"]) == 0
    assert seen == [expected]
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["--base", "HEAD", "--pairs", "1", "--seconds", "0.01",
                          "--workload", "steady-n32", "nope", "--label", "t"])
    assert exit_.value.code == 2


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_one_tiny_pair_against_head(tmp_path, monkeypatch):
    if subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout")
    monkeypatch.setattr(bench_pairs, "OUT", tmp_path)
    code = bench_pairs.main(["--base", "HEAD", "--pairs", "1", "--seconds", "0.01",
                             "--workload", "lyapunov-n16", "--label", "selftest"])
    assert code == 0
    result = json.loads((tmp_path / "BENCH_selftest.json").read_text())
    assert result["pairs"] == 1 and result["dirs"] == 1 and result["cpu_count"] >= 1
    assert result["base"]["sha"] == result["head"]["sha"] or result["head"]["dirty"]
    assert (result["head"]["diff_sha256"] is None) == (not result["head"]["dirty"])
    assert result["bytecode"]["env"] == {"PYTHONDONTWRITEBYTECODE": "1"}
    assert result["blas"]["name"] and result["blas"]["version"]
    (run,) = result["workloads"]["lyapunov-n16"]["runs"]
    assert run["first"] == "base" and run["base"]["correct"] and run["head"]["correct"]
    # perfbench gives every CLI process one BLAS thread, on both sides
    assert run["base"]["threads"]["OPENBLAS_NUM_THREADS"] == "1" == run["head"]["threads"][
        "OPENBLAS_NUM_THREADS"]
    assert run["head"]["kernel_ms"] > 0
    # every run maps pages: the interpreter, numpy, the fields
    assert run["base"]["minor_faults"] > 0 and run["head"]["minor_faults"] > 0
    faults = result["workloads"]["lyapunov-n16"]["minor_faults"]
    assert result["workloads"]["lyapunov-n16"]["minor_faults_by_dir"] == [faults]
    for s in ("base", "head"):
        assert faults[s]["median"] == run[s]["minor_faults"]
        assert faults[s]["per_process"] == run[s]["minor_faults"] / run[s]["attempted"]
    metrics = result["workloads"]["lyapunov-n16"]["metrics"]
    assert set(metrics) == {"setup_s", "wall_cal_s", "steps_per_cal_s", "peak_rss_mb"}
    assert metrics["peak_rss_mb"]["bound"] == 0.05
    for m in metrics.values():
        assert m["head"]["wins"] + m["base"]["wins"] <= 1
        assert m["over_bound"] in (True, False)
        assert m["base"]["median"] > 0 and m["head"]["failed_runs"] == 0
