"""Self-test of tools/artifact_diff.py on two small configs."""

import importlib.util
import math
import shutil
from pathlib import Path

import pytest

from bardina import GridSpec, PhysParams, SimState, generate
from bardina.checkpoint import write_checkpoint
from bardina.config import parse_config
from bardina.dynamics import cfl_cap
from bardina.spectral import _slab_rows

from conftest import random_field

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("artifact_diff", ROOT / "tools" / "artifact_diff.py")
artifact_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(artifact_diff)

SMALL_INI = """\
[grid]
n = 8
[params]
alpha = 1.0
beta = 1.0
nu = 0.5
[initial]
kind = random_band
amplitude = 0.3
seed = 4
k_min = 1
k_max = 2
[force]
kind = shear
amplitude = 0.2
[time]
dt = 0.02
t_end = 0.1
sample_every = 1
"""
RUNS = [("small-simulate", "simulate", SMALL_INI), ("small-bound", "bound", SMALL_INI)]


@pytest.fixture(scope="module")
def self_diff(tmp_path_factory):
    work = tmp_path_factory.mktemp("artifact_diff")
    src = ROOT / "src"
    return work, artifact_diff.diff_trees(src, src, RUNS, work)


def test_working_tree_against_itself_is_identical(self_diff):
    _, (lines, ok) = self_diff
    assert ok
    assert lines[0] == "small-simulate (simulate): exit 0 0"
    assert "  trajectory.csv: identical" in lines
    assert "  final_state.bard: identical" in lines
    assert "  bound_report.json: identical" in lines
    assert not any("run_meta" in line for line in lines)


def test_changed_csv_cell_reported_by_column(self_diff, tmp_path):
    work, _ = self_diff
    base, head = work / "base" / "small-simulate", tmp_path / "head"
    shutil.copytree(work / "head" / "small-simulate", head)
    path = head / "trajectory.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()]
    col = rows[0].index("l2_sq")
    rows[3][col] = repr(float(rows[3][col]) * (1 + 1e-9))
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    (head / "final_state.bard").unlink()

    report = dict(artifact_diff.compare_dirs(base, head))
    assert report["final_state.bard"] is None  # missing on one side
    dev = report["trajectory.csv"]
    assert set(k for k, v in dev.items() if v > 0) == {"l2_sq"}
    largest = max(float(r[col]) for r in rows[1:])
    assert math.isclose(dev["l2_sq"], float(rows[3][col]) / (1 + 1e-9) * 1e-9 / largest,
                        rel_tol=1e-3)
    assert report["simulate_report.json"] == {}


@pytest.fixture
def checkpoint_dirs(tmp_path):
    """base/ and head/ output directories, each with one field's checkpoint."""
    grid, params = GridSpec(16), PhysParams(alpha=0.7, beta=1.3, nu=0.05, eta_c=2.0)
    u = random_field(grid, seed=170, k_max=grid.dealias_cutoff)
    dirs = tmp_path / "base", tmp_path / "head"
    for d in dirs:
        d.mkdir()
        write_checkpoint(d / "final_state.bard", u, params, 0.75)
    return dirs


def test_identical_v2_checkpoints(checkpoint_dirs):
    base, head = checkpoint_dirs
    assert dict(artifact_diff.compare_dirs(base, head))["final_state.bard"] == {}
    dev = artifact_diff.bard_deviations(base / "final_state.bard", head / "final_state.bard")
    assert set(dev) == {"coeffs", "box_len", "time", "alpha", "beta", "nu",
                        "eta_c", "dealias_fraction"}
    assert max(dev.values()) == 0


@pytest.mark.parametrize("damage", [
    lambda raw: raw[:-1],  # a truncated body
    lambda raw: raw[:4] + (1).to_bytes(4, "little") + raw[8:],  # a version 1 header
], ids=["truncated", "version1"])
def test_undecodable_checkpoint_is_an_infinite_deviation(checkpoint_dirs, damage):
    base, head = (d / "final_state.bard" for d in checkpoint_dirs)
    head.write_bytes(damage(head.read_bytes()))
    assert artifact_diff.bard_deviations(base, head) == {"<layout>": math.inf}


def test_configs_reach_the_cfl_refusal_on_a_slab_grid():
    runs = artifact_diff.configs()
    assert len(runs) == 40 and len({name for name, _, _ in runs}) == 40
    (cfg,) = [parse_config(ini) for name, sub, ini in runs if name == "random-n64-simulate-cfl"]
    assert _slab_rows(cfg.grid.n) is not None
    u0 = generate(cfg.initial, cfg.grid, cfg.params.alpha)
    assert cfl_cap(SimState(u0, 0.0, cfg.params, u0)) < cfg.dt  # exit 6 at t = 0
