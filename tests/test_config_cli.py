import json

import numpy as np
import pytest

import bardina.cli
import bardina.dynamics
from bardina.attractor import OrthoFrame, lyapunov_sum, lyapunov_sum_bound, transport_frame
from bardina.checkpoint import STEADY_STATE_TIME, read_checkpoint
from bardina.cli import (
    EXIT_BLOWUP,
    EXIT_CFL,
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_NONCONV,
    EXIT_OK,
    _random_frame,
    main,
)
from bardina.config import ConfigError, RunConfig, load_config, parse_config
from bardina.dynamics import BlowUpError, SimState, evolve
from bardina.fields import generate
from bardina.spectral import CertificateError, VectorField

BASE_INI = """\
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
t_end = 0.5
sample_every = 5
"""


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = RunConfig()
        again = parse_config(cfg.serialize())
        assert again == cfg

    def test_parse_serialize_fixed_point(self):
        cfg = parse_config(BASE_INI)
        again = parse_config(cfg.serialize())
        assert again == cfg
        assert again.digest() == cfg.digest()

    def test_values_land(self):
        cfg = parse_config(BASE_INI)
        assert cfg.grid.n == 8
        assert cfg.params.nu == 0.5
        assert cfg.initial.kind == "random_band"
        assert cfg.force.kind == "shear"
        assert cfg.dt == 0.02
        assert cfg.sample_every == 5

    def test_no_force_section_means_none(self):
        cfg = parse_config("[grid]\nn = 8\n")
        assert cfg.force is None
        assert "kind = none" in cfg.serialize()

    def test_bad_time_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[time]\ndt = -0.1\n")

    def test_bad_decay_mode_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[decay]\nmode = sideways\n")

    def test_bad_grid_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[grid]\nn = 7\n")

    def test_malformed_text_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("not an ini file][")

    def test_load_config(self, tmp_path):
        p = tmp_path / "run.ini"
        p.write_text(BASE_INI)
        assert load_config(p) == parse_config(BASE_INI)


def run_cli(tmp_path, subcommand, ini, out_name="out"):
    cfg = tmp_path / f"{subcommand}.ini"
    cfg.write_text(ini)
    out = tmp_path / out_name
    code = main([subcommand, "--config", str(cfg), "--out", str(out)])
    return code, out


class TestCliSubcommands:
    def test_simulate(self, tmp_path):
        code, out = run_cli(tmp_path, "simulate", BASE_INI)
        assert code == EXIT_OK
        report = json.loads((out / "simulate_report.json").read_text())
        assert report["pass"]
        assert (out / "trajectory.csv").exists()
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header.startswith("t,l2_sq,h1dot_sq")
        _, _, t = read_checkpoint(out / "final_state.bard")
        assert abs(t - 0.5) <= 1e-12
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["subcommand"] == "simulate"
        assert "config_sha256" in meta and "timestamp" in meta

    def test_stationary(self, tmp_path):
        code, out = run_cli(tmp_path, "stationary", BASE_INI)
        assert code == EXIT_OK
        report = json.loads((out / "stationary_report.json").read_text())
        assert report["converged"] and report["pass"]
        _, _, t = read_checkpoint(out / "stationary.bard")
        assert t == STEADY_STATE_TIME

    def test_bound(self, tmp_path):
        ini = BASE_INI.replace("nu = 0.5", "nu = 1.0") + "[bound]\nf_norm = 1.0\n"
        code, out = run_cli(tmp_path, "bound", ini)
        assert code == EXIT_OK
        report = json.loads((out / "bound_report.json").read_text())
        assert abs(report["dimension_bound"] - 27.22912689189904) <= 1e-9
        assert report["eta_regime"] == "zero"

    def test_lyapunov(self, tmp_path):
        ini = BASE_INI + "[lyapunov]\nm_list = 1 2\nframe_seed = 3\n"
        code, out = run_cli(tmp_path, "lyapunov", ini)
        assert code == EXIT_OK
        report = json.loads((out / "lyapunov_report.json").read_text())
        assert report["pass"]
        assert (out / "lyapunov.csv").exists()

    def test_gap(self, tmp_path):
        code, out = run_cli(tmp_path, "gap", BASE_INI)
        assert code == EXIT_OK
        report = json.loads((out / "gap_report.json").read_text())
        assert report["pass"]
        assert report["eta"] is not None

    def test_decay_zero_force(self, tmp_path):
        ini = BASE_INI + "[decay]\nmode = zero_force\np_list = 2.0 inf\n"
        code, out = run_cli(tmp_path, "decay", ini)
        assert code == EXIT_OK
        report = json.loads((out / "decay_report.json").read_text())
        assert report["check_name"] == "zero_force_decay"
        assert report["pass"]

    def test_simulate_initial_energy_above_one(self, tmp_path):
        # an initial H1_alpha energy >= 1 once left a numpy bool in the report
        ini = BASE_INI.replace("amplitude = 0.3", "amplitude = 1.5")
        code, out = run_cli(tmp_path, "simulate", ini)
        assert code == EXIT_OK
        report = json.loads((out / "simulate_report.json").read_text())
        assert report["pass"] is True

    def test_decay_steady(self, tmp_path):
        ini = BASE_INI.replace("t_end = 0.5", "t_end = 2.0") + "[decay]\nmode = steady\n"
        code, out = run_cli(tmp_path, "decay", ini)
        assert code == EXIT_OK
        report = json.loads((out / "decay_report.json").read_text())
        assert report["check_name"] == "steady_convergence"
        assert report["pass"]


def per_frame_size_rows(cfg):
    """lyapunov.csv rows as computed by a separate base trajectory per frame
    size, advanced window by window with evolve."""
    p, dt, every = cfg.params, cfg.dt, cfg.sample_every
    force = generate(cfg.force, cfg.grid, p.alpha)
    u0 = generate(cfg.initial, cfg.grid, p.alpha)
    rng = np.random.default_rng(cfg.frame_seed)
    n_windows = max(int(round(cfg.t_end / (dt * every))), 1)
    rows = []
    for m in cfg.m_list:
        frame = _random_frame(cfg, rng, m)
        st = SimState(u0.copy(), 0.0, p, force)
        for _ in range(n_windows + 1):
            total = lyapunov_sum(frame, st.u, p)
            bound = lyapunov_sum_bound(m, st.u, p)
            rows.append([m, st.t, total, bound, bound - total])
            frame = transport_frame(frame, st.u, p, dt, every)
            st, _ = evolve(st, st.t + dt * every, dt, every)
    return rows


class TestLyapunovLoop:
    INI = BASE_INI + "[lyapunov]\nm_list = 1 2 4\nframe_seed = 11\n"

    def test_rows_match_per_frame_size_trajectories(self, tmp_path):
        code, out = run_cli(tmp_path, "lyapunov", self.INI)
        assert code == EXIT_OK
        lines = (out / "lyapunov.csv").read_text().splitlines()
        got = [[float(x) for x in line.split(",")] for line in lines[1:]]
        assert got == per_frame_size_rows(parse_config(self.INI))

    def test_cfl_checked_at_every_sampled_state(self, tmp_path, monkeypatch):
        # every base step checks the cap of the state it advances from, so
        # every sampled state but the last is checked
        stepped, checked = [], []
        step, check_cfl = bardina.dynamics.step, bardina.dynamics.check_cfl

        def record_step(state, dt):
            stepped.append(state)
            return step(state, dt)

        def record_check(state, dt, u_phys=None):
            checked.append(state)
            return check_cfl(state, dt, u_phys)

        monkeypatch.setattr(bardina.dynamics, "step", record_step)
        monkeypatch.setattr(bardina.dynamics, "check_cfl", record_check)
        code, out = run_cli(tmp_path, "lyapunov", self.INI)
        assert code == EXIT_OK
        assert len(stepped) == 25  # t_end / dt
        assert len(checked) == len(stepped)
        assert all(c is s for c, s in zip(checked, stepped))
        rows_m1 = (out / "lyapunov.csv").read_text().splitlines()[1:7]
        sampled = [float(row.split(",")[1]) for row in rows_m1]
        assert sampled[:-1] == [s.t for s in stepped[::5]]


class TestCliErrors:
    def test_missing_config_file(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_invalid_config(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[grid]\nn = 7\n")
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    def test_nonconvergence_exit(self, tmp_path):
        ini = BASE_INI.replace(
            "kind = shear\namplitude = 0.2",
            "kind = random_band\namplitude = 500.0\nseed = 9",
        ) + "[stationary]\nmax_iter = 30\n"
        code, out = run_cli(tmp_path, "stationary", ini)
        assert code == EXIT_NONCONV
        report = json.loads((out / "stationary_report.json").read_text())
        assert not report["converged"]


    def test_steady_decay_nonconvergence_report(self, tmp_path):
        ini = BASE_INI.replace(
            "kind = shear\namplitude = 0.2",
            "kind = random_band\namplitude = 50.0\nseed = 9",
        ) + "[stationary]\nmax_iter = 3\n[decay]\nmode = steady\n"
        code, out = run_cli(tmp_path, "decay", ini)
        assert code == EXIT_NONCONV
        report = json.loads((out / "decay_report.json").read_text())
        assert report["check_name"] == "steady_convergence"
        assert report["pass"] is False and report["converged"] is False
        assert len(report["residual_history"]) == 4
        meta = json.loads((out / "run_meta.json").read_text())
        assert "decay_report.json" in meta["artifacts"]

    @pytest.mark.parametrize("subcommand", ["simulate", "lyapunov", "gap", "decay"])
    def test_dt_above_cfl_cap(self, tmp_path, subcommand):
        # max |u| = 50 puts the cap at 0.5 dx / 50 ~ 0.0079 < dt = 0.02
        ini = BASE_INI.replace(
            "kind = random_band\namplitude = 0.3", "kind = shear\namplitude = 50.0"
        ) + "[lyapunov]\nm_list = 1\n"
        code, out = run_cli(tmp_path, subcommand, ini)
        assert code == EXIT_CFL
        report = json.loads((out / "cfl_report.json").read_text())
        assert report["check_name"] == "cfl" and report["pass"] is False
        assert report["time"] == 0.0 and report["dt"] == 0.02
        assert abs(report["cap"] - 0.5 * (2 * np.pi / 8) / 50.0) <= 1e-12
        meta = json.loads((out / "run_meta.json").read_text())
        assert "cfl_report.json" in meta["artifacts"]

    def test_blowup_report_listed(self, tmp_path, monkeypatch):
        def blow_up(state, t_end, dt, sample_every=1):
            raise BlowUpError(0.25)

        monkeypatch.setattr(bardina.cli, "evolve", blow_up)
        code, out = run_cli(tmp_path, "simulate", BASE_INI)
        assert code == EXIT_BLOWUP
        report = json.loads((out / "blowup_report.json").read_text())
        assert report["check_name"] == "blow_up" and report["pass"] is False
        assert report["time"] == 0.25
        meta = json.loads((out / "run_meta.json").read_text())
        assert "blowup_report.json" in meta["artifacts"]

    def test_certificate_violation_is_not_a_config_error(self, tmp_path, monkeypatch):
        def non_solenoidal(u, w, alpha, u_phys=None):
            hat = np.zeros((3,) + u.grid.box_shape, dtype=np.complex128)
            hat[0, 1, 0, 0] = 1.0  # k . u != 0 for this mode
            return VectorField(u.grid, hat)

        monkeypatch.setattr(bardina.dynamics, "bilinear", non_solenoidal)
        with pytest.raises(CertificateError):
            run_cli(tmp_path, "simulate", BASE_INI)

    def test_non_orthonormal_frame_is_not_a_config_error(self, tmp_path, monkeypatch):
        def stretched(frame, state_u, params, dt, n_steps, u_phys=None):
            fields = [VectorField(f.grid, 2.0 * f.hat) for f in frame.fields]
            return OrthoFrame(fields, frame.alpha)

        monkeypatch.setattr(bardina.cli, "transport_frame", stretched)
        with pytest.raises(CertificateError):
            run_cli(tmp_path, "lyapunov", BASE_INI + "[lyapunov]\nm_list = 1 2\n")

    @pytest.mark.parametrize("m", [12, 13])
    def test_frame_beyond_its_band_is_a_config_error(self, tmp_path, m):
        # n = 4 keeps |m_i| <= 1, and the frame band 1 <= |m| <= 1 holds
        # 3 mode pairs x 2 solenoidal directions x (re, im) = 12 real fields
        ini = BASE_INI.replace("n = 8", "n = 4").replace("k_max = 2", "k_max = 1")
        code, _ = run_cli(tmp_path, "lyapunov", ini + f"[lyapunov]\nm_list = {m}\n")
        assert (code == EXIT_CONFIG) == (m > 12)


@pytest.mark.parametrize("subcommand", sorted(bardina.cli.COMMANDS))
def test_report_contract(tmp_path, subcommand):
    code, out = run_cli(tmp_path, subcommand, BASE_INI)
    meta = json.loads((out / "run_meta.json").read_text())
    reports = [a for a in meta["artifacts"] if a.endswith("_report.json")]
    assert reports == [f"{subcommand}_report.json"]
    report = json.loads((out / reports[0]).read_text())
    assert {"check_name", "params", "pass"} <= set(report)
    assert set(report["params"]) == {"alpha", "beta", "nu", "eta_c"}
    assert code == (EXIT_OK if report["pass"] else EXIT_CHECK)


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        _, out1 = run_cli(tmp_path, "simulate", BASE_INI, out_name="r1")
        _, out2 = run_cli(tmp_path, "simulate", BASE_INI, out_name="r2")
        for name in ("trajectory.csv", "simulate_report.json",
                     "final_state.bard", "effective_config.ini"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
