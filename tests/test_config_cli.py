import configparser
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import bardina.cli
import bardina.dynamics
from bardina.attractor import (
    OrthoFrame,
    linearized_rhs,
    lyapunov_sum_bound,
    orthonormalize,
)
from bardina.checkpoint import STEADY_STATE_TIME, read_checkpoint
from bardina.cli import (
    EXIT_BLOWUP,
    EXIT_CERTIFICATE,
    EXIT_CFL,
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_NONCONV,
    EXIT_OK,
    _fmt,
    _random_frame,
    _write_json,
    main,
)
from bardina.config import ConfigError, RunConfig, load_config, parse_config
from bardina.dynamics import BlowUpError, SimState, _etd_weights, evolve
from bardina.fields import KINDS, FieldRecipe, generate
from bardina.spectral import GridSpec, PhysParams, VectorField, bilinear, h1alpha_inner

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

    def test_golden_digests(self):
        # run_meta.json's config_sha256 is the digest of effective_config.ini
        assert RunConfig().digest() == (
            "fe2d11d8b424af9ee110c25bd73e5a9487ba0bef7d7bfa410be9afb723e9853d"
        )
        assert parse_config(BASE_INI).digest() == (
            "5c5c7963a54b35a16a016e12c67df427099a2a69fb7e77e4062460190719a8e8"
        )

    @pytest.mark.parametrize("ini", [
        "[time]\nt_end = inf\n",
        "[time]\ndt = nan\n",
        "[grid]\nbox_len = inf\n",
        "[params]\nnu = -inf\n",
        "[stationary]\ntol = nan\n",
        "[gap]\nperturb_amplitude = inf\n",
        "[initial]\nkind = shear\namplitude = nan\n",
        "[bound]\nf_norm = nan\n",
        "[bound]\nf_norm = inf\n",
    ])
    def test_non_finite_number_rejected(self, ini):
        with pytest.raises(ConfigError, match="must be finite"):
            parse_config(ini)

    @pytest.mark.parametrize("p_list", ["0", "-1", "2 -inf", "nan", "0.5 2"])
    def test_p_below_one_rejected(self, p_list):
        with pytest.raises(ConfigError, match="p_list"):
            parse_config(f"[decay]\np_list = {p_list}\n")

    def test_p_list_bounds_accepted(self):
        assert parse_config("[decay]\np_list = 1 inf\n").p_list == (1.0, np.inf)
        assert parse_config("[decay]\np_list =\n").p_list == ()

    @pytest.mark.parametrize("ini, name", [
        ("[time]\nt_ed = 5\n", "[time] t_ed"),
        ("[tme]\ndt = 0.1\n", "[tme]"),
        ("[Grid]\nn = 8\n", "[Grid]"),
        ("[DEFAULT]\nseed = 3\n[time]\ndt = 0.1\n", "[time] seed"),
        ("[DEFAULT]\nn = 8\nt_ed = 3\n", "[DEFAULT] n, t_ed"),
    ])
    def test_unknown_section_or_key_rejected(self, ini, name):
        with pytest.raises(ConfigError, match=re.escape(name)):
            parse_config(ini)

    @pytest.mark.parametrize("ini", [
        "[initial]\nkind = 50%\n",
        "[grid]\nn = 8%\n",
        "[time]\ndt = %(t_end)s\n",
    ])
    def test_percent_is_plain_text(self, ini):
        with pytest.raises(ConfigError):
            parse_config(ini)

    def test_default_section_key_of_present_section(self):
        assert parse_config("[DEFAULT]\nn = 8\n[grid]\n").grid.n == 8

    def test_recipe_defaults(self):
        assert parse_config("[time]\ndt = 0.1\n").initial == FieldRecipe("taylor_green", 0.1)
        assert parse_config("[initial]\nkind = shear\n").initial == FieldRecipe("shear")
        with pytest.raises(ConfigError, match="initial: kind must not be 'none'"):
            parse_config("[initial]\namplitude = 0.5\n")
        assert parse_config("[force]\nkind = random_band\n").force == FieldRecipe("random_band")
        # kind = none ends the section: the keys after it are not read
        assert parse_config("[force]\nkind = none\namplitude = x\n").force is None


# Every key drawn from its type within the rules parse_config checks.
_ints = st.integers(-(2**63), 2**63)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_nonnegative = st.floats(min_value=0.0, allow_infinity=False)
_recipes = st.builds(
    FieldRecipe, kind=st.sampled_from(KINDS), amplitude=_finite, seed=_ints,
    k_min=st.integers(-3, 3), k_max=st.integers(3, 9),
)
_configs = st.builds(
    RunConfig,
    grid=st.builds(
        GridSpec, n=st.integers(2, 256).map(lambda k: 2 * k), box_len=_positive,
        dealias_fraction=st.floats(0.0, 1.0, exclude_min=True),
    ),
    params=st.builds(PhysParams, alpha=_positive, beta=_positive, nu=_positive, eta_c=_positive),
    initial=_recipes,
    force=st.none() | _recipes,
    dt=_positive,
    sample_every=st.integers(1, 2**31),
    tol=_finite,
    relaxation=_finite,
    max_iter=_ints,
    m_list=st.lists(_ints, max_size=5).map(tuple),
    frame_seed=_ints,
    perturb_amplitude=_finite,
    perturb_seed=_ints,
    decay_mode=st.sampled_from(("zero_force", "steady")),
    p_list=st.lists(st.floats(min_value=1.0), max_size=5).map(tuple),
    f_norm=st.none() | _nonnegative,
)


@settings(max_examples=300, deadline=None)
@given(_configs, st.integers(0, 2**20))
def test_serialize_parse_round_trip(cfg, k):
    assume(math.isfinite(k * cfg.dt))
    cfg = replace(cfg, t_end=k * cfg.dt)  # [time] takes a whole number of steps
    text = cfg.serialize()
    again = parse_config(text)
    assert again == cfg
    assert again.serialize() == text


def test_readme_example_config():
    """The README's example INI parses to the values it shows."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    ini = re.search(r"Example config.*?```ini\n(.*?)```", readme, re.S).group(1)
    cfg = parse_config(ini)
    assert (cfg.grid.n, cfg.params.nu, cfg.initial.seed, cfg.force.kind) == (32, 0.5, 7, "shear")
    shown, written = configparser.ConfigParser(), configparser.ConfigParser()
    shown.read_string(ini)
    written.read_string(cfg.serialize())
    for section in shown.sections():
        for key, value in shown[section].items():
            assert written[section][key] == value, (section, key)


def run_cli(tmp_path, subcommand, ini, out_name="out"):
    cfg = tmp_path / f"{subcommand}.ini"
    cfg.write_text(ini)
    out = tmp_path / out_name
    code = main([subcommand, "--config", str(cfg), "--out", str(out)])
    return code, out


def assert_certificate_report(code, out, detail):
    """The run ended with exit code 7 and a listed certificate_report.json."""
    assert code == EXIT_CERTIFICATE
    report = json.loads((out / "certificate_report.json").read_text())
    assert report == {"check_name": "certificate", "pass": False, "detail": report["detail"]}
    assert detail in report["detail"]
    meta = json.loads((out / "run_meta.json").read_text())
    assert "certificate_report.json" in meta["artifacts"]


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
    size, advanced window by window with evolve: each sum from the public
    linearized operator, and each frame moved by exponential-Euler steps that
    make their own kernel calls, the first step's included."""
    p, dt, every = cfg.params, cfg.dt, cfg.sample_every
    force = generate(cfg.force, cfg.grid, p.alpha)
    u0 = generate(cfg.initial, cfg.grid, p.alpha)
    rng = np.random.default_rng(cfg.frame_seed)
    n_windows = max(int(round(cfg.t_end / (dt * every))), 1)
    expz, w1, _ = _etd_weights(cfg.grid, p, dt)
    rows = []
    for m in cfg.m_list:
        frame = _random_frame(cfg, rng, m)
        st = SimState(u0.copy(), 0.0, p, force)
        for _ in range(n_windows + 1):
            total = 0.0
            for w in frame.fields:
                total += h1alpha_inner(linearized_rhs(w, st.u, p), w, p.alpha)
            bound = lyapunov_sum_bound(m, st.u, p)
            rows.append([m, st.t, total, bound, bound - total])
            moved = []
            for w in frame.fields:
                for _ in range(every):
                    nl = -2.0 * bilinear(st.u, w, p.alpha).hat
                    w = VectorField(cfg.grid, expz * w.hat + w1 * nl)
                moved.append(w)
            frame = orthonormalize(moved, p.alpha)
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

        def record_check(state, dt):
            checked.append(state)
            return check_cfl(state, dt)

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


def sample_times(path, column=0):
    return [line.split(",")[column] for line in path.read_text().splitlines()[1:]]


class TestRunLength:
    # every sampled subcommand samples the run simulate samples: one rule sets
    # the step count, so every run stops at t_end, also at t_end = 0 and when
    # t_end ends in a part window
    RUNS = [
        ("gap", "", "gap.csv", 0),
        ("decay", "[decay]\nmode = zero_force\n", "decay.csv", 0),
        ("decay", "[decay]\nmode = steady\n", "decay.csv", 0),
        ("lyapunov", "[lyapunov]\nm_list = 1\n", "lyapunov.csv", 1),
    ]

    @pytest.mark.parametrize("t_end, n_steps", [("0", 0), ("0.02", 1), ("0.5", 25)])
    @pytest.mark.parametrize("every", [5, 7])
    def test_sample_times_match_simulate(self, tmp_path, monkeypatch, t_end, n_steps, every):
        ini = BASE_INI.replace("t_end = 0.5", f"t_end = {t_end}")
        ini = ini.replace("sample_every = 5", f"sample_every = {every}")
        code, out = run_cli(tmp_path, "simulate", ini, out_name="simulate")
        assert code == EXIT_OK
        times = sample_times(out / "trajectory.csv")
        assert len(times) == 1 + -(-n_steps // every)
        windows = []
        transport = bardina.cli.transport_frame

        def record(frame, state, dt, n_steps):
            windows.append(n_steps)
            return transport(frame, state, dt, n_steps)

        monkeypatch.setattr(bardina.cli, "transport_frame", record)
        for k, (subcommand, extra, csv, column) in enumerate(self.RUNS):
            code, out = run_cli(tmp_path, subcommand, ini + extra, out_name=f"run{k}")
            assert code == EXIT_OK, (subcommand, extra)
            assert sample_times(out / csv, column) == times, (subcommand, extra)
        # the frames move with the base: whole windows, then the part window,
        # and the last sample's sum leaves its frame where it is
        moves = [min(every, n_steps - k * every) for k in range(len(times) - 1)]
        assert windows == moves + [0]


class TestCliErrors:
    def test_missing_config_file(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_invalid_config(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[grid]\nn = 7\n")
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("subcommand, ini", [
        ("simulate", BASE_INI.replace("t_end = 0.5", "t_end = inf")),
        ("decay", BASE_INI + "[decay]\np_list = 0\n"),
        ("bound", BASE_INI + "[bound]\nf_norm = nan\n"),
    ])
    def test_bad_number_exits_before_any_report(self, tmp_path, subcommand, ini):
        code, out = run_cli(tmp_path, subcommand, ini)
        assert code == EXIT_CONFIG
        assert not list(out.glob("*_report.json"))

    @pytest.mark.parametrize("dt, t_end", [
        ("0.02", "0.005"), ("0.02", "0.25"), ("0.02", "0.07"), ("1e-300", "1e300"),
    ])
    def test_t_end_off_the_step_grid_exits_before_any_artifact(self, tmp_path, dt, t_end):
        # a run stops at t_end: t_end must be a whole number of finitely many steps
        ini = BASE_INI.replace("dt = 0.02", f"dt = {dt}").replace("t_end = 0.5", f"t_end = {t_end}")
        code, out = run_cli(tmp_path, "simulate", ini)
        assert code == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("ini", ["[initial]\nkind = 50%\n", "[DEFAULT]\nn = 8\nt_ed = 3\n"])
    def test_refused_text_exits_before_any_report(self, tmp_path, ini):
        code, out = run_cli(tmp_path, "bound", ini)
        assert code == EXIT_CONFIG
        assert not list(out.glob("*_report.json"))

    @pytest.mark.parametrize("old, new", [
        ("kind = random_band\namplitude = 0.3", "kind = shear\namplitude = 1e200"),
        ("kind = shear\namplitude = 0.2", "kind = shear\namplitude = 1e200"),
    ], ids=["initial", "force"])
    def test_energy_overflow_exits_before_any_artifact(self, tmp_path, old, new):
        # a finite amplitude whose field's energy overflows is refused before
        # the run writes anything, a NaN trajectory or half a report included
        ini = BASE_INI.replace(old, new).replace("t_end = 0.5", "t_end = 0")
        code, out = run_cli(tmp_path, "simulate", ini)
        assert code == EXIT_CONFIG
        assert not list(out.iterdir())

    def test_csv_cells_keep_the_sign_of_an_infinity(self):
        cells = [_fmt(x) for x in (math.inf, -math.inf, math.nan, 1, np.float64(0.1))]
        assert cells == ["inf", "-inf", "nan", "1.0", "0.1"]
        assert float(cells[1]) == -math.inf

    def test_refused_json_leaves_no_file(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            _write_json(path, {"energy": float("nan")})
        assert not path.exists()

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

    @pytest.mark.parametrize("subcommand, extra, name", [
        ("stationary", "", "stationary_report.json"),
        ("decay", "[decay]\nmode = steady\n", "decay_report.json"),
    ])
    def test_diverging_solve_exits_4_with_a_valid_report(self, tmp_path, subcommand, extra, name):
        # the Picard iterates overflow: the solve stops at its first
        # non-finite residual, which the report writes as null
        ini = BASE_INI.replace("beta = 1.0\nnu = 0.5", "beta = 0.1\nnu = 0.01").replace(
            "kind = shear\namplitude = 0.2",
            "kind = random_band\namplitude = 1e3\nseed = 3\nk_min = 1\nk_max = 2",
        ) + "[stationary]\nmax_iter = 400\n" + extra
        code, out = run_cli(tmp_path, subcommand, ini)
        assert code == EXIT_NONCONV
        report = json.loads((out / name).read_text())
        assert report["pass"] is False and report["converged"] is False
        history = report["residual_history"]
        assert history[-1] is None and all(r > 0 for r in history[:-1])
        assert len(history) < 400
        meta = json.loads((out / "run_meta.json").read_text())
        assert name in meta["artifacts"]

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
        assert_certificate_report(*run_cli(tmp_path, "simulate", BASE_INI), "div_free")

    def test_non_orthonormal_frame_is_not_a_config_error(self, tmp_path, monkeypatch):
        transport = bardina.cli.transport_frame

        def stretched(frame, state, dt, n_steps):
            frame, total = transport(frame, state, dt, n_steps)
            fields = [VectorField(f.grid, 2.0 * f.hat) for f in frame.fields]
            return OrthoFrame(fields, frame.alpha), total

        monkeypatch.setattr(bardina.cli, "transport_frame", stretched)
        code, out = run_cli(tmp_path, "lyapunov", BASE_INI + "[lyapunov]\nm_list = 1 2\n")
        assert_certificate_report(code, out, "orthonormal")

    @pytest.mark.parametrize("subcommand", ["simulate", "gap", "decay", "lyapunov"])
    def test_divergent_initial_field_ends_with_a_certificate_report(
        self, tmp_path, monkeypatch, subcommand
    ):
        # a generator that hands the run a divergent field: the first step's
        # output fails its certificate
        def divergent(recipe, grid, alpha):
            hat = np.zeros((3,) + grid.box_shape, dtype=np.complex128)
            hat[0, 1, 0, 0] = hat[0, -1, 0, 0] = 0.1  # u = (0.2 cos x, 0, 0)
            return VectorField(grid, hat)

        monkeypatch.setattr(bardina.cli, "generate", divergent)
        code, out = run_cli(tmp_path, subcommand, BASE_INI + "[lyapunov]\nm_list = 1\n")
        assert_certificate_report(code, out, "div_free")

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
