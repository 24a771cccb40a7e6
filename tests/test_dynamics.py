import ast
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bardina
import bardina.cli
from bardina import (
    FieldRecipe,
    GridSpec,
    PhysParams,
    SimState,
    VectorField,
    absorbing_ball_entry,
    decay_envelope_check,
    energy_budget_residual,
    evolve,
    generate,
    nonlinear_term,
    norms,
    step,
)
from bardina.dynamics import (
    PHI_SERIES_BELOW,
    BlowUpError,
    CFLError,
    cfl_cap,
    integral,
    sample_diagnostics,
    sample_steps,
    sampled_states,
    step_count,
    step_index,
    _phi1,
    _phi2,
)
from bardina.attractor import orthonormalize, transport_frame
from bardina.spectral import dealias, h1alpha_diff_sq, inverse_transform
from bardina.stationary import stationary_residual_pde

from conftest import random_field, slab_budget, zero_field
from oracles import hermitian_defect, oracle_nonlinear, step_reference


class TestNonlinearTerm:
    def test_zero(self, grid8):
        u = zero_field(grid8)
        assert np.abs(nonlinear_term(u, 1.0).coeffs).max() == 0.0

    def test_shear_self_advection_vanishes(self, grid8):
        u = generate(FieldRecipe("shear", 1.3), grid8)
        assert np.abs(nonlinear_term(u, 1.0).coeffs).max() <= 1e-14

    def test_matches_convolution_oracle(self, grid8):
        u = random_field(grid8, seed=30, amplitude=1.5)
        alpha = 0.8
        got = nonlinear_term(u, alpha)
        expected = oracle_nonlinear(
            u.coeffs, grid8.dealias_cutoff, grid8.box_len, alpha
        )
        scale = max(np.abs(expected).max(), 1.0)
        assert np.abs(got.coeffs - expected).max() <= 1e-10 * scale

    def test_output_divergence_free(self, grid8):
        u = random_field(grid8, seed=31)
        out = nonlinear_term(u, 1.0)
        assert out.div_defect() <= 1e-12


class TestPhiFunctions:
    def test_series_matches_direct_at_crossover(self):
        # both branches agree around the series threshold
        s = PHI_SERIES_BELOW
        for z in (-1.01 * s, -0.99 * s, -1e-6, 0.99 * s):
            z_arr = np.array([z])
            assert abs(_phi1(z_arr)[0] - (np.expm1(z) / z)) < 1e-12
            direct = (np.expm1(z) - z) / z**2
            assert abs(_phi2(z_arr)[0] - direct) < 1e-8

    def test_against_50_digit_reference(self):
        mpmath = pytest.importorskip("mpmath")
        z = -np.logspace(-8, np.log10(50.0), 400)
        references = (
            (_phi1, lambda x: mpmath.expm1(x) / x),
            (_phi2, lambda x: (mpmath.expm1(x) - x) / x**2),
        )
        with mpmath.workdps(50):
            for phi, exact in references:
                ref = np.array([float(exact(mpmath.mpf(float(x)))) for x in z])
                assert np.max(np.abs(phi(z) - ref) / np.abs(ref)) <= 1e-14

    def test_phi_values(self):
        z = np.array([-1.0])
        assert abs(_phi1(z)[0] - (np.exp(-1) - 1) / -1) < 1e-14
        assert abs(_phi2(z)[0] - (np.exp(-1) + 1 - 1) / 1 - 0) < 1.0  # sanity
        assert abs(_phi2(z)[0] - (np.expm1(-1.0) + 1.0)) < 1e-14


class TestStep:
    def test_zero_stays_zero(self, grid8, params):
        st = SimState(zero_field(grid8), 0.0, params, zero_field(grid8))
        out = step(st, 0.1)
        assert np.abs(out.u.coeffs).max() == 0.0

    def test_shear_exact_decay_single_step(self, grid8, params):
        u0 = generate(FieldRecipe("shear", 1.0), grid8)
        st = SimState(u0.copy(), 0.0, params, zero_field(grid8))
        dt = 0.05
        out = step(st, dt)
        lam = params.nu * (2 * np.pi / grid8.box_len) ** 2 + params.beta
        expected = np.exp(-lam * dt) * u0.coeffs
        assert np.abs(out.u.coeffs - expected).max() <= 1e-13

    def test_rejects_nonpositive_dt(self, grid8, params):
        st = SimState(zero_field(grid8), 0.0, params, zero_field(grid8))
        with pytest.raises(ValueError):
            step(st, 0.0)

    @pytest.mark.parametrize("rows", [None, 2], ids=["one_pass", "slabs"])
    def test_blowup_detection(self, grid8, params, monkeypatch, rows):
        # NaN samples give a NaN sup, hence a NaN cap that no dt exceeds:
        # the step ends in BlowUpError, not CFLError, on either path
        if rows:
            slab_budget(monkeypatch, grid8.n, rows)
        coeffs = np.zeros((3,) + grid8.box_shape, dtype=np.complex128)
        coeffs[0, 0, 0, 0] = np.nan
        bad = VectorField(grid8, coeffs)
        st = SimState(bad, 0.0, params, zero_field(grid8))
        with pytest.raises(BlowUpError):
            step(st, 0.1)

    def test_richardson_order_two(self, grid8, params):
        u0 = random_field(grid8, seed=32, amplitude=0.8)
        f = random_field(grid8, seed=33, amplitude=0.3)

        def advance(dt, n):
            s = SimState(u0.copy(), 0.0, params, f)
            for _ in range(n):
                s = step(s, dt)
            return s.u.coeffs

        ref = advance(0.1 / 64, 64)
        errs = [np.abs(advance(0.1 / 2**k, 2**k) - ref).max() for k in range(3)]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for p in orders:
            assert 1.8 <= p <= 2.2

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([8, 16, 32]), fraction=st.sampled_from([0.5, 2 / 3, 1.0]),
           rows=st.sampled_from([None, 1, 2]), seed=st.integers(0, 2**31))
    def test_bitwise_equal_to_reference(self, n, fraction, rows, seed):
        # the predictor formed before n0, w1 n0 in N(u)'s hat and the combine
        # in N(predictor)'s, a view of the x-pass array on slabs: byte for
        # byte the formula with each stage in a new array
        params = PhysParams(alpha=0.7, beta=1.0, nu=0.5)
        grid = GridSpec(n, dealias_fraction=fraction)
        u, f = (random_field(grid, params.alpha, s, amplitude=a)
                for s, a in ((seed, 0.8), (seed + 1, 0.3)))
        with pytest.MonkeyPatch.context() as mp:
            if rows:
                slab_budget(mp, n, rows)
            expected = step_reference(u, f, params, 0.01)
            got = step(SimState(u, 0.0, params, f), 0.01).u.hat
        assert got.tobytes() == expected.tobytes()

    def test_preserves_divergence_and_symmetry(self, grid8, params):
        u0 = random_field(grid8, seed=34)
        f = random_field(grid8, seed=35, amplitude=0.2)
        st = SimState(u0, 0.0, params, f)
        for _ in range(20):
            st = step(st, 0.02)
        assert st.u.hat.shape == (3,) + grid8.box_shape
        assert st.u.div_defect() <= 1e-10
        assert hermitian_defect(st.u) <= 1e-12


class TestEvolve:
    def test_t_end_zero_single_sample(self, grid8, params):
        u0 = random_field(grid8, seed=36)
        st = SimState(u0, 0.0, params, zero_field(grid8))
        _, traj = evolve(st, 0.0, 0.01)
        assert len(traj.t) == 1
        assert traj.t[0] == 0.0

    def test_semigroup_composition(self, grid8, params):
        u0 = random_field(grid8, seed=37, amplitude=0.5)
        f = random_field(grid8, seed=38, amplitude=0.2)
        s1, _ = evolve(SimState(u0.copy(), 0.0, params, f), 0.5, 0.01)
        s2, _ = evolve(s1, 1.0, 0.01)
        s3, _ = evolve(SimState(u0.copy(), 0.0, params, f), 1.0, 0.01)
        assert np.abs(s2.u.coeffs - s3.u.coeffs).max() <= 1e-12

    def test_shear_closed_form_all_samples(self, grid8, params):
        u0 = generate(FieldRecipe("shear", 1.0), grid8)
        st = SimState(u0.copy(), 0.0, params, zero_field(grid8))
        _, traj = evolve(st, 2.0, 0.01, sample_every=20)
        lam = params.nu * (2 * np.pi / grid8.box_len) ** 2 + params.beta
        e0 = norms(u0, params.alpha).h1alpha_sq
        for t, e in zip(traj.t, traj.h1alpha_sq):
            assert abs(e - e0 * np.exp(-2 * lam * t)) <= 1e-10 * e0

    def test_cfl_enforced(self, grid8, params):
        u0 = generate(FieldRecipe("shear", 50.0), grid8)
        st = SimState(u0, 0.5, params, zero_field(grid8))  # step 1 of dt = 0.5
        with pytest.raises(CFLError) as info:
            evolve(st, 1.5, 0.5)
        assert (info.value.t, info.value.dt) == (0.5, 0.5)
        assert info.value.cap == cfl_cap(SimState(u0, 0.5, params, zero_field(grid8)))

    def test_cfl_cap_formula(self, grid8, params):
        u = generate(FieldRecipe("shear", 2.0), grid8)
        st = SimState(u, 0.0, params, zero_field(grid8))
        assert abs(cfl_cap(st) - 0.5 * grid8.dx / 2.0) <= 1e-12

    def test_energy_decreasing_without_force(self, grid8, params):
        u0 = random_field(grid8, seed=39, amplitude=1.0)
        _, traj = evolve(SimState(u0, 0.0, params, zero_field(grid8)), 1.0, 0.01, 5)
        e = traj.h1alpha_sq
        assert np.all(np.diff(e) < 0)


class TestCflCap:
    """cfl_cap takes max |u| as max(max u, -min u) of state.u_phys, with no
    |u| temporary; the synthetic samples below are set on the state."""

    @staticmethod
    def state(u, params, u_phys=None):
        st = SimState(u, 0.0, params, zero_field(u.grid))
        if u_phys is not None:
            st.u_phys = u_phys
        return st

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_abs_max_formula(self, grid8, params, seed):
        rng = np.random.default_rng(seed)
        u_phys = rng.standard_normal((3, 8, 8, 8))
        u = random_field(grid8, seed=seed)
        assert cfl_cap(self.state(u, params, u_phys)) == 0.5 * grid8.dx / np.abs(u_phys).max()

    def test_largest_magnitude_negative(self, grid8, params):
        rng = np.random.default_rng(5)
        u_phys = rng.uniform(-1.0, 0.5, (3, 8, 8, 8))
        u_phys[1, 2, 3, 4] = -7.25
        st = self.state(random_field(grid8, seed=5), params, u_phys)
        assert cfl_cap(st) == 0.5 * grid8.dx / 7.25
        assert cfl_cap(st) == 0.5 * grid8.dx / np.abs(u_phys).max()

    def test_zero_field_is_unlimited(self, grid8, params):
        u = VectorField(grid8, np.zeros((3,) + grid8.box_shape, complex))
        assert cfl_cap(self.state(u, params)) == np.inf
        assert cfl_cap(self.state(u, params, -np.zeros((3, 8, 8, 8)))) == np.inf


class TestStateSamples:
    """A state carries its dealiased physical samples until it is stepped."""

    def test_yielded_samples_are_the_dealiased_transform(self, grid8, params):
        u0 = random_field(grid8, seed=41, amplitude=0.5)
        f = random_field(grid8, seed=42, amplitude=0.2)
        for st in sampled_states(SimState(u0, 0.0, params, f), 0.05, 0.01, 2):
            assert st.u_phys.tobytes() == inverse_transform(st.u).tobytes()

    def test_step_drops_samples_and_ignores_who_formed_them(self, grid8, params):
        # in one pass, then in slabs of 2 x rows, where a fresh state's
        # samples are formed by the kernel slab by slab
        u0 = random_field(grid8, seed=43, amplitude=0.5)
        f = random_field(grid8, seed=44, amplitude=0.2)
        for rows in (None, 2):
            with pytest.MonkeyPatch.context() as mp:
                if rows:
                    slab_budget(mp, grid8.n, rows)
                fresh, held = SimState(u0, 0.0, params, f), SimState(u0, 0.0, params, f)
                held.u_phys
                assert "u_phys" in vars(held) and "u_phys" not in vars(fresh)
                a, b = step(fresh, 0.01), step(held, 0.01)
            assert "u_phys" not in vars(fresh) and "u_phys" not in vars(held)
            assert "u_phys" not in vars(a) and "u_phys" not in vars(b)
            assert a.u.hat.tobytes() == b.u.hat.tobytes()
            assert a.t == b.t

    def test_held_samples_do_not_raise_step_peak(self):
        # n = 32: the samples (0.79 MB) are formed inside the traced window
        # on both sides, and step must free them as early as on a fresh state
        grid, p = GridSpec(32), PhysParams(alpha=1.0, beta=1.0, nu=0.1)
        u0 = random_field(grid, seed=45, amplitude=0.3)
        f = random_field(grid, seed=46, amplitude=0.05)
        step(SimState(u0, 0.0, p, f), 0.01)  # warm-up: symbols and work arrays

        def traced_peak(hold):
            st = SimState(u0, 0.0, p, f)
            tracemalloc.start()
            try:
                if hold:
                    st.u_phys
                step(st, 0.01)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # Python's list free lists move the traced peak by a few hundred
        # bytes between otherwise equal calls; samples kept through the
        # predictor would add 786 kB
        assert traced_peak(True) <= traced_peak(False) + 4096


@pytest.mark.parametrize("rows", [None, 2], ids=["one_pass", "slabs"])
def test_step_enters_the_kernel_through_nonlinear_term(grid8, params, monkeypatch, rows):
    # N(u) and N(predictor) each call nonlinear_term and, through bilinear,
    # tensor_product_spectra, the functions the benchmark's tracer wraps
    if rows:
        slab_budget(monkeypatch, grid8.n, rows)
    calls = []

    def count(module, name):
        f = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(name) or f(*args))

    count(bardina.dynamics, "nonlinear_term")
    count(bardina.spectral, "tensor_product_spectra")
    u0 = random_field(grid8, seed=47, amplitude=0.5)
    step(SimState(u0, 0.0, params, random_field(grid8, seed=48, amplitude=0.2)), 0.01)
    assert calls == ["nonlinear_term", "tensor_product_spectra"] * 2


class TestStepCfl:
    """step takes max |u| from the samples its kernel reads, slab by slab
    on grids beyond SLAB_BYTES, and refuses a dt above the cap with the t,
    dt and cap that cfl_cap gives on inverse_transform(u), bit for bit."""

    @staticmethod
    def negative_peak_state(grid, params, seed):
        # u or -u: the one whose largest |u| is a negative sample
        u = random_field(grid, params.alpha, seed, amplitude=0.5, k_max=3)
        a = inverse_transform(u)
        if a.max() >= -a.min():
            u = VectorField(grid, -u.hat, div_free=True)
        f = random_field(grid, params.alpha, seed + 1, amplitude=0.2)
        return SimState(u, 0.0, params, f)

    @pytest.mark.parametrize("n, rows", [(16, None), (16, 1), (16, 3), (32, 2), (64, None)])
    def test_cap_and_step_match_the_samples(self, params, monkeypatch, n, rows):
        if rows:
            slab_budget(monkeypatch, n, rows)
        grid = GridSpec(n)
        st = self.negative_peak_state(grid, params, 60 + n)
        a = inverse_transform(st.u)
        assert -a.min() > a.max()
        cap = cfl_cap(SimState(st.u, st.t, params, st.force))
        assert cap == 0.5 * grid.dx / -a.min()

        for dt in (2.0 * cap, np.nextafter(cap, np.inf)):
            with pytest.raises(CFLError) as info:  # from the state at step 3
                step(SimState(st.u, 3 * dt, params, st.force), dt)
            assert (info.value.t, info.value.dt, info.value.cap) == (3 * dt, dt, cap)

        dt = cap / 2.0
        held = SimState(st.u, st.t, params, st.force)
        held.u_phys
        fresh = step(SimState(st.u, st.t, params, st.force), dt)
        assert fresh.u.hat.tobytes() == step(held, dt).u.hat.tobytes()
        assert held.u_max == -a.min()
        fresh = step(SimState(st.u, 3 * cap, params, st.force), cap)  # dt == cap passes
        assert fresh.t == 4 * cap  # the step index times dt


class TestStateReferences:
    """evolve and cmd_simulate hold no state but the current one while a
    step runs: every state older than the step's input, the initial one
    included, is freed by reference counting, with no collection; and no
    run holds a velocity once a step has read it."""

    @pytest.fixture
    def stepped(self, monkeypatch):
        refs, step_ = [], bardina.dynamics.step

        def record(state, dt):
            assert [r() for r in refs] == [None] * len(refs)
            refs.append(weakref.ref(state))
            return step_(state, dt)

        monkeypatch.setattr(bardina.dynamics, "step", record)
        return refs

    def test_evolve(self, grid8, params, stepped):
        u0 = random_field(grid8, seed=49, amplitude=0.5)
        f = random_field(grid8, seed=50, amplitude=0.2)
        final, traj = evolve(SimState(u0, 0.0, params, f), 0.1, 0.01, 3)
        assert len(stepped) == 10 and traj.t[-1] == final.t
        assert len(traj.t) == 5  # 0, 3, 6, 9 and 10 steps

    def test_cmd_simulate(self, tmp_path, stepped):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[grid]\nn = 8\n[initial]\nkind = random_band\namplitude = 0.5\n"
            "[force]\nkind = shear\namplitude = 0.2\n"
            "[time]\ndt = 0.01\nt_end = 0.1\nsample_every = 3\n"
        )
        assert bardina.cli.main(["simulate", "--config", str(ini), "--out", str(tmp_path)]) == 0
        assert len(stepped) == 10

    @pytest.mark.parametrize("subcommand, section", [
        ("simulate", ""), ("lyapunov", "[lyapunov]\nm_list = 1 2\n"), ("gap", ""),
        ("decay", "[decay]\nmode = zero_force\n"), ("decay", "[decay]\nmode = steady\n"),
    ])
    def test_every_velocity_is_freed_by_its_step(self, tmp_path, monkeypatch, subcommand, section):
        # no subcommand or driver holds an initial field (or gap's
        # perturbed one) once stepping starts, nor any later velocity
        alive, step_ = [], bardina.dynamics.step

        def record(state, dt):
            u = weakref.ref(state.u)
            out = step_(state, dt)
            alive.append(u() is not None)
            return out

        monkeypatch.setattr(bardina.dynamics, "step", record)
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[grid]\nn = 8\n[initial]\nkind = random_band\namplitude = 0.5\n"
            "[force]\nkind = shear\namplitude = 0.2\n"
            "[time]\ndt = 0.01\nt_end = 0.05\nsample_every = 2\n" + section
        )
        assert bardina.cli.main([subcommand, "--config", str(ini), "--out", str(tmp_path)]) == 0
        assert len(alive) == (10 if subcommand == "gap" else 5) and not any(alive)


class TestStepFreesItsInput:
    """step drops its input's u once the predictor has read it: a velocity
    held by the input state alone is freed within the step, and a step
    refused before the predictor leaves its input whole."""

    def test_velocity_held_by_the_state_alone_is_freed(self, grid8, params):
        u = random_field(grid8, seed=64, amplitude=0.5)
        freed = weakref.ref(u)
        st = SimState(u, 0.0, params, random_field(grid8, seed=65, amplitude=0.2))
        del u
        out = step(st, 0.01)
        assert freed() is None and "u" not in vars(st)
        with pytest.raises(AttributeError):
            st.u
        assert out.t == 0.01 and out.u.grid == grid8

    def test_cfl_refusal_leaves_the_input_whole(self, grid8, params):
        u = random_field(grid8, seed=66, amplitude=0.5)
        st = SimState(u, 0.0, params, random_field(grid8, seed=67, amplitude=0.2))
        with pytest.raises(CFLError):
            step(st, 2.0 * cfl_cap(SimState(u, 0.0, params, st.force)))
        assert st.u is u

    def test_fresh_step_peak_is_three_box_arrays(self, params):
        # n = 64, the input state made under tracing, with box arrays of
        # 1.95 MB: u and the force, then the predictor, which frees u, and
        # n0; both kernel results, w1 n0 and the combine live in the x-pass
        # array, with the "box slot" scratch (made at the warm-up), and the
        # kernel's calls add 0.13 MB of cast buffers beside them.  n0 is
        # freed before the new state's certificate check.  A new array for
        # N(u) or N(predictor), or holding u to n0, would add a fourth
        grid = GridSpec(64)
        u, force = (random_field(grid, params.alpha, seed, k_max=6) for seed in (68, 69))
        step(SimState(u.copy(), 0.0, params, force), 0.001)  # warm-up: symbols and work arrays
        tracemalloc.start()
        try:
            step(SimState(u.copy(), 0.0, params, force.copy()), 0.001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        box = 3 * math.prod(grid.box_shape) * 16
        assert peak < 3 * box + box / 3  # the scratch slot's size


    def test_diagnostics_form_no_box_array(self, params):
        # n = 64: norms sums |u_hat|^2 in 3 float box slots of 0.33 MB, and
        # h1alpha_inner weighs u in the x-pass array; a (3,) + box complex
        # temporary is 1.95 MB
        grid = GridSpec(64)
        u, force = (random_field(grid, params.alpha, seed, k_max=6) for seed in (68, 69))
        state = step(SimState(u, 0.0, params, force), 0.001)
        sample_diagnostics(state)  # warm-up: symbols and work arrays
        tracemalloc.start()
        try:
            sample_diagnostics(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * math.prod(grid.box_shape) * 16


class TestGridMismatch:
    """A velocity and a force on different grids are refused, naming both,
    before any step; restricted to one grid, the run goes ahead."""

    def test_sampled_states_refuses_two_grids(self, grid8, full8, params, monkeypatch):
        u = random_field(full8, seed=47, amplitude=0.5)  # a v1 checkpoint's grid
        f = random_field(grid8, seed=48, amplitude=0.2)
        steps = []
        monkeypatch.setattr(bardina.dynamics, "step", lambda *args: steps.append(args))
        with pytest.raises(ValueError, match="do not share a grid") as info:
            evolve(SimState(u, 0.0, params, f), 0.05, 0.01)
        assert str(full8) in str(info.value) and str(grid8) in str(info.value)
        assert steps == []
        monkeypatch.undo()
        final, traj = evolve(SimState(dealias(u, f.grid), 0.0, params, f), 0.05, 0.01)
        assert final.u.grid == grid8 and len(traj.t) == 6

    def test_h1alpha_diff_sq_refuses_two_grids(self, grid8, full8):
        u = random_field(full8, seed=49, k_max=3)
        w = random_field(grid8, seed=50)
        with pytest.raises(ValueError, match="do not share a grid") as info:
            h1alpha_diff_sq(u, w, 1.0)
        assert str(full8) in str(info.value) and str(grid8) in str(info.value)
        r = dealias(u, w.grid)
        expected = norms(VectorField(grid8, r.hat - w.hat), 1.0).h1alpha_sq
        assert h1alpha_diff_sq(r, w, 1.0) == expected > 0

    # called directly, without sampled_states' check: the same typed refusal,
    # not a numpy broadcast error
    def test_step_refuses_two_grids(self, grid8, full8, params):
        u = random_field(full8, seed=51, amplitude=0.5)
        f = random_field(grid8, seed=52, amplitude=0.2)
        with pytest.raises(ValueError, match="do not share a grid") as info:
            step(SimState(u, 0.0, params, f), 0.01)
        assert str(full8) in str(info.value) and str(grid8) in str(info.value)
        assert step(SimState(dealias(u, grid8), 0.0, params, f), 0.01).u.grid == grid8

    def test_stationary_residual_pde_refuses_two_grids(self, grid8, full8, params):
        U = random_field(full8, seed=53, amplitude=0.5)
        f = random_field(grid8, seed=54, amplitude=0.2)
        with pytest.raises(ValueError, match="do not share a grid") as info:
            stationary_residual_pde(U, f, params)
        assert str(full8) in str(info.value) and str(grid8) in str(info.value)
        assert stationary_residual_pde(dealias(U, grid8), f, params) > 0

    def test_transport_frame_refuses_two_grids(self, grid8, full8, params):
        st = SimState(random_field(grid8, seed=55, amplitude=0.5), 0.0, params, zero_field(grid8))
        w = random_field(full8, seed=56, k_max=3)
        with pytest.raises(ValueError, match="do not share a grid") as info:
            transport_frame(orthonormalize([w.copy()], params.alpha), st, 0.01, 2)
        assert str(full8) in str(info.value) and str(grid8) in str(info.value)
        frame, _ = transport_frame(orthonormalize([dealias(w, grid8)], params.alpha), st, 0.01, 2)
        assert frame[0].grid == grid8


class TestStepCount:
    def test_rule(self):
        assert step_count(0.0, 0.0, 0.02) == 0
        assert step_count(0.0, 0.005, 0.02) == 1
        assert step_count(0.0, 0.5, 0.02) == 25
        assert step_count(0.25, 0.5, 0.02) == 12  # round(12.5), half to even

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError, match="precedes"):
            step_count(0.5, 0.25, 0.02)

    def test_infinite_step_count_rejected(self):
        # a ValueError (a config error at the CLI), not round()'s OverflowError
        with pytest.raises(ValueError, match="not finite"):
            step_count(0.0, 1e300, 1e-300)

    @pytest.mark.parametrize("dt", [0.0, -0.1])
    def test_nonpositive_dt_rejected_before_any_yield(self, grid8, params, monkeypatch, dt):
        # a ValueError, not a ZeroDivisionError, from the clock itself
        with pytest.raises(ValueError, match="not positive"):
            step_count(0.0, 1.0, dt)
        steps = []
        monkeypatch.setattr(bardina.dynamics, "step", lambda *args: steps.append(args))
        st = SimState(random_field(grid8, seed=57), 0.0, params, zero_field(grid8))
        with pytest.raises(ValueError, match="not positive"):
            next(sampled_states(st, 1.0, dt))
        with pytest.raises(ValueError, match="not positive"):
            evolve(st, 1.0, dt)
        assert steps == []


class TestClock:
    """The global step index i is the one clock: a run's states are at
    times i dt, its samples at the indices sample_steps gives."""

    def test_off_grid_start_refused_before_any_step(self, grid8, params, monkeypatch):
        # from t = 0.25 by dt = 0.5 a run once ended at 1.25, past t_end = 1
        steps = []
        monkeypatch.setattr(bardina.dynamics, "step", lambda *args: steps.append(args))
        st = SimState(random_field(grid8, seed=58), 0.25, params, zero_field(grid8))
        with pytest.raises(ValueError, match="not a whole number of dt=0.5 steps"):
            evolve(st, 1.0, 0.5)
        assert steps == []
        monkeypatch.undo()
        with pytest.raises(ValueError, match="not a whole number"):
            step(st, 0.5)
        assert step(st, 0.25).t == 0.5  # on the grid of dt = 0.25: step 1 to step 2

    def test_start_within_the_t_end_rule(self):
        # 0.3 is 3 steps of 0.1 within 1e-9 relative, though 3 * 0.1 != 0.3
        assert step_index(0.3, 0.1) == 3 and 3 * 0.1 != 0.3
        assert step_index(0.0, 0.1) == 0
        with pytest.raises(ValueError, match="not a whole number"):
            step_index(0.3 * (1 + 2e-9), 0.1)

    @settings(max_examples=40, deadline=None)
    @given(
        dt=st.floats(1e-6, 1.0),
        start=st.integers(0, 12),
        n_steps=st.integers(0, 40),
        every=st.integers(1, 7),
    )
    def test_every_state_at_its_index_times_dt(self, dt, start, n_steps, every):
        grid, params = GridSpec(8), PhysParams(alpha=1.0, beta=1.0, nu=0.5)
        u0 = random_field(grid, seed=59, amplitude=1e-3)
        f = random_field(grid, seed=60, amplitude=1e-3)
        t0, t_end = start * dt, (start + n_steps) * dt
        marks = sample_steps(t0, t_end, dt, every)
        # the start, every every-th step after it and the last step
        assert marks == [start + k for k in range(n_steps + 1)
                         if k % every == 0 or k == n_steps]
        windows = [j - i for i, j in zip(marks, marks[1:])] + [0]
        assert sum(windows) == n_steps == step_count(t0, t_end, dt)

        made, step_ = [], bardina.dynamics.step

        def record(state, dt):
            made.append(step_(state, dt))
            return made[-1]

        with pytest.MonkeyPatch.context() as m:  # two runs zipped, as trajectory_gap runs them
            m.setattr(bardina.dynamics, "step", record)
            pairs = list(zip(sampled_states(SimState(u0, t0, params, f), t_end, dt, every),
                             sampled_states(SimState(u0, t0, params, f), t_end, dt, every)))
        made_times = [i * dt for i in range(start + 1, start + n_steps + 1)]
        assert sorted(s.t for s in made) == sorted(made_times * 2)
        assert [(a.t, b.t) for a, b in pairs] == [(i * dt, i * dt) for i in marks]
        assert pairs[-1][0].t == step_count(0.0, t_end, dt) * dt


ROUNDING = {"round", "rint", "ceil", "floor", "int"}


def _divides_by_dt(expr):
    """True if expr holds a division whose divisor mentions dt."""
    return any(
        isinstance(node, ast.BinOp)
        and isinstance(node.op, (ast.Div, ast.FloorDiv))
        and any(
            getattr(n, "id", None) == "dt" or getattr(n, "attr", None) == "dt"
            for n in ast.walk(node.right)
        )
        for node in ast.walk(expr)
    )


def rounding_sites(path):
    """The enclosing function of every rounding call (round, int, ...) in a
    source file whose argument divides by dt."""
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in ROUNDING and any(_divides_by_dt(a) for a in node.args):
                sites.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return sites


def test_step_counts_live_in_step_count():
    # one rule decides how many steps a run takes, whichever subcommand runs it
    src = Path(bardina.__file__).parent
    sites = [site for path in sorted(src.glob("*.py")) for site in rounding_sites(path)]
    assert set(sites) == {"step_count"}


class TestEnergyBudget:
    def test_zero_trajectory(self, grid8, params):
        st = SimState(zero_field(grid8), 0.0, params, zero_field(grid8))
        _, traj = evolve(st, 0.5, 0.01)
        assert np.abs(energy_budget_residual(traj)).max() == 0.0

    def test_shear_residual_order_two(self, grid8, params):
        u0 = generate(FieldRecipe("shear", 1.0), grid8)

        def max_residual(dt):
            st = SimState(u0.copy(), 0.0, params, zero_field(grid8))
            _, traj = evolve(st, 1.0, dt, sample_every=1)
            return np.abs(energy_budget_residual(traj)).max()

        r1, r2 = max_residual(0.02), max_residual(0.01)
        assert 3.0 <= r1 / r2 <= 5.0

    def test_forced_random_residual_small(self, grid8, params):
        u0 = random_field(grid8, seed=40, amplitude=0.5)
        f = random_field(grid8, seed=41, amplitude=0.3)
        _, traj = evolve(SimState(u0, 0.0, params, f), 1.0, 1e-3, sample_every=1)
        assert np.abs(energy_budget_residual(traj)).max() <= 1e-6

    def test_printed_coefficient_does_not_close(self, grid8):
        # the identity with alpha^2 (no nu factor) on the H2 term fails to
        # close when nu != 1, confirming the nu-bearing form is the right one
        p = PhysParams(alpha=1.0, beta=1.0, nu=0.25)
        u0 = random_field(grid8, seed=42, amplitude=0.8)
        _, traj = evolve(SimState(u0, 0.0, p, zero_field(grid8)), 0.5, 1e-3, 1)
        e = traj.h1alpha_sq
        i_h1 = integral(traj.t, traj.h1dot_sq)
        i_h2 = integral(traj.t, traj.h2dot_sq)
        i_damp = integral(traj.t, traj.damping)
        correct = e - e[0] + 2 * p.nu * (i_h1 + p.alpha**2 * i_h2) + 2 * i_damp
        printed = e - e[0] + 2 * p.nu * i_h1 + 2 * p.alpha**2 * i_h2 + 2 * i_damp
        assert np.abs(correct).max() <= 1e-6 * e[0]
        assert np.abs(printed).max() > 1e-3 * e[0]


class TestTrajectoryIntegral:
    def test_matches_scipy_bit_for_bit(self, grid8, params):
        from scipy.integrate import cumulative_trapezoid

        u0 = random_field(grid8, seed=52, amplitude=0.5)
        f = random_field(grid8, seed=53, amplitude=0.3)
        # 50 steps sampled every 3rd: the last interval is shorter
        _, traj = evolve(SimState(u0, 0.0, params, f), 0.5, 0.01, sample_every=3)
        for name in ("h1alpha_sq", "dissipation", "force_pairing"):
            expected = cumulative_trapezoid(getattr(traj, name), traj.t, initial=0.0)
            assert np.array_equal(integral(traj.t, getattr(traj, name)), expected)


class TestEnvelopes:
    def test_unforced_envelope(self, grid8, params):
        u0 = random_field(grid8, seed=43)
        _, traj = evolve(SimState(u0, 0.0, params, zero_field(grid8)), 2.0, 0.01, 10)
        rep = decay_envelope_check(traj, zero_field(grid8), params)
        assert rep.passed

    def test_zero_initial_bounded_by_force(self, grid8, params):
        f = random_field(grid8, seed=44, amplitude=0.5)
        st = SimState(zero_field(grid8), 0.0, params, f)
        _, traj = evolve(st, 3.0, 0.01, 10)
        e = traj.h1alpha_sq
        bound = (4.0 / params.beta**2) * norms(f, params.alpha).h1alpha_sq
        assert np.all(e <= bound + 1e-12)

    def test_random_run_no_violations(self, grid8, params):
        u0 = random_field(grid8, seed=45, amplitude=0.8)
        f = random_field(grid8, seed=46, amplitude=0.4)
        _, traj = evolve(SimState(u0, 0.0, params, f), 5.0, 0.01, 10)
        rep = decay_envelope_check(traj, f, params)
        assert rep.passed


class TestAbsorbingBall:
    def test_already_inside(self, grid8, params):
        f = random_field(grid8, seed=47, amplitude=1.0)
        u0 = random_field(grid8, seed=48, amplitude=0.01)
        _, traj = evolve(SimState(u0, 0.0, params, f), 0.5, 0.01, 10)
        entry, radius_sq, bound = absorbing_ball_entry(traj, f, params)
        assert entry == 0.0

    def test_zero_force_degenerate(self, grid8, params):
        u0 = random_field(grid8, seed=49, amplitude=0.5)
        _, traj = evolve(SimState(u0, 0.0, params, zero_field(grid8)), 0.5, 0.01, 10)
        entry, radius_sq, bound = absorbing_ball_entry(traj, zero_field(grid8), params)
        assert entry is None
        assert radius_sq == 0.0

    def test_entry_before_analytic_bound(self, grid8, params):
        f = random_field(grid8, seed=50, amplitude=0.2)
        radius_sq = (8.0 / params.beta**2) * norms(f, params.alpha).h1alpha_sq
        u0 = random_field(grid8, seed=51, amplitude=np.sqrt(10 * radius_sq))
        _, traj = evolve(SimState(u0, 0.0, params, f), 10.0, 0.01, 5)
        entry, _, bound = absorbing_ball_entry(traj, f, params)
        assert entry is not None
        assert bound is not None
        assert entry <= bound
