import numpy as np
import pytest

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
from bardina.dynamics import PHI_SERIES_BELOW, BlowUpError, CFLError, cfl_cap, _phi1, _phi2

from conftest import random_field
from oracles import oracle_nonlinear


def zero_force(grid):
    return VectorField(
        grid, np.zeros((3,) + grid.half_shape, dtype=np.complex128), div_free=True
    )


class TestNonlinearTerm:
    def test_zero(self, grid8):
        u = zero_force(grid8)
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
        st = SimState(zero_force(grid8), 0.0, params, zero_force(grid8))
        out = step(st, 0.1)
        assert np.abs(out.u.coeffs).max() == 0.0

    def test_shear_exact_decay_single_step(self, grid8, params):
        u0 = generate(FieldRecipe("shear", 1.0), grid8)
        st = SimState(u0.copy(), 0.0, params, zero_force(grid8))
        dt = 0.05
        out = step(st, dt)
        lam = params.nu * (2 * np.pi / grid8.box_len) ** 2 + params.beta
        expected = np.exp(-lam * dt) * u0.coeffs
        assert np.abs(out.u.coeffs - expected).max() <= 1e-13

    def test_rejects_nonpositive_dt(self, grid8, params):
        st = SimState(zero_force(grid8), 0.0, params, zero_force(grid8))
        with pytest.raises(ValueError):
            step(st, 0.0)

    def test_blowup_detection(self, grid8, params):
        coeffs = np.zeros((3,) + grid8.half_shape, dtype=np.complex128)
        coeffs[0, 0, 0, 0] = np.nan
        bad = VectorField(grid8, coeffs)
        st = SimState(bad, 0.0, params, zero_force(grid8))
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

    def test_preserves_divergence_and_symmetry(self, grid8, params):
        u0 = random_field(grid8, seed=34)
        f = random_field(grid8, seed=35, amplitude=0.2)
        st = SimState(u0, 0.0, params, f)
        for _ in range(20):
            st = step(st, 0.02)
        assert st.u.hat.shape == (3,) + grid8.box_shape
        assert st.u.div_defect() <= 1e-10
        assert st.u.hermitian_defect() <= 1e-12


class TestEvolve:
    def test_t_end_zero_single_sample(self, grid8, params):
        u0 = random_field(grid8, seed=36)
        st = SimState(u0, 0.0, params, zero_force(grid8))
        _, traj = evolve(st, 0.0, 0.01)
        assert len(traj.samples) == 1
        assert traj.samples[0].t == 0.0

    def test_semigroup_composition(self, grid8, params):
        u0 = random_field(grid8, seed=37, amplitude=0.5)
        f = random_field(grid8, seed=38, amplitude=0.2)
        s1, _ = evolve(SimState(u0.copy(), 0.0, params, f), 0.5, 0.01)
        s2, _ = evolve(s1, 1.0, 0.01)
        s3, _ = evolve(SimState(u0.copy(), 0.0, params, f), 1.0, 0.01)
        assert np.abs(s2.u.coeffs - s3.u.coeffs).max() <= 1e-12

    def test_shear_closed_form_all_samples(self, grid8, params):
        u0 = generate(FieldRecipe("shear", 1.0), grid8)
        st = SimState(u0.copy(), 0.0, params, zero_force(grid8))
        _, traj = evolve(st, 2.0, 0.01, sample_every=20)
        lam = params.nu * (2 * np.pi / grid8.box_len) ** 2 + params.beta
        e0 = norms(u0, params.alpha).h1alpha_sq
        for s in traj.samples:
            assert abs(s.h1alpha_sq - e0 * np.exp(-2 * lam * s.t)) <= 1e-10 * e0

    def test_cfl_enforced(self, grid8, params):
        u0 = generate(FieldRecipe("shear", 50.0), grid8)
        st = SimState(u0, 0.25, params, zero_force(grid8))
        with pytest.raises(CFLError) as info:
            evolve(st, 1.0, 0.5)
        assert (info.value.t, info.value.dt) == (0.25, 0.5)
        assert info.value.cap == cfl_cap(u0, grid8)

    def test_cfl_cap_formula(self, grid8):
        u = generate(FieldRecipe("shear", 2.0), grid8)
        assert abs(cfl_cap(u, grid8) - 0.5 * grid8.dx / 2.0) <= 1e-12

    def test_energy_decreasing_without_force(self, grid8, params):
        u0 = random_field(grid8, seed=39, amplitude=1.0)
        _, traj = evolve(SimState(u0, 0.0, params, zero_force(grid8)), 1.0, 0.01, 5)
        e = traj.series("h1alpha_sq")
        assert np.all(np.diff(e) < 0)


class TestEnergyBudget:
    def test_zero_trajectory(self, grid8, params):
        st = SimState(zero_force(grid8), 0.0, params, zero_force(grid8))
        _, traj = evolve(st, 0.5, 0.01)
        assert np.abs(energy_budget_residual(traj)).max() == 0.0

    def test_shear_residual_order_two(self, grid8, params):
        u0 = generate(FieldRecipe("shear", 1.0), grid8)

        def max_residual(dt):
            st = SimState(u0.copy(), 0.0, params, zero_force(grid8))
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
        _, traj = evolve(SimState(u0, 0.0, p, zero_force(grid8)), 0.5, 1e-3, 1)
        e = traj.series("h1alpha_sq")
        i_h1 = traj.integral("h1dot_sq")
        i_h2 = traj.integral("h2dot_sq")
        i_damp = traj.integral("damping")
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
            expected = cumulative_trapezoid(traj.series(name), traj.times, initial=0.0)
            assert np.array_equal(traj.integral(name), expected)


class TestEnvelopes:
    def test_unforced_envelope(self, grid8, params):
        u0 = random_field(grid8, seed=43)
        _, traj = evolve(SimState(u0, 0.0, params, zero_force(grid8)), 2.0, 0.01, 10)
        rep = decay_envelope_check(traj, zero_force(grid8), params)
        assert rep.passed

    def test_zero_initial_bounded_by_force(self, grid8, params):
        f = random_field(grid8, seed=44, amplitude=0.5)
        st = SimState(zero_force(grid8), 0.0, params, f)
        _, traj = evolve(st, 3.0, 0.01, 10)
        e = traj.series("h1alpha_sq")
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
        _, traj = evolve(SimState(u0, 0.0, params, zero_force(grid8)), 0.5, 0.01, 10)
        entry, radius_sq, bound = absorbing_ball_entry(traj, zero_force(grid8), params)
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
