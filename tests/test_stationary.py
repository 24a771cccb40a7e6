import numpy as np
import pytest

from bardina import (
    FieldRecipe,
    NonConvergenceError,
    PhysParams,
    generate,
    norms,
    solve_stationary,
    stationary_map,
    stationary_residual_pde,
)
from bardina.spectral import modes

from conftest import half_hat, random_field, zero_field
from oracles import dealias_mask, half_spectrum, oracle_nonlinear


class TestStationaryMap:
    def test_maps_zero_to_inverse_linear_image(self, grid8, params):
        f = random_field(grid8, seed=60, amplitude=0.5)
        out = stationary_map(zero_field(grid8), f, params)
        ksq = modes(grid8).ksq
        expected = f.hat / (params.nu * ksq + params.beta)
        assert np.abs(out.hat - expected).max() <= 1e-14

    def test_matches_convolution_oracle(self, grid8, full8, params):
        U = random_field(grid8, seed=61, amplitude=0.7)
        f = random_field(grid8, seed=62, amplitude=0.4)
        got = stationary_map(U, f, params)
        nl = oracle_nonlinear(U.coeffs, grid8.dealias_cutoff, grid8.box_len, params.alpha)
        expected = (half_hat(f) - half_spectrum(nl)) / (
            params.nu * modes(full8).ksq + params.beta
        )
        # the map truncates to the retained band
        expected = expected * dealias_mask(grid8)
        assert np.abs(half_hat(got) - expected).max() <= 1e-10

    def test_grid_mismatch_rejected(self, grid8, grid16, params):
        with pytest.raises(ValueError):
            stationary_map(zero_field(grid8), zero_field(grid16), params)


class TestSolveStationary:
    def test_zero_force_gives_zero(self, grid8, params):
        res = solve_stationary(zero_field(grid8), params)
        assert np.abs(res.U.coeffs).max() == 0.0
        assert res.residual == 0.0

    def test_shear_closed_form(self, grid8, params):
        # a single-shear force has zero self-advection, so the steady state is
        # the force divided by the linear symbol at its wavenumber
        f = generate(FieldRecipe("shear", 0.3), grid8)
        res = solve_stationary(f, params)
        lam = params.nu * (2 * np.pi / grid8.box_len) ** 2 + params.beta
        assert np.abs(res.U.coeffs - f.coeffs / lam).max() <= 1e-13
        assert res.iterations <= 3

    def test_small_force_converges_with_slack(self, grid8, params):
        f = random_field(grid8, seed=63, amplitude=0.2)
        res = solve_stationary(f, params, tol=1e-12)
        assert res.residual <= 1e-12
        assert res.energy_slack >= 0.0
        assert stationary_residual_pde(res.U, f, params) <= 1e-10

    def test_fixed_point_property(self, grid8, params):
        f = random_field(grid8, seed=64, amplitude=0.15)
        res = solve_stationary(f, params, tol=1e-13)
        TU = stationary_map(res.U, f, params)
        assert np.abs(TU.coeffs - res.U.coeffs).max() <= 1e-12

    def test_relaxation_schedules_agree(self, grid8, params):
        f = random_field(grid8, seed=65, amplitude=0.2)
        a = solve_stationary(f, params, relaxation=1.0, tol=1e-12)
        b = solve_stationary(f, params, relaxation=0.5, tol=1e-12)
        assert np.abs(a.U.coeffs - b.U.coeffs).max() <= 1e-10

    def test_residual_history_recorded(self, grid8, params):
        f = random_field(grid8, seed=66, amplitude=0.2)
        res = solve_stationary(f, params, tol=1e-12)
        assert len(res.residual_history) == res.iterations
        assert res.residual_history[-1] == res.residual

    def test_huge_force_raises(self, grid8, params):
        f = random_field(grid8, seed=67, amplitude=500.0)
        with pytest.raises(NonConvergenceError) as exc:
            solve_stationary(f, params, max_iter=40)
        assert len(exc.value.residual_history) >= 2

    def test_diverging_iteration_stops_at_the_first_non_finite_residual(self, grid8):
        # beta = 0.1 and nu = 0.01 give the map no contraction for this
        # force: the iterates overflow within a few passes
        p = PhysParams(alpha=1.0, beta=0.1, nu=0.01)
        f = generate(FieldRecipe("random_band", 1e3, seed=3, k_min=1, k_max=2), grid8)
        with pytest.raises(NonConvergenceError) as exc:
            solve_stationary(f, p, max_iter=400)
        history = exc.value.residual_history
        assert not np.isfinite(history[-1]) and np.isfinite(history[:-1]).all()
        assert len(history) < 400

    def test_parameter_validation(self, grid8, params):
        f = zero_field(grid8)
        with pytest.raises(ValueError):
            solve_stationary(f, params, tol=0.0)
        with pytest.raises(ValueError):
            solve_stationary(f, params, relaxation=1.5)


class TestPdeResidual:
    def test_zero_for_zero_pair(self, grid8, params):
        assert stationary_residual_pde(zero_field(grid8), zero_field(grid8), params) == 0.0

    def test_nonzero_for_non_solution(self, grid8, params):
        U = random_field(grid8, seed=68, amplitude=0.5)
        f = zero_field(grid8)
        assert stationary_residual_pde(U, f, params) > 0.1
