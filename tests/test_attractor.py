import numpy as np
import pytest
from scipy import fft as sfft

import bardina.attractor
from bardina import (
    FieldRecipe,
    GridSpec,
    PhysParams,
    VectorField,
    dimension_bound,
    eta,
    generate,
    h1alpha_inner,
    lieb_thirring_constant,
    linearized_rhs,
    lyapunov_sum_bound,
    norms,
    orthonormalize,
    solve_stationary,
    steady_convergence,
    trajectory_gap,
    zero_force_decay,
)
from bardina.attractor import OrthoFrame, transport_frame
from bardina.dynamics import SimState, sampled_states
from bardina.spectral import CertificateError, modes

from conftest import half_hat, random_field
from oracles import (
    dealias_mask,
    gram_schmidt_reference,
    half_spectrum,
    oracle_linearized_transport,
    r_inf_reference,
)


def zero_field(grid):
    return VectorField(
        grid, np.zeros((3,) + grid.box_shape, dtype=np.complex128), div_free=True
    )


def base_state(u, params):
    """An unforced state at u: transport_frame reads its u, u_phys and params."""
    return SimState(u, 0.0, params, zero_field(u.grid))


def lyapunov_sum(frame, u, params):
    """The frame's Lyapunov sum at u, with the frame left where it is."""
    return transport_frame(frame, base_state(u, params), 0.01, 0)[1]


class TestEta:
    def test_zero_force_gives_minus_beta(self):
        p = PhysParams(alpha=1.0, beta=2.0, nu=1.0)
        rep = eta(p, 0.0)
        assert rep.eta_value == -2.0
        assert rep.regime == "negative"

    def test_balance_point(self):
        p = PhysParams(alpha=1.0, beta=1.0, nu=1.0)
        rep = eta(p, 1.0)
        assert rep.eta_value == 0.0
        assert rep.regime == "zero"

    def test_positive_regime(self):
        p = PhysParams(alpha=1.0, beta=1.0, nu=1.0)
        rep = eta(p, 3.0)
        assert rep.eta_value == 2.0
        assert rep.regime == "positive"

    def test_alpha_scaling(self):
        p = PhysParams(alpha=4.0, beta=0.5, nu=1.0)
        expected = 1.0 * 7.0 / (4.0**2.5 * 0.5) - 0.5
        assert abs(eta(p, 7.0).eta_value - expected) <= 1e-15

    def test_custom_constant(self):
        p = PhysParams(alpha=1.0, beta=1.0, nu=1.0, eta_c=2.0)
        assert eta(p, 1.0).eta_value == 1.0

    def test_negative_norm_rejected(self):
        with pytest.raises(ValueError):
            eta(PhysParams(1.0, 1.0, 1.0), -1.0)


class TestDimensionBound:
    def test_lieb_thirring_value(self):
        assert abs(lieb_thirring_constant() - 1.095580817906266) <= 1e-12

    def test_unit_parameters(self):
        p = PhysParams(alpha=1.0, beta=1.0, nu=1.0)
        db = dimension_bound(p, 1.0)
        c_lt = lieb_thirring_constant()
        expected = 2.0 * c_lt**4 * 2.0 ** 3.2 + 0.75
        assert abs(db.bound - expected) <= 1e-12
        assert abs(db.bound - 27.22912689189904) <= 1e-10

    def test_zero_force_gives_zero(self):
        assert dimension_bound(PhysParams(1.0, 1.0, 1.0), 0.0).bound == 0.0

    def test_large_force_uses_14_5_power(self):
        p = PhysParams(1.0, 1.0, 1.0)
        db2 = dimension_bound(p, 2.0)
        db1 = dimension_bound(p, 1.0)
        assert abs(db2.bound / db1.bound - 2.0 ** 2.8) <= 1e-12

    def test_small_force_uses_square(self):
        p = PhysParams(1.0, 1.0, 1.0)
        db = dimension_bound(p, 0.5)
        assert abs(db.bound - db.c_abn * 0.25) <= 1e-14

    def test_monotone_in_parameters(self):
        # larger nu, alpha, beta all shrink the prefactor
        base = dimension_bound(PhysParams(1.0, 1.0, 1.0), 1.0).c_abn
        assert dimension_bound(PhysParams(2.0, 1.0, 1.0), 1.0).c_abn < base
        assert dimension_bound(PhysParams(1.0, 2.0, 1.0), 1.0).c_abn < base
        assert dimension_bound(PhysParams(1.0, 1.0, 2.0), 1.0).c_abn < base

    def test_negative_norm_rejected(self):
        with pytest.raises(ValueError):
            dimension_bound(PhysParams(1.0, 1.0, 1.0), -0.5)


class TestLinearizedRhs:
    def test_zero_base_state_is_linear_symbol(self, grid8, params):
        w = random_field(grid8, seed=70)
        out = linearized_rhs(w, zero_field(grid8), params)
        expected = -(params.nu * modes(grid8).ksq + params.beta) * w.hat
        assert np.abs(out.hat - expected).max() <= 1e-13

    def test_matches_convolution_oracle(self, grid8, full8, params):
        w = random_field(grid8, seed=71, amplitude=0.8)
        u = random_field(grid8, seed=72, amplitude=1.1)
        got = linearized_rhs(w, u, params)
        transport = oracle_linearized_transport(
            w.coeffs, u.coeffs, grid8.dealias_cutoff, grid8.box_len, params.alpha
        )
        expected = half_spectrum(transport) - (
            params.nu * modes(full8).ksq + params.beta
        ) * half_hat(w)
        expected = expected * dealias_mask(grid8)
        scale = max(np.abs(expected).max(), 1.0)
        assert np.abs(half_hat(got) - expected).max() <= 1e-10 * scale

    def test_grid_mismatch_rejected(self, grid8, grid16, params):
        with pytest.raises(ValueError):
            linearized_rhs(zero_field(grid8), zero_field(grid16), params)


class TestOrthonormalize:
    def test_gram_identity(self, grid8, params):
        fields = [random_field(grid8, seed=s) for s in (80, 81, 82)]
        frame = orthonormalize(fields, params.alpha)
        assert frame.gram_defect() <= 1e-12

    def test_first_direction_preserved(self, grid8, params):
        v = random_field(grid8, seed=83)
        frame = orthonormalize([v], params.alpha)
        nrm = np.sqrt(norms(v, params.alpha).h1alpha_sq)
        assert np.abs(frame.fields[0].coeffs - v.coeffs / nrm).max() <= 1e-12

    def test_rank_deficiency_detected(self, grid8, params):
        v = random_field(grid8, seed=84)
        w = VectorField(grid8, 2.0 * v.hat)
        with pytest.raises(ValueError):
            orthonormalize([v, w], params.alpha)

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_gram_matches_pairwise_inner_products(self, grid16, params, m):
        fields = [random_field(grid16, seed=85 + i, k_max=4) for i in range(m)]
        frame = OrthoFrame(fields, params.alpha)  # not orthonormal: a full matrix
        loop = np.array(
            [[h1alpha_inner(v, w, params.alpha) for w in fields] for v in fields]
        )
        g = frame.gram()
        assert np.array_equal(np.tril(g), np.tril(loop))  # one weight, one dot product
        assert np.abs(g - loop).max() <= 1e-14 * np.abs(loop).max()

    @pytest.mark.parametrize("fraction", [0.5, 2.0 / 3.0, 1.0])
    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_matches_reference_gram_schmidt(self, params, m, n, fraction):
        grid = GridSpec(n, dealias_fraction=fraction)
        fields = [random_field(grid, seed=130 + i) for i in range(m)]
        frame = orthonormalize(fields, params.alpha)
        for got, ref in zip(frame.fields, gram_schmidt_reference(fields, params.alpha)):
            assert np.abs(got.hat - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_no_norms_or_inner_product_calls(self, monkeypatch, grid8, params):
        calls = []
        for name in ("norms", "h1alpha_inner"):
            wrapped = getattr(bardina.attractor, name)

            def counted(*args, _name=name, _f=wrapped, **kwargs):
                calls.append(_name)
                return _f(*args, **kwargs)

            monkeypatch.setattr(bardina.attractor, name, counted)
        fields = [random_field(grid8, seed=140 + i) for i in range(4)]
        frame = orthonormalize(fields, params.alpha)
        assert calls == []  # through them, Gram-Schmidt makes 2m and m(m-1)/2 calls
        assert frame.gram_defect() <= 1e-12

    def test_all_zero_rejected(self, grid8, params):
        with pytest.raises(ValueError):
            orthonormalize([zero_field(grid8)], params.alpha)

    def test_empty_rejected(self, params):
        with pytest.raises(ValueError):
            orthonormalize([], params.alpha)


class TestLyapunovSum:
    def _frame(self, grid, alpha, m, seed0=90):
        fields = [random_field(grid, seed=seed0 + i) for i in range(m)]
        return orthonormalize(fields, alpha)

    def test_zero_base_closed_form(self, grid8, params):
        m = 3
        frame = self._frame(grid8, params.alpha, m)
        got = lyapunov_sum(frame, zero_field(grid8), params)
        expected = -params.beta * m
        for w in frame.fields:
            nb = norms(w, params.alpha)
            expected -= params.nu * (nb.h1dot_sq + params.alpha**2 * nb.h2dot_sq)
        assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_bounded_by_estimate(self, grid8, params):
        u = random_field(grid8, seed=95, amplitude=0.8)
        for m in (1, 2, 4):
            frame = self._frame(grid8, params.alpha, m, seed0=100 + m)
            assert lyapunov_sum(frame, u, params) <= lyapunov_sum_bound(
                m, u, params
            )

    def test_non_orthonormal_frame_rejected(self, grid8, params):
        v = random_field(grid8, seed=96, amplitude=3.0)
        bad = OrthoFrame([v], params.alpha)  # not normalized
        with pytest.raises(CertificateError):
            lyapunov_sum(bad, zero_field(grid8), params)

    def test_non_orthogonal_frame_rejected(self, grid8, params):
        # unit diagonal, off-diagonal Gram entries of 0.6
        q = orthonormalize([random_field(grid8, seed=s) for s in (97, 98)], params.alpha)
        tilted = VectorField(grid8, 0.6 * q.fields[0].hat + 0.8 * q.fields[1].hat)
        bad = OrthoFrame([q.fields[0], tilted], params.alpha)
        assert abs(bad.gram()[0, 1] - 0.6) <= 1e-12
        with pytest.raises(CertificateError):
            lyapunov_sum(bad, zero_field(grid8), params)

    def test_bound_zero_state(self, grid8, params):
        u = zero_field(grid8)
        assert lyapunov_sum_bound(5, u, params) == -5.0 * params.beta


class TestTransportFrame:
    def test_stays_orthonormal(self, grid8, params):
        fields = [random_field(grid8, seed=s) for s in (110, 111)]
        frame = orthonormalize(fields, params.alpha)
        u = random_field(grid8, seed=112, amplitude=0.5)
        out, _ = transport_frame(frame, base_state(u, params), 0.01, 5)
        assert out.gram_defect() <= 1e-10

    def test_zero_base_preserves_span_direction(self, grid8, params):
        v = generate(FieldRecipe("shear", 1.0), grid8)
        frame = orthonormalize([v], params.alpha)
        out, _ = transport_frame(frame, base_state(zero_field(grid8), params), 0.01, 3)
        # pure decay rescales a single mode, so renormalizing recovers it
        assert np.abs(np.abs(out.fields[0].coeffs) - np.abs(frame.fields[0].coeffs)).max() <= 1e-10

    @pytest.mark.parametrize("m", [1, 3])
    def test_no_steps_keeps_the_frame_and_sums_the_operator(self, grid8, params, m):
        frame = orthonormalize([random_field(grid8, seed=113 + i) for i in range(m)], params.alpha)
        u = random_field(grid8, seed=117, amplitude=0.5)
        out, total = transport_frame(frame, base_state(u, params), 0.01, 0)
        assert out is frame
        expected = 0.0
        for w in frame.fields:
            expected += h1alpha_inner(linearized_rhs(w, u, params), w, params.alpha)
        assert total == expected  # bit for bit: the one operator, summed in order

    def test_sum_is_taken_before_the_steps(self, grid8, params):
        frame = orthonormalize([random_field(grid8, seed=s) for s in (118, 119)], params.alpha)
        st = base_state(random_field(grid8, seed=120, amplitude=0.5), params)
        moved, total = transport_frame(frame, st, 0.01, 4)
        assert total == transport_frame(frame, st, 0.01, 0)[1]
        assert moved is not frame and moved.gram_defect() <= 1e-10


class TestTrajectoryGap:
    def test_identical_states_zero_gap(self, grid8, params):
        u0 = random_field(grid8, seed=120, amplitude=0.5)
        f = random_field(grid8, seed=121, amplitude=0.3)
        rep = trajectory_gap(u0, u0.copy(), f, f, params, 0.5, 0.01)
        assert np.all(rep.gap_sq == 0.0)
        assert rep.orbital_stable

    def test_shear_gap_closed_form(self, grid8, params):
        ua = generate(FieldRecipe("shear", 1.0), grid8)
        ub = generate(FieldRecipe("shear", 0.4), grid8)
        f = zero_field(grid8)
        rep = trajectory_gap(ua, ub, f, f, params, 1.0, 0.005, sample_every=20)
        lam = params.nu * (2 * np.pi / grid8.box_len) ** 2 + params.beta
        expected = rep.gap_sq[0] * np.exp(-2 * lam * rep.times)
        assert np.abs(rep.gap_sq - expected).max() <= 1e-8 * rep.gap_sq[0]
        assert rep.orbital_stable
        assert abs(rep.decay_rate + 2 * lam) <= 1e-6

    def test_same_force_reports_eta(self, grid8, params):
        u0 = random_field(grid8, seed=122, amplitude=0.3)
        f = random_field(grid8, seed=123, amplitude=0.2)
        rep = trajectory_gap(u0, zero_field(grid8), f, f, params, 0.2, 0.01)
        f_norm = np.sqrt(norms(f, params.alpha).h1alpha_sq)
        assert rep.eta_value == eta(params, f_norm).eta_value

    def test_different_forces_skip_regime_fields(self, grid8, params):
        u0 = random_field(grid8, seed=124, amplitude=0.3)
        fa = random_field(grid8, seed=125, amplitude=0.2)
        fb = random_field(grid8, seed=126, amplitude=0.2)
        rep = trajectory_gap(u0, u0.copy(), fa, fb, params, 0.2, 0.01)
        assert rep.eta_value is None
        assert rep.orbital_stable is None
        assert rep.decay_rate is None


class TestSteadyConvergence:
    def test_converges_monotonically(self, grid8, params):
        f = random_field(grid8, seed=130, amplitude=0.2)
        steady = solve_stationary(f, params, tol=1e-13)
        u0 = random_field(grid8, seed=131, amplitude=0.5)
        rep = steady_convergence(u0, f, params, steady.U, 3.0, 0.01, sample_every=10)
        assert rep.monotone
        assert rep.profile_envelope_ok
        assert rep.r[-1] < 1e-2 * rep.r[0]

    def test_start_at_steady_state(self, grid8, params):
        f = generate(FieldRecipe("shear", 0.3), grid8)
        steady = solve_stationary(f, params, tol=1e-13)
        rep = steady_convergence(
            steady.U, f, params, steady.U, 0.5, 0.01, sample_every=10
        )
        assert np.all(rep.r <= 1e-10)


class TestSampledStateTransforms:
    """Each sampled state is transformed once: the consumers read its
    u_phys, and the next step reuses it."""

    N_STEPS = 6

    @pytest.fixture
    def inverse_transforms(self, monkeypatch):
        """Counts the inverse transforms: one irfftn each."""
        calls = []
        irfftn = sfft.irfftn

        def counted(*args, **kwargs):
            calls.append(1)
            return irfftn(*args, **kwargs)

        monkeypatch.setattr(sfft, "irfftn", counted)
        return calls

    def test_steady_convergence_count(self, grid8, params, inverse_transforms):
        f = random_field(grid8, seed=132, amplitude=0.2)
        U = solve_stationary(f, params, tol=1e-13).U
        u0 = random_field(grid8, seed=133, amplitude=0.5)
        inverse_transforms.clear()
        steady_convergence(u0, f, params, U, 0.01 * self.N_STEPS, 0.01)
        # U once, each of the N + 1 samples once, each predictor once
        assert len(inverse_transforms) == 2 * self.N_STEPS + 2

    def test_zero_force_decay_count(self, grid8, params, inverse_transforms):
        u0 = random_field(grid8, seed=141, amplitude=0.8)
        zero_force_decay(u0, params, 0.01 * self.N_STEPS, 0.01)
        assert len(inverse_transforms) == 2 * self.N_STEPS + 1

    @pytest.mark.parametrize("every", [1, 3])
    def test_r_inf_matches_transform_of_difference(self, grid16, params, every):
        f = random_field(grid16, seed=134, amplitude=0.2)
        U = solve_stationary(f, params, tol=1e-13).U
        u0 = random_field(grid16, seed=135, amplitude=0.5)
        rep = steady_convergence(u0, f, params, U, 0.12, 0.01, sample_every=every)
        states = sampled_states(SimState(u0, 0.0, params, f), 0.12, 0.01, every)
        ref = np.array([r_inf_reference(s.u, U) for s in states])
        assert len(rep.r_inf) == len(ref)
        assert np.abs(rep.r_inf - ref).max() <= 1e-13 * ref.max()


class TestZeroForceDecay:
    def test_shear_rates_and_envelopes(self, grid8, params):
        u0 = generate(FieldRecipe("shear", 1.0), grid8)
        rep = zero_force_decay(u0, params, 3.0, 0.005, p_list=(2, 4, np.inf), sample_every=20)
        lam = params.nu * (2 * np.pi / grid8.box_len) ** 2 + params.beta
        # a single mode decays at the linear rate in every norm
        for p in (2, 4, np.inf):
            assert rep.envelopes_ok[p]
            assert abs(rep.fitted_rates[p] + lam) <= 1e-6

    def test_random_field_envelopes(self, grid8, params):
        u0 = random_field(grid8, seed=140, amplitude=0.8)
        rep = zero_force_decay(u0, params, 3.0, 0.01, sample_every=10)
        assert all(rep.envelopes_ok.values())
        # L2 decay at least as fast as the damping-only envelope rate
        assert rep.fitted_rates[2] <= -params.beta + 1e-8

    @pytest.mark.parametrize("p_list", [(0,), (2, -1), (np.nan,), (-np.inf,), (0.5, 2)])
    def test_rejects_p_below_one(self, grid8, params, p_list):
        u0 = generate(FieldRecipe("shear", 1.0), grid8)
        with pytest.raises(ValueError, match="p >= 1"):
            zero_force_decay(u0, params, 0.1, 0.01, p_list=p_list)
