import copy
import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bardina.attractor
import bardina.spectral
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
from bardina.attractor import gram, transport_frame
from bardina.dynamics import SimState, sampled_states
from bardina.spectral import CertificateError, modes

from conftest import half_hat, random_field, zero_field
from oracles import (
    dealias_mask,
    gram_schmidt_reference,
    half_spectrum,
    lp_norm,
    magnitude,
    oracle_linearized_transport,
    orthonormalize_reference,
    r_inf_reference,
    steady_envelope_reference,
    sup_distance_reference,
    transport_frame_reference,
    zero_force_fit_reference,
)


def base_state(u, params):
    """An unforced state at u: transport_frame reads its u, u_phys and params."""
    return SimState(u, 0.0, params, zero_field(u.grid))


def gram_deviation(frame, alpha):
    """max |G - I| of the frame's Gram matrix in H^1_alpha."""
    return np.abs(gram(frame, alpha) - np.eye(len(frame))).max()


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
        assert gram_deviation(frame, params.alpha) <= 1e-12

    def test_first_direction_preserved(self, grid8, params):
        v = random_field(grid8, seed=83)
        frame = orthonormalize([v.copy()], params.alpha)
        nrm = np.sqrt(norms(v, params.alpha).h1alpha_sq)
        assert np.abs(frame[0].coeffs - v.coeffs / nrm).max() <= 1e-12

    def test_rank_deficiency_detected(self, grid8, params):
        v = random_field(grid8, seed=84)
        w = VectorField(grid8, 2.0 * v.hat)
        with pytest.raises(ValueError):
            orthonormalize([v, w], params.alpha)

    @pytest.mark.parametrize("m", [1, 3, 5])
    def test_gram_matches_pairwise_inner_products(self, grid16, params, m):
        fields = [random_field(grid16, seed=85 + i, k_max=4) for i in range(m)]
        loop = np.array(
            [[h1alpha_inner(v, w, params.alpha) for w in fields] for v in fields]
        )
        g = gram(fields, params.alpha)  # not orthonormal: a full matrix
        assert np.array_equal(np.tril(g), np.tril(loop))  # one weight, one dot product
        assert np.abs(g - loop).max() <= 1e-14 * np.abs(loop).max()

    @pytest.mark.parametrize("fraction", [0.5, 2.0 / 3.0, 1.0])
    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_matches_reference_gram_schmidt(self, params, m, n, fraction):
        grid = GridSpec(n, dealias_fraction=fraction)
        fields = [random_field(grid, seed=130 + i) for i in range(m)]
        frame = orthonormalize([v.copy() for v in fields], params.alpha)
        for got, ref in zip(frame, gram_schmidt_reference(fields, params.alpha)):
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
        assert gram_deviation(frame, params.alpha) <= 1e-12

    def test_all_zero_rejected(self, grid8, params):
        with pytest.raises(ValueError):
            orthonormalize([zero_field(grid8)], params.alpha)

    @pytest.mark.parametrize("n, m", [(8, 3), (16, 8)])
    def test_in_place_matches_the_copies_bitwise(self, params, n, m):
        # w -= c q and w /= |w| in the inputs' hats give the bits of w / |w|
        # in a new array, from copies; the fields returned are on those hats
        fields = [random_field(GridSpec(n), seed=150 + i) for i in range(m)]
        ref = orthonormalize_reference(copy.deepcopy(fields), params.alpha)
        frame = orthonormalize(fields, params.alpha)
        for got, v, r in zip(frame, fields, ref):
            assert got.hat is v.hat and got.hat.tobytes() == r.tobytes()

    def test_empty_rejected(self, params):
        with pytest.raises(ValueError):
            orthonormalize([], params.alpha)

    def test_fields_on_two_grids_rejected(self, grid8, params):
        # one box shape, two box lengths: the second field's grid is not the first's
        other = GridSpec(8, box_len=1.0)
        fields = [random_field(grid8, seed=155), random_field(other, seed=156)]
        for f in (orthonormalize, gram):
            with pytest.raises(ValueError, match="do not share a grid") as info:
                f(fields, params.alpha)
            assert str(grid8) in str(info.value) and str(other) in str(info.value)


class TestLyapunovSum:
    def _frame(self, grid, alpha, m, seed0=90):
        fields = [random_field(grid, seed=seed0 + i) for i in range(m)]
        return orthonormalize(fields, alpha)

    def test_zero_base_closed_form(self, grid8, params):
        m = 3
        frame = self._frame(grid8, params.alpha, m)
        got = lyapunov_sum(frame, zero_field(grid8), params)
        expected = -params.beta * m
        for w in frame:
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
        bad = [v]  # not normalized
        with pytest.raises(CertificateError):
            lyapunov_sum(bad, zero_field(grid8), params)

    def test_non_orthogonal_frame_rejected(self, grid8, params):
        # unit diagonal, off-diagonal Gram entries of 0.6
        q = orthonormalize([random_field(grid8, seed=s) for s in (97, 98)], params.alpha)
        tilted = VectorField(grid8, 0.6 * q[0].hat + 0.8 * q[1].hat)
        bad = [q[0], tilted]
        assert abs(gram(bad, params.alpha)[0, 1] - 0.6) <= 1e-12
        with pytest.raises(CertificateError):
            lyapunov_sum(bad, zero_field(grid8), params)

    def test_frame_orthonormal_in_another_alpha_rejected(self, grid8):
        # orthonormal for alpha = 1, checked, summed and moved in the state's alpha
        frame = self._frame(grid8, 1.0, 2, seed0=99)
        run = PhysParams(alpha=0.3, beta=1.0, nu=0.5)
        assert gram_deviation(frame, 1.0) <= 1e-12 and gram_deviation(frame, run.alpha) > 0.5
        with pytest.raises(CertificateError, match="not orthonormal"):
            transport_frame(frame, base_state(random_field(grid8, seed=100), run), 0.01, 2)

    def test_bound_zero_state(self, grid8, params):
        u = zero_field(grid8)
        assert lyapunov_sum_bound(5, u, params) == -5.0 * params.beta


class TestTransportFrame:
    def test_stays_orthonormal(self, grid8, params):
        fields = [random_field(grid8, seed=s) for s in (110, 111)]
        frame = orthonormalize(fields, params.alpha)
        u = random_field(grid8, seed=112, amplitude=0.5)
        out, _ = transport_frame(frame, base_state(u, params), 0.01, 5)
        assert gram_deviation(out, params.alpha) <= 1e-10

    def test_zero_base_preserves_span_direction(self, grid8, params):
        v = generate(FieldRecipe("shear", 1.0), grid8)
        frame = orthonormalize([v], params.alpha)
        kept = copy.deepcopy(frame)  # the transport consumes the frame
        out, _ = transport_frame(frame, base_state(zero_field(grid8), params), 0.01, 3)
        # pure decay rescales a single mode, so renormalizing recovers it
        assert np.abs(np.abs(out[0].coeffs) - np.abs(kept[0].coeffs)).max() <= 1e-10

    @pytest.mark.parametrize("m", [1, 3])
    def test_no_steps_keeps_the_frame_and_sums_the_operator(self, grid8, params, m):
        frame = orthonormalize([random_field(grid8, seed=113 + i) for i in range(m)], params.alpha)
        u = random_field(grid8, seed=117, amplitude=0.5)
        out, total = transport_frame(frame, base_state(u, params), 0.01, 0)
        assert out is frame
        expected = 0.0
        for w in frame:
            expected += h1alpha_inner(linearized_rhs(w, u, params), w, params.alpha)
        assert total == expected  # bit for bit: the one operator, summed in order

    @pytest.mark.parametrize("n, fraction", [(8, 2 / 3), (16, 2 / 3), (16, 1.0)])
    @pytest.mark.parametrize("m, n_steps", [(1, 1), (3, 4), (8, 2)])
    def test_in_place_matches_the_reference_bitwise(self, params, n, fraction, m, n_steps):
        # each field moved in its own hat, np.multiply(expz, w, out=w) and
        # w += w1 * nl, then orthonormalized in place: the bits of the
        # formulas that made new arrays, run on a copy; the input frame's
        # hats now hold the moved frame
        grid = GridSpec(n, dealias_fraction=fraction)
        frame = orthonormalize([random_field(grid, seed=160 + i) for i in range(m)],
                               params.alpha)
        st = base_state(random_field(grid, seed=170, amplitude=0.5), params)
        ref, ref_total = transport_frame_reference(copy.deepcopy(frame), st, 0.01, n_steps)
        moved, total = transport_frame(frame, st, 0.01, n_steps)
        assert total == ref_total
        for got, w, r in zip(moved, frame, ref):
            assert got.hat is w.hat and got.hat.tobytes() == r.tobytes()

    def test_sum_is_taken_before_the_steps(self, grid8, params):
        frame = orthonormalize([random_field(grid8, seed=s) for s in (118, 119)], params.alpha)
        st = base_state(random_field(grid8, seed=120, amplitude=0.5), params)
        kept = copy.deepcopy(frame)
        moved, total = transport_frame(frame, st, 0.01, 4)
        assert total == transport_frame(kept, st, 0.01, 0)[1]
        assert moved is not frame and gram_deviation(moved, params.alpha) <= 1e-10
        assert [w.hat.tobytes() for w in frame] == [w.hat.tobytes() for w in moved]

    def test_moves_the_frame_without_a_second_frame(self, params):
        # n = 32, m = 8: each field moves in its own hat (a box array of
        # 0.23 MB), so the traced peak is one field's scratch: its nl, the
        # sum's operator and the kernel's temporaries, 1.53 MB or 6.6 box
        # arrays.  Moving each field into a fresh array adds the 8 moved
        # fields, held beside the input frame until it returns: 14.6 box
        # arrays.  The bound, 8 box arrays, lies between
        grid = GridSpec(32)
        frame = orthonormalize([random_field(grid, seed=180 + i) for i in range(8)], params.alpha)
        st = base_state(random_field(grid, seed=190, amplitude=0.5), params)
        st.u_phys
        frame, _ = transport_frame(frame, st, 0.01, 2)  # warm-up: symbols and work arrays
        tracemalloc.start()
        try:
            transport_frame(frame, st, 0.01, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        box = 3 * math.prod(grid.box_shape) * 16
        assert peak < 8 * box


class TestTrajectoryGap:
    def test_identical_states_zero_gap(self, grid8, params):
        u0 = random_field(grid8, seed=120, amplitude=0.5)
        f = random_field(grid8, seed=121, amplitude=0.3)
        rep = trajectory_gap(u0, u0.copy(), f, params, 0.5, 0.01)
        assert np.all(rep.gap_sq == 0.0)
        assert rep.orbital_stable

    def test_shear_gap_closed_form(self, grid8, params):
        ua = generate(FieldRecipe("shear", 1.0), grid8)
        ub = generate(FieldRecipe("shear", 0.4), grid8)
        f = zero_field(grid8)
        rep = trajectory_gap(ua, ub, f, params, 1.0, 0.005, sample_every=20)
        lam = params.nu * (2 * np.pi / grid8.box_len) ** 2 + params.beta
        expected = rep.gap_sq[0] * np.exp(-2 * lam * rep.times)
        assert np.abs(rep.gap_sq - expected).max() <= 1e-8 * rep.gap_sq[0]
        assert rep.orbital_stable
        assert abs(rep.decay_rate + 2 * lam) <= 1e-6

    def test_same_force_reports_eta(self, grid8, params):
        u0 = random_field(grid8, seed=122, amplitude=0.3)
        f = random_field(grid8, seed=123, amplitude=0.2)
        rep = trajectory_gap(u0, zero_field(grid8), f, params, 0.2, 0.01)
        f_norm = np.sqrt(norms(f, params.alpha).h1alpha_sq)
        assert rep.eta_value == eta(params, f_norm).eta_value


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

    @pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
    @pytest.mark.parametrize("n, scale", [(8, 1e-12), (16, 1.0), (32, 1e8)])
    def test_sup_distance_is_the_max_magnitude_bitwise(self, n, scale, strided):
        # r_inf in one component-sized temporary, half the x rows at a time:
        # the sums of the whole difference in the same order, and the sqrt of
        # the max is the max of the sqrt; samples may be views of larger arrays
        a, b = scale * np.random.default_rng(n).standard_normal((2, 3, n, n, n + 3 * strided))
        a, b = a[..., :n], b[..., :n]
        got = bardina.attractor._sup_distance(a, b).tobytes()
        assert got == magnitude(a - b).max().tobytes()
        assert got == sup_distance_reference(a, b).tobytes()
        for half in (slice(0, n // 2), slice(n // 2, n)):  # a NaN in either half
            c = b.copy()
            c[2, half][1, 2, 3] = np.nan
            assert np.isnan(bardina.attractor._sup_distance(a, c))

    def test_sup_distance_holds_one_component(self):
        # n = 64: a component of samples is 2.1 MB, the difference of the
        # samples 6.3 MB
        a, b = np.random.default_rng(64).standard_normal((2, 3, 64, 64, 64))
        tracemalloc.start()
        try:
            bardina.attractor._sup_distance(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64**3 * 8 + 0.1e6


@st.composite
def late_series(draw):
    """(times, values) of a sampled run: 1 to 12 equally spaced times from
    t0 in [0, 2], so that fewer than two, or all, reach t >= 1 and the first
    that does need not be 1; values on a decaying envelope, each scaled by
    a factor in [0, 1.5], and from some sample on zero when it reaches zero."""
    k = draw(st.integers(1, 12))
    t0 = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 2.0))
    times = t0 + draw(st.floats(0.05, 1.0)) * np.arange(k)
    decay = np.exp(draw(st.floats(-3.0, 0.0)) * times)
    factors = np.array(draw(st.lists(st.floats(0.0, 1.5), min_size=k, max_size=k)))
    values = draw(st.floats(1e-6, 1e6)) * decay * factors
    if draw(st.booleans()):  # the run reaches zero
        values[draw(st.integers(0, k - 1)):] = 0.0
    return times, values


def slope_scale(times, values):
    """The scale of a fitted slope of log values over times: 1 plus the
    largest |log v| over the spread of the times (1 when there is no fit)."""
    positive = values > 0
    if positive.sum() < 2 or np.ptp(times) == 0:
        return 1.0
    return np.abs(np.log(values[positive])).max() / np.ptp(times) + 1.0


def faked_decay(times, vals, beta, p):
    """(fitted rate, envelope boolean) of zero_force_decay for p on a faked
    run whose L^p norms at `times` are `vals`."""
    states = [SimpleNamespace(t=t, u_phys=v) for t, v in zip(times, vals)]
    params = PhysParams(alpha=1.0, beta=beta, nu=0.5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bardina.attractor, "sampled_states", lambda *args: iter(states))
        mp.setattr(bardina.attractor, "_lp_norms", lambda v, p_list, dx: [v] * len(p_list))
        rep = zero_force_decay(zero_field(GridSpec(8)), params, 1.0, 0.1, p_list=(p,))
    return rep.fitted_rates[p], rep.envelopes_ok[p]


class TestLateFits:
    """The closed-form slope and the one late-time envelope check."""

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(2, 40), t0=st.floats(0.0, 50.0), step=st.floats(1e-3, 5.0),
           rate=st.floats(-2.0, 2.0), log_c=st.floats(-200.0, 200.0),
           noise=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_log_slope_matches_polyfit(self, k, t0, step, rate, log_c, noise, seed):
        t = t0 + step * np.arange(k)
        y = np.exp(log_c + rate * t + noise * np.random.default_rng(seed).standard_normal(k))
        got = bardina.attractor._log_slope(t, y)
        # the exact least-squares slope of the rounded data, in rationals
        ts, ls = [Fraction(v) for v in t], [Fraction(v) for v in np.log(y)]
        tm, lm = sum(ts) / k, sum(ls) / k
        exact = float(sum((a - tm) * (b - lm) for a, b in zip(ts, ls))
                      / sum((a - tm) ** 2 for a in ts))
        # relative to the slope, or to the data's scale where it is near 0
        scale = max(abs(exact), np.abs(np.log(y)).max() / np.ptp(t))
        assert abs(got - exact) <= 1e-13 * scale
        # polyfit's solve loses digits as the times crowd far from 0
        ref = np.polyfit(t, np.log(y), 1)[0]
        assert abs(got - ref) <= 1e-12 * scale * (1.0 + np.abs(t).max() / np.ptp(t))

    @settings(max_examples=300, deadline=None)
    @given(series=late_series())
    def test_steady_envelope_matches_the_former_check(self, series):
        times, values = series
        got = bardina.attractor._late_envelope(times, values, lambda t: t**-0.75)
        assert got == steady_envelope_reference(times, values)

    def test_late_envelope_cases(self):
        def env(s):
            return np.exp(-s)

        t = np.array([0.5, 1.5, 2.5, 3.5])
        on = 2.0 * env(t)
        assert bardina.attractor._late_envelope(t, on, env)  # on the envelope
        assert bardina.attractor._late_envelope(t, 9.0 * on * [9, 1, 1, 1], env)  # early: free
        assert not bardina.attractor._late_envelope(t, on * [1, 1, 1.001, 1], env)
        assert bardina.attractor._late_envelope(t, on * [1, 1, 0, 0], env)  # reaches zero
        assert bardina.attractor._late_envelope(t[:2], on[:2] * [1, 50], env)  # one late time


class TestSampledStateTransforms:
    """Each sampled state is transformed once: the consumers read its
    u_phys, and the next step reuses it."""

    N_STEPS = 6

    @pytest.fixture
    def inverse_transforms(self, monkeypatch):
        """Counts the inverse transforms: one inverse z pass each."""
        calls = []
        z_dft = bardina.spectral._z_dft

        def counted(a, grid, forward, out):
            if not forward:
                calls.append(1)
            return z_dft(a, grid, forward, out)

        monkeypatch.setattr(bardina.spectral, "_z_dft", counted)
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

    @pytest.mark.parametrize("n, scale", [(8, 1e-12), (16, 1.0), (32, 1e8)])
    def test_lp_norms_in_one_temporary_bitwise(self, n, scale):
        # |u|^2 summed in place, its sqrt and each |u|^p in the one copy:
        # the bits of |u| and |u|^p in new arrays
        a = scale * np.random.default_rng(n).standard_normal((3, n, n, n))
        before = a.copy()
        p_list, dx = (2, 4, np.inf, 1, 3.5), 2 * np.pi / n
        got = bardina.attractor._lp_norms(a, p_list, dx)
        expected = [lp_norm(magnitude(a), p, dx) for p in p_list]
        assert np.array(got).tobytes() == np.array(expected).tobytes()
        assert a.tobytes() == before.tobytes()

    def test_lp_norms_hold_two_components(self):
        # n = 32: a component of samples is 0.26 MB, a copy of the samples
        # 0.79 MB
        a = np.random.default_rng(32).standard_normal((3, 32, 32, 32))
        tracemalloc.start()
        try:
            bardina.attractor._lp_norms(a, (2, 4, np.inf, 3.5), 2 * np.pi / 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 32**3 * 8 + 0.05e6

    @settings(max_examples=150, deadline=None)
    @given(series=late_series(), p=st.sampled_from([1, 2, 3.5, np.inf]),
           beta=st.floats(0.1, 3.0))
    def test_fits_match_the_former_inline_fit(self, series, p, beta):
        # the envelope booleans of the former check, judged on every series,
        # and its np.polyfit rates
        times, vals = series
        rate, ok = faked_decay(times, vals, beta, p)
        ref_rate, ref_ok = zero_force_fit_reference(times, vals, beta, p)
        assert ok == ref_ok
        assert abs(rate - ref_rate) <= 1e-12 * slope_scale(times, vals)

    @pytest.mark.parametrize("p", [2, np.inf])
    def test_late_zeros_judged_by_the_envelope(self, p):
        t = np.arange(4.0)
        # an underflow to exactly 0 stays under the envelope; no rate is fit
        assert faked_decay(t, np.array([1.0, 0.3, 0.1, 0.0]), 1.0, p) == (0.0, True)
        assert faked_decay(t, np.array([1.0, 0.3, np.nan, 0.01]), 1.0, p) == (0.0, False)
        assert faked_decay(t, np.array([1.0, 0.0, 0.1, 0.01]), 1.0, p) == (0.0, False)
        assert faked_decay(t, np.zeros(4), 1.0, p) == (0.0, True)

    @pytest.mark.parametrize("p_list", [(0,), (2, -1), (np.nan,), (-np.inf,), (0.5, 2)])
    def test_rejects_p_below_one(self, grid8, params, p_list):
        u0 = generate(FieldRecipe("shear", 1.0), grid8)
        with pytest.raises(ValueError, match="p >= 1"):
            zero_force_decay(u0, params, 0.1, 0.01, p_list=p_list)
