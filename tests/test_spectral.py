import ast
import re
import tracemalloc
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import fft as sfft

import bardina
from bardina import (
    GridSpec,
    SpectralField,
    VectorField,
    dealias,
    divergence,
    forward_transform,
    gradient,
    h1alpha_inner,
    helmholtz_filter,
    inverse_transform,
    laplacian,
    leray_project,
    linearized_rhs,
    nonlinear_term,
    norms,
    pressure_from_velocity,
)
from bardina.spectral import (
    CertificateError,
    _bilinear_symbols,
    _blocks,
    bilinear,
    full_spectrum,
    mode_indices,
    modes,
)

from conftest import half_hat, random_field, random_scalar_samples
from oracles import (
    dealias_mask,
    dft_oracle,
    full_transform_bilinear,
    half_spectrum,
    hermitian_defect,
    idft_oracle,
    oracle_parseval_l2,
)


FRACTIONS = [0.5, 2 / 3, 1.0]
kernel_cases = settings(max_examples=12, deadline=None)


class TestTransforms:
    def test_zero_round_trip(self, full8):
        z = np.zeros((8, 8, 8))
        f = forward_transform(z, full8)
        assert np.all(f.coeffs == 0)
        assert np.all(inverse_transform(f) == 0)

    def test_cosine_two_modes(self, full8):
        x = np.arange(8) * full8.dx
        X = np.meshgrid(x, x, x, indexing="ij")[0]
        f = forward_transform(np.cos(2 * np.pi * X / full8.box_len), full8)
        nz = np.abs(f.coeffs) > 1e-13
        assert nz.sum() == 2
        assert abs(f.coeffs[1, 0, 0] - 0.5) < 1e-13
        assert abs(f.coeffs[-1, 0, 0] - 0.5) < 1e-13

    def test_matches_direct_dft(self, full8):
        samples = random_scalar_samples(8, seed=1)
        f = forward_transform(samples, full8)
        expected = dft_oracle(samples)
        assert np.abs(f.coeffs - expected).max() <= 1e-12

    def test_round_trip_random(self, full8):
        samples = random_scalar_samples(8, seed=2)
        back = inverse_transform(forward_transform(samples, full8))
        assert np.abs(back - samples).max() <= 1e-12

    def test_inverse_matches_direct_idft(self, full8):
        f = forward_transform(random_scalar_samples(8, seed=3), full8)
        direct = idft_oracle(f.coeffs)
        assert np.abs(inverse_transform(f) - np.real(direct)).max() <= 1e-12

    def test_rejects_non_cubic(self):
        with pytest.raises(ValueError):
            forward_transform(np.zeros((8, 8, 4)))

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            forward_transform(np.zeros((7, 7, 7)))

    def test_hermitian_symmetry(self, full8):
        f = forward_transform(random_scalar_samples(8, seed=4), full8)
        assert hermitian_defect(f) <= 1e-12


class TestHelmholtzFilter:
    def test_constant_unchanged(self, full8):
        c = np.full((8, 8, 8), 3.7)
        u = VectorField(full8, np.stack([forward_transform(c, full8).hat] * 3))
        out = helmholtz_filter(u, 2.0)
        assert np.abs(out.coeffs - u.coeffs).max() <= 1e-14

    def test_single_mode_halved(self):
        # alpha = L/(2 pi) makes alpha^2 |k|^2 = 1 at the lowest mode
        grid = GridSpec(8, box_len=4.0)
        alpha = grid.box_len / (2 * np.pi)
        x = np.arange(8) * grid.dx
        X = np.meshgrid(x, x, x, indexing="ij")[0]
        field = forward_transform(np.cos(2 * np.pi * X / grid.box_len), grid)
        u = VectorField(grid, np.stack([field.hat, 0 * field.hat, 0 * field.hat]))
        out = helmholtz_filter(u, alpha)
        assert np.abs(out.coeffs[0] - 0.5 * field.coeffs).max() <= 1e-13

    def test_per_mode_oracle(self, full8):
        u = random_field(full8, seed=5)
        alpha = 0.7
        out = helmholtz_filter(u, alpha)
        k = modes(full8).k
        ksq = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
        expected = u.hat / (1.0 + alpha**2 * ksq)
        assert np.abs(out.hat - expected).max() <= 1e-12

    def test_preserves_div_free(self, grid8):
        u = random_field(grid8, seed=6)
        assert helmholtz_filter(u, 1.3).div_free


class TestLerayProjection:
    def test_annihilates_gradients(self, full8):
        x = np.arange(8) * full8.dx
        X = np.meshgrid(x, x, x, indexing="ij")[0]
        s = forward_transform(np.sin(2 * np.pi * X / full8.box_len), full8)
        g = gradient(s)
        out = leray_project(g)
        assert np.abs(out.coeffs).max() <= 1e-13

    def test_fixes_shear(self, full8):
        x = np.arange(8) * full8.dx
        Y = np.meshgrid(x, x, x, indexing="ij")[1]
        u1 = forward_transform(np.sin(2 * np.pi * Y / full8.box_len), full8).hat
        u = VectorField(full8, np.stack([u1, 0 * u1, 0 * u1]))
        out = leray_project(u)
        assert np.abs(out.coeffs - u.coeffs).max() <= 1e-13

    def test_output_divergence_free(self, full8):
        rng = np.random.default_rng(11)
        raw = rng.standard_normal((3, 8, 8, 8))
        u = VectorField(
            full8, np.stack([forward_transform(raw[i], full8).hat for i in range(3)])
        )
        out = leray_project(u)
        k = modes(full8).k
        kdotu = np.abs(np.sum(k * out.hat, axis=0))
        assert kdotu.max() <= 1e-12

    def test_componentwise_oracle(self, full8):
        rng = np.random.default_rng(12)
        raw = rng.standard_normal((3, 8, 8, 8))
        u = VectorField(
            full8, np.stack([forward_transform(raw[i], full8).hat for i in range(3)])
        )
        out = leray_project(u)
        k = modes(full8).k
        m = mode_indices(full8)
        for trial in range(20):
            idx = tuple(rng.integers(0, full8.half_shape))
            kv = np.array([k[a][idx] for a in range(3)])
            uv = np.array([u.hat[a][idx] for a in range(3)])
            ksq = kv @ kv
            expect = uv if ksq == 0 else uv - kv * (kv @ uv) / ksq
            got = np.array([out.hat[a][idx] for a in range(3)])
            assert np.abs(got - expect).max() <= 1e-12

    def test_idempotent(self, full8):
        rng = np.random.default_rng(13)
        raw = rng.standard_normal((3, 8, 8, 8))
        u = VectorField(
            full8, np.stack([forward_transform(raw[i], full8).hat for i in range(3)])
        )
        once = leray_project(u)
        twice = leray_project(once)
        assert np.abs(twice.coeffs - once.coeffs).max() <= 1e-13

    def test_identity_on_div_free(self, full8):
        u = random_field(full8, seed=14)
        out = leray_project(u)
        assert np.abs(out.coeffs - u.coeffs).max() <= 1e-12

    def test_commutes_with_filter(self, full8):
        rng = np.random.default_rng(15)
        raw = rng.standard_normal((3, 8, 8, 8))
        u = VectorField(
            full8, np.stack([forward_transform(raw[i], full8).hat for i in range(3)])
        )
        a = helmholtz_filter(leray_project(u), 0.9)
        b = leray_project(helmholtz_filter(u, 0.9))
        assert np.abs(a.coeffs - b.coeffs).max() <= 1e-13


class TestDerivatives:
    def test_laplacian_eigenfunction(self, full8):
        x = np.arange(8) * full8.dx
        X = np.meshgrid(x, x, x, indexing="ij")[0]
        s = forward_transform(np.sin(2 * np.pi * X / full8.box_len), full8)
        out = laplacian(s)
        expect = -((2 * np.pi / full8.box_len) ** 2) * s.coeffs
        assert np.abs(out.coeffs - expect).max() <= 1e-13

    def test_div_grad_is_laplacian(self, full8):
        s = forward_transform(random_scalar_samples(8, seed=16), full8)
        a = divergence(gradient(s))
        b = laplacian(s)
        assert np.abs(a.coeffs - b.coeffs).max() <= 1e-12

    def test_gradient_of_constant(self, full8):
        c = forward_transform(np.full((8, 8, 8), 2.5), full8)
        assert np.abs(gradient(c).coeffs).max() <= 1e-14

    def test_div_after_leray_vanishes(self, full8):
        rng = np.random.default_rng(17)
        raw = rng.standard_normal((3, 8, 8, 8))
        u = VectorField(
            full8, np.stack([forward_transform(raw[i], full8).hat for i in range(3)])
        )
        d = divergence(leray_project(u))
        assert np.abs(d.coeffs).max() <= 1e-12


class TestDealias:
    def test_below_cutoff_unchanged(self, grid8, full8):
        u = random_field(full8, seed=18, k_max=2)
        out = dealias(u, grid8)
        assert out.grid == grid8
        assert np.abs(out.coeffs - u.coeffs).max() == 0.0

    def test_single_high_mode_removed(self, grid8, full8):
        coeffs = np.zeros((3,) + full8.box_shape, dtype=np.complex128)
        coeffs[0, 3, 0, 0] = 1.0  # |m| = 3 > cutoff 2
        out = dealias(VectorField(full8, coeffs), grid8)
        assert np.abs(out.coeffs).max() == 0.0

    def test_mask_matches_index_oracle(self, grid8, full8):
        m = mode_indices(grid8)
        cutoff = int(np.floor(grid8.dealias_fraction * grid8.n / 2))
        expected = np.zeros((8, 8, 8), dtype=bool)
        for a in range(8):
            for b in range(8):
                for c in range(8):
                    expected[a, b, c] = (
                        abs(m[a]) <= cutoff and abs(m[b]) <= cutoff and abs(m[c]) <= cutoff
                    )
        assert np.array_equal(dealias_mask(grid8), half_spectrum(expected))
        ones = VectorField(full8, np.ones((3,) + full8.box_shape, dtype=np.complex128))
        kept = half_hat(dealias(ones, grid8)) != 0
        assert np.array_equal(kept, np.stack([dealias_mask(grid8)] * 3))

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("fraction", FRACTIONS)
    @kernel_cases
    @given(seed=st.integers(0, 2**32 - 1))
    def test_restriction(self, n, fraction, seed):
        grid = GridSpec(n, dealias_fraction=fraction)
        v = general_field(grid, seed)  # on the fraction-1 grid
        r = dealias(v, grid)
        assert np.array_equal(half_hat(r), half_hat(v) * dealias_mask(grid))
        # 1 -> 2/3 -> 1/2 is 1 -> 1/2
        mid, low = GridSpec(n, dealias_fraction=2 / 3), GridSpec(n, dealias_fraction=0.5)
        assert dealias(dealias(v, mid), low).hat.tobytes() == dealias(v, low).hat.tobytes()
        assert dealias(r, grid).hat is r.hat and dealias(v, v.grid).hat is v.hat
        for other in (
            GridSpec(n, dealias_fraction=1.0),  # a larger cutoff, unless grid's is n/2
            GridSpec(n - 2, dealias_fraction=fraction),
            GridSpec(n, box_len=1.0, dealias_fraction=fraction),
        ):
            if other != grid:
                with pytest.raises(ValueError, match="does not restrict"):
                    dealias(r, other)


class TestNorms:
    def test_zero_field(self, grid8):
        u = VectorField(grid8, np.zeros((3,) + grid8.box_shape, dtype=np.complex128))
        nb = norms(u, 1.0)
        assert nb.l2_sq == nb.h1dot_sq == nb.h2dot_sq == nb.h1alpha_sq == 0.0

    def test_single_mode_parseval(self, grid8):
        L = grid8.box_len
        x = np.arange(8) * grid8.dx
        X = np.meshgrid(x, x, x, indexing="ij")[0]
        u1 = forward_transform(np.sin(2 * np.pi * X / L), grid8).hat
        u = VectorField(grid8, np.stack([u1, 0 * u1, 0 * u1]))
        nb = norms(u, 1.0)
        ksq = (2 * np.pi / L) ** 2
        assert abs(nb.l2_sq - L**3 / 2) <= 1e-10
        assert abs(nb.h1dot_sq - ksq * L**3 / 2) <= 1e-10
        assert abs(nb.h2dot_sq - ksq**2 * L**3 / 2) <= 1e-10

    def test_h1alpha_consistency(self, grid8):
        u = random_field(grid8, seed=19)
        alpha = 1.7
        nb = norms(u, alpha)
        assert nb.h1alpha_sq == nb.l2_sq + alpha**2 * nb.h1dot_sq

    def test_parseval_against_quadrature(self, grid8):
        u = random_field(grid8, seed=20)
        phys = np.stack(
            [inverse_transform(u.component(i)) for i in range(3)]
        )
        quad = oracle_parseval_l2(phys, grid8.dx)
        nb = norms(u, 1.0)
        assert abs(quad - nb.l2_sq) <= 1e-10 * max(nb.l2_sq, 1.0)


class TestH1AlphaInner:
    def test_orthogonal_single_modes(self, grid8):
        a = np.zeros((3,) + grid8.box_shape, dtype=np.complex128)
        b = np.zeros((3,) + grid8.box_shape, dtype=np.complex128)
        a[0, 1, 0, 0] = a[0, -1, 0, 0] = 0.5
        b[0, 0, 2, 0] = b[0, 0, -2, 0] = 0.5
        va, vb = VectorField(grid8, a), VectorField(grid8, b)
        assert abs(h1alpha_inner(va, vb, 1.0)) <= 1e-14

    def test_diagonal_matches_norm(self, grid8):
        u = random_field(grid8, seed=21)
        alpha = 0.8
        assert abs(h1alpha_inner(u, u, alpha) - norms(u, alpha).h1alpha_sq) <= 1e-12

    def test_against_parseval_oracle(self, grid8):
        v = random_field(grid8, seed=22)
        w = random_field(grid8, seed=23)
        alpha = 1.2
        k1 = 2 * np.pi * mode_indices(grid8) / grid8.box_len  # full layout
        ksq = k1[:, None, None] ** 2 + k1[None, :, None] ** 2 + k1[None, None, :] ** 2
        expected = grid8.box_len**3 * np.real(
            np.sum((1 + alpha**2 * ksq) * np.conj(v.coeffs) * w.coeffs)
        )
        assert abs(h1alpha_inner(v, w, alpha) - expected) <= 1e-12

    def test_symmetric_bilinear(self, grid8):
        v = random_field(grid8, seed=24)
        w = random_field(grid8, seed=25)
        assert abs(h1alpha_inner(v, w, 1.1) - h1alpha_inner(w, v, 1.1)) <= 1e-12

    def test_non_contiguous_last_axis(self, grid8):
        v = random_field(grid8, seed=26)
        w = random_field(grid8, seed=27)
        spread = np.zeros(v.hat.shape[:-1] + (2 * v.hat.shape[-1],), dtype=v.hat.dtype)
        spread[..., ::2] = v.hat
        strided = VectorField(grid8, spread[..., ::2])
        assert not strided.hat.flags.c_contiguous
        assert h1alpha_inner(strided, w, 0.9) == h1alpha_inner(v, w, 0.9)
        assert h1alpha_inner(w, strided, 0.9) == h1alpha_inner(w, v, 0.9)


class TestPressure:
    def test_zero_velocity(self, grid8):
        u = VectorField(grid8, np.zeros((3,) + grid8.box_shape, dtype=np.complex128))
        p = pressure_from_velocity(u, 1.0)
        assert np.abs(p.coeffs).max() == 0.0

    def test_shear_gives_zero_pressure(self, grid8):
        # u (x) u depends on y only through the (1,1) entry; k_1 = 0 on its support
        x = np.arange(8) * grid8.dx
        Y = np.meshgrid(x, x, x, indexing="ij")[1]
        u1 = forward_transform(np.sin(2 * np.pi * Y / grid8.box_len), grid8).hat
        u = VectorField(grid8, np.stack([u1, 0 * u1, 0 * u1]))
        p = pressure_from_velocity(u, 1.0)
        assert np.abs(p.coeffs).max() <= 1e-13

    def test_gradient_identity(self, grid8, full8):
        # momentum balance: grad p = -(I - P) div((u (x) u)_alpha)
        u = random_field(grid8, seed=26)
        alpha = 0.9
        p = pressure_from_velocity(u, alpha)
        gp = gradient(p)
        phys = inverse_transform(u)
        bessel = 1.0 / (1.0 + alpha**2 * modes(full8).ksq)
        k = modes(full8).k
        div = np.zeros((3,) + full8.box_shape, dtype=np.complex128)
        for i in range(3):
            for j in range(3):
                tij = forward_transform(phys[i] * phys[j], full8).hat * dealias_mask(grid8)
                div[i] += 1j * k[j] * bessel * tij
        full = VectorField(full8, div)
        complement = full.hat - leray_project(full).hat
        assert np.abs(half_hat(gp) + complement).max() <= 1e-10


class TestGridSpec:
    @pytest.mark.parametrize("n", [3, 2, 7, 0])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ValueError):
            GridSpec(n)

    def test_rejects_bad_box(self):
        with pytest.raises(ValueError):
            GridSpec(8, box_len=0.0)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            GridSpec(8, dealias_fraction=1.5)

    def test_div_free_certificate_enforced(self, grid8):
        coeffs = np.zeros((3,) + grid8.box_shape, dtype=np.complex128)
        coeffs[0, 1, 0, 0] = 1.0  # k . u != 0 for this mode
        # a program defect, not an input error: not a ValueError
        assert not issubclass(CertificateError, ValueError)
        with pytest.raises(CertificateError):
            VectorField(grid8, coeffs, div_free=True)

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("index", [(0, 0, 0, 0), (1, 1, 2, 1)])
    def test_non_finite_field_fails_its_certificate(self, grid8, value, index):
        # a NaN defect compares false with the tolerance, so the certificate
        # asks for a defect at or below it
        hat = random_field(grid8, seed=31).hat.copy()
        hat[index] = value
        with np.errstate(invalid="ignore"), pytest.raises(CertificateError):
            VectorField(grid8, hat, div_free=True)


class TestHalfSpectrum:
    def test_round_trip(self, grid8):
        full = np.fft.fftn(random_scalar_samples(8, seed=27)) / 8**3
        half = half_spectrum(full)
        assert half.shape == grid8.half_shape
        assert np.abs(full_spectrum(half) - full).max() <= 1e-15
        assert np.array_equal(half_spectrum(full_spectrum(half)), half)

    def test_matches_numpy_fftn(self, full8):
        samples = random_scalar_samples(8, seed=28)
        f = forward_transform(samples, full8)
        expected = np.fft.fftn(samples) / 8**3
        assert np.abs(f.coeffs - expected).max() <= 1e-15
        assert np.abs(f.hat - half_spectrum(expected)).max() <= 1e-15

    def test_vector_layout(self, grid8):
        u = random_field(grid8, seed=29)
        phys = inverse_transform(u)
        expected = np.stack([np.fft.fftn(phys[i]) / 8**3 for i in range(3)])
        assert np.abs(u.coeffs - expected).max() <= 1e-15


class TestHermitianDefect:
    @pytest.mark.parametrize("plane", [0, 4])
    def test_checks_self_conjugate_planes(self, full8, plane):
        f = forward_transform(random_scalar_samples(8, seed=30), full8)
        assert hermitian_defect(f) <= 1e-15
        bad = f.copy()
        bad.hat[1, 2, plane] += 0.5 * np.abs(f.hat).max()
        assert hermitian_defect(bad) >= 0.1

    def test_other_planes_symmetric_by_layout(self, full8):
        f = forward_transform(random_scalar_samples(8, seed=31), full8)
        other = f.copy()
        other.hat[1, 2, 1:4] += 0.3
        assert hermitian_defect(other) <= 1e-15


class TestBilinear:
    def test_symmetric(self, grid8):
        u = random_field(grid8, seed=32, amplitude=1.1)
        w = random_field(grid8, seed=33, amplitude=0.7)
        assert np.array_equal(bilinear(u, w, 0.8).hat, bilinear(w, u, 0.8).hat)

    def test_polarization_identity(self, grid16, params):
        # the transport part of the linearized operator is the polarized
        # nonlinearity: 2 B(u, w) = (N(u + w) - N(u - w)) / 2
        u = random_field(grid16, seed=34, amplitude=1.2, k_max=4)
        w = random_field(grid16, seed=35, amplitude=0.9, k_max=5)
        lin = params.nu * modes(grid16).ksq + params.beta
        transport = -(linearized_rhs(w, u, params).hat + lin * w.hat)
        plus = nonlinear_term(VectorField(grid16, u.hat + w.hat), params.alpha)
        minus = nonlinear_term(VectorField(grid16, u.hat - w.hat), params.alpha)
        expected = 0.5 * (plus.hat - minus.hat)
        assert np.abs(transport - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_precomputed_base_is_bitwise_equal(self, grid16):
        u = random_field(grid16, seed=36, amplitude=1.2, k_max=4)
        w = random_field(grid16, seed=37, amplitude=0.9, k_max=5)
        expected = bilinear(u, w, 0.6).hat
        assert np.array_equal(bilinear(u, w, 0.6, inverse_transform(u)).hat, expected)


def general_field(grid, seed):
    """A real field with every mode set, neither dealiased nor divergence-free:
    on the fraction-1 grid of grid's n and box_len."""
    samples = np.random.default_rng(seed).standard_normal((3,) + (grid.n,) * 3)
    return forward_transform(samples, replace(grid, dealias_fraction=1.0))


class TestBoxKernel:
    """The retained-box kernel against the full-transform formula, on fields
    restricted from the fraction-1 grid."""

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("fraction", FRACTIONS)
    @kernel_cases
    @given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.1, 2.0),
           same=st.booleans(), precomputed=st.booleans())
    def test_matches_full_transform(self, n, fraction, seed, alpha, same, precomputed):
        grid = GridSpec(n, dealias_fraction=fraction)
        u1 = general_field(grid, seed)
        w1 = u1 if same else general_field(grid, seed + 1)
        u, w = dealias(u1, grid), dealias(w1, grid)
        u_phys = inverse_transform(u) if precomputed else None
        expected = full_transform_bilinear(u1.hat, w1.hat, grid, alpha)
        got = half_hat(bilinear(u, w, alpha, u_phys))
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("n", [8, 16])
    def test_full_fraction_box_spans_each_axis_once(self, n):
        grid = GridSpec(n, dealias_fraction=1.0)
        assert grid.dealias_cutoff == n // 2
        assert grid.box_shape == grid.half_shape
        count = np.zeros(grid.half_shape)
        for block in _blocks(count, grid):
            block += 1
        assert np.all(count == 1)

    @pytest.mark.parametrize("fraction", FRACTIONS)
    @kernel_cases
    @given(seed=st.integers(0, 2**32 - 1))
    def test_dealiased_physical_reads_the_box(self, fraction, seed):
        grid = GridSpec(16, dealias_fraction=fraction)
        u = general_field(grid, seed)
        expected = sfft.irfftn(u.hat * dealias_mask(grid), s=(16,) * 3, axes=(-3, -2, -1),
                               norm="forward")
        got = inverse_transform(dealias(u, grid))
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_dealiased_physical_with_out_of_place_transform(self, grid16, monkeypatch):
        # overwrite_x permits, but does not promise, an in-place transform
        u = dealias(general_field(grid16, 38), grid16)
        expected = inverse_transform(u)
        ifftn = sfft.ifftn
        monkeypatch.setattr(sfft, "ifftn", lambda x, *a, **k: ifftn(x.copy(), *a, **k))
        assert np.array_equal(inverse_transform(u), expected)

    @pytest.mark.parametrize("fraction", FRACTIONS)
    @kernel_cases
    @given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.1, 2.0))
    def test_zero_outside_box_and_symmetric(self, fraction, seed, alpha):
        grid = GridSpec(16, dealias_fraction=fraction)
        u, w = (dealias(general_field(grid, s), grid) for s in (seed, seed + 1))
        b = bilinear(u, w, alpha)
        assert b.hat.shape == (3,) + grid.box_shape
        assert np.all(half_hat(b)[:, ~dealias_mask(grid)] == 0)
        assert np.array_equal(b.hat, bilinear(w, u, alpha).hat)


class TestWorkArrays:
    """The transform pair and the kernel keep their large temporaries in work
    arrays reused across calls; no result is, or views, one of them."""

    @staticmethod
    def kernel_calls(grid, seed):
        u, w = (dealias(general_field(grid, s), grid) for s in (seed, seed + 1))
        inverse_transform(u)
        inverse_transform(u.component(0))
        bilinear(u, w, 0.7)
        nonlinear_term(w, 0.7)
        pressure_from_velocity(u, 0.7)
        forward_transform(inverse_transform(w), grid)

    @pytest.mark.parametrize("n, fraction", [(16, 2 / 3), (16, 1.0)])
    def test_results_survive_later_calls(self, n, fraction):
        grid = GridSpec(n, dealias_fraction=fraction)
        u, w = (dealias(general_field(grid, s), grid) for s in (70, 71))
        kept = [
            inverse_transform(u),
            bilinear(u, w, 0.7).hat,
            bilinear(w, w, 0.7).hat,
            forward_transform(random_samples(n, 72, True, 0), grid).hat,
        ]
        before = [a.copy() for a in kept]
        # the same grid, then another n and dealias fraction
        for g, seed in ((grid, 73), (GridSpec(12, dealias_fraction=0.5), 75)):
            self.kernel_calls(g, seed)
            for a, b in zip(kept, before):
                assert a.tobytes() == b.tobytes()

    def test_kernel_peak_memory(self):
        # n = 32: one sample array is 0.79 MB, the 5 products 1.31 MB and
        # their z transform 1.39 MB; the samples are freed before the
        # transform and the products live in the work array
        grid = GridSpec(32)
        u, w = (dealias(general_field(grid, s), grid) for s in (76, 77))
        bilinear(u, w, 0.5)  # warm-up: symbols and work arrays
        tracemalloc.start()
        try:
            bilinear(u, w, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.4e6


def dealiased_layouts(grid, seed):
    """A random dealiased field on `grid`, and the same field on the
    fraction-1 grid of its n, whose box is the half spectrum."""
    box = dealias(general_field(grid, seed), grid)
    return box, VectorField(replace(grid, dealias_fraction=1.0), half_hat(box))


class TestLayouts:
    """One dealiased field on two grids of one n: its grid's box, and the
    half spectrum of the fraction-1 grid."""

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("fraction", FRACTIONS)
    @kernel_cases
    @given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.1, 2.0))
    def test_layouts_agree(self, n, fraction, seed, alpha):
        grid = GridSpec(n, dealias_fraction=fraction)
        box, half = dealiased_layouts(grid, seed)
        other_box, other_half = dealiased_layouts(grid, seed + 1)
        assert box.hat.shape == (3,) + grid.box_shape
        assert dealias(half, grid).hat.tobytes() == box.hat.tobytes()  # box -> half -> box

        operators = [
            lambda v: helmholtz_filter(v, alpha),
            leray_project,
            lambda v: gradient(v.component(1)),
            divergence,
            laplacian,
        ]
        for op in operators:
            # each per-mode operator commutes with restriction
            a, b = op(box), op(half)
            assert a.hat.tobytes() == dealias(b, grid).hat.tobytes()
            assert np.array_equal(half_hat(a), b.hat)

        def close(x, y, scale=None):
            return abs(x - y) <= 1e-15 * (abs(y) if scale is None else scale)

        assert all(map(close, astuple(norms(box, alpha)), astuple(norms(half, alpha))))
        # relative to the Cauchy-Schwarz bound: the sum has signed terms
        bound = np.sqrt(norms(box, alpha).h1alpha_sq * norms(other_box, alpha).h1alpha_sq)
        inner = h1alpha_inner(half, other_half, alpha)
        assert close(h1alpha_inner(box, other_box, alpha), inner, bound)
        assert close(box.div_defect(), half.div_defect())
        assert hermitian_defect(box) == hermitian_defect(half)

        expected = sfft.irfftn(half.hat, s=(n,) * 3, axes=(-3, -2, -1), norm="forward")
        assert inverse_transform(box).tobytes() == expected.tobytes()
        assert inverse_transform(half).tobytes() == expected.tobytes()

    def test_fields_on_two_grids_do_not_meet(self, grid8):
        box, half = dealiased_layouts(grid8, 39)
        for v, w in ((box, half), (half, box)):
            with pytest.raises(ValueError, match="do not share a grid"):
                h1alpha_inner(v, w, 0.7)
        assert h1alpha_inner(dealias(half, grid8), box, 0.7) == h1alpha_inner(box, box, 0.7)


class TestCachedSymbols:
    def test_in_place_write_raises(self, grid8, full8):
        cached = [
            mode_indices(grid8),
            *modes(full8),
            *modes(grid8),
            *_bilinear_symbols(grid8, 0.5),
        ]
        for a in cached:
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1
        assert modes(grid8).ksq[0, 0, 0] == 0.0


def random_samples(n, seed, vector, log_scale):
    """Random physical samples (n, n, n), or (3, n, n, n) when `vector`,
    scaled by 10**log_scale."""
    shape = ((3,) if vector else ()) + (n,) * 3
    return 10.0**log_scale * np.random.default_rng(seed).standard_normal(shape)


samples_cases = settings(max_examples=20, deadline=None)
sample_args = dict(seed=st.integers(0, 2**32 - 1), vector=st.booleans(),
                   log_scale=st.integers(-6, 6))


class TestTransformPair:
    """Properties of forward_transform / inverse_transform on random samples."""

    @pytest.mark.parametrize("n", [4, 6, 8, 12, 16])
    @samples_cases
    @given(**sample_args)
    def test_round_trip(self, n, seed, vector, log_scale):
        x = random_samples(n, seed, vector, log_scale)
        f = forward_transform(x, GridSpec(n, dealias_fraction=1.0))
        assert isinstance(f, VectorField) == vector
        assert np.abs(inverse_transform(f) - x).max() <= 1e-13 * np.abs(x).max()
        assert forward_transform(x).grid == GridSpec(n)  # the default grid

    @pytest.mark.parametrize("n, exact", [(8, True), (16, True), (6, False), (12, False)])
    @samples_cases
    @given(**sample_args)
    def test_forward_matches_rfftn(self, n, exact, seed, vector, log_scale):
        x = random_samples(n, seed, vector, log_scale)
        expected = sfft.rfftn(x, axes=(-3, -2, -1), norm="forward")
        got = forward_transform(x, GridSpec(n, dealias_fraction=1.0)).hat
        if exact:
            assert got.tobytes() == expected.tobytes()
        else:
            assert np.abs(got - expected).max() <= 1e-15 * np.abs(expected).max()

    @pytest.mark.parametrize("n", [4, 6, 8, 12, 16])
    @pytest.mark.parametrize("fraction", FRACTIONS)
    @samples_cases
    @given(**sample_args)
    def test_inverse_of_dealiased_field(self, n, fraction, seed, vector, log_scale):
        grid = GridSpec(n, dealias_fraction=fraction)
        box = forward_transform(random_samples(n, seed, vector, log_scale), grid)
        half = replace(box, grid=replace(grid, dealias_fraction=1.0), hat=half_hat(box))
        expected = sfft.irfftn(half.hat, s=(n,) * 3, axes=(-3, -2, -1), norm="forward")
        assert inverse_transform(box).tobytes() == expected.tobytes()
        assert inverse_transform(half).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("fraction", [2 / 3, 1.0])
    @samples_cases
    @given(**sample_args)
    def test_inverse_leaves_its_input(self, fraction, seed, vector, log_scale):
        grid = GridSpec(8, dealias_fraction=fraction)
        full = GridSpec(8, dealias_fraction=1.0)
        half = forward_transform(random_samples(8, seed, vector, log_scale), full)
        # at fraction 1 the box is the half spectrum
        for f in (half, dealias(half, grid)):
            before = f.hat.copy()
            inverse_transform(f)
            assert f.hat.tobytes() == before.tobytes()

    @pytest.mark.parametrize("n", [4, 6, 8, 12, 16])
    @samples_cases
    @given(seed=st.integers(0, 2**32 - 1), log_scale=st.integers(-6, 6),
           alpha=st.floats(0.1, 2.0))
    def test_parseval(self, n, seed, log_scale, alpha):
        x = random_samples(n, seed, True, log_scale)
        u = forward_transform(x, GridSpec(n, dealias_fraction=1.0))
        expected = u.grid.dx**3 * np.sum(x**2)
        assert abs(norms(u, alpha).l2_sq - expected) <= 1e-13 * expected

    @pytest.mark.parametrize("n", [4, 8, 12])
    @pytest.mark.parametrize("fraction", FRACTIONS)
    @samples_cases
    @given(seed=st.integers(0, 2**32 - 1), log_scale=st.integers(-6, 6),
           alpha=st.floats(0.1, 2.0))
    def test_symbol_algebra(self, n, fraction, seed, log_scale, alpha):
        grid = GridSpec(n, dealias_fraction=fraction)
        full = GridSpec(n, dealias_fraction=1.0)
        half = forward_transform(random_samples(n, seed, True, log_scale), full)
        for v in (half, dealias(half, grid)):
            scale = np.abs(v.hat).max()
            p = leray_project(v)
            assert np.abs(leray_project(p).hat - p.hat).max() <= 1e-15 * scale
            once = dealias(v, grid)
            assert dealias(once, grid).hat.tobytes() == once.hat.tobytes()
            filtered_first = leray_project(helmholtz_filter(v, alpha)).hat
            assert np.abs(helmholtz_filter(p, alpha).hat - filtered_first).max() <= 1e-15 * scale


FFT_TRANSFORM = re.compile(r"^(numpy|scipy)\.fft\.(i?r?fft[2n]?)$")


def fft_call_sites(path):
    """(function, transform) for every numpy.fft / scipy.fft transform call
    in a source file, names resolved through the file's imports."""
    tree = ast.parse(path.read_text())
    alias = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            alias.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.ImportFrom):
            alias.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})

    def dotted(expr):
        if isinstance(expr, ast.Name):
            return alias.get(expr.id, expr.id)
        if isinstance(expr, ast.Attribute):
            return f"{dotted(expr.value)}.{expr.attr}"
        return ""

    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            match = FFT_TRANSFORM.match(dotted(node.func))
            if match:
                sites.append((func, match.group(2)))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return sites


def test_transforms_live_in_one_pair():
    # every transform goes through inverse_transform and the forward helper,
    # and only through the n-d entry points
    src = Path(bardina.__file__).parent
    sites = [site for path in sorted(src.glob("*.py")) for site in fft_call_sites(path)]
    assert {func for func, _ in sites} == {"inverse_transform", "_forward"}
    assert {name for _, name in sites} <= {"rfftn", "irfftn", "fftn", "ifftn"}


def scoped_nodes(path):
    """(enclosing class and function names, dotted, node) for every node of a
    source file."""
    out = []

    def visit(node, scope):
        out.append((scope, node))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text()), "")
    return out


def test_samples_travel_only_on_the_state():
    # above the kernel a base state's samples are its SimState.u_phys: no
    # function of the attractor checks or the CLI takes samples or advection
    # terms, and outside spectral.py a field is transformed only by its state
    # and by steady_convergence, for its copy of U's samples
    src = Path(bardina.__file__).parent
    for name in ("attractor.py", "cli.py"):
        for _, node in scoped_nodes(src / name):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
                assert not params & {"u_phys", "advection"}, (name, node.name)
    callers = set()
    for path in sorted(src.glob("*.py")):
        if path.name == "spectral.py":
            continue
        for scope, node in scoped_nodes(path):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                if callee == "inverse_transform":
                    callers.add(f"{path.stem}.{scope}")
    assert callers == {"dynamics.SimState.u_phys", "attractor.steady_convergence"}
