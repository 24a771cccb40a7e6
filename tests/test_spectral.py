import ast
import importlib.machinery
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import fft as sfft

import bardina
from bardina import (
    GridSpec,
    PhysParams,
    SimState,
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
    step,
)
from bardina import spectral
from bardina.spectral import (
    CertificateError,
    _bilinear_symbols,
    _load_pocketfft,
    _runs,
    _slab_rows,
    _work,
    bilinear,
    tensor_product_spectra,
    fft_order,
    full_spectrum,
    modes,
)

from conftest import half_hat, random_field, random_scalar_samples, slab_budget
from oracles import (
    bilinear_symbol_stage,
    dealias_mask,
    dft_oracle,
    full_transform_bilinear,
    half_spectrum,
    dense_modes,
    div_defect_dense,
    divergence_dense,
    gradient_dense,
    half_spectrum_modes,
    hermitian_defect,
    leray_project_dense,
    idft_oracle,
    h1alpha_inner_reference,
    norms_reference,
    oracle_parseval_l2,
    pressure_symbol_stage,
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
        k = np.broadcast_arrays(*modes(full8).k)
        kdotu = np.abs(np.sum(k * out.hat, axis=0))
        assert kdotu.max() <= 1e-12

    def test_componentwise_oracle(self, full8):
        rng = np.random.default_rng(12)
        raw = rng.standard_normal((3, 8, 8, 8))
        u = VectorField(
            full8, np.stack([forward_transform(raw[i], full8).hat for i in range(3)])
        )
        out = leray_project(u)
        k = np.broadcast_arrays(*modes(full8).k)
        m = fft_order(full8.n)
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
        m = fft_order(grid8.n)
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
        k1 = 2 * np.pi * fft_order(grid8.n) / grid8.box_len  # full layout
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
        # each kernel result a view of a work array the next call overwrites
        expected = bilinear(u, w, 0.8).hat.copy()
        assert np.array_equal(bilinear(w, u, 0.8).hat, expected)

    def test_polarization_identity(self, grid16, params):
        # the transport part of the linearized operator is the polarized
        # nonlinearity: 2 B(u, w) = (N(u + w) - N(u - w)) / 2
        u = random_field(grid16, seed=34, amplitude=1.2, k_max=4)
        w = random_field(grid16, seed=35, amplitude=0.9, k_max=5)
        lin = params.nu * modes(grid16).ksq + params.beta
        transport = -(linearized_rhs(w, u, params).hat + lin * w.hat)
        # each kernel result a view of a work array the next call overwrites
        plus = nonlinear_term(VectorField(grid16, u.hat + w.hat), params.alpha).hat.copy()
        minus = nonlinear_term(VectorField(grid16, u.hat - w.hat), params.alpha).hat
        expected = 0.5 * (plus - minus)
        assert np.abs(transport - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_precomputed_base_is_bitwise_equal(self, grid16):
        u = random_field(grid16, seed=36, amplitude=1.2, k_max=4)
        w = random_field(grid16, seed=37, amplitude=0.9, k_max=5)
        expected = bilinear(u, w, 0.6).hat.copy()
        assert np.array_equal(bilinear(u, w, 0.6, inverse_transform(u)).hat, expected)


def general_field(grid, seed):
    """A real field with every mode set, neither dealiased nor divergence-free:
    on the fraction-1 grid of grid's n and box_len."""
    samples = np.random.default_rng(seed).standard_normal((3,) + (grid.n,) * 3)
    return forward_transform(samples, grid._replace(dealias_fraction=1.0))


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
        runs = _runs(grid, grid.n)
        for x in runs:
            for y in runs:
                count[x, y, : grid.dealias_cutoff + 1] += 1
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

    @pytest.mark.parametrize("fraction", FRACTIONS)
    @kernel_cases
    @given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.1, 2.0))
    def test_zero_outside_box_and_symmetric(self, fraction, seed, alpha):
        grid = GridSpec(16, dealias_fraction=fraction)
        u, w = (dealias(general_field(grid, s), grid) for s in (seed, seed + 1))
        b = bilinear(u, w, alpha)
        assert b.hat.shape == (3,) + grid.box_shape
        assert np.all(half_hat(b)[:, ~dealias_mask(grid)] == 0)
        expected = b.hat.copy()
        assert np.array_equal(bilinear(w, u, alpha).hat, expected)


class TestWorkArrays:
    """The transform pair and the kernel keep their large temporaries in work
    arrays reused across calls; no public result is, or views, one of them,
    but for tensor_product_spectra's spectra and bilinear's result, which
    view the forward's work array (the "box" array in one pass, the x-pass
    array in slabs), valid until the grid's next transform or
    h1alpha_inner call."""

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
    def test_results_survive_later_calls(self, n, fraction, monkeypatch):
        # in one pass, then in slabs of 3 x rows and of 1 (with the budget
        # that gives 3 or 1 at n, the later n = 12 grid takes one pass or 1);
        # the kernel's results are views, valid until the grid's next
        # transform (test_slab_result_is_valid_until_the_next_transform), so
        # the kept ones are copies
        for rows in (None, 3, 1):
            if rows:
                slab_budget(monkeypatch, n, rows)
            grid = GridSpec(n, dealias_fraction=fraction)
            u, w = (dealias(general_field(grid, s), grid) for s in (70, 71))
            kept = [
                inverse_transform(u),
                forward_transform(random_samples(n, 72, True, 0), grid).hat,
                bilinear(u, w, 0.7).hat.copy(),
                bilinear(w, w, 0.7).hat.copy(),
            ]
            before = [a.copy() for a in kept]
            # the same grid, then another n and dealias fraction
            for g, seed in ((grid, 73), (GridSpec(12, dealias_fraction=0.5), 75)):
                self.kernel_calls(g, seed)
                for a, b in zip(kept, before):
                    assert a.tobytes() == b.tobytes()

    def test_kernel_peak_memory(self):
        # n = 32: one sample array is 0.79 MB, the 5 products 1.31 MB and
        # their z transform 0.9 MB; the products, their z transform and the
        # box live in work arrays, so a call holds the two sample arrays
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

    def test_one_pass_bilinear_peak_memory(self):
        # n = 32: the z spectra go into the x-pass array and the box into the
        # "box" array, where the symbol stage runs and B takes slots 0-2, so
        # a call with one field to transform holds its sample array (0.79
        # MB) alone; new z spectra and a new box took 1.29 MB
        grid = GridSpec(32)
        u, w = (dealias(general_field(grid, s), grid) for s in (76, 77))
        samples = 3 * grid.n**3 * 8
        for v, phys in ((u, None), (w, inverse_transform(u))):
            bilinear(u, v, 0.5, phys)  # warm-up: symbols and work arrays
            tracemalloc.start()
            try:
                bilinear(u, v, 0.5, phys)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= samples + 0.05e6

    def test_slab_kernel_peak_memory(self):
        # n = 64: the 5 products are 10.5 MB, their z transform 10.8 MB and
        # one sample array 6.3 MB; slab by slab they all live in work arrays
        # of a few x rows, and the 3.26 MB result is the first b rows of the
        # x-pass array, so a call allocates no array
        grid = GridSpec(64)
        u, w = (dealias(general_field(grid, s), grid) for s in (78, 79))
        u_phys = inverse_transform(u)
        for args in ((u, w), (u, u), (u, w, u_phys)):
            tensor_product_spectra(*args)  # warm-up: work arrays
            tracemalloc.start()
            try:
                tensor_product_spectra(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 0.1e6

    def test_slab_bilinear_peak_memory(self):
        # n = 64: the symbol stage runs in the 5-slot spectra, in the x-pass
        # array, with a box slot of the slab buffer as scratch, and writes B
        # into their slots 0-2, so a call allocates no array but the ufuncs'
        # cast buffer of float symbols times complex spectra, 131 kB (a new
        # 3-slot result would be 1.95 MB)
        grid = GridSpec(64)
        u, w = (dealias(general_field(grid, s), grid) for s in (78, 79))
        u_phys = inverse_transform(u)
        for v, phys in ((w, None), (u, None), (w, u_phys)):
            bilinear(u, v, 0.5, phys)  # warm-up: symbols and work arrays
            tracemalloc.start()
            try:
                bilinear(u, v, 0.5, phys)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 0.2e6

    @pytest.mark.parametrize("n", [32, 64])  # one pass, slabs
    def test_warm_step_peak_memory(self, params, n):
        # n = 64: n0 and the predictor, 1.95 MB each; both kernel results, w1
        # n0 and the combine live in the x-pass array, 4.04 MB in all; the
        # new hat owns its 3 slots, and no sample array is made.  n = 32:
        # the kernel forms the predictor's samples, 0.79 MB, beside the
        # predictor and n0, 0.23 MB each; both kernel results, w1 n0 and the
        # combine live in the "box" array (new z spectra and a new box per
        # kernel call took 2.08 MB)
        grid = GridSpec(n)
        u, force = (random_field(grid, params.alpha, seed, k_max=6) for seed in (80, 81))
        state = step(SimState(u, 0.0, params, force), 0.001)  # warm-up
        tracemalloc.start()
        try:
            state = step(state, 0.001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        samples, box = 3 * n**3 * 8, 3 * math.prod(grid.box_shape) * 16
        assert peak <= (4.3e6 if n == 64 else samples + 2 * box + 0.05e6)
        assert state.u.hat.base is None and state.u.hat.shape == (3,) + grid.box_shape

    def test_fresh_step_forms_no_samples(self, params, monkeypatch):
        # n = 64: a state no consumer has read is stepped with no u_phys put
        # on it and no inverse_transform call; the step's traced peak stays
        # below one (3, n, n, n) sample array plus the kernel's 3-slot result
        grid = GridSpec(64)
        u, force = (random_field(grid, params.alpha, seed, k_max=6) for seed in (80, 81))
        step(SimState(u, 0.0, params, force), 0.001)  # warm-up
        calls = []
        for module in (spectral, bardina.dynamics):  # the kernel, SimState.u_phys
            monkeypatch.setattr(module, "inverse_transform", lambda f: calls.append(f))
        state = SimState(u, 0.0, params, force)
        tracemalloc.start()
        try:
            step(state, 0.001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == [] and "u_phys" not in vars(state)
        samples = 3 * grid.n**3 * 8
        result = 3 * math.prod(grid.box_shape) * 16
        assert peak < samples + result

    @staticmethod
    def fresh_work(monkeypatch):
        """Give the module a new, empty work-array cache; return the list of
        the (key, shape, dtype) of each array it makes."""
        made = []

        @lru_cache(maxsize=16)
        def work(key, shape, dtype):
            made.append((key, shape, np.dtype(dtype)))
            return np.zeros(shape, dtype)

        monkeypatch.setattr(spectral, "_work", work)
        return made

    def test_one_x_array_per_slab_grid(self, monkeypatch):
        # n = 64: the forward accumulates in the (5, n, b, c+1) x-pass
        # array, and the inverse's x transform of u lives in its slots 0-2
        grid = GridSpec(64)
        n, (b, p) = grid.n, grid.box_shape[1:]
        u, w = (dealias(general_field(grid, s), grid) for s in (78, 79))
        made = self.fresh_work(monkeypatch)
        tensor_product_spectra(u, u)
        tensor_product_spectra(u, u)  # warm
        inverse_transform(u)
        inverse_transform(u.component(0))
        forward_transform(random_samples(n, 80, True, 0), grid)
        pressure_from_velocity(u, 0.7)
        x_arrays = [m for m in made if m[1][-3:] == (n, b, p)]
        assert x_arrays == [("x pass", (5, n, b, p), np.dtype(complex))]
        assert "x inverse" not in [m[0] for m in made]
        # a second input field's x transform takes the one 3-slot array more
        tensor_product_spectra(u, w)
        assert [m for m in made if m[1][-3:] == (n, b, p)][1:] == [
            ("x w", (3, n, b, p), np.dtype(complex))]

    @pytest.mark.parametrize("n, rows, fraction", [(32, None, 2 / 3), (64, None, 2 / 3),
                                                    (64, None, 1.0), (12, 1, 1.0),
                                                    (16, 3, 2 / 3), (16, 1, 1.0)])
    def test_scratch_in_a_dead_work_array(self, n, rows, fraction, monkeypatch):
        # the symbol stage's box slot of scratch is no work array of its
        # own: on the one pass it is the start of the x-pass array, whose box
        # the forward has copied out, and on slab grids the start of the slab
        # buffer, whose slabs the forward has consumed (at fraction 1 the box
        # slot outgrows the slabs and sizes the buffer); it never overlaps the
        # spectra, and B is the reference's byte for byte
        if rows:
            slab_budget(monkeypatch, n, rows)
        grid = GridSpec(n, dealias_fraction=fraction)
        u, w = (dealias(general_field(grid, s), grid) for s in (98, 99))
        made = self.fresh_work(monkeypatch)
        stages, div_in_place = [], spectral._div_in_place
        monkeypatch.setattr(spectral, "_div_in_place",
                            lambda t, k, s: stages.append((t, s)) or div_in_place(t, k, s))
        for args in ((u, w), (u, u), (u, w, inverse_transform(u))):
            got = bilinear(*args[:2], 0.7, *args[2:]).hat.copy()
            assert got.tobytes() == bilinear_symbol_stage(*args[:2], 0.7, *args[2:]).tobytes()
        names = [m[0] for m in made]
        assert "box slot" not in names and len(stages) == 3
        if _slab_rows(n) is None:
            dead = spectral._x_slots(grid, (5,))
        else:
            assert names.count("slabs") == 1
            dead = spectral._slab_arrays(grid, _slab_rows(n))[0]
        for t, s in stages:
            assert s.shape == grid.box_shape and s.flags.c_contiguous
            assert np.may_share_memory(s, dead) and not np.may_share_memory(s, t)

    def test_cold_slab_kernel_peak_memory(self, monkeypatch):
        # n = 64, work arrays counted: the 4.84 MB x-pass array, which holds
        # the result, and 1.6 MB of slab arrays; a separate 2.91 MB x array
        # for u's inverse, or a 3.26 MB result array, would take the peak
        # past the bound
        grid = GridSpec(64)
        u = dealias(general_field(grid, 78), grid)
        self.fresh_work(monkeypatch)
        tracemalloc.start()
        try:
            tensor_product_spectra(u, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.7e6

    @pytest.mark.parametrize("n", [32, 64])  # one pass, slabs
    def test_warm_step_makes_no_work_array(self, params, n):
        grid = GridSpec(n)
        u, force = (random_field(grid, params.alpha, seed, k_max=6) for seed in (80, 81))
        state = step(SimState(u, 0.0, params, force), 0.001)  # warm-up
        misses = _work.cache_info().misses
        step(state, 0.001)
        assert _work.cache_info().misses == misses

    @pytest.mark.parametrize("n", [32, 64])
    def test_kernel_result_owns_its_three_slots(self, n):
        # slots 0-2 of the forward's work array: in one pass the "box"
        # array, in slabs the first b rows of the x-pass array; no result
        # keeps 5 product slots of its own alive
        grid = GridSpec(n)
        b = grid.box_shape[0]
        u, w = (dealias(general_field(grid, s), grid) for s in (78, 79))
        for args in ((u, w), (u, u), (u, w, inverse_transform(u))):
            hat = bilinear(*args[:2], 0.5, *args[2:]).hat
            assert hat.shape == (3,) + grid.box_shape
            if n == 32:
                slots = spectral._slots("box", grid.box_shape, (3,))
            else:
                slots = spectral._x_slots(grid, (3,))[:, :b]
            assert (hat.ctypes.data, hat.strides) == (slots.ctypes.data, slots.strides)

    def test_slab_result_is_valid_until_the_next_transform(self):
        # n = 64: a kept result is copied, as a second call or a transform
        # of the grid overwrites it; another grid's calls leave it
        grid = GridSpec(64)
        u, w = (dealias(general_field(grid, s), grid) for s in (78, 79))
        hat = bilinear(u, w, 0.5).hat
        kept = hat.copy()
        self.kernel_calls(GridSpec(32), 80)
        assert hat.tobytes() == kept.tobytes()
        inverse_transform(w)
        assert hat.tobytes() != kept.tobytes()

    @pytest.mark.parametrize("n", [32, 64])  # one pass, slabs
    def test_forward_survives_a_kernel_call(self, n):
        # the forward's spectra are a view of a work array, which the next
        # kernel call overwrites; forward_transform returns a copy
        grid = GridSpec(n)
        u, w = (dealias(general_field(grid, s), grid) for s in (78, 79))
        kept = [forward_transform(random_samples(grid.n, 80, True, 0), grid).hat,
                forward_transform(random_samples(grid.n, 81, False, 0), grid).hat]
        before = [a.tobytes() for a in kept]
        tensor_product_spectra(u, w)
        bilinear(u, u, 0.5)
        assert [a.tobytes() for a in kept] == before
        assert all(a.base is None for a in kept)


class TestSymbolStage:
    """bilinear and pressure_from_velocity run the symbol stage in place,
    in the spectra tensor_product_spectra returns: byte for byte the stage
    that formed each sum in a new array, in one pass and in slabs, and
    with the inputs left as they were."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([8, 16, 32]), fraction=st.sampled_from(FRACTIONS),
           case=st.sampled_from(["u, w", "u, w, u_phys", "u, u"]),
           rows=st.sampled_from([None, 1, 2]), alpha=st.floats(0.01, 4.0),
           seed=st.integers(0, 2**32 - 2))
    def test_bitwise_equal_to_reference(self, n, fraction, case, rows, alpha, seed):
        grid = GridSpec(n, dealias_fraction=fraction)
        u, w = (dealias(general_field(grid, s), grid) for s in (seed, seed + 1))
        args = {"u, w": (u, w), "u, w, u_phys": (u, w, inverse_transform(u)),
                "u, u": (u, u)}[case]
        inputs = [u.hat, w.hat] + list(args[2:])
        before = [a.tobytes() for a in inputs]
        with pytest.MonkeyPatch.context() as mp:
            if rows:
                slab_budget(mp, n, rows)
            got = bilinear(*args[:2], alpha, *args[2:]).hat.copy()  # a view of a work array
            assert got.tobytes() == bilinear_symbol_stage(*args[:2], alpha, *args[2:]).tobytes()
            p = pressure_from_velocity(u, alpha).hat
            assert p.tobytes() == pressure_symbol_stage(u, alpha).tobytes()
        assert [a.tobytes() for a in inputs] == before

    @pytest.mark.parametrize("n, rows", [(64, None), (16, 3)])
    @pytest.mark.parametrize("fraction", [0.5, 0.9, 1.0])
    def test_slab_grids_bitwise_equal_to_reference(self, n, rows, fraction, monkeypatch):
        # the forward moves the box's x rows m < 0 together in the x-pass
        # array; beyond fraction 2/3 the moved and the kept runs overlap
        if rows:
            slab_budget(monkeypatch, n, rows)
        grid = GridSpec(n, dealias_fraction=fraction)
        assert _slab_rows(n) is not None
        u, w = (dealias(general_field(grid, s), grid) for s in (94, 95))
        for args in ((u, w), (u, w, inverse_transform(u)), (u, u)):
            got = bilinear(*args[:2], 0.6, *args[2:]).hat.copy()  # a view of the x-pass array
            assert got.tobytes() == bilinear_symbol_stage(*args[:2], 0.6, *args[2:]).tobytes()
        p = pressure_from_velocity(u, 0.6).hat
        assert p.tobytes() == pressure_symbol_stage(u, 0.6).tobytes()


class TestDiagnostics:
    """norms sums |u_hat|^2 one component at a time and h1alpha_inner weighs
    its operand in the grid's x-pass array: byte for byte the formulas that
    formed both in new arrays, in one pass and in slabs."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([8, 16, 32]), fraction=st.sampled_from(FRACTIONS),
           rows=st.sampled_from([None, 1, 2]), alpha=st.floats(0.01, 4.0),
           seed=st.integers(0, 2**32 - 2))
    def test_bitwise_equal_to_reference(self, n, fraction, rows, alpha, seed):
        grid = GridSpec(n, dealias_fraction=fraction)
        u, w = (dealias(general_field(grid, s), grid) for s in (seed, seed + 1))
        with pytest.MonkeyPatch.context() as mp:
            if rows:
                slab_budget(mp, n, rows)
            bilinear(u, w, alpha)  # the work arrays hold a kernel call's values
            got = [*norms(u, alpha), h1alpha_inner(u, w, alpha), h1alpha_inner(w, u, alpha)]
            expected = [*norms_reference(u, alpha), h1alpha_inner_reference(u, w, alpha),
                        h1alpha_inner_reference(w, u, alpha)]
        assert np.array(got).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("n, rows", [(64, None), (16, 2)])
    def test_kernel_result_as_an_operand(self, n, rows, monkeypatch):
        # on slab grids the kernel's result is the start of the x-pass array,
        # where h1alpha_inner would weigh its operand: the weighted copy then
        # goes into a new array, and the value is that of the result's copy
        if rows:
            slab_budget(monkeypatch, n, rows)
        grid = GridSpec(n)
        u, w = (dealias(general_field(grid, s), grid) for s in (96, 97))
        for first in (True, False):
            b = bilinear(u, w, 0.7)
            kept = b.copy()
            assert np.may_share_memory(b.hat, spectral._x_slots(grid, (5,)))
            got = h1alpha_inner(b, u, 0.7) if first else h1alpha_inner(u, b, 0.7)
            assert b.hat.tobytes() == kept.hat.tobytes()
            expected = h1alpha_inner(kept, u, 0.7) if first else h1alpha_inner(u, kept, 0.7)
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()


class TestSlabPath:
    """Grids whose 5 product slots exceed SLAB_BYTES run the transform pair
    and the kernel slab by slab.  With the budget lowered, small grids take
    that path, in 1-row slabs and in slabs that do not divide n (3 rows at
    n = 16, 5 at n = 32; at most 3 fit at n = 12), and give the one-pass
    results to round-off: the one pass's z transforms are matrix products,
    not pocketfft's, and the slab forward runs y before x."""

    def test_only_grids_beyond_the_budget_take_slabs(self):
        assert _slab_rows(16) is None and _slab_rows(32) is None
        assert _slab_rows(64) == 2  # 1.5 MiB over 520 KiB a row
        assert _slab_rows(256) == 1

    @staticmethod
    def results(u, w, samples):
        # each kernel result copied: on slabs it is a view the next call overwrites
        u_phys = inverse_transform(u)
        inverse = [u_phys, inverse_transform(w.component(1))]
        forward = [
            forward_transform(samples, u.grid).hat,
            forward_transform(samples[0], u.grid).hat,
            bilinear(u, w, 0.7).hat.copy(),
            bilinear(u, w, 0.7, u_phys).hat.copy(),
            bilinear(u, u, 0.7).hat.copy(),
            bilinear(u, u, 0.7, u_phys).hat.copy(),
        ]
        return inverse, forward, pressure_from_velocity(u, 0.7).hat

    @pytest.mark.parametrize("n, rows", [(12, 1), (12, 3), (16, 1), (16, 3), (32, 1), (32, 5)])
    @pytest.mark.parametrize("fraction", FRACTIONS + [0.9])  # 0.9: the x runs overlap
    def test_slabs_match_one_pass(self, n, rows, fraction, monkeypatch):
        grid = GridSpec(n, dealias_fraction=fraction)
        u, w = (dealias(general_field(grid, s), grid) for s in (90, 91))
        samples = random_samples(n, 92, True, 0)
        inverse, forward, pressure = self.results(u, w, samples)
        products = np.abs(tensor_product_spectra(u, u)).max()
        slab_budget(monkeypatch, n, rows)
        slab_inverse, slab_forward, slab_pressure = self.results(u, w, samples)
        for a, b in zip(inverse + forward, slab_inverse + slab_forward):
            assert np.abs(a - b).max() <= 1e-15 * np.abs(a).max()
        # the pressure is a sum of signed terms, each the product spectra
        # times symbols of modulus <= 1: round-off is relative to those.
        # Each path now takes its own z transform (a matrix product on the
        # one pass, r2c on slabs) where both took r2c, so the deviation sums
        # two paths' round-off: twice the 1e-15 that bounded one (1.02e-15
        # at n = 32, fraction 1)
        assert np.abs(pressure - slab_pressure).max() <= 2e-15 * products

    def test_fewer_planes_after_more(self, monkeypatch):
        # the y pad's planes above the box stay zero from its making: a grid
        # of one n and slab size but fewer planes must not read what a grid
        # with more planes left there
        fields = []
        for fraction in (1.0, 2 / 3, 0.5):
            grid = GridSpec(16, dealias_fraction=fraction)
            fields.append(dealias(general_field(grid, 93), grid))
        expected = [inverse_transform(u) for u in fields]
        slab_budget(monkeypatch, 16, 3)
        for u, e in zip(fields, expected):
            assert np.abs(inverse_transform(u) - e).max() <= 1e-15 * np.abs(e).max()


def dealiased_layouts(grid, seed):
    """A random dealiased field on `grid`, and the same field on the
    fraction-1 grid of its n, whose box is the half spectrum."""
    box = dealias(general_field(grid, seed), grid)
    return box, VectorField(grid._replace(dealias_fraction=1.0), half_hat(box))


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

        assert all(map(close, tuple(norms(box, alpha)), tuple(norms(half, alpha))))
        # relative to the Cauchy-Schwarz bound: the sum has signed terms
        bound = np.sqrt(norms(box, alpha).h1alpha_sq * norms(other_box, alpha).h1alpha_sq)
        inner = h1alpha_inner(half, other_half, alpha)
        assert close(h1alpha_inner(box, other_box, alpha), inner, bound)
        assert close(box.div_defect(), half.div_defect())
        assert hermitian_defect(box) == hermitian_defect(half)

        expected = sfft.irfftn(half.hat, s=(n,) * 3, axes=(-3, -2, -1), norm="forward")
        bound = 1e-15 * np.abs(expected).max()  # the z pass is a matrix product, not c2r
        assert np.abs(inverse_transform(box) - expected).max() <= bound
        assert np.abs(inverse_transform(half) - expected).max() <= bound

    def test_fields_on_two_grids_do_not_meet(self, grid8):
        box, half = dealiased_layouts(grid8, 39)
        for v, w in ((box, half), (half, box)):
            with pytest.raises(ValueError, match="do not share a grid"):
                h1alpha_inner(v, w, 0.7)
        assert h1alpha_inner(dealias(half, grid8), box, 0.7) == h1alpha_inner(box, box, 0.7)


class TestCachedSymbols:
    def test_fft_order_is_fftfreq(self):
        # fftfreq(m, 1/m) is off integers by round-off for some m (49, 98);
        # the package took its int64 cast, as fft_order must give
        for m in range(4, 131):
            freq = np.fft.fftfreq(m, 1.0 / m)
            assert np.array_equal(fft_order(m), freq.astype(np.int64)), m
            assert np.abs(fft_order(m) - freq).max() <= 1e-12 * m

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 32).map(lambda h: 2 * h), fraction=st.floats(1 / 3, 1.0),
           box_len=st.sampled_from([2 * np.pi, 1.0]) | st.floats(1e-3, 1e3))
    def test_box_modes_equal_the_half_spectrum_build(self, n, fraction, box_len):
        grid = GridSpec(n, box_len, fraction)
        k, *rest = modes(grid)
        for got, expected in zip([np.broadcast_arrays(*k), *rest], half_spectrum_modes(grid)):
            got = np.asarray(got)
            assert got.shape == expected.shape and got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()

    def test_in_place_write_raises(self, grid8, full8):
        cached = [
            *modes(full8).k, *modes(full8)[1:],
            *modes(grid8).k, *modes(grid8)[1:],
            *_bilinear_symbols(grid8, 0.5)[0], *_bilinear_symbols(grid8, 0.5)[1:],
            *spectral._z_matrices(grid8),
        ]
        for a in cached:
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1
        assert modes(grid8).ksq[0, 0, 0] == 0.0


class TestBroadcastK:
    """modes(grid).k holds k as a read-only x vector and y and z planes,
    which broadcast to the dense (3,) + box_shape array it used to hold."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 32).map(lambda h: 2 * h), fraction=st.floats(1 / 3, 1.0))
    def test_broadcast_k_equals_the_dense_build(self, n, fraction):
        grid = GridSpec(n, dealias_fraction=fraction)
        got = modes(grid)
        b, p = grid.box_shape[1:]
        assert [ki.shape for ki in got.k] == [(b, 1, 1), (1, b, p), (1, b, p)]
        k = np.stack(np.broadcast_arrays(*got.k))
        for a, expected in zip((k, got.ksq, got.leray), dense_modes(grid)):
            assert a.shape == expected.shape and a.dtype == expected.dtype
            assert a.tobytes() == expected.tobytes()

    def test_each_array_is_read_only(self, grid8):
        for ki in modes(grid8).k:
            assert ki.size < math.prod(grid8.box_shape)  # no dense component
            assert not ki.flags.writeable
            with pytest.raises(ValueError):
                ki[0, 0, 0] = 1.0
        assert modes(grid8).k[0][0, 0, 0] == 0.0

    @pytest.mark.parametrize("n, fraction", [(8, 2 / 3), (8, 1.0), (12, 0.5), (64, 2 / 3)])
    def test_operators_equal_their_dense_k_forms(self, n, fraction, monkeypatch):
        grid = GridSpec(n, dealias_fraction=fraction)
        rng = np.random.default_rng(n)
        shape = (3,) + grid.box_shape
        raw = VectorField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        assert raw.div_defect() == div_defect_dense(raw)
        assert leray_project(raw).hat.tobytes() == leray_project_dense(raw).tobytes()
        scalar = raw.component(1)
        assert gradient(scalar).hat.tobytes() == gradient_dense(scalar).tobytes()
        assert divergence(raw).hat.tobytes() == divergence_dense(raw).tobytes()
        # the kernel's symbol stage, and the pressure's, with the dense k
        u, w = random_field(grid, seed=41), random_field(grid, seed=42)
        got = [bilinear(u, w, 0.7).hat.copy(), bilinear(u, u, 0.7).hat.copy(),
               pressure_from_velocity(u, 0.7).hat]
        symbols = _bilinear_symbols(grid, 0.7)
        monkeypatch.setattr(spectral, "_bilinear_symbols",
                            lambda g, alpha: (dense_modes(g)[0], *symbols[1:]))
        expected = [bilinear(u, w, 0.7).hat.copy(), bilinear(u, u, 0.7).hat.copy(),
                    pressure_from_velocity(u, 0.7).hat]
        for a, e in zip(got, expected):
            assert a.tobytes() == e.tobytes()

    def test_fresh_build_holds_no_dense_temporary(self):
        # at n = 64 the dense k and a |k|^2 denominator were 1.3 MB more
        grid = GridSpec(64)
        tracemalloc.start()
        try:
            m = modes.__wrapped__(grid)  # a fresh build, past the cache
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for a in (*m.k, m.ksq, m.weights, m.leray))
        assert held < m.ksq.nbytes + m.leray.nbytes + 0.02e6
        assert peak <= held + 0.05e6


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

    @pytest.mark.parametrize("n", [8, 16, 6, 12])
    @samples_cases
    @given(**sample_args)
    def test_forward_matches_rfftn(self, n, seed, vector, log_scale):
        # the z pass is a matrix product, not pocketfft's r2c: round-off
        x = random_samples(n, seed, vector, log_scale)
        expected = sfft.rfftn(x, axes=(-3, -2, -1), norm="forward")
        got = forward_transform(x, GridSpec(n, dealias_fraction=1.0)).hat
        assert np.abs(got - expected).max() <= 1e-15 * np.abs(expected).max()

    @pytest.mark.parametrize("n", [4, 6, 8, 12, 16])
    @pytest.mark.parametrize("fraction", FRACTIONS)
    @samples_cases
    @given(**sample_args)
    def test_inverse_of_dealiased_field(self, n, fraction, seed, vector, log_scale):
        grid = GridSpec(n, dealias_fraction=fraction)
        box = forward_transform(random_samples(n, seed, vector, log_scale), grid)
        half = box._replace(grid=grid._replace(dealias_fraction=1.0), hat=half_hat(box))
        expected = sfft.irfftn(half.hat, s=(n,) * 3, axes=(-3, -2, -1), norm="forward")
        bound = 1e-15 * np.abs(expected).max()  # the z pass is a matrix product, not c2r
        assert np.abs(inverse_transform(box) - expected).max() <= bound
        assert np.abs(inverse_transform(half) - expected).max() <= bound

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_z_pass_reads_the_edge_planes_as_r2c_and_c2r(self, n):
        # the sine is exactly 0 at m_z = 0 and n/2: the forward z pass gives
        # those planes real, and the inverse reads only their real parts
        grid, rng = GridSpec(n, dealias_fraction=1.0), np.random.default_rng(n)
        edges = [0, n // 2]
        z = spectral._z_dft(rng.standard_normal((7, n)), grid, True,
                            np.empty((7, n // 2 + 1), complex))
        assert np.all(z[:, edges].imag == 0)
        a = np.zeros((7, n // 2 + 1), complex)
        a[:, edges] = 1j * rng.standard_normal((7, 2))
        assert np.all(spectral._z_dft(a, grid, False, np.empty((7, n))) == 0)
        a[:, edges] += rng.standard_normal((7, 2))
        expected = sfft.irfft(a, n, norm="forward")
        assert np.abs(spectral._z_dft(a, grid, False, np.empty((7, n))) - expected).max() <= (
            1e-15 * np.abs(expected).max())

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


FFT_TRANSFORM = re.compile(r"^(?:(?:numpy|scipy)\.fft\.(i?r?fft[2n]?)|(r2c|c2c|c2r|_z_dft))$")


def fft_call_sites(path):
    """(function, transform) for every numpy.fft / scipy.fft transform call
    and every call of a pocketfft name r2c, c2c or c2r, or of the one pass's
    z transform _z_dft, in a source file, names resolved through the file's
    imports."""
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
                sites.append((func, match.group(1) or match.group(2)))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return sites


FORWARD_HELPERS = {"_forward": {"_z_dft", "c2c"}, "_forward_slabs": {"r2c", "c2c"}}
INVERSE_HELPERS = {"inverse_transform": {"c2c", "_z_dft"}, "_inverse_x": {"c2c"},
                   "_inverse_yz": {"c2c", "c2r"}}


def test_transforms_live_in_one_pair():
    # every transform goes through inverse_transform and the forward helper,
    # or the slab steps they share with the kernel, and only through
    # pocketfft's three transforms, r2c and c2c forward, c2c and c2r inverse,
    # and the one pass's z transform _z_dft
    src = Path(bardina.__file__).parent
    sites = [site for path in sorted(src.glob("*.py")) for site in fft_call_sites(path)]
    called = {}
    for func, name in sites:
        called.setdefault(func, set()).add(name)
    assert called == FORWARD_HELPERS | INVERSE_HELPERS


def box_rows(grid):
    """The half-spectrum rows along x (and y) that grid's box holds, in box order."""
    c, b, n = grid.dealias_cutoff, grid.box_shape[0], grid.n
    return np.r_[0 : c + 1, n - (b - c - 1) : n]


class TestScipyOracle:
    """The slab path's transform pair equals scipy.fft's public transforms,
    composed the same way, bit for bit: rfftn over z, fftn over y on the
    planes the box holds, then over x on the box's y rows; ifftn over x and
    y on those planes of the padded half spectrum, then irfftn over z.  It
    is the same pocketfft code, so a difference means scipy changed the
    module the program loads.  The one pass takes its z transforms as
    matrix products and equals the composition to round-off."""

    @staticmethod
    def forward(x, grid):
        """scipy.fft's composition of the forward transform on grid's box."""
        planes, rows = grid.box_shape[-1], box_rows(grid)
        z = sfft.rfftn(x, axes=(-1,), norm="forward")[..., :planes]
        y = sfft.fftn(z, axes=(-2,), norm="forward")[..., rows, :]
        return sfft.fftn(y, axes=(-3,), norm="forward")[..., rows, :, :]

    @staticmethod
    def inverse(hat, grid):
        """scipy.fft's composition of the inverse transform of a box `hat`."""
        planes, rows = grid.box_shape[-1], box_rows(grid)
        half = np.zeros(hat.shape[:-3] + grid.half_shape, dtype=complex)
        half[..., rows[:, None], rows, :planes] = hat
        half[..., :planes] = sfft.ifftn(half[..., :planes], axes=(-3, -2), norm="forward")
        return sfft.irfftn(half, s=(grid.n,), axes=(-1,), norm="forward")

    @pytest.mark.parametrize("n, rows", [(8, 2), (16, 3), (32, 5)])
    @pytest.mark.parametrize("fraction", FRACTIONS)
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), vector=st.booleans(), log_scale=st.integers(-6, 6))
    def test_pair_matches_scipy_fft(self, n, rows, fraction, seed, vector, log_scale):
        grid = GridSpec(n, dealias_fraction=fraction)
        x = random_samples(n, seed, vector, log_scale)
        with pytest.MonkeyPatch.context() as mp:
            slab_budget(mp, n, rows)
            f = forward_transform(x, grid)
            assert f.hat.tobytes() == self.forward(x, grid).tobytes()
            assert inverse_transform(f).tobytes() == self.inverse(f.hat, grid).tobytes()

    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("fraction", FRACTIONS)
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), vector=st.booleans(), log_scale=st.integers(-6, 6))
    def test_one_pass_matches_scipy_fft(self, n, fraction, seed, vector, log_scale):
        grid = GridSpec(n, dealias_fraction=fraction)
        x = random_samples(n, seed, vector, log_scale)
        f = forward_transform(x, grid)
        expected = self.forward(x, grid)
        assert np.abs(f.hat - expected).max() <= 1e-15 * np.abs(expected).max()
        expected = self.inverse(f.hat, grid)
        assert np.abs(inverse_transform(f) - expected).max() <= 1e-15 * np.abs(expected).max()


IMPORTS = """\
import json, sys
import bardina.cli
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_importing_the_cli_leaves_scipy_out():
    src = str(Path(bardina.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", IMPORTS], env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True).stdout
    assert json.loads(out.strip().splitlines()[-1]) == []


def test_missing_pocketfft_names_its_path(tmp_path, monkeypatch):
    origin = tmp_path / "scipy" / "__init__.py"
    origin.parent.mkdir()
    origin.touch()
    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec", lambda name, *a: (
        importlib.machinery.ModuleSpec("scipy", None, origin=str(origin))
        if name == "scipy" else find_spec(name, *a)))
    name = "pypocketfft" + importlib.machinery.EXTENSION_SUFFIXES[0]
    path = tmp_path / "scipy" / "fft" / "_pocketfft" / name
    with pytest.raises(ImportError, match=re.escape(str(path))) as excinfo:
        _load_pocketfft()
    assert excinfo.value.path == str(path)


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
    # and by steady_convergence, for U's samples
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
