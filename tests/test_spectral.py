from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import fft as sfft

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
    dealiased_physical,
    full_spectrum,
    half_spectrum,
    mode_indices,
    modes,
    vector_from_physical,
    vector_to_physical,
    wavenumber_sq,
    wavevectors,
)

from conftest import random_field, random_scalar_samples
from oracles import (
    dealias_mask,
    dft_oracle,
    full_transform_bilinear,
    idft_oracle,
    oracle_parseval_l2,
)


class TestTransforms:
    def test_zero_round_trip(self, grid8):
        z = np.zeros((8, 8, 8))
        f = forward_transform(z, grid8)
        assert np.all(f.coeffs == 0)
        assert np.all(inverse_transform(f) == 0)

    def test_cosine_two_modes(self, grid8):
        x = np.arange(8) * grid8.dx
        X = np.meshgrid(x, x, x, indexing="ij")[0]
        f = forward_transform(np.cos(2 * np.pi * X / grid8.box_len), grid8)
        nz = np.abs(f.coeffs) > 1e-13
        assert nz.sum() == 2
        assert abs(f.coeffs[1, 0, 0] - 0.5) < 1e-13
        assert abs(f.coeffs[-1, 0, 0] - 0.5) < 1e-13

    def test_matches_direct_dft(self, grid8):
        samples = random_scalar_samples(8, seed=1)
        f = forward_transform(samples, grid8)
        expected = dft_oracle(samples)
        assert np.abs(f.coeffs - expected).max() <= 1e-12

    def test_round_trip_random(self, grid8):
        samples = random_scalar_samples(8, seed=2)
        back = inverse_transform(forward_transform(samples, grid8))
        assert np.abs(back - samples).max() <= 1e-12

    def test_inverse_matches_direct_idft(self, grid8):
        f = forward_transform(random_scalar_samples(8, seed=3), grid8)
        direct = idft_oracle(f.coeffs)
        assert np.abs(inverse_transform(f) - np.real(direct)).max() <= 1e-12

    def test_rejects_non_cubic(self):
        with pytest.raises(ValueError):
            forward_transform(np.zeros((8, 8, 4)))

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            forward_transform(np.zeros((7, 7, 7)))

    def test_hermitian_symmetry(self, grid8):
        f = forward_transform(random_scalar_samples(8, seed=4), grid8)
        assert f.hermitian_defect() <= 1e-12


class TestHelmholtzFilter:
    def test_constant_unchanged(self, grid8):
        c = np.full((8, 8, 8), 3.7)
        u = VectorField(grid8, np.stack([forward_transform(c, grid8).hat] * 3))
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

    def test_per_mode_oracle(self, grid8):
        u = random_field(grid8, seed=5)
        alpha = 0.7
        out = helmholtz_filter(u, alpha)
        k = wavevectors(grid8)
        ksq = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
        expected = u.half / (1.0 + alpha**2 * ksq)
        assert np.abs(out.half - expected).max() <= 1e-12

    def test_preserves_div_free(self, grid8):
        u = random_field(grid8, seed=6)
        assert helmholtz_filter(u, 1.3).div_free


class TestLerayProjection:
    def test_annihilates_gradients(self, grid8):
        x = np.arange(8) * grid8.dx
        X = np.meshgrid(x, x, x, indexing="ij")[0]
        s = forward_transform(np.sin(2 * np.pi * X / grid8.box_len), grid8)
        g = gradient(s)
        out = leray_project(g)
        assert np.abs(out.coeffs).max() <= 1e-13

    def test_fixes_shear(self, grid8):
        x = np.arange(8) * grid8.dx
        Y = np.meshgrid(x, x, x, indexing="ij")[1]
        u1 = forward_transform(np.sin(2 * np.pi * Y / grid8.box_len), grid8).hat
        u = VectorField(grid8, np.stack([u1, 0 * u1, 0 * u1]))
        out = leray_project(u)
        assert np.abs(out.coeffs - u.coeffs).max() <= 1e-13

    def test_output_divergence_free(self, grid8):
        rng = np.random.default_rng(11)
        raw = rng.standard_normal((3, 8, 8, 8))
        u = VectorField(
            grid8, np.stack([forward_transform(raw[i], grid8).hat for i in range(3)])
        )
        out = leray_project(u)
        k = wavevectors(grid8)
        kdotu = np.abs(np.sum(k * out.hat, axis=0))
        assert kdotu.max() <= 1e-12

    def test_componentwise_oracle(self, grid8):
        rng = np.random.default_rng(12)
        raw = rng.standard_normal((3, 8, 8, 8))
        u = VectorField(
            grid8, np.stack([forward_transform(raw[i], grid8).hat for i in range(3)])
        )
        out = leray_project(u)
        k = wavevectors(grid8)
        m = mode_indices(grid8)
        for trial in range(20):
            idx = tuple(rng.integers(0, grid8.half_shape))
            kv = np.array([k[a][idx] for a in range(3)])
            uv = np.array([u.hat[a][idx] for a in range(3)])
            ksq = kv @ kv
            expect = uv if ksq == 0 else uv - kv * (kv @ uv) / ksq
            got = np.array([out.hat[a][idx] for a in range(3)])
            assert np.abs(got - expect).max() <= 1e-12

    def test_idempotent(self, grid8):
        rng = np.random.default_rng(13)
        raw = rng.standard_normal((3, 8, 8, 8))
        u = VectorField(
            grid8, np.stack([forward_transform(raw[i], grid8).hat for i in range(3)])
        )
        once = leray_project(u)
        twice = leray_project(once)
        assert np.abs(twice.coeffs - once.coeffs).max() <= 1e-13

    def test_identity_on_div_free(self, grid8):
        u = random_field(grid8, seed=14)
        out = leray_project(u)
        assert np.abs(out.coeffs - u.coeffs).max() <= 1e-12

    def test_commutes_with_filter(self, grid8):
        rng = np.random.default_rng(15)
        raw = rng.standard_normal((3, 8, 8, 8))
        u = VectorField(
            grid8, np.stack([forward_transform(raw[i], grid8).hat for i in range(3)])
        )
        a = helmholtz_filter(leray_project(u), 0.9)
        b = leray_project(helmholtz_filter(u, 0.9))
        assert np.abs(a.coeffs - b.coeffs).max() <= 1e-13


class TestDerivatives:
    def test_laplacian_eigenfunction(self, grid8):
        x = np.arange(8) * grid8.dx
        X = np.meshgrid(x, x, x, indexing="ij")[0]
        s = forward_transform(np.sin(2 * np.pi * X / grid8.box_len), grid8)
        out = laplacian(s)
        expect = -((2 * np.pi / grid8.box_len) ** 2) * s.coeffs
        assert np.abs(out.coeffs - expect).max() <= 1e-13

    def test_div_grad_is_laplacian(self, grid8):
        s = forward_transform(random_scalar_samples(8, seed=16), grid8)
        a = divergence(gradient(s))
        b = laplacian(s)
        assert np.abs(a.coeffs - b.coeffs).max() <= 1e-12

    def test_gradient_of_constant(self, grid8):
        c = forward_transform(np.full((8, 8, 8), 2.5), grid8)
        assert np.abs(gradient(c).coeffs).max() <= 1e-14

    def test_div_after_leray_vanishes(self, grid8):
        rng = np.random.default_rng(17)
        raw = rng.standard_normal((3, 8, 8, 8))
        u = VectorField(
            grid8, np.stack([forward_transform(raw[i], grid8).hat for i in range(3)])
        )
        d = divergence(leray_project(u))
        assert np.abs(d.coeffs).max() <= 1e-12


class TestDealias:
    def test_below_cutoff_unchanged(self, grid8):
        u = random_field(grid8, seed=18, k_max=2)
        out = dealias(u)
        assert np.abs(out.coeffs - u.coeffs).max() == 0.0

    def test_single_high_mode_removed(self, grid8):
        coeffs = np.zeros((3,) + grid8.half_shape, dtype=np.complex128)
        coeffs[0, 3, 0, 0] = 1.0  # |m| = 3 > cutoff 2
        out = dealias(VectorField(grid8, coeffs))
        assert np.abs(out.coeffs).max() == 0.0

    def test_mask_matches_index_oracle(self, grid8):
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
        ones = VectorField(grid8, np.ones((3,) + grid8.half_shape, dtype=np.complex128))
        assert np.array_equal(dealias(ones).half != 0, np.stack([dealias_mask(grid8)] * 3))


class TestNorms:
    def test_zero_field(self, grid8):
        u = VectorField(grid8, np.zeros((3,) + grid8.half_shape, dtype=np.complex128))
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
        a = np.zeros((3,) + grid8.half_shape, dtype=np.complex128)
        b = np.zeros((3,) + grid8.half_shape, dtype=np.complex128)
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


class TestPressure:
    def test_zero_velocity(self, grid8):
        u = VectorField(grid8, np.zeros((3,) + grid8.half_shape, dtype=np.complex128))
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

    def test_gradient_identity(self, grid8):
        # momentum balance: grad p = -(I - P) div((u (x) u)_alpha)
        u = random_field(grid8, seed=26)
        alpha = 0.9
        p = pressure_from_velocity(u, alpha)
        gp = gradient(p)
        phys = vector_to_physical(u)
        bessel = 1.0 / (1.0 + alpha**2 * wavenumber_sq(grid8))
        k = wavevectors(grid8)
        div = np.zeros((3,) + grid8.half_shape, dtype=np.complex128)
        for i in range(3):
            for j in range(3):
                tij = forward_transform(phys[i] * phys[j], grid8).hat * dealias_mask(grid8)
                div[i] += 1j * k[j] * bessel * tij
        full = VectorField(grid8, div)
        complement = full.hat - leray_project(full).hat
        assert np.abs(gp.half + complement).max() <= 1e-10


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
        coeffs = np.zeros((3,) + grid8.half_shape, dtype=np.complex128)
        coeffs[0, 1, 0, 0] = 1.0  # k . u != 0 for this mode
        # a program defect, not an input error: not a ValueError
        assert not issubclass(CertificateError, ValueError)
        with pytest.raises(CertificateError):
            VectorField(grid8, coeffs, div_free=True)


class TestHalfSpectrum:
    def test_round_trip(self, grid8):
        full = np.fft.fftn(random_scalar_samples(8, seed=27)) / 8**3
        half = half_spectrum(full)
        assert half.shape == grid8.half_shape
        assert np.abs(full_spectrum(half) - full).max() <= 1e-15
        assert np.array_equal(half_spectrum(full_spectrum(half)), half)

    def test_matches_numpy_fftn(self, grid8):
        samples = random_scalar_samples(8, seed=28)
        f = forward_transform(samples, grid8)
        expected = np.fft.fftn(samples) / 8**3
        assert np.abs(f.coeffs - expected).max() <= 1e-15
        assert np.abs(f.hat - half_spectrum(expected)).max() <= 1e-15

    def test_vector_layout(self, grid8):
        u = random_field(grid8, seed=29)
        phys = vector_to_physical(u)
        expected = np.stack([np.fft.fftn(phys[i]) / 8**3 for i in range(3)])
        assert np.abs(u.coeffs - expected).max() <= 1e-15


class TestHermitianDefect:
    @pytest.mark.parametrize("plane", [0, 4])
    def test_checks_self_conjugate_planes(self, grid8, plane):
        f = forward_transform(random_scalar_samples(8, seed=30), grid8)
        assert f.hermitian_defect() <= 1e-15
        bad = f.copy()
        bad.hat[1, 2, plane] += 0.5 * np.abs(f.hat).max()
        assert bad.hermitian_defect() >= 0.1

    def test_other_planes_symmetric_by_layout(self, grid8):
        f = forward_transform(random_scalar_samples(8, seed=31), grid8)
        other = f.copy()
        other.hat[1, 2, 1:4] += 0.3
        assert other.hermitian_defect() <= 1e-15


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
        lin = params.nu * wavenumber_sq(grid16) + params.beta
        transport = -(linearized_rhs(w, u, params).half + lin * w.half)
        plus = nonlinear_term(VectorField(grid16, u.hat + w.hat), params.alpha)
        minus = nonlinear_term(VectorField(grid16, u.hat - w.hat), params.alpha)
        expected = 0.5 * (plus.half - minus.half)
        assert np.abs(transport - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_precomputed_base_is_bitwise_equal(self, grid16):
        u = random_field(grid16, seed=36, amplitude=1.2, k_max=4)
        w = random_field(grid16, seed=37, amplitude=0.9, k_max=5)
        expected = bilinear(u, w, 0.6).hat
        assert np.array_equal(bilinear(u, w, 0.6, dealiased_physical(u)).hat, expected)


def general_field(grid, seed):
    """A real field with every mode set: neither dealiased nor divergence-free."""
    samples = np.random.default_rng(seed).standard_normal((3,) + (grid.n,) * 3)
    return vector_from_physical(samples, grid)


FRACTIONS = [0.5, 2 / 3, 1.0]
kernel_cases = settings(max_examples=12, deadline=None)


class TestBoxKernel:
    """The retained-box kernel against the full-transform formula."""

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("fraction", FRACTIONS)
    @kernel_cases
    @given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.1, 2.0),
           same=st.booleans(), precomputed=st.booleans())
    def test_matches_full_transform(self, n, fraction, seed, alpha, same, precomputed):
        grid = GridSpec(n, dealias_fraction=fraction)
        u = general_field(grid, seed)
        w = u if same else general_field(grid, seed + 1)
        u_phys = dealiased_physical(u) if precomputed else None
        expected = full_transform_bilinear(u.hat, w.hat, grid, alpha)
        got = bilinear(u, w, alpha, u_phys).half
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
        got = dealiased_physical(u)
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_dealiased_physical_with_out_of_place_transform(self, grid16, monkeypatch):
        # overwrite_x permits, but does not promise, an in-place transform
        u = general_field(grid16, 38)
        expected = dealiased_physical(u)
        ifftn = sfft.ifftn
        monkeypatch.setattr(sfft, "ifftn", lambda x, *a, **k: ifftn(x.copy(), *a, **k))
        assert np.array_equal(dealiased_physical(u), expected)

    @pytest.mark.parametrize("fraction", FRACTIONS)
    @kernel_cases
    @given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.1, 2.0))
    def test_zero_outside_box_and_symmetric(self, fraction, seed, alpha):
        grid = GridSpec(16, dealias_fraction=fraction)
        u, w = general_field(grid, seed), general_field(grid, seed + 1)
        b = bilinear(u, w, alpha)
        assert b.hat.shape == (3,) + grid.box_shape
        assert np.all(b.half[:, ~dealias_mask(grid)] == 0)
        assert np.array_equal(b.hat, bilinear(w, u, alpha).hat)


def dealiased_layouts(grid, seed):
    """A random dealiased field in the box layout, and the same field in the
    half-spectrum layout."""
    box = dealias(general_field(grid, seed))
    return box, VectorField(grid, box.half)


class TestLayouts:
    """The box and half-spectrum layouts of dealiased fields."""

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("fraction", FRACTIONS)
    @kernel_cases
    @given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.1, 2.0))
    def test_layouts_agree(self, n, fraction, seed, alpha):
        grid = GridSpec(n, dealias_fraction=fraction)
        box, half = dealiased_layouts(grid, seed)
        other_box, other_half = dealiased_layouts(grid, seed + 1)
        assert box.hat.shape == (3,) + grid.box_shape
        assert half.box.tobytes() == box.hat.tobytes()  # box -> half -> box

        operators = [
            lambda v: helmholtz_filter(v, alpha),
            leray_project,
            lambda v: gradient(v.component(1)),
            divergence,
            laplacian,
        ]
        for op in operators:
            a, b = op(box), op(half)
            assert a.hat.tobytes() == b.box.tobytes()
            assert np.array_equal(a.half, b.hat)

        def close(x, y, scale=None):
            return abs(x - y) <= 1e-15 * (abs(y) if scale is None else scale)

        assert all(map(close, astuple(norms(box, alpha)), astuple(norms(half, alpha))))
        # relative to the Cauchy-Schwarz bound: the sum has signed terms
        bound = np.sqrt(norms(box, alpha).h1alpha_sq * norms(other_box, alpha).h1alpha_sq)
        inner = h1alpha_inner(half, other_half, alpha)
        assert close(h1alpha_inner(box, other_box, alpha), inner, bound)
        assert close(box.div_defect(), half.div_defect())
        assert box.hermitian_defect() == half.hermitian_defect()

        expected = sfft.irfftn(half.hat, s=(n,) * 3, axes=(-3, -2, -1), norm="forward")
        assert vector_to_physical(box).tobytes() == expected.tobytes()

    def test_mixed_layouts_meet_on_the_box(self, grid8):
        box, half = dealiased_layouts(grid8, 39)
        general = general_field(grid8, 40)
        expected = h1alpha_inner(dealias(general), box, 0.7)
        assert abs(h1alpha_inner(general, box, 0.7) - expected) <= 1e-15 * abs(expected)
        assert abs(h1alpha_inner(general, half, 0.7) - expected) <= 1e-13 * abs(expected)


class TestCachedSymbols:
    def test_in_place_write_raises(self, grid8):
        cached = [
            mode_indices(grid8),
            wavevectors(grid8),
            wavenumber_sq(grid8),
            *modes(grid8, grid8.half_shape),
            *modes(grid8, grid8.box_shape),
            *_bilinear_symbols(grid8, 0.5),
        ]
        for a in cached:
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1
        assert wavenumber_sq(grid8)[0, 0, 0] == 0.0
