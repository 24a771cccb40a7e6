"""Independent brute-force oracles used by the test suite.

Everything here is deliberately slow and simple: direct DFT sums and direct
convolution sums over retained modes, with no shared code paths with the
package implementation.  Four former implementations are kept as references
for their faster replacements: the full-transform bilinear kernel, the
full-spectrum random_band construction (which reuses the package's Leray
projection and norms, the part its replacement did not change), the
modified Gram-Schmidt built from the package's norms and h1alpha_inner,
and steady_convergence's r_inf through the transform of u - U.
"""

import numpy as np


def half_spectrum(full):
    """Full spectrum (..., n, n, n) of a real field -> its half spectrum."""
    return np.ascontiguousarray(full[..., : full.shape[-1] // 2 + 1])


def dealias_mask(grid):
    """Boolean mask of the retained half-spectrum modes: |m_i| <= floor(dealias_fraction n/2)."""
    n = grid.n
    keep = np.abs(np.fft.fftfreq(n, 1.0 / n)) <= np.floor(grid.dealias_fraction * n / 2)
    return keep[:, None, None] & keep[None, :, None] & keep[None, None, : n // 2 + 1]


def dft_oracle(samples):
    """Direct DFT with 1/n^3 normalization: c_m = sum_x f(x) e^{-2pi i m.x/n} / n^3."""
    n = samples.shape[0]
    m = np.fft.fftfreq(n, 1.0 / n)
    x = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(m, x) / n)  # (m, x)
    return np.einsum("ai,bj,ck,ijk->abc", w, w, w, samples) / n**3


def idft_oracle(coeffs):
    n = coeffs.shape[0]
    m = np.fft.fftfreq(n, 1.0 / n)
    x = np.arange(n)
    w = np.exp(2j * np.pi * np.outer(x, m) / n)  # (x, m)
    return np.einsum("ia,jb,kc,abc->ijk", w, w, w, coeffs)


def retained_modes(n, cutoff):
    """List of integer mode triples with every |m_i| <= cutoff."""
    r = [m for m in range(-cutoff, cutoff + 1)]
    return [(a, b, c) for a in r for b in r for c in r]


def mode_get(coeffs, m):
    return coeffs[m[0] % coeffs.shape[-3], m[1] % coeffs.shape[-2], m[2] % coeffs.shape[-1]]


def convolution_tensor(u_coeffs, cutoff):
    """Direct convolution of the velocity with itself over retained modes.

    Returns a dict (i, j, m) -> (u_i u_j)_hat(m) for retained targets m.
    u_coeffs has shape (3, n, n, n) and must be supported on |m_i| <= cutoff.
    """
    modes = retained_modes(u_coeffs.shape[-1], cutoff)
    out = {}
    for i in range(3):
        for j in range(3):
            for m in modes:
                total = 0.0 + 0.0j
                for m1 in modes:
                    m2 = (m[0] - m1[0], m[1] - m1[1], m[2] - m1[2])
                    if max(abs(m2[0]), abs(m2[1]), abs(m2[2])) > cutoff:
                        continue
                    total += mode_get(u_coeffs[i], m1) * mode_get(u_coeffs[j], m2)
                out[(i, j, m)] = total
    return out


def oracle_nonlinear(u_coeffs, cutoff, box_len, alpha):
    """P div((u (x) u)_alpha) mode by mode via the direct convolution sum."""
    n = u_coeffs.shape[-1]
    tensor = convolution_tensor(u_coeffs, cutoff)
    out = np.zeros_like(u_coeffs)
    for m in retained_modes(n, cutoff):
        k = 2.0 * np.pi * np.array(m) / box_len
        ksq = float(k @ k)
        bessel = 1.0 / (1.0 + alpha**2 * ksq)
        div = np.array(
            [sum(1j * k[j] * bessel * tensor[(i, j, m)] for j in range(3)) for i in range(3)]
        )
        if ksq > 0:
            div = div - k * (k @ div) / ksq
        idx = (m[0] % n, m[1] % n, m[2] % n)
        for i in range(3):
            out[i][idx] = div[i]
    return out


def oracle_linearized_transport(w_coeffs, u_coeffs, cutoff, box_len, alpha):
    """-P(((w.grad)u + (u.grad)w)_alpha) via direct convolution sums."""
    n = u_coeffs.shape[-1]
    modes = retained_modes(n, cutoff)
    out = np.zeros_like(u_coeffs)
    for m in modes:
        k = 2.0 * np.pi * np.array(m) / box_len
        ksq = float(k @ k)
        bessel = 1.0 / (1.0 + alpha**2 * ksq)
        vec = np.zeros(3, dtype=complex)
        for j in range(3):
            total = 0.0 + 0.0j
            for m1 in modes:
                m2 = (m[0] - m1[0], m[1] - m1[1], m[2] - m1[2])
                if max(abs(m2[0]), abs(m2[1]), abs(m2[2])) > cutoff:
                    continue
                k2 = 2.0 * np.pi * np.array(m2) / box_len
                for i in range(3):
                    # (w . grad) u : w_i(m1) * i k2_i * u_j(m2)
                    total += mode_get(w_coeffs[i], m1) * 1j * k2[i] * mode_get(u_coeffs[j], m2)
                    # (u . grad) w : u_i(m1) * i k2_i * w_j(m2)
                    total += mode_get(u_coeffs[i], m1) * 1j * k2[i] * mode_get(w_coeffs[j], m2)
            vec[j] = bessel * total
        if ksq > 0:
            vec = vec - k * (k @ vec) / ksq
        idx = (m[0] % n, m[1] % n, m[2] % n)
        for j in range(3):
            out[j][idx] = -vec[j]
    return out


def oracle_parseval_l2(samples_3, dx):
    """Physical-space quadrature of integral |v|^2 dx."""
    return float(np.sum(samples_3**2) * dx**3)


def full_transform_bilinear(u_hat, w_hat, grid, alpha):
    """B(u, w) = P div(((u (x) w + w (x) u)/2)_alpha) on the whole half
    spectrum: dealias both inputs by the mask, inverse-transform them on the
    full grid, form and forward-transform every product
    (u_i w_j + w_i u_j)/2, and apply derivative, Leray projection, filter
    and mask on every mode."""
    from scipy import fft as sfft

    n, axes = grid.n, (-3, -2, -1)
    mask = dealias_mask(grid)
    k1 = 2.0 * np.pi * np.fft.fftfreq(n, 1.0 / n) / grid.box_len
    k = np.stack(np.meshgrid(k1, k1, k1[: n // 2 + 1], indexing="ij"))
    ksq = np.sum(k**2, axis=0)
    a = sfft.irfftn(u_hat * mask, s=(n, n, n), axes=axes, norm="forward")
    b = sfft.irfftn(w_hat * mask, s=(n, n, n), axes=axes, norm="forward")
    t = [[sfft.rfftn(0.5 * (a[i] * b[j] + b[i] * a[j]), norm="forward") for j in range(3)]
         for i in range(3)]
    div = np.stack([sum(k[j] * t[i][j] for j in range(3)) for i in range(3)])
    kk = k / np.where(ksq == 0.0, 1.0, ksq)
    proj = div - kk * np.sum(k * div, axis=0)
    return 1j * proj * mask / (1.0 + alpha**2 * ksq)


def random_band_full_spectrum(recipe, grid, alpha):
    """The random_band field built on the full (3, n, n, n) spectrum: both
    standard-normal draws, the band mask and Hermitian symmetrization of
    every mode, then the package's Leray projection of the half spectrum (a
    field on the fraction-1 grid of grid's n) and its rescaling by the
    package's norm of its restriction to grid (dealias), which sums in the
    same order as the box construction it checks."""
    from dataclasses import replace

    from bardina.spectral import VectorField, dealias, leray_project, norms

    n, full = grid.n, replace(grid, dealias_fraction=1.0)
    rng = np.random.default_rng(recipe.seed)
    m = np.fft.fftfreq(n, 1.0 / n)
    mag = np.sqrt(m[:, None, None] ** 2 + m[None, :, None] ** 2 + m[None, None, :] ** 2)
    band = (mag >= recipe.k_min) & (mag <= recipe.k_max)
    shape = (3, n, n, n)
    coeffs = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * band
    mirrored = np.roll(np.flip(coeffs, axis=(1, 2, 3)), 1, axis=(1, 2, 3))  # m -> -m
    coeffs = 0.5 * (coeffs + np.conj(mirrored))
    v = leray_project(VectorField(full, np.ascontiguousarray(coeffs[..., : n // 2 + 1])))
    current = norms(dealias(v, grid), alpha).h1alpha_sq
    if current > 0:
        v = VectorField(full, v.hat * (recipe.amplitude / np.sqrt(current)), div_free=True)
    return v


def gram_schmidt_reference(fields, alpha):
    """Modified Gram-Schmidt in the H^1_alpha inner product through the
    package's norms and h1alpha_inner, one field per projection: the hats
    of the orthonormal fields, in order."""
    from bardina.spectral import VectorField, h1alpha_inner, norms

    out = []
    for v in fields:
        w = v.hat.copy()
        for q in out:
            w -= h1alpha_inner(VectorField(v.grid, w), VectorField(v.grid, q), alpha) * q
        out.append(w / np.sqrt(norms(VectorField(v.grid, w), alpha).h1alpha_sq))
    return out


def hermitian_defect(field):
    """Max |c(-m) - conj(c(m))| of a field relative to its largest
    coefficient.  Only the planes m_z = 0 and m_z = n/2 (Parseval weight 1)
    hold both m and -m; m -> -m on x and y is a flip and a shift by one row,
    in the FFT ordering of any grid's box."""
    hat, n = field.hat, field.grid.n
    planes = hat[..., np.arange(hat.shape[-1]) % (n // 2) == 0]
    flipped = np.roll(np.flip(planes, axis=(-3, -2)), 1, axis=(-3, -2))
    scale = max(np.abs(hat).max(), 1e-300)
    return np.abs(flipped - np.conj(planes)).max() / scale


def r_inf_reference(u, U):
    """max_x |u(x) - U(x)|: the difference u - U, through the package's
    inverse transform."""
    from bardina.spectral import VectorField, inverse_transform

    d = inverse_transform(VectorField(u.grid, u.hat - U.hat))
    return np.sqrt(np.sum(d**2, axis=0)).max()
