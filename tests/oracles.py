"""Independent brute-force oracles used by the test suite.

Everything here is deliberately slow and simple: direct DFT sums and direct
convolution sums over retained modes, with no shared code paths with the
package implementation.  Former implementations are kept as references
for their faster replacements: the full-transform bilinear kernel, the
kernel's symbol stage with each sum in a new array (which reuses the
package's product spectra and symbols, the part its replacement did not
change), the full-spectrum random_band construction (which reuses the
package's Leray projection and norms), the modified Gram-Schmidt built
from the package's norms and h1alpha_inner, steady_convergence's r_inf
through the transform of u - U, the box symbols gathered from the half
spectrum's (which reuses the package's box copy), the box symbols with k
as one dense (3,) + box_shape array and the per-mode operators that read
it, the frame transport and
Gram-Schmidt that made a new array per step and per field (which reuse the
package's kernel and weights), zero_force_decay's L^p norms through
|u| and |u|^p in new arrays, r_inf through the whole difference of the
samples, the norms through |u_hat|^2 of all components at once, the
H^1_alpha inner product through a new weighted copy, the ETD2RK step
with each stage in a new array (which reuses the package's kernel and
weights), and the late-time envelope checks and growth-rate fits of
steady_convergence and zero_force_decay written out, with np.polyfit.
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


def _contract(t, k):
    """(sum_j k_j T_ij)_i for the traceless tensor held as 5 slots."""
    return [
        k[0] * t[0] + k[1] * t[2] + k[2] * t[3],
        k[0] * t[2] + k[1] * t[1] + k[2] * t[4],
        k[0] * t[3] + k[1] * t[4],
    ]


def bilinear_symbol_stage(u, w, alpha, u_phys=None):
    """The hat of B(u, w) from the package's product spectra and symbols,
    through the symbol stage that formed the contraction, k . v and each
    projected, filtered component in new arrays."""
    from bardina.spectral import _bilinear_symbols, tensor_product_spectra

    t = tensor_product_spectra(u, w, u_phys)
    k, kk, g = _bilinear_symbols(u.grid, alpha)
    v = _contract(t, k)  # div T / i
    q = k[0] * v[0] + k[1] * v[1] + k[2] * v[2]
    box = np.empty((3,) + t.shape[1:], dtype=t.dtype)
    for i in range(3):
        np.multiply(v[i] - kk[i] * q, g, out=box[i])
    return box


def pressure_symbol_stage(u, alpha):
    """The hat of pressure_from_velocity(u, alpha) through that stage's
    contraction, T33 transformed by the package's forward transform and
    copied out first: the product spectra are a view of the work array its
    transform writes."""
    from bardina.spectral import (
        _bilinear_symbols, _forward, inverse_transform, tensor_product_spectra)

    a = inverse_transform(u)
    t33 = _forward(a[2:] * a[2:], u.grid)[0].copy()
    t = tensor_product_spectra(u, u, a)
    k, kk, g = _bilinear_symbols(u.grid, alpha)
    v = _contract(t, k)
    p = 1j * g * (kk[0] * v[0] + kk[1] * v[1] + kk[2] * v[2] + t33)
    p[0, 0, 0] = 0.0
    return p


def random_band_full_spectrum(recipe, grid, alpha):
    """The random_band field built on the full (3, n, n, n) spectrum: both
    standard-normal draws, the band mask and Hermitian symmetrization of
    every mode, then the package's Leray projection of the half spectrum (a
    field on the fraction-1 grid of grid's n) and its rescaling by the
    package's norm of its restriction to grid (dealias), which sums in the
    same order as the box construction it checks."""
    from bardina.spectral import VectorField, dealias, leray_project, norms

    n, full = grid.n, grid._replace(dealias_fraction=1.0)
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


def sup_distance_reference(a, b):
    """max_x |u(x) - v(x)| from the samples of u and v through their whole
    (3, n, n, n) difference, squared and summed over the components."""
    return np.sqrt(np.sum(np.square(a - b), axis=0).max())


def half_spectrum_modes(grid):
    """The symbols of modes(grid), (k, ksq, weights, leray), built on the
    (3, n, n, n//2+1) half spectrum from numpy.fft.fftfreq and copied into
    the box by the package's _copy_box."""
    from bardina.spectral import _copy_box

    m = np.fft.fftfreq(grid.n, 1.0 / grid.n).astype(np.int64)
    k1 = 2.0 * np.pi * m / grid.box_len
    half = np.stack(np.meshgrid(k1, k1, k1[: grid.n // 2 + 1], indexing="ij"))
    k = _copy_box(half, grid, np.zeros((3,) + grid.box_shape))
    ksq = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
    leray = k / np.where(ksq == 0.0, 1.0, ksq)
    planes = np.arange(grid.box_shape[-1])
    weights = np.where(planes % (grid.n // 2) == 0, 1.0, 2.0)
    return k, ksq, weights, leray


def dense_modes(grid):
    """(k, |k|^2, k / |k|^2) of the grid's box as modes(grid) built them
    while k was one dense (3,) + box_shape array, filled from sparse
    meshgrid views."""
    from bardina.spectral import _runs, fft_order

    k1 = 2.0 * np.pi * fft_order(grid.n) / grid.box_len
    rows = np.concatenate([k1[run] for run in _runs(grid, grid.n)])
    k = np.empty((3,) + grid.box_shape)
    k[0], k[1], k[2] = np.meshgrid(rows, rows, k1[: grid.box_shape[-1]], indexing="ij",
                                   sparse=True)
    ksq = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
    return k, ksq, k / np.where(ksq == 0.0, 1.0, ksq)


def div_defect_dense(v):
    """VectorField.div_defect with the dense k."""
    k, c = dense_modes(v.grid)[0], v.hat
    kdotu = np.abs(k[0] * c[0] + k[1] * c[1] + k[2] * c[2]).max()
    return kdotu / np.maximum(1.0, np.abs(c).max())


def leray_project_dense(v):
    """The hat of leray_project(v) with the dense k and k / |k|^2."""
    k, _, leray = dense_modes(v.grid)
    return v.hat - leray * np.sum(k * v.hat, axis=0)


def gradient_dense(field):
    """The hat of gradient(field) with the dense k."""
    return 1j * dense_modes(field.grid)[0] * field.hat


def divergence_dense(v):
    """The hat of divergence(v) with the dense k."""
    return 1j * np.sum(dense_modes(v.grid)[0] * v.hat, axis=0)


def transport_frame_reference(frame, state, dt, n_steps):
    """transport_frame with each step of each field in a new array,
    expz * w + w1 * nl, and the moved fields orthonormalized from copies by
    orthonormalize_reference: (the hats of the moved frame, the sum)."""
    from bardina.attractor import _etd_weights, damping_symbol
    from bardina.spectral import VectorField, bilinear, h1alpha_inner

    u, p, grid = state.u, state.params, state.u.grid
    damping = damping_symbol(grid, p)
    expz, w1, _ = _etd_weights(grid, p, dt)
    total, evolved = 0.0, []
    for w in frame:
        nl = -2.0 * bilinear(u, w, p.alpha, state.u_phys).hat
        total += h1alpha_inner(VectorField(grid, nl - damping * w.hat), w, p.alpha)
        for k in range(n_steps):
            if k:
                nl = -2.0 * bilinear(u, w, p.alpha, state.u_phys).hat
            w = VectorField(grid, expz * w.hat + w1 * nl)
        evolved.append(w)
    return orthonormalize_reference(evolved, p.alpha), total


def orthonormalize_reference(fields, alpha):
    """orthonormalize's modified Gram-Schmidt, each field copied and each
    result divided into a new array: the hats, in order."""
    from bardina.spectral import h1alpha_weights

    weight = h1alpha_weights(fields[0].grid, alpha)
    out = []
    for v in fields:
        w = v.hat.copy()
        for q in out:
            w -= np.vdot(weight * q, w).real * q
        out.append(w / np.sqrt(np.vdot(weight * w, w).real))
    return out


def steady_envelope_reference(times, r_inf):
    """steady_convergence's former inline check: r_inf(t) <= C t^{-3/4} at
    every sampled t >= 1, C fit at the first of them."""
    late = times >= 1.0
    envelope_ok = True
    if late.sum() >= 2:
        t_late = times[late]
        c_fit = r_inf[late][0] * t_late[0] ** 0.75
        envelope_ok = bool(np.all(r_inf[late] <= c_fit * t_late**-0.75 * (1.0 + 1e-9) + 1e-300))
    return envelope_ok


def zero_force_fit_reference(times, vals, beta, p):
    """zero_force_decay's former inline fit of one L^p series, through
    np.polyfit: (the fitted rate, 0 unless every value at t >= 1 is
    positive; whether C_p e^{-2 beta t / p} holds at every sampled t >= 1,
    C_p fit at the first of them, True with fewer than two such times).
    The former check also read False for a series with a late zero that
    was not 0 throughout; here the envelope judges every series."""
    late = times >= 1.0
    if late.sum() < 2:
        return 0.0, True
    rate_envelope = 0.0 if p == np.inf else -2.0 * beta / p
    t_late = times[late]
    positive = np.all(vals[late] > 0)
    rate = float(np.polyfit(t_late, np.log(vals[late]), 1)[0]) if positive else 0.0
    c_fit = vals[late][0] * np.exp(-rate_envelope * t_late[0])
    bound = c_fit * np.exp(rate_envelope * t_late) * (1.0 + 1e-9) + 1e-300
    return rate, bool(np.all(vals[late] <= bound))


def magnitude(samples):
    """|u(x)| on the grid, from the physical samples (3, n, n, n) of u."""
    return np.sqrt(np.sum(samples**2, axis=0))


def lp_norm(mag, p, dx):
    """L^p norm of a field from its magnitude samples on a grid of spacing dx."""
    if p == np.inf:
        return mag.max()
    return float((dx**3 * np.sum(mag**p)) ** (1.0 / p))


def norms_reference(v, alpha):
    """norms with |u_hat|^2 summed over the components by np.sum(axis=0)
    and each weighted sum in a new array: (l2, h1, h2, h1alpha)."""
    vol, c, symbols = v.grid.box_len**3, v.hat, v.symbols
    mag2 = symbols.weights * np.sum(c.real * c.real + c.imag * c.imag, axis=0)
    l2 = vol * float(np.sum(mag2))
    h1 = vol * float(np.sum(symbols.ksq * mag2))
    h2 = vol * float(np.sum(symbols.ksq**2 * mag2))
    return l2, h1, h2, l2 + alpha**2 * h1


def h1alpha_inner_reference(v, w, alpha):
    """Re vdot(h1alpha_weights * v_hat, w_hat), the weighted copy a new array."""
    from bardina.spectral import h1alpha_weights

    return float(np.vdot(h1alpha_weights(v.grid, alpha) * v.hat, w.hat).real)


def step_reference(u, force, params, dt):
    """The hat of one ETD2RK step from u under the force, each stage a new
    array: n0 = f - N(u), p = e^z u + w1 n0, and p + w2 ((f - N(p)) - n0)."""
    from bardina.dynamics import _etd_weights, nonlinear_term
    from bardina.spectral import VectorField

    expz, w1, w2 = _etd_weights(u.grid, params, dt)
    n0 = force.hat - nonlinear_term(u, params.alpha).hat
    p = expz * u.hat + w1 * n0
    return p + w2 * ((force.hat - nonlinear_term(VectorField(u.grid, p), params.alpha).hat) - n0)
