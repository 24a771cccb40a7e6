"""Fourier-space fields and linear operators on the periodic box [0, L]^3.

Conventions used throughout:

  * Fields are real and stored as half spectra, the scipy.fft.rfftn
    coefficients (attribute ``hat``): shape (n, n, n//2+1) per component.
    The first two axes hold the mode index m in numpy FFT ordering, the last
    m_z = 0 .. n/2; the modes m_z < 0 are implied by c(-m) = conj(c(m)), so
    Hermitian symmetry holds by construction except inside the planes
    m_z = 0 and m_z = n/2.  Symbols are the full-layout ones restricted to
    the half spectrum, with physical wavevector k = 2*pi*m / L.
  * Coefficients are normalized so that u(x) = sum_m c_m exp(i k.x), i.e.
    c = fftn(samples) / n^3.  Parseval reads integral |u|^2 dx =
    L^3 * sum_m |c_m|^2; a half-spectrum mode with 0 < m_z < n/2 counts twice.
  * full_spectrum / half_spectrum convert to and from the full (n, n, n)
    layout; a field's ``coeffs`` property is its full spectrum (for I/O).
  * Dealiasing keeps mode indices with |m_i| <= floor(dealias_fraction*n/2)
    on every axis (2/3-rule truncation by default).
  * The bilinear kernel works on that retained box only, x and y rows
    |m| <= cutoff and m_z <= cutoff: reading its inputs from the box is
    their dealiasing, its x and y transforms run on the m_z <= cutoff planes
    only, its symbols are box-sized, and one scatter into zero half spectra
    is the truncation of its output.  It transforms the 5 entries of the
    traceless product T - T33 I instead of the 6 of T; that is exact,
    because div(s I) = grad s and the Leray projection removes a gradient
    mode by mode.
"""

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy import fft as sfft

__all__ = [
    "CertificateError",
    "GridSpec",
    "SpectralField",
    "VectorField",
    "PhysParams",
    "NormBundle",
    "full_spectrum",
    "half_spectrum",
    "forward_transform",
    "inverse_transform",
    "helmholtz_filter",
    "leray_project",
    "gradient",
    "divergence",
    "laplacian",
    "dealias",
    "norms",
    "h1alpha_inner",
    "dealiased_physical",
    "bilinear",
    "pressure_from_velocity",
]

DIV_FREE_TOL = 1e-10
AXES = (-3, -2, -1)


class CertificateError(RuntimeError):
    """Raised when a field constructed with div_free=True is not divergence-free:
    the solver produced it, so this is a defect of the program, not of its input."""


@dataclass(frozen=True)
class GridSpec:
    """Cubic periodic grid: n modes per dimension on the box [0, box_len]^3."""

    n: int
    box_len: float = 2.0 * np.pi
    dealias_fraction: float = 2.0 / 3.0

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 4, got {self.n}")
        if not self.box_len > 0:
            raise ValueError(f"box length must be positive, got {self.box_len}")
        if not 0.0 < self.dealias_fraction <= 1.0:
            raise ValueError(
                f"dealias fraction must lie in (0, 1], got {self.dealias_fraction}"
            )

    @property
    def dx(self):
        return self.box_len / self.n

    @property
    def half_shape(self):
        """Shape of one component's half spectrum."""
        return (self.n, self.n, self.n // 2 + 1)

    @property
    def dealias_cutoff(self):
        """Largest retained |m_i| after dealiasing."""
        return int(np.floor(self.dealias_fraction * self.n / 2))


def _frozen(a):
    """Mark a cached array read-only: every caller of the cache shares it."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=32)
def mode_indices(grid):
    """Integer mode index m along one full axis, in FFT ordering."""
    return _frozen(np.fft.fftfreq(grid.n, 1.0 / grid.n).astype(np.int64))


@lru_cache(maxsize=32)
def wavevectors(grid):
    """Physical wavevector components on the half spectrum, shape (3, n, n, n//2+1)."""
    k1 = 2.0 * np.pi * mode_indices(grid) / grid.box_len
    kx, ky, kz = np.meshgrid(k1, k1, k1[: grid.n // 2 + 1], indexing="ij")
    return _frozen(np.stack([kx, ky, kz]))


@lru_cache(maxsize=32)
def wavenumber_sq(grid):
    k = wavevectors(grid)
    return _frozen(k[0] ** 2 + k[1] ** 2 + k[2] ** 2)


@lru_cache(maxsize=32)
def dealias_mask(grid):
    """Boolean mask of retained modes: |m_i| <= cutoff on every axis."""
    keep = np.abs(mode_indices(grid)) <= grid.dealias_cutoff
    return _frozen(
        keep[:, None, None] & keep[None, :, None] & keep[None, None, : grid.n // 2 + 1]
    )


@lru_cache(maxsize=32)
def parseval_weights(grid):
    """Multiplicity of each m_z plane of the half spectrum in the full one."""
    w = np.full(grid.n // 2 + 1, 2.0)
    w[[0, -1]] = 1.0
    return _frozen(w)


def _reverse_modes(coeffs, axes=AXES):
    """Map mode index m -> -m on the given full-layout axes."""
    return np.roll(np.flip(coeffs, axis=axes), 1, axis=axes)


def half_spectrum(full):
    """Full spectrum (..., n, n, n) of a real field -> its half spectrum."""
    return np.ascontiguousarray(full[..., : full.shape[-1] // 2 + 1])


def full_spectrum(hat):
    """Half spectrum (..., n, n, n//2+1) -> full spectrum (..., n, n, n),
    filling the modes with m_z < 0 from c(-m) = conj(c(m))."""
    n = hat.shape[-2]
    tail = _reverse_modes(np.conj(hat[..., n // 2 - 1 : 0 : -1]), axes=(-3, -2))
    return np.concatenate([hat, tail], axis=-1)


@dataclass
class SpectralField:
    """One real scalar field as its half spectrum, shape (n, n, n//2+1)."""

    grid: GridSpec
    hat: np.ndarray

    _lead = ()  # leading axes before the spectral ones

    def __post_init__(self):
        shape = self._lead + self.grid.half_shape
        if self.hat.shape != shape:
            raise ValueError(f"half-spectrum shape {self.hat.shape} does not match {shape}")

    @property
    def coeffs(self):
        """The full spectrum, in numpy FFT ordering."""
        return full_spectrum(self.hat)

    def copy(self):
        return replace(self, hat=self.hat.copy())

    def hermitian_defect(self):
        """Max |c(-m) - conj(c(m))| relative to the largest coefficient.  Only
        the planes m_z = 0 and m_z = n/2 hold both m and -m."""
        planes = self.hat[..., [0, self.grid.n // 2]]
        flipped = _reverse_modes(planes, axes=(-3, -2))
        scale = max(np.abs(self.hat).max(), 1e-300)
        return np.abs(flipped - np.conj(planes)).max() / scale


@dataclass
class VectorField(SpectralField):
    """Three real scalar fields on a shared grid, half spectra (3, n, n, n//2+1).

    div_free=True is a certificate, checked on construction; the solver sets
    it on carried-forward states (step output, Picard iterate) and on inputs
    (generated fields)."""

    div_free: bool = False

    _lead = (3,)

    def __post_init__(self):
        super().__post_init__()
        if self.div_free:
            d = self.div_defect()
            if d > DIV_FREE_TOL:
                raise CertificateError(
                    f"div_free certificate violated: max mode divergence {d:.3e}"
                )

    def component(self, i):
        return SpectralField(self.grid, self.hat[i])

    def div_defect(self):
        """Max over modes of |k . u_hat(k)| / max(1, |u_hat(k)|)."""
        k, c = wavevectors(self.grid), self.hat
        kdotu = np.abs(k[0] * c[0] + k[1] * c[1] + k[2] * c[2])
        mag = np.sqrt(np.sum(c.real**2 + c.imag**2, axis=0))
        return (kdotu / np.maximum(1.0, mag)).max()


@dataclass(frozen=True)
class PhysParams:
    """Filter length alpha, damping rate beta, viscosity nu, and the
    configurable numerical constant entering the eta(beta) quantity."""

    alpha: float
    beta: float
    nu: float
    eta_c: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta", "nu", "eta_c"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class NormBundle:
    """Squared L2, homogeneous H1/H2 seminorms and the H1_alpha energy norm."""

    l2_sq: float
    h1dot_sq: float
    h2dot_sq: float
    h1alpha_sq: float


def _to_physical(hat, n):
    """Batched inverse transform of half spectra over the last three axes."""
    return sfft.irfftn(hat, s=(n, n, n), axes=AXES, norm="forward")


def forward_transform(physical_samples, grid=None):
    """Physical samples on the n^3 grid -> SpectralField."""
    samples = np.asarray(physical_samples, dtype=np.float64)
    if samples.ndim != 3 or len(set(samples.shape)) != 1:
        raise ValueError(f"expected a cubic sample array, got shape {samples.shape}")
    n = samples.shape[0]
    if n % 2 != 0:
        raise ValueError(f"sample array size must be even, got {n}")
    if grid is None:
        grid = GridSpec(n)
    elif grid.n != n:
        raise ValueError(f"sample array size {n} does not match grid n={grid.n}")
    return SpectralField(grid, sfft.rfftn(samples, norm="forward"))


def inverse_transform(field):
    """SpectralField -> real physical samples on the n^3 grid."""
    return _to_physical(field.hat, field.grid.n)


def vector_from_physical(samples, grid):
    """Stack of 3 physical component arrays -> VectorField."""
    return VectorField(grid, sfft.rfftn(samples, axes=AXES, norm="forward"))


def vector_to_physical(v):
    """VectorField -> physical component arrays, shape (3, n, n, n)."""
    return _to_physical(v.hat, v.grid.n)


def _check_shared_grid(*fields):
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise ValueError("fields do not share a grid")
    return g


def helmholtz_filter(v, alpha):
    """Bessel-potential smoothing: per-mode division by (1 + alpha^2 |k|^2)."""
    return replace(v, hat=v.hat / (1.0 + alpha**2 * wavenumber_sq(v.grid)))


@lru_cache(maxsize=32)
def _leray_symbol(grid):
    """k / |k|^2, zero at k = 0 (where the projection is the identity)."""
    ksq = wavenumber_sq(grid)
    return _frozen(wavevectors(grid) / np.where(ksq == 0.0, 1.0, ksq))


def leray_project(v):
    """Project onto divergence-free fields: u_hat -> u_hat - k (k.u_hat)/|k|^2."""
    kdotu = np.sum(wavevectors(v.grid) * v.hat, axis=0)
    return VectorField(v.grid, v.hat - _leray_symbol(v.grid) * kdotu, div_free=True)


def gradient(field):
    """Scalar field -> vector field with components i k_j * f_hat."""
    return VectorField(field.grid, 1j * wavevectors(field.grid) * field.hat)


def divergence(v):
    """Vector field -> scalar field i k . u_hat."""
    k = wavevectors(v.grid)
    return SpectralField(v.grid, 1j * np.sum(k * v.hat, axis=0))


def laplacian(field):
    """Multiply by -|k|^2 (works for scalar and vector fields)."""
    return replace(field, hat=-wavenumber_sq(field.grid) * field.hat)


def dealias(v):
    """Zero every mode with any |m_i| beyond the dealias cutoff."""
    return replace(v, hat=v.hat * dealias_mask(v.grid))


def _real_dot(v, w):
    """Per-mode Re sum_i conj(v_i) w_i, weighted by the mode's multiplicity."""
    a, b = v.hat, w.hat
    dots = np.sum(a.real * b.real + a.imag * b.imag, axis=0)
    return parseval_weights(v.grid) * dots


def norms(v, alpha):
    """Parseval norms of a vector field: L^3 * sum |k|^{2s} |u_hat|^2."""
    vol = v.grid.box_len**3
    ksq = wavenumber_sq(v.grid)
    mag2 = _real_dot(v, v)
    l2 = vol * float(np.sum(mag2))
    h1 = vol * float(np.sum(ksq * mag2))
    h2 = vol * float(np.sum(ksq**2 * mag2))
    return NormBundle(l2, h1, h2, l2 + alpha**2 * h1)


def h1alpha_inner(v, w, alpha):
    """Energy-space inner product (v,w)_L2 + alpha^2 (grad v, grad w)_L2."""
    grid = _check_shared_grid(v, w)
    ksq = wavenumber_sq(grid)
    return grid.box_len**3 * float(np.sum((1.0 + alpha**2 * ksq) * _real_dot(v, w)))


@lru_cache(maxsize=32)
def _box_rows(grid):
    """Indices of the retained modes |m| <= cutoff along one full axis, in FFT
    ordering.  With dealias_fraction 1 the cutoff is n/2 and the row m = -n/2
    is listed once."""
    return _frozen(np.flatnonzero(np.abs(mode_indices(grid)) <= grid.dealias_cutoff))


def _box(a, grid):
    """Gather the retained box (..., b, b, cutoff+1) of half-spectrum arrays."""
    rows = _box_rows(grid)
    return a[..., rows[:, None], rows, : grid.dealias_cutoff + 1]


def dealiased_physical(v):
    """Physical samples (3, n, n, n) of the dealiased field: the form in which
    the bilinear kernel reads its inputs.  The m_z <= cutoff planes are
    copied into zero half spectra and their x and y rows beyond the cutoff
    zeroed, which leaves the retained box; these planes are transformed over
    x and y in place, then the whole over z by the real inverse transform."""
    n, c = v.grid.n, v.grid.dealias_cutoff
    a = np.zeros(v.hat.shape, dtype=v.hat.dtype)
    box = a[..., : c + 1]
    box[...] = v.hat[..., : c + 1]
    box[:, c + 1 : n - c] = 0.0
    box[:, :, c + 1 : n - c] = 0.0
    xy = sfft.ifftn(box, axes=(-3, -2), norm="forward", overwrite_x=True)
    if not np.may_share_memory(xy, box):  # the transform did not run in place
        box[...] = xy
    return sfft.irfftn(a, s=(n,), axes=(-1,), norm="forward", overwrite_x=True)


def _box_spectra(samples, grid):
    """Retained-box spectra (s, b, b, cutoff+1) of physical samples
    (s, n, n, n): the x and y transforms run on the m_z <= cutoff planes
    only."""
    a = sfft.rfftn(samples, axes=(-1,), norm="forward")[..., : grid.dealias_cutoff + 1]
    a = sfft.fftn(a, axes=(-3, -2), norm="forward", overwrite_x=True)
    rows = _box_rows(grid)
    return a[:, rows[:, None], rows]


def _traceless_products(a, b):
    """Physical samples of T - T33 I for T = (a (x) b + b (x) a)/2, as the 5
    slots T11 - T33, T22 - T33, T12, T13, T23.  Shifting T by T33 I changes
    div T by grad T33, which the Leray projection removes mode by mode, so B
    needs only these 5 slots."""
    out = np.empty((5,) + a.shape[1:])
    np.multiply(a[2], b[2], out=out[4])  # T33, until T23 takes its slot
    for s in (0, 1):
        np.multiply(a[s], b[s], out=out[s])
        out[s] -= out[4]
    tmp = None if b is a else np.empty(a.shape[1:])
    for s, (i, j) in enumerate(((0, 1), (0, 2), (1, 2)), start=2):
        np.multiply(a[i], b[j], out=out[s])
        if tmp is not None:
            out[s] += np.multiply(b[i], a[j], out=tmp)
            out[s] *= 0.5
    return out


def tensor_product_spectra(u, w, u_phys=None):
    """Retained-box spectra (5, b, b, cutoff+1) of the traceless symmetric
    product T - T33 I, T = (u (x) w + w (x) u)/2 (slots as in
    _traceless_products); one inverse transform when w is u, none for u
    when u_phys, its dealiased_physical samples, is given.

    Products of the dealiased inputs are formed in physical space, so the
    retained modes are the exact Galerkin projection; the other modes are
    dropped after the z transform.
    """
    a = dealiased_physical(u) if u_phys is None else u_phys
    b = a if w is u else dealiased_physical(w)
    return _box_spectra(_traceless_products(a, b), u.grid)


@lru_cache(maxsize=32)
def _bilinear_symbols(grid, alpha):
    """Symbols of the bilinear kernel on the retained box: k, k/|k|^2 (0 at
    k = 0), and i (1 + alpha^2 |k|^2)^{-1} (derivative and filter fused)."""
    filt = 1.0 / (1.0 + alpha**2 * wavenumber_sq(grid))
    return (
        _frozen(_box(wavevectors(grid), grid)),
        _frozen(_box(_leray_symbol(grid), grid)),
        _frozen(_box(1j * filt, grid)),
    )


def _contract(t, k):
    """(sum_j k_j T_ij)_i for the traceless tensor held as 5 slots."""
    return [
        k[0] * t[0] + k[1] * t[2] + k[2] * t[3],
        k[0] * t[2] + k[1] * t[1] + k[2] * t[4],
        k[0] * t[3] + k[1] * t[4],
    ]


def _unbox(box, grid):
    """Scatter retained-box values into zero half spectra."""
    out = np.zeros(box.shape[:-3] + grid.half_shape, dtype=box.dtype)
    rows = _box_rows(grid)
    out[..., rows[:, None], rows, : grid.dealias_cutoff + 1] = box
    return out


def bilinear(u, w, alpha, u_phys=None):
    """Symmetric bilinear form B(u, w) = P div(((u (x) w + w (x) u)/2)_alpha), dealiased.

    B(u, u) is the Bardina nonlinearity; for divergence-free u and w,
    2 B(u, w) = P(((w.grad)u + (u.grad)w)_alpha).  One inverse transform per
    distinct input, one forward transform of the 5 traceless products, and
    the symbols applied on the retained box only.  A caller that applies
    B(u, .) to many fields passes u_phys = dealiased_physical(u) once and
    saves the transform of u.
    """
    grid = _check_shared_grid(u, w)
    t = tensor_product_spectra(u, w, u_phys)
    k, kk, g = _bilinear_symbols(grid, alpha)
    v = _contract(t, k)  # div T / i
    q = k[0] * v[0] + k[1] * v[1] + k[2] * v[2]
    box = np.empty((3,) + t.shape[1:], dtype=t.dtype)
    for i in range(3):
        np.multiply(v[i] - kk[i] * q, g, out=box[i])
    return VectorField(grid, _unbox(box, grid))


def pressure_from_velocity(u, alpha):
    """Recover the pressure from the velocity via the Riesz-transform formula:
    p_hat(k) = sum_ij (-k_i k_j / |k|^2) (1 + alpha^2 |k|^2)^{-1} (u_i u_j)_hat,
    with p_hat(0) = 0, dealiased.  The traceless slots of
    tensor_product_spectra lose |k|^2 T33 from the sum, so T33 is
    transformed by the same box transforms and added back."""
    grid = u.grid
    a = dealiased_physical(u)
    t = tensor_product_spectra(u, u, a)
    t33 = _box_spectra(a[2:] * a[2:], grid)[0]
    k, kk, g = _bilinear_symbols(grid, alpha)
    v = _contract(t, k)
    p = 1j * g * (kk[0] * v[0] + kk[1] * v[1] + kk[2] * v[2] + t33)
    p[0, 0, 0] = 0.0  # k = 0: _box_rows starts at m = 0
    return SpectralField(grid, _unbox(p, grid))
