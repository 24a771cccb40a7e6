"""Fourier-space fields and linear operators on the periodic box [0, L]^3.

Conventions used throughout:

  * Fields are real; ``hat`` holds their coefficients in their grid's
    retained box, grid.box_shape = (b, b, c+1) per component: the modes
    with every |m_i| <= c = floor(dealias_fraction*n/2), the dealias cutoff
    (2/3-rule truncation by default).  The x and y rows hold m = 0 .. c,
    -c .. -1 (the FFT ordering of b = 2c+1 points), the planes m_z = 0 .. c;
    the modes m_z < 0 follow from c(-m) = conj(c(m)), so Hermitian symmetry
    holds by construction except inside the planes m_z = 0 and m_z = n/2.
    At dealias_fraction 1 the box is the half spectrum, grid.half_shape =
    (n, n, n//2+1), the scipy.fft.rfftn coefficients.  One layout per grid,
    so dealiasing is a restriction between grids: dealias(v, grid).
    Per-mode operators read their grid's symbols, modes(grid).
  * One transform pair converts between samples and coefficients, scalar
    or vector: inverse_transform and the forward helper behind
    forward_transform and the kernel.  Both split the axes: the real
    transform runs over z, the x and y transforms on the planes m_z the box
    holds only.  They call scipy.fft, as numpy.fft 2.4 costs more per call
    on these small strided arrays (x-y pass on (5, 16, 16, 6): 88 against
    56 us with scipy 1.17 on a 2-vCPU x86-64 host).
  * Work arrays, allocated once per shape (_work): the kernel's 5 products
    fill a (5, n, n, n) buffer, with an (n, n, n) scratch, and
    inverse_transform pads into the same buffer, idle then.  No call maps
    fresh pages for them, and every result is a new array, but neither the
    pair nor the kernel is re-entrant: one thread at a time, as in the CLI.
  * Coefficients are normalized so that u(x) = sum_m c_m exp(i k.x), k =
    2 pi m / L, i.e. c = fftn(samples) / n^3.  Parseval reads integral
    |u|^2 dx = L^3 * sum_m |c_m|^2; a mode with 0 < m_z < n/2 counts twice.
    The H^1_alpha inner product is Re vdot(h1alpha_weights * v_hat, w_hat),
    and h1alpha_weights is the one place its per-mode weights are formed.
  * full_spectrum converts a half spectrum to the full (n, n, n) layout;
    a field's ``coeffs`` property is its full spectrum.
  * The bilinear kernel transforms the 5 entries of the traceless product
    T - T33 I instead of the 6 of T; that is exact, because div(s I) =
    grad s and the Leray projection removes a gradient mode by mode.
"""

from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

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
    "forward_transform",
    "inverse_transform",
    "helmholtz_filter",
    "leray_project",
    "gradient",
    "divergence",
    "laplacian",
    "dealias",
    "norms",
    "h1alpha_diff_sq",
    "h1alpha_weights",
    "h1alpha_inner",
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

    @cached_property
    def box_shape(self):
        """Shape of one component's retained box: 2c+1 rows along x and y (n
        at dealias_fraction 1, where row n/2 is listed once), c+1 planes m_z."""
        c = self.dealias_cutoff
        return (min(2 * c + 1, self.n),) * 2 + (c + 1,)

    @cached_property
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


def _blocks(a, grid):
    """Views of the retained box in `a` as 4 blocks, one per pair of the
    contiguous x and y row runs m >= 0 and m < 0; `a` holds the box of a
    grid of the same n with a cutoff of at least c (all n rows at
    dealias_fraction 1), or the half spectrum."""
    c, rows = grid.dealias_cutoff, a.shape[-3]
    runs = (slice(0, c + 1), slice(rows - (grid.box_shape[0] - c - 1), rows))
    return [a[..., x, y, : c + 1] for x in runs for y in runs]


def _copy_box(hat, grid, out):
    """Copy the modes of grid's retained box from `hat` into `out` block by
    block and return `out`; the modes of `out` outside that box are left as
    they are."""
    for dst, src in zip(_blocks(out, grid), _blocks(hat, grid)):
        dst[...] = src
    return out


_work = lru_cache(maxsize=8)(np.empty)  # _work(shape, dtype): see "Work arrays" above


Modes = namedtuple("Modes", "k ksq weights leray")


@lru_cache(maxsize=32)
def modes(grid):
    """The per-mode symbols of the grid's box: wavevector k, |k|^2, the
    multiplicity of each m_z plane in the full spectrum, and k / |k|^2 (zero
    at k = 0, where the Leray projection is the identity).  k is gathered
    from the half spectrum's, so two grids of one n and box_len hold the
    same values on the modes their boxes share."""
    k1 = 2.0 * np.pi * mode_indices(grid) / grid.box_len
    half = np.stack(np.meshgrid(k1, k1, k1[: grid.n // 2 + 1], indexing="ij"))
    k = _copy_box(half, grid, np.zeros((3,) + grid.box_shape))
    ksq = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
    leray = k / np.where(ksq == 0.0, 1.0, ksq)
    planes = np.arange(grid.box_shape[-1])
    weights = np.where(planes % (grid.n // 2) == 0, 1.0, 2.0)  # m_z = 0, n/2
    return Modes(*(_frozen(a) for a in (k, ksq, weights, leray)))


def _reverse_modes(coeffs, axes=AXES):
    """Map mode index m -> -m on the given FFT-ordered axes."""
    return np.roll(np.flip(coeffs, axis=axes), 1, axis=axes)


def full_spectrum(hat):
    """Half spectrum (..., n, n, n//2+1) -> full spectrum (..., n, n, n),
    filling the modes with m_z < 0 from c(-m) = conj(c(m))."""
    n = hat.shape[-2]
    tail = _reverse_modes(np.conj(hat[..., n // 2 - 1 : 0 : -1]), axes=(-3, -2))
    return np.concatenate([hat, tail], axis=-1)


@dataclass
class SpectralField:
    """One real scalar field, hat of shape grid.box_shape."""

    grid: GridSpec
    hat: np.ndarray

    _lead = ()  # leading axes before the spectral ones

    def __post_init__(self):
        shape = self._lead + self.grid.box_shape
        if self.hat.shape != shape:
            raise ValueError(f"spectrum shape {self.hat.shape} is not the grid's box {shape}")

    @property
    def symbols(self):
        """The symbols of this field's grid."""
        return modes(self.grid)

    @property
    def coeffs(self):
        """The full spectrum, in numpy FFT ordering: zero outside the box."""
        half = np.zeros(self.hat.shape[:-3] + self.grid.half_shape, dtype=self.hat.dtype)
        return full_spectrum(_copy_box(self.hat, self.grid, half))

    def copy(self):
        return replace(self, hat=self.hat.copy())


@dataclass
class VectorField(SpectralField):
    """Three real scalar fields on a shared grid, hat of shape (3,) + grid.box_shape.

    div_free=True is a certificate, checked on construction; the solver sets
    it on carried-forward states (step output, Picard iterate) and on inputs
    (generated fields)."""

    div_free: bool = False

    _lead = (3,)

    def __post_init__(self):
        super().__post_init__()
        if self.div_free:
            d = self.div_defect()
            if not d <= DIV_FREE_TOL:  # a NaN defect fails too
                raise CertificateError(
                    f"div_free certificate violated: max mode divergence {d:.3e}"
                )

    def component(self, i):
        return SpectralField(self.grid, self.hat[i])

    def div_defect(self):
        """Max over modes of |k . u_hat(k)| / max(1, |u_hat(k)|)."""
        k, c = self.symbols.k, self.hat
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


def _forward(samples, grid):
    """The box coefficients of physical samples (..., n, n, n): the real
    transform over z, then the x and y transforms of the planes m_z the box
    holds only."""
    a = sfft.rfftn(samples, axes=(-1,), norm="forward")[..., : grid.box_shape[-1]]
    a = sfft.fftn(a, axes=(-3, -2), norm="forward", overwrite_x=True)
    return _copy_box(a, grid, np.zeros(a.shape[:-3] + grid.box_shape, dtype=a.dtype))


def forward_transform(physical_samples, grid=None):
    """Physical samples on the n^3 grid, (n, n, n) or (3, n, n, n) -> their
    SpectralField or VectorField on `grid` (default GridSpec(n)): its box,
    every mode beyond the dealias cutoff dropped."""
    samples = np.asarray(physical_samples, dtype=np.float64)
    lead, cube = samples.shape[:-3], samples.shape[-3:]
    if samples.ndim < 3 or lead not in ((), (3,)) or len(set(cube)) != 1:
        raise ValueError(f"expected (n, n, n) or (3, n, n, n) samples, got {samples.shape}")
    grid = GridSpec(cube[0]) if grid is None else grid  # GridSpec requires an even n
    if grid.n != cube[0]:
        raise ValueError(f"sample array size {cube[0]} does not match grid n={grid.n}")
    kind = VectorField if lead else SpectralField
    return kind(grid, _forward(samples, grid))


def inverse_transform(field):
    """Real samples on the n^3 grid of a scalar or vector field, a new array.
    The box is padded into the product work array, never transformed in its
    own hat: over x and y on the planes m_z the box holds, then over z."""
    hat, grid = field.hat, field.grid
    shape = hat.shape[:-3] + grid.half_shape  # in the product buffer: see "Work arrays"
    a = _work((5,) + (grid.n,) * 3, float).ravel().view(complex)[: np.prod(shape)].reshape(shape)
    a.fill(0)  # the transforms below may have overwritten any of it
    held = _copy_box(hat, grid, a)[..., : grid.box_shape[-1]]
    xy = sfft.ifftn(held, axes=(-3, -2), norm="forward", overwrite_x=True)
    if not np.may_share_memory(xy, held):  # the transform did not run in place
        held[...] = xy
    return sfft.irfftn(a, s=(grid.n,), axes=(-1,), norm="forward", overwrite_x=True)


def _check_shared_grid(*fields):
    """The grid of the fields; ValueError naming two grids that differ."""
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise ValueError(f"fields do not share a grid: {g} and {f.grid}")
    return g


def helmholtz_filter(v, alpha):
    """Bessel-potential smoothing: per-mode division by (1 + alpha^2 |k|^2)."""
    return replace(v, hat=v.hat / (1.0 + alpha**2 * v.symbols.ksq))


def _project(hat, symbols):
    """u_hat - k (k.u_hat)/|k|^2 for hat on the grid of `symbols`."""
    return hat - symbols.leray * np.sum(symbols.k * hat, axis=0)


def leray_project(v):
    """Project onto divergence-free fields: u_hat -> u_hat - k (k.u_hat)/|k|^2."""
    return VectorField(v.grid, _project(v.hat, v.symbols), div_free=True)


def gradient(field):
    """Scalar field -> vector field with components i k_j * f_hat."""
    return VectorField(field.grid, 1j * field.symbols.k * field.hat)


def divergence(v):
    """Vector field -> scalar field i k . u_hat."""
    return SpectralField(v.grid, 1j * np.sum(v.symbols.k * v.hat, axis=0))


def laplacian(field):
    """Multiply by -|k|^2 (works for scalar and vector fields)."""
    return replace(field, hat=-field.symbols.ksq * field.hat)


def dealias(v, grid):
    """v restricted to `grid`: every mode of v outside grid's box dropped.
    grid must share v's n and box_len and have a cutoff no larger than v's,
    else ValueError; v itself when grid is v's."""
    if grid == v.grid:
        return v
    if (grid.n, grid.box_len) != (v.grid.n, v.grid.box_len) or (
        grid.dealias_cutoff > v.grid.dealias_cutoff
    ):
        raise ValueError(f"a field on {v.grid} does not restrict to {grid}")
    out = np.zeros(v.hat.shape[:-3] + grid.box_shape, dtype=v.hat.dtype)
    return replace(v, grid=grid, hat=_copy_box(v.hat, grid, out))


def norms(v, alpha):
    """Parseval norms of a vector field: L^3 * sum |k|^{2s} |u_hat|^2."""
    vol, c, symbols = v.grid.box_len**3, v.hat, v.symbols
    mag2 = symbols.weights * np.sum(c.real * c.real + c.imag * c.imag, axis=0)
    l2 = vol * float(np.sum(mag2))
    h1 = vol * float(np.sum(symbols.ksq * mag2))
    h2 = vol * float(np.sum(symbols.ksq**2 * mag2))
    return NormBundle(l2, h1, h2, l2 + alpha**2 * h1)


def h1alpha_diff_sq(v, w, alpha):
    """|v - w|^2_{H1_alpha}, the squared energy norm of a difference."""
    return norms(VectorField(_check_shared_grid(v, w), v.hat - w.hat), alpha).h1alpha_sq


def h1alpha_weights(grid, alpha):
    """L^3 (1 + alpha^2 |k|^2) times the multiplicity of each mode of the
    grid's box; built per call, as a cache would grow the RSS."""
    symbols = modes(grid)
    return grid.box_len**3 * (1.0 + alpha**2 * symbols.ksq) * symbols.weights


def h1alpha_inner(v, w, alpha):
    """Energy-space inner product (v,w)_L2 + alpha^2 (grad v, grad w)_L2."""
    grid = _check_shared_grid(v, w)
    return float(np.vdot(h1alpha_weights(grid, alpha) * v.hat, w.hat).real)


def _traceless_products(a, b):
    """Physical samples of T - T33 I for T = (a (x) b + b (x) a)/2, as the 5
    slots T11 - T33, T22 - T33, T12, T13, T23 of the product work array.
    Shifting T by T33 I changes div T by grad T33, which the Leray projection
    removes mode by mode, so B needs only these 5 slots."""
    out = _work((5,) + a.shape[1:], float)
    np.multiply(a[2], b[2], out=out[4])  # T33, until T23 takes its slot
    for s in (0, 1):
        np.multiply(a[s], b[s], out=out[s])
        out[s] -= out[4]
    tmp = None if b is a else _work(a.shape[1:], float)
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
    when u_phys, its samples, is given.

    Products of the box fields are formed in physical space, so the
    retained modes are the exact Galerkin projection; the other modes are
    dropped after the z transform.
    """
    a = inverse_transform(u) if u_phys is None else u_phys
    t = _traceless_products(a, a if w is u else inverse_transform(w))
    del a  # the samples are freed before the transform allocates its output
    return _forward(t, u.grid)


@lru_cache(maxsize=32)
def _bilinear_symbols(grid, alpha):
    """Symbols of the bilinear kernel on the retained box: k, k/|k|^2 (0 at
    k = 0), and i (1 + alpha^2 |k|^2)^{-1} (derivative and filter fused)."""
    box = modes(grid)
    return box.k, box.leray, _frozen(1j / (1.0 + alpha**2 * box.ksq))


def _contract(t, k):
    """(sum_j k_j T_ij)_i for the traceless tensor held as 5 slots."""
    return [
        k[0] * t[0] + k[1] * t[2] + k[2] * t[3],
        k[0] * t[2] + k[1] * t[1] + k[2] * t[4],
        k[0] * t[3] + k[1] * t[4],
    ]


def bilinear(u, w, alpha, u_phys=None):
    """Symmetric bilinear form B(u, w) = P div(((u (x) w + w (x) u)/2)_alpha), dealiased.

    B(u, u) is the Bardina nonlinearity; for divergence-free u and w,
    2 B(u, w) = P(((w.grad)u + (u.grad)w)_alpha).  One inverse transform per
    distinct input, one forward transform of the 5 traceless products, and
    the symbols applied on the retained box only; the result is a box
    field.  A caller that applies B(u, .) to many fields passes
    u_phys = inverse_transform(u) once and saves the transform of u.
    """
    grid = _check_shared_grid(u, w)
    t = tensor_product_spectra(u, w, u_phys)
    k, kk, g = _bilinear_symbols(grid, alpha)
    v = _contract(t, k)  # div T / i
    q = k[0] * v[0] + k[1] * v[1] + k[2] * v[2]
    box = np.empty((3,) + t.shape[1:], dtype=t.dtype)
    for i in range(3):
        np.multiply(v[i] - kk[i] * q, g, out=box[i])
    return VectorField(grid, box)


def pressure_from_velocity(u, alpha):
    """Recover the pressure from the velocity via the Riesz-transform formula:
    p_hat(k) = sum_ij (-k_i k_j / |k|^2) (1 + alpha^2 |k|^2)^{-1} (u_i u_j)_hat,
    with p_hat(0) = 0, dealiased (a box field).  The traceless slots of
    tensor_product_spectra lose |k|^2 T33 from the sum, so T33 is
    transformed by the same box transforms and added back."""
    grid = u.grid
    a = inverse_transform(u)
    t = tensor_product_spectra(u, u, a)
    t33 = _forward(a[2:] * a[2:], grid)[0]
    k, kk, g = _bilinear_symbols(grid, alpha)
    v = _contract(t, k)
    p = 1j * g * (kk[0] * v[0] + kk[1] * v[1] + kk[2] * v[2] + t33)
    p[0, 0, 0] = 0.0  # k = 0: the box rows start at m = 0
    return SpectralField(grid, p)
