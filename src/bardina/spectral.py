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
    holds only.  On the one pass (below) the real transform over z is a
    dense DFT onto the box's p planes only, a pruned transform (Markel,
    "FFT pruning", 1971), taken as BLAS matrix products (_z_dft): r2c made
    all n/2+1 planes for the pair to keep p, or to pad back to n/2+1.  Its
    rows go in blocks of at most GEMM_MACS multiply-adds a product, which
    stay in cache and which OpenBLAS runs on the calling thread: on the
    host named below, with one BLAS thread, the forward z pass of 5 slots
    at n = 32 took 0.26-0.35 ms in blocks, 0.40-0.46 ms in one product and
    0.54-0.76 ms by r2c, and a product that OpenBLAS spread over two
    threads ran up to 8x slower while another process held the second
    core.  Its results differ from pocketfft's in round-off (< 1e-15 of
    the largest).  The x and y transforms, and the z transforms of the
    slab path (n >= 64), call pocketfft's c2c, r2c and c2r from scipy's
    compiled module, loaded by path (_load_pocketfft): importing scipy.fft
    would run scipy's package init, most of the set-up time of a short CLI
    run, for none of what bardina uses.  numpy.fft 2.4 costs more per call
    on these small strided arrays (x-y pass on (5, 16, 16, 6): 88 against
    56 us with scipy 1.17 on a 2-vCPU x86-64 host).
    Where a grid's 5 product slots exceed SLAB_BYTES (1.5 MiB, within one
    core's 2 MiB L2 on that host), i.e. at n >= 64, the pair and the kernel
    run slab by slab of x rows, as many as fit in SLAB_BYTES with all a
    kernel slab holds (2 at n = 64), with the passes pruned to the box.  A
    kernel call B(u, u) at n = 64 took 13.1-13.3 ms in slabs of 1 row,
    12.5-12.7 ms in 2 and 12.6-13.1 ms in 3 (two sessions, medians of 12
    alternating best-of-5 runs, one BLAS thread): 2 rows are the fewest
    within noise of 3, and hold 0.5 MB less of slab arrays.  Per slab, with
    one BLAS thread, a pruned z product beat r2c and c2r at n = 64 (forward
    100 against 130 us, inverse 75 against 83 us) and lost at n = 128 (268
    against 182 us, 267 against 106 us); the slab path keeps pocketfft at
    every n, a product there untried end to end.  The inverse pads the
    box along x only and transforms over x its b y rows only (_inverse_x),
    then pads each slab along y and transforms it over y and z
    (_inverse_yz).  The forward (_forward_slabs) transforms each slab over
    z, then over y on the box's planes, keeps the box's y rows, and after
    the last slab transforms those over x.
    The kernel feeds it the products slab by slab, so no (5, n, n, n)
    array, z spectrum or sample array is made; given a `sups` list it also
    reports max |u| over the slabs of u's samples it forms, so a time
    step's CFL check forms no samples of its own.
    Smaller grids keep the one pass: their products already fit in that
    cache, and a slab path there made steady-n32 13-40 % slower, its
    per-step temporaries then crossing glibc's dynamic heap-trim threshold
    (11-45 k minor page faults a run instead of ~750); the pruned z
    transforms widened that gap.
  * Work arrays, one per name and shape, zeros when made (_work).  Each
    grid has one x-pass array (_x_slots), (5, n, n, c+1) on the one pass
    and (5, n, b, c+1) on slab grids.  The one pass's 5 products fill a
    (5, n, n, n) buffer, with an (n, n, n) scratch; the forward writes
    their z spectra into the x-pass array, transforms them over x and y
    there and copies the box into the grid's "box" array (gathered in
    place, its slots would be strided, and steady-n32 ran 9 % slower), and
    inverse_transform pads the box's p planes into the x-pass array.  On
    slab grids the forward accumulates in the x-pass array, and the
    inverse's x transform lives in its first slots, of the first field the
    kernel transforms (u, or w when u_phys is given) or of
    inverse_transform's field, as slab s reads its rows before the forward
    writes them; a second input field's x transform takes the (3, n, b,
    c+1) "x w".  Beside them, a slab each, the y pad and, in one buffer
    (_slab_arrays), the samples, products and z spectrum.  The forward
    moves the box's x rows together in place, so its spectra are the first
    b rows of the x-pass array.  On every grid the forward's spectra are
    thus a view of a work array: tensor_product_spectra returns it,
    bilinear writes B into its slots 0-2 and returns their view, and the
    other callers of _forward copy it out; each is valid until the grid's
    next transform or h1alpha_inner call.  bilinear's box slot of scratch
    is memory that is dead by then (_box_scratch): the x-pass array on the
    one pass, the slab buffer, which holds at least one box slot, on slab
    grids.  h1alpha_inner weighs its operand in the x-pass array, unless
    an operand overlaps it.  No call maps fresh pages for them, and every
    other result is a new array, but neither the pair nor the kernel is
    re-entrant: one thread at a time, as in the CLI.
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

import importlib.machinery
import importlib.util
import math
from collections import namedtuple
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

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


class CertificateError(RuntimeError):
    """Raised when a field constructed with div_free=True is not divergence-free:
    the solver produced it, so this is a defect of the program, not of its input."""


class _Checked(tuple):
    """Base of the namedtuples that check their values in _check: on every
    construction, _replace's included, as _make calls the class (a
    namedtuple's own _make skips __new__)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    _make = classmethod(lambda cls, values: cls(*values))


class GridSpec(_Checked, namedtuple("GridSpec", "n box_len dealias_fraction",
                                    defaults=(2.0 * math.pi, 2.0 / 3.0))):
    """Cubic periodic grid: n modes per dimension on the box [0, box_len]^3.
    Unlike the other namedtuples it has an instance dict, to cache
    box_shape and dealias_cutoff: the kernel reads them thousands of times
    a run (4,217 and 13,069 times in benchmark workload lyapunov-n16), and
    as plain properties they cost ~1.3 and ~0.3 us a read on a 2-vCPU
    x86-64 host, against ~0.04 us cached."""

    def _check(self):
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"n, the grid size, must be even and >= 4, got {self.n}")
        if not self.box_len > 0:
            raise ValueError(f"box_len, the box length, must be positive, got {self.box_len}")
        if not 0.0 < self.dealias_fraction <= 1.0:
            raise ValueError("dealias_fraction, the dealias fraction, must lie in (0, 1], "
                             f"got {self.dealias_fraction}")

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
        return math.floor(self.dealias_fraction * self.n / 2)


def _frozen(a):
    """Mark a cached array read-only: every caller of the cache shares it."""
    a.flags.writeable = False
    return a


def fft_order(m):
    """The integer mode indices of m points in FFT ordering, 0 .. (m-1)//2
    then -(m//2) .. -1: numpy.fft.fftfreq(m, 1/m), without importing
    numpy.fft."""
    i = np.arange(m)
    i[(m + 1) // 2 :] -= m
    return i


def _runs(grid, rows):
    """The contiguous runs of the box's rows m >= 0 and m < 0 along x or y,
    on an axis of `rows` rows: the box's own b, or those of the box of a
    grid of the same n with a cutoff of at least c (all n at fraction 1)."""
    c = grid.dealias_cutoff
    return slice(0, c + 1), slice(rows - (grid.box_shape[0] - c - 1), rows)


def _copy_box(hat, grid, out):
    """Copy the modes of grid's retained box from `hat` into `out`, one
    pair of x and y row runs (_runs) at a time, and return `out`; the modes
    of `out` outside that box are left as they are."""
    p = grid.dealias_cutoff + 1
    runs = list(zip(_runs(grid, out.shape[-3]), _runs(grid, hat.shape[-3])))
    for x_out, x_in in runs:
        for y_out, y_in in runs:
            out[..., x_out, y_out, :p] = hat[..., x_in, y_in, :p]
    return out


@lru_cache(maxsize=16)
def _work(key, shape, dtype):
    """The work array named `key`, zeros when made: see "Work arrays" above."""
    return np.zeros(shape, dtype)


SLAB_BYTES = 3 << 19  # cache budget of a slab: see "One transform pair" above
GEMM_MACS = 1 << 18  # multiply-adds of one z-pass product: see "One transform pair"


def _slab_row_bytes(n):
    """What a kernel slab holds per x row on an n-grid: 5 products and 3
    samples (float64), and as many z spectra and y pads (complex128)."""
    return 8 * n * (8 * n + 16 * (n // 2 + 1))


def _slab_rows(n):
    """x rows per slab on an n-grid: None (one pass) while its 5 product
    slots fit in SLAB_BYTES, else as many rows as fit there, at least one."""
    if 5 * n**3 * 8 <= SLAB_BYTES:
        return None
    return max(1, SLAB_BYTES // _slab_row_bytes(n))


def _slabs(n, rows):
    """Slices of `rows` consecutive x rows covering n; the last is shorter
    when rows does not divide n."""
    return [slice(x, min(x + rows, n)) for x in range(0, n, rows)]


Modes = namedtuple("Modes", "k ksq weights leray")


@lru_cache(maxsize=32)
def modes(grid):
    """The per-mode symbols of the grid's box: the wavevector k as three
    arrays that broadcast over the box, k_x a vector (b, 1, 1) and k_y and
    k_z planes (1, b, c+1), so that a product with a box array runs its
    inner loop over a whole plane (as vectors (1, b, 1) and (1, 1, c+1),
    over c+1 elements, the kernel's symbol stage ran 18 % slower at n = 32
    on a 2-vCPU x86-64 host); |k|^2; the multiplicity of each m_z plane in
    the full spectrum; and k / |k|^2 (zero at k = 0, where the Leray
    projection is the identity), (3,) + box_shape.
    k is gathered from one full axis's on the box's rows and planes, so two
    grids of one n and box_len hold the same values on the modes their
    boxes share.  Every array is read-only."""
    k1 = 2.0 * np.pi * fft_order(grid.n) / grid.box_len
    rows = np.concatenate([k1[run] for run in _runs(grid, grid.n)])
    ky, kz = np.meshgrid(rows, k1[: grid.box_shape[-1]], indexing="ij")
    k = tuple(_frozen(a) for a in (rows[:, None, None], ky[None], kz[None]))
    ksq = k[0] ** 2 + k[1] ** 2 + k[2] ** 2
    leray, nonzero = np.empty((3,) + grid.box_shape), ksq != 0.0
    for ki, li in zip(k, leray):  # k / |k|^2, and k / 1 where |k|^2 is 0
        np.copyto(li, ki)  # a broadcast divide would take ~64 kB of ufunc buffers
        np.divide(li, ksq, out=li, where=nonzero)
    planes = np.arange(grid.box_shape[-1])
    weights = np.where(planes % (grid.n // 2) == 0, 1.0, 2.0)  # m_z = 0, n/2
    return Modes(k, *(_frozen(a) for a in (ksq, weights, leray)))


def _reverse_modes(coeffs, axes):
    """Map mode index m -> -m on the given FFT-ordered axes."""
    return np.roll(np.flip(coeffs, axis=axes), 1, axis=axes)


def full_spectrum(hat):
    """Half spectrum (..., n, n, n//2+1) -> full spectrum (..., n, n, n),
    filling the modes with m_z < 0 from c(-m) = conj(c(m))."""
    n = hat.shape[-2]
    tail = _reverse_modes(np.conj(hat[..., n // 2 - 1 : 0 : -1]), axes=(-3, -2))
    return np.concatenate([hat, tail], axis=-1)


class SpectralField:
    """One real scalar field, hat of shape grid.box_shape."""

    _lead = ()  # leading axes before the spectral ones

    def __init__(self, grid, hat):
        shape = self._lead + grid.box_shape
        if hat.shape != shape:
            raise ValueError(f"spectrum shape {hat.shape} is not the grid's box {shape}")
        self.grid, self.hat = grid, hat

    @property
    def symbols(self):
        """The symbols of this field's grid."""
        return modes(self.grid)

    @property
    def coeffs(self):
        """The full spectrum, in numpy FFT ordering: zero outside the box."""
        half = np.zeros(self.hat.shape[:-3] + self.grid.half_shape, dtype=self.hat.dtype)
        return full_spectrum(_copy_box(self.hat, self.grid, half))

    def _replace(self, **changes):
        """A new field of this class with `changes` to its arguments, checked
        as on construction (a VectorField keeps its div_free)."""
        return type(self)(**(vars(self) | changes))

    def copy(self):
        return self._replace(hat=self.hat.copy())


class VectorField(SpectralField):
    """Three real scalar fields on a shared grid, hat of shape (3,) + grid.box_shape.

    div_free=True is a certificate, checked on construction; the solver sets
    it on carried-forward states (step output, Picard iterate) and on inputs
    (generated fields)."""

    _lead = (3,)

    def __init__(self, grid, hat, div_free=False):
        super().__init__(grid, hat)
        self.div_free = div_free
        if div_free:
            d = self.div_defect()
            if not d <= DIV_FREE_TOL:  # a NaN defect fails too
                raise CertificateError(
                    f"div_free certificate violated: max mode divergence {d:.3e}"
                )

    def component(self, i):
        return SpectralField(self.grid, self.hat[i])

    def div_defect(self):
        """Max over modes of |k . u_hat(k)|, over max(1, the field's largest
        coefficient): round-off on a large field stays relative to its size."""
        kdotu = np.abs(_k_dot(self.symbols.k, self.hat)).max()
        return kdotu / np.maximum(1.0, np.abs(self.hat).max())


class PhysParams(_Checked, namedtuple("PhysParams", "alpha beta nu eta_c", defaults=(1.0,))):
    """Filter length alpha, damping rate beta, viscosity nu, and the
    configurable numerical constant entering the eta(beta) quantity."""

    __slots__ = ()

    def _check(self):
        for name, value in zip(self._fields, self):
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")


# Squared L2, homogeneous H1/H2 seminorms and the H1_alpha energy norm.
NormBundle = namedtuple("NormBundle", "l2_sq h1dot_sq h2dot_sq h1alpha_sq")


def _load_pocketfft():
    """r2c, c2c and c2r of scipy's compiled pocketfft module, loaded by path
    (find_spec locates scipy without importing it); ImportError naming the
    path when the file is missing.  Each takes (array, axes, forward, inorm
    [, out]): inorm 2 divides by the number of points, 0 does not, as
    norm="forward" does, and a given out is written in place."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("bardina needs scipy, whose wheel ships pocketfft")
    name = "pypocketfft" + importlib.machinery.EXTENSION_SUFFIXES[0]
    path = Path(spec.origin).parent / "fft" / "_pocketfft" / name
    if not path.is_file():
        raise ImportError(f"scipy's pocketfft module is missing: {path}", path=str(path))
    ext = importlib.util.spec_from_file_location("scipy.fft._pocketfft.pypocketfft", path)
    module = importlib.util.module_from_spec(ext)
    ext.loader.exec_module(module)
    return module.r2c, module.c2c, module.c2r


r2c, c2c, c2r = _load_pocketfft()


@lru_cache(maxsize=32)
def _z_matrices(grid):
    """The real DFT over z pruned to the box's p planes, as the matrices of
    _z_dft: (n, 2p), whose columns interleave cos and -sin of 2 pi (m z mod
    n) / n over n, and (2p, n), whose rows carry the same pairs weighted 1
    on m_z = 0 and n/2 and 2 elsewhere.  The sine is exactly 0 where the
    angle is a multiple of pi, so those two planes come out real and their
    imaginary parts are not read, as with r2c and c2r."""
    n, p = grid.n, grid.box_shape[-1]
    j = np.outer(np.arange(n), np.arange(p)) % n
    angle = 2.0 * np.pi * j / n
    cos, nsin = np.cos(angle), np.where(j % (n // 2) == 0, 0.0, -np.sin(angle))  # -sin, +0.0
    forward = np.stack((cos, nsin), axis=-1) / n  # (z, m, re/im)
    inverse = modes(grid).weights[:, None, None] * np.stack((cos.T, nsin.T), axis=1)
    return _frozen(forward.reshape(n, 2 * p)), _frozen(inverse.reshape(2 * p, n))


def _z_dft(a, grid, forward, out):
    """The one pass's transform over z as matrix products (_z_matrices),
    written into the contiguous `out`, which it returns: forward, real
    samples (..., n) -> their spectrum (..., p) on the box's planes,
    normalized as r2c's inorm 2; inverse, that spectrum -> its real
    samples, as c2r's inorm 0 of the spectrum padded to n/2+1 planes.  The
    rows go in blocks of at most GEMM_MACS multiply-adds a product."""
    matrix = _z_matrices(grid)[0 if forward else 1]
    x = (a if forward else a.view(float)).reshape(-1, len(matrix))
    y = (out.view(float) if forward else out).reshape(len(x), -1)
    rows = max(1, GEMM_MACS // matrix.size)
    for r in range(0, len(x), rows):
        np.matmul(x[r : r + rows], matrix, out=y[r : r + rows])
    return out


def _forward(samples, grid):
    """The box coefficients of physical samples (..., n, n, n), at most 5
    slots, as a view of a work array, valid until the grid's next
    transform: the real transform over z on the planes m_z the box holds,
    into the x-pass array, then the x and y transforms of those planes,
    whose box goes into the "box" array; slab by slab (_forward_slabs) on
    grids beyond SLAB_BYTES."""
    lead, rows = samples.shape[:-3], _slab_rows(grid.n)
    if rows is not None:
        slabs = ((s, samples[..., s, :, :]) for s in _slabs(grid.n, rows))
        return _forward_slabs(slabs, lead, grid, rows)
    a = _z_dft(samples, grid, True, _x_slots(grid, lead))
    c2c(a, (a.ndim - 3, a.ndim - 2), True, 2, a)  # in place: out is a
    return _copy_box(a, grid, _slots("box", grid.box_shape, lead))


def _forward_slabs(slabs, lead, grid, rows):
    """The box coefficients of samples given as (x rows, their samples)
    pairs of at most `rows` rows: per slab the real transform over z and,
    on the box's planes, the one over y, whose box rows are kept; then over
    x on those rows only.  The box's x rows are moved together in place, so
    the result is a view of the x-pass array, valid until its next use."""
    n, (b, p) = grid.n, grid.box_shape[1:]
    z = _slab_arrays(grid, rows)[1][: math.prod(lead)].reshape(lead + (rows, n, n // 2 + 1))
    acc = _x_slots(grid, lead)
    runs = list(zip(_runs(grid, n), _runs(grid, b)))  # (rows of n, rows of the box)
    for s, t in slabs:
        held = r2c(t, (t.ndim - 1,), True, 2, z[..., : s.stop - s.start, :, :])[..., :p]
        c2c(held, (held.ndim - 2,), True, 2, held)  # in place
        for full, box in runs:
            acc[..., s, box, :] = held[..., full, :]
    c2c(acc, (acc.ndim - 3,), True, 2, acc)  # in place
    # the rows m < 0 moved slot by slot: one slot's runs overlap only beyond
    # fraction 2/3, where numpy copies first; the 5 slots' ranges interleave
    full, box = runs[1]
    for a in acc.reshape((-1,) + acc.shape[-3:]):
        a[box] = a[full]
    return acc[..., :b, :, :]


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
    return kind(grid, _forward(samples, grid).copy())


def inverse_transform(field):
    """Real samples on the n^3 grid of a scalar or vector field, a new array.
    The box is padded into a work array, never transformed in its own hat:
    over x and y on the planes m_z the box holds, then over z; slab by slab
    after the x transform on grids beyond SLAB_BYTES."""
    hat, grid = field.hat, field.grid
    rows = _slab_rows(grid.n)
    if rows is not None:
        a = _inverse_x(hat, grid, _x_slots(grid, hat.shape[:-3]))
        out = np.empty(hat.shape[:-3] + (grid.n,) * 3)
        for s in _slabs(grid.n, rows):
            _inverse_yz(a, grid, s, rows, out[..., s, :, :])
        return out
    a = _x_slots(grid, hat.shape[:-3])
    a.fill(0)  # the transforms below may have overwritten any of it
    _copy_box(hat, grid, a)
    c2c(a, (a.ndim - 3, a.ndim - 2), False, 0, a)  # in place: out is a
    return _z_dft(a, grid, False, np.empty(hat.shape[:-3] + (grid.n,) * 3))


def _slots(key, shape, lead):
    """The first prod(lead) slots of the complex work array `key` of 5
    slots of `shape`, as an array lead + shape: see "Work arrays"."""
    return _work(key, (5,) + shape, complex)[: math.prod(lead)].reshape(lead + shape)


def _x_slots(grid, lead):
    """_slots of the grid's one x-pass work array, (5, n, n, c+1) on the one
    pass and (5, n, b, c+1) on slab grids: see "Work arrays"."""
    y = grid.n if _slab_rows(grid.n) is None else grid.box_shape[1]
    return _slots("x pass", (grid.n, y, grid.box_shape[-1]), lead)


def _slab_arrays(grid, rows):
    """The slab path's one complex work array, of at least one box slot
    (bilinear's scratch once the slabs are consumed), and its slab arrays:
    the z spectra, 5 slots (rows, n, n//2+1), then, as float, the 5
    products, u's and w's samples (3 slots each) and one slot of scratch,
    each slot (rows, n, n).  The array's size keys it, so grids of other
    rows or boxes may share it: every view is formed per call."""
    n, h = grid.n, grid.n // 2 + 1
    z, f = 5 * rows * n * h, 6 * rows * n * n
    buf = _work("slabs", (max(z + f, math.prod(grid.box_shape)),), complex)
    f = buf[z : z + f].view(float).reshape(12, rows, n, n)
    return buf, buf[:z].reshape(5, rows, n, h), f[:5], f[5:8], f[8:11], f[11]


def _box_scratch(grid):
    """One box slot of complex scratch in a work array that is dead once the
    forward has returned: on the one pass the x-pass array, whose box the
    forward copied out, and on slab grids the slab buffer, whose slabs it
    consumed."""
    rows = _slab_rows(grid.n)
    a = _x_slots(grid, (5,)).ravel() if rows is None else _slab_arrays(grid, rows)[0]
    return a[: math.prod(grid.box_shape)].reshape(grid.box_shape)


def _inverse_x(hat, grid, a):
    """The box `hat` padded along x to n rows and transformed over x, in
    `a`, (..., n, b, c+1): the y rows outside the box are zero, so their x
    transforms are skipped."""
    pos, neg = _runs(grid, grid.n)
    for full, box in zip((pos, neg), _runs(grid, hat.shape[-3])):
        a[..., full, :, :] = hat[..., box, :, :]
    a[..., pos.stop : neg.start, :, :] = 0  # the rows between the runs
    c2c(a, (a.ndim - 3,), False, 0, a)  # in place
    return a


def _inverse_yz(a, grid, s, rows, out):
    """The samples of the x rows `s` (at most `rows`) into `out`, from
    _inverse_x's `a`: those rows padded along y, transformed over y on the
    box's planes, then over z.  The pad's planes above the box stay zero from
    its making: its key holds the plane count."""
    p = grid.box_shape[-1]
    pad = _work(("y pad", p), a.shape[:-3] + (rows, grid.n, grid.n // 2 + 1), complex)
    pad = pad[..., : s.stop - s.start, :, :]
    pos, neg = _runs(grid, grid.n)
    for full, box in zip((pos, neg), _runs(grid, a.shape[-2])):
        pad[..., full, :p] = a[..., s, box, :]
    pad[..., pos.stop : neg.start, :p] = 0
    held = pad[..., :p]
    c2c(held, (pad.ndim - 2,), False, 0, held)  # in place
    return c2r(pad, (pad.ndim - 1,), grid.n, False, 0, out)


def _check_shared_grid(*fields):
    """The grid of the fields; ValueError naming two grids that differ."""
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise ValueError(f"fields do not share a grid: {g} and {f.grid}")
    return g


def helmholtz_filter(v, alpha):
    """Bessel-potential smoothing: per-mode division by (1 + alpha^2 |k|^2)."""
    return v._replace(hat=v.hat / (1.0 + alpha**2 * v.symbols.ksq))


def _k_dot(k, hat):
    """k . hat, summed in the order np.sum(axis=0) sums."""
    return k[0] * hat[0] + k[1] * hat[1] + k[2] * hat[2]


def _project(hat, symbols):
    """u_hat - k (k.u_hat)/|k|^2 for hat on the grid of `symbols`."""
    return hat - symbols.leray * _k_dot(symbols.k, hat)


def leray_project(v):
    """Project onto divergence-free fields: u_hat -> u_hat - k (k.u_hat)/|k|^2."""
    return VectorField(v.grid, _project(v.hat, v.symbols), div_free=True)


def gradient(field):
    """Scalar field -> vector field with components i k_j * f_hat."""
    return VectorField(field.grid, np.stack([1j * ki * field.hat for ki in field.symbols.k]))


def divergence(v):
    """Vector field -> scalar field i k . u_hat."""
    return SpectralField(v.grid, 1j * _k_dot(v.symbols.k, v.hat))


def laplacian(field):
    """Multiply by -|k|^2 (works for scalar and vector fields)."""
    return field._replace(hat=-field.symbols.ksq * field.hat)


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
    return v._replace(grid=grid, hat=_copy_box(v.hat, grid, out))


def norms(v, alpha):
    """Parseval norms of a vector field: L^3 * sum |k|^{2s} |u_hat|^2, with
    |u_hat|^2 summed one component at a time in the order np.sum(axis=0)
    sums, so the temporaries are 3 float box slots."""
    vol, c, symbols = v.grid.box_len**3, v.hat, v.symbols
    mag2, s, t = (np.empty(v.grid.box_shape) for _ in range(3))
    for ci, a in zip(c, (mag2, s, s)):  # |c_i|^2 in a, then summed into mag2
        np.multiply(ci.real, ci.real, out=a)
        a += np.multiply(ci.imag, ci.imag, out=t)
        if a is s:
            mag2 += s
    mag2 *= symbols.weights
    l2 = vol * float(np.sum(mag2))
    h1 = vol * float(np.sum(np.multiply(symbols.ksq, mag2, out=s)))
    h2 = vol * float(np.sum(np.multiply(np.square(symbols.ksq, out=t), mag2, out=t)))
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
    """Energy-space inner product (v,w)_L2 + alpha^2 (grad v, grad w)_L2.
    The weighted copy of v goes into the start of the grid's x-pass array,
    or into a new array when that overlaps v or w (a kernel result on a
    slab grid)."""
    grid = _check_shared_grid(v, w)
    out = _x_slots(grid, (5,)).ravel()[: v.hat.size].reshape(v.hat.shape)
    if np.may_share_memory(out, v.hat) or np.may_share_memory(out, w.hat):
        out = None
    return float(np.vdot(np.multiply(h1alpha_weights(grid, alpha), v.hat, out=out), w.hat).real)


def _traceless_products(a, b, out, tmp):
    """Physical samples of T - T33 I for T = (a (x) b + b (x) a)/2, as the 5
    slots T11 - T33, T22 - T33, T12, T13, T23 of `out`; `tmp`, of one slot's
    shape, is scratch when b is not a.  Shifting T by T33 I changes div T by
    grad T33, which the Leray projection removes mode by mode, so B needs
    only these 5 slots."""
    np.multiply(a[2], b[2], out=out[4])  # T33, until T23 takes its slot
    for s in (0, 1):
        np.multiply(a[s], b[s], out=out[s])
        out[s] -= out[4]
    for s, (i, j) in enumerate(((0, 1), (0, 2), (1, 2)), start=2):
        np.multiply(a[i], b[j], out=out[s])
        if b is not a:
            out[s] += np.multiply(b[i], a[j], out=tmp)
            out[s] *= 0.5
    return out


def _abs_max(a):
    """max |a| without an |a| temporary."""
    return max(a.max(), -a.min())


def tensor_product_spectra(u, w, u_phys=None, sups=None):
    """Retained-box spectra (5, b, b, cutoff+1) of the traceless symmetric
    product T - T33 I, T = (u (x) w + w (x) u)/2 (slots as in
    _traceless_products); one inverse transform when w is u, none for u
    when u_phys, its samples, is given.  A view of a work array of the
    grid (_forward's), valid until the grid's next transform or
    h1alpha_inner call.  When `sups` is a list, max |.| of the samples of u
    read is appended to it, one entry per slab on grids beyond SLAB_BYTES.

    Products of the box fields are formed in physical space, so the
    retained modes are the exact Galerkin projection; the other modes are
    dropped after the z transform.
    """
    grid = u.grid
    rows = _slab_rows(grid.n)
    if rows is not None:
        return _forward_slabs(_product_slabs(u, w, u_phys, rows, sups), (5,), grid, rows)
    a = inverse_transform(u) if u_phys is None else u_phys
    if sups is not None:
        sups.append(_abs_max(a))
    b = a if w is u else inverse_transform(w)
    shape = (grid.n,) * 3
    t = _traceless_products(a, b, _work("products", (5,) + shape, float),
                            None if b is a else _work("scratch", shape, float))
    return _forward(t, grid)


def _product_slabs(u, w, u_phys, rows, sups):
    """(x rows, the 5 traceless product slots on them) for each slab of at
    most `rows` rows, in one work array: the samples of each slab are sliced
    from u_phys or formed by _inverse_yz from the x transforms of u and w,
    the first of them in _forward_slabs's slots 0-2; max |.| of u's is
    appended to `sups` unless it is None."""
    grid, n = u.grid, u.grid.n
    xu = None if u_phys is not None else _inverse_x(u.hat, grid, _x_slots(grid, (3,)))
    xw = None if w is u else _inverse_x(w.hat, grid, _x_slots(grid, (3,)) if xu is None
                                        else _work("x w", xu.shape, complex))
    t, ua, wa, tmp = _slab_arrays(grid, rows)[2:]
    for s in _slabs(n, rows):
        k = s.stop - s.start
        a = u_phys[:, s] if xu is None else _inverse_yz(xu, grid, s, rows, ua[:, :k])
        if sups is not None:
            sups.append(_abs_max(a))
        b = a if xw is None else _inverse_yz(xw, grid, s, rows, wa[:, :k])
        yield s, _traceless_products(a, b, t[:, :k], tmp[:k])


@lru_cache(maxsize=32)
def _bilinear_symbols(grid, alpha):
    """Symbols of the bilinear kernel on the retained box: k (modes(grid).k),
    k/|k|^2 (0 at k = 0), and i (1 + alpha^2 |k|^2)^{-1} (derivative and
    filter fused)."""
    box = modes(grid)
    return box.k, box.leray, _frozen(1j / (1.0 + alpha**2 * box.ksq))


def _div_in_place(t, k, s):
    """div T / i = (sum_j k_j T_ij)_i for the traceless tensor held as the 5
    slots of `t`, written into slots 0-2 once no later sum reads them, with
    `s`, one slot, as scratch; returns the 5 slot views."""
    t0, t1, t2, t3, t4 = t
    k0, k1, k2 = k
    np.multiply(k0, t0, out=t0)
    t0 += np.multiply(k1, t2, out=s)
    t0 += np.multiply(k2, t3, out=s)
    np.add(np.multiply(k0, t2, out=s), np.multiply(k1, t1, out=t1), out=t1)
    t1 += np.multiply(k2, t4, out=s)
    np.multiply(k0, t3, out=t2)  # t2 read by the two sums above
    t2 += np.multiply(k1, t4, out=s)
    return t0, t1, t2, t3, t4


def bilinear(u, w, alpha, u_phys=None, sups=None):
    """Symmetric bilinear form B(u, w) = P div(((u (x) w + w (x) u)/2)_alpha), dealiased.

    B(u, u) is the Bardina nonlinearity; for divergence-free u and w,
    2 B(u, w) = P(((w.grad)u + (u.grad)w)_alpha).  One inverse transform per
    distinct input, one forward transform of the 5 traceless products, and
    the symbols applied on the retained box only, in place in those 5 slots
    of a work array.  B is written into slots 0-2, with a box slot of
    scratch in a work array dead by then (_box_scratch): the result's hat
    is their view, valid until the grid's next transform or h1alpha_inner
    call, so a caller that keeps it copies it.  A caller that applies
    B(u, .) to many fields passes u_phys = inverse_transform(u) once and
    saves the transform of u; `sups` collects max |u| as in
    tensor_product_spectra.
    """
    grid = _check_shared_grid(u, w)
    t = tensor_product_spectra(u, w, u_phys, sups)
    k, kk, g = _bilinear_symbols(grid, alpha)
    s = _box_scratch(grid)
    v0, v1, v2, q, _ = _div_in_place(t, k, s)
    np.multiply(k[0], v0, out=q)  # k . v, in T13's slot
    q += np.multiply(k[1], v1, out=s)
    q += np.multiply(k[2], v2, out=s)
    for v, kki, h in zip((v0, v1, v2), kk, t):
        np.subtract(v, np.multiply(kki, q, out=s), out=h)
        h *= g
    return VectorField(grid, t[:3])


def pressure_from_velocity(u, alpha):
    """Recover the pressure from the velocity via the Riesz-transform formula:
    p_hat(k) = sum_ij (-k_i k_j / |k|^2) (1 + alpha^2 |k|^2)^{-1} (u_i u_j)_hat,
    with p_hat(0) = 0, dealiased (a box field).  The traceless slots of
    tensor_product_spectra lose |k|^2 T33 from the sum, so T33 is
    transformed by the same box transforms, and copied out before those
    slots, which its transform would overwrite, and added back."""
    grid = u.grid
    a = inverse_transform(u)
    t33 = _forward(a[2:] * a[2:], grid)[0].copy()
    t = tensor_product_spectra(u, u, a)
    k, kk, g = _bilinear_symbols(grid, alpha)
    v = _div_in_place(t, k, np.empty_like(t[0]))
    p = 1j * g * (kk[0] * v[0] + kk[1] * v[1] + kk[2] * v[2] + t33)
    p[0, 0, 0] = 0.0  # k = 0: the box rows start at m = 0
    return SpectralField(grid, p)
