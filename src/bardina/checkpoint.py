"""Binary checkpoint format for velocity fields.

Little-endian.  Every version starts with
  magic   4 bytes  b"BARD"
  version u32
  n       u32
  L       f64
  alpha   f64
  beta    f64
  nu      f64
  time    f64
and a time of -1.0 marks a steady state.

Version 2, the one written, goes on with
  eta_c             f64
  dealias_fraction  f64
  crc32             u32  (zlib.crc32 of the body)
and the body: the field's own hat, 3 * prod(grid.box_shape) complex128
values in row-major order of its box (FFT ordering, see bardina.spectral),
in one write with no other copy.  The reader returns the field bit for bit
on GridSpec(n, L, dealias_fraction), with PhysParams(alpha, beta, nu,
eta_c).  It refuses with ValueError a body of the wrong length, a
non-finite coefficient, a CRC mismatch, an invalid grid, a field that is
not real (a self-paired plane, m_z = 0 or m_z = n/2 where the box holds
it, off c(-m) = conj(c(m)) by more than HERMITIAN_TOL of the largest
coefficient, where round-off leaves 1e-16 or less) and a divergence defect
above spectral.DIV_FREE_TOL.

Version 1 is read only: after the common header, 3 * n^3 complex64 values in
row-major order of the mode index m (each axis sorted ascending from -n/2 to
n/2 - 1).  The reader returns the field on the grid of dealias_fraction 1,
whose box is the half spectrum, so no stored mode is dropped, with the
default eta_c; it checks the field is finite, real and divergence-free in
complex64 first.  A run restricts it to its own grid with spectral.dealias.
"""

import struct
import zlib

import numpy as np

from .spectral import DIV_FREE_TOL, GridSpec, PhysParams, VectorField
from .spectral import _reverse_modes, half_spectrum, modes

__all__ = ["write_checkpoint", "read_checkpoint", "STEADY_STATE_TIME"]

MAGIC = b"BARD"
VERSION = 2
HEADER = struct.Struct("<4sIIddddd")  # every version
HEADER_V2 = struct.Struct("<ddI")  # eta_c, dealias_fraction, crc32 of the body
STEADY_STATE_TIME = -1.0
HERMITIAN_TOL = 1e-10
# complex64 rounds a coefficient by 2^-24 of its modulus, k . u_hat by 2^-24 |k| |u_hat|
STORAGE_TOL = 1e-6


def write_checkpoint(path, u, params, time):
    """Write a velocity field with its parameters to a version 2 checkpoint."""
    grid, p = u.grid, params
    body = np.ascontiguousarray(u.hat, dtype="<c16")  # u.hat itself, as the solver makes it
    header = HEADER.pack(MAGIC, VERSION, grid.n, grid.box_len, p.alpha, p.beta, p.nu, time)
    header += HEADER_V2.pack(p.eta_c, grid.dealias_fraction, zlib.crc32(body))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body)


def _unpack(layout, fh):
    raw = fh.read(layout.size)
    if len(raw) < layout.size:
        raise ValueError("truncated checkpoint header")
    return layout.unpack(raw)


def _coefficients(body, shape, dtype):
    """The body's values as a new complex128 array of `shape`, all finite."""
    count, size = int(np.prod(shape)), np.dtype(dtype).itemsize
    if len(body) != count * size:
        raise ValueError(
            f"checkpoint body holds {len(body)} bytes, expected {count} coefficients of {size}"
        )
    hat = np.frombuffer(body, dtype=dtype).reshape(shape).astype(np.complex128)
    if not np.isfinite(hat).all():
        raise ValueError("checkpoint body holds a non-finite coefficient")
    return hat


def read_checkpoint(path):
    """Read a version 1 or 2 checkpoint; returns (VectorField, PhysParams, time)."""
    with open(path, "rb") as fh:
        magic, version, n, box_len, alpha, beta, nu, time = _unpack(HEADER, fh)
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        if version not in (1, VERSION):
            raise ValueError(f"unsupported checkpoint version {version}")
        tail = _unpack(HEADER_V2, fh) if version == VERSION else None
        body = fh.read()
    if tail is None:
        return _read_v1(body, GridSpec(n, box_len, 1.0)), PhysParams(alpha, beta, nu), time
    eta_c, fraction, crc = tail
    grid = GridSpec(n, box_len, fraction)
    hat = _coefficients(body, (3,) + grid.box_shape, "<c16")
    if zlib.crc32(body) != crc:
        raise ValueError("checkpoint body does not match its CRC32")
    planes = hat[..., np.arange(hat.shape[-1]) % (n // 2) == 0]  # m_z = 0, n/2
    defect = np.abs(_reverse_modes(planes, axes=(-3, -2)) - np.conj(planes)).max()
    if defect > HERMITIAN_TOL * max(np.abs(hat).max(), 1e-300):
        raise ValueError("checkpoint spectrum is not Hermitian: the field is not real")
    u = VectorField(grid, hat)
    if u.div_defect() > DIV_FREE_TOL:
        raise ValueError("checkpoint field is not divergence-free")
    return u, PhysParams(alpha, beta, nu, eta_c), time


def _read_v1(body, grid):
    """The field of a version 1 body on `grid`, the fraction-1 grid of its n."""
    n = grid.n
    full = np.fft.ifftshift(_coefficients(body, (3, n, n, n), "<c8"), axes=(1, 2, 3))
    # a real field has c(-m) = conj(c(m)) on every mode
    scale = max(np.abs(full).max(), 1e-300)
    if np.abs(full - np.conj(_reverse_modes(full))).max() > STORAGE_TOL * scale:
        raise ValueError("checkpoint spectrum is not Hermitian: the field is not real")
    u = VectorField(grid, half_spectrum(full))
    if u.div_defect() > STORAGE_TOL * np.sqrt(modes(grid).ksq.max()):
        raise ValueError("checkpoint field is not divergence-free")
    return u
