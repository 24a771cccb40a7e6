"""Binary checkpoint format for velocity fields, version 2.

Little-endian: a 72-byte HEADER, magic b"BARD", version u32, n u32, then
f64 L, alpha, beta, nu, time (-1.0 marks a steady state), eta_c and
dealias_fraction, and the u32 zlib.crc32 of the body.  The body is the
field's own hat, 3 * prod(grid.box_shape) complex128 values in row-major
order of its box (FFT ordering, see bardina.spectral), in one write with no
other copy.  The reader returns the field bit for bit on GridSpec(n, L,
dealias_fraction), with PhysParams(alpha, beta, nu, eta_c).  It refuses with
ValueError another version, a body of the wrong length, a non-finite
coefficient, a CRC mismatch, an invalid grid, a field that is not real (a
self-paired plane, m_z = 0 or m_z = n/2 where the box holds it, off c(-m) =
conj(c(m)) by more than HERMITIAN_TOL of the largest coefficient, where
round-off leaves 1e-16 or less) and a divergence defect above
spectral.DIV_FREE_TOL.
"""

import struct
import zlib

import numpy as np

from .spectral import DIV_FREE_TOL, GridSpec, PhysParams, VectorField, _reverse_modes

__all__ = ["write_checkpoint", "read_checkpoint", "STEADY_STATE_TIME"]

MAGIC = b"BARD"
VERSION = 2
HEADER = struct.Struct("<4sIIdddddddI")
STEADY_STATE_TIME = -1.0
HERMITIAN_TOL = 1e-10


def write_checkpoint(path, u, params, time):
    """Write a velocity field with its parameters to a checkpoint."""
    grid, p = u.grid, params
    body = np.ascontiguousarray(u.hat, dtype="<c16")  # u.hat itself, as the solver makes it
    header = HEADER.pack(MAGIC, VERSION, grid.n, grid.box_len, p.alpha, p.beta, p.nu, time,
                         p.eta_c, grid.dealias_fraction, zlib.crc32(body))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body)


def read_checkpoint(path):
    """Read a checkpoint; returns (VectorField, PhysParams, time)."""
    with open(path, "rb") as fh:
        raw = fh.read(HEADER.size)
        if len(raw) < HEADER.size:
            raise ValueError("truncated checkpoint header")
        (magic, version, n, box_len, alpha, beta, nu, time,
         eta_c, fraction, crc) = HEADER.unpack(raw)
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        if version != VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        body = fh.read()
    grid = GridSpec(n, box_len, fraction)
    count = 3 * int(np.prod(grid.box_shape))
    if len(body) != 16 * count:
        raise ValueError(f"checkpoint body holds {len(body)} bytes, expected {count} coefficients")
    hat = np.frombuffer(body, dtype="<c16").reshape((3,) + grid.box_shape).astype(np.complex128)
    if not np.isfinite(hat).all():
        raise ValueError("checkpoint body holds a non-finite coefficient")
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
