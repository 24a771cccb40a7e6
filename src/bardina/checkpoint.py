"""Binary checkpoint format for velocity fields.

Little-endian layout:
  magic   4 bytes  b"BARD"
  version u32
  n       u32
  L       f64
  alpha   f64
  beta    f64
  nu      f64
  time    f64
followed by 3 * n^3 complex64 values in row-major order of the mode index m
(each axis sorted ascending from -n/2 to n/2 - 1).

A time of -1.0 marks a steady state.  The writer expands a box field
through its full spectrum (``coeffs``).  The reader returns the half
spectrum (see bardina.spectral), never truncated to the box, after checking
that the stored field is real and divergence-free to complex64 precision.
"""

import struct

import numpy as np

from .spectral import GridSpec, PhysParams, VectorField, half_spectrum, wavenumber_sq

__all__ = ["write_checkpoint", "read_checkpoint", "STEADY_STATE_TIME"]

MAGIC = b"BARD"
VERSION = 1
HEADER = struct.Struct("<4sIIddddd")
STEADY_STATE_TIME = -1.0
# complex64 rounds a coefficient by 2^-24 of its modulus, k . u_hat by 2^-24 |k| |u_hat|
STORAGE_TOL = 1e-6


def write_checkpoint(path, u, params, time):
    """Write a velocity field with its parameters to a checkpoint file."""
    grid = u.grid
    header = HEADER.pack(
        MAGIC,
        VERSION,
        grid.n,
        grid.box_len,
        params.alpha,
        params.beta,
        params.nu,
        time,
    )
    # full spectrum in numpy FFT ordering -> ascending m order, row major
    shifted = np.fft.fftshift(u.coeffs, axes=(1, 2, 3)).astype("<c8")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(shifted.tobytes())


def read_checkpoint(path, eta_c=1.0):
    """Read a checkpoint; returns (VectorField, PhysParams, time)."""
    with open(path, "rb") as fh:
        raw = fh.read(HEADER.size)
        if len(raw) < HEADER.size:
            raise ValueError("truncated checkpoint header")
        magic, version, n, box_len, alpha, beta, nu, time = HEADER.unpack(raw)
        if magic != MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        if version != VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        body = fh.read()
    expected = 3 * n**3
    data = np.frombuffer(body, dtype="<c8")
    if data.size != expected:
        raise ValueError(
            f"checkpoint body holds {data.size} coefficients, expected {expected}"
        )
    grid = GridSpec(n, box_len)
    shifted = data.reshape(3, n, n, n).astype(np.complex128)
    full = np.fft.ifftshift(shifted, axes=(1, 2, 3))
    u = VectorField(grid, half_spectrum(full))
    scale = max(np.abs(full).max(), 1e-300)
    if max(np.abs(u.coeffs - full).max() / scale, u.hermitian_defect()) > STORAGE_TOL:
        raise ValueError("checkpoint spectrum is not Hermitian: the field is not real")
    if u.div_defect() > STORAGE_TOL * np.sqrt(wavenumber_sq(grid).max()):
        raise ValueError("checkpoint field is not divergence-free")
    params = PhysParams(alpha, beta, nu, eta_c)
    return u, params, time
