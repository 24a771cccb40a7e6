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

A time of -1.0 marks a steady state.  The writer streams the body one
component at a time, each through its full spectrum (``coeffs``).  The
reader returns a field on the grid of dealias_fraction 1, whose box is the
half spectrum (see bardina.spectral), so no stored mode is dropped; it
checks the field is real and divergence-free in complex64 first.  A run
restricts it to its own grid with spectral.dealias.
"""

import struct

import numpy as np

from .spectral import GridSpec, PhysParams, VectorField, _reverse_modes, half_spectrum, modes

__all__ = ["write_checkpoint", "read_checkpoint", "STEADY_STATE_TIME"]

MAGIC = b"BARD"
VERSION = 1
HEADER = struct.Struct("<4sIIddddd")
STEADY_STATE_TIME = -1.0
# complex64 rounds a coefficient by 2^-24 of its modulus, k . u_hat by 2^-24 |k| |u_hat|
STORAGE_TOL = 1e-6


def write_checkpoint(path, u, params, time):
    """Write a velocity field with its parameters to a checkpoint file."""
    grid, p = u.grid, params
    header = HEADER.pack(MAGIC, VERSION, grid.n, grid.box_len, p.alpha, p.beta, p.nu, time)
    with open(path, "wb") as fh:
        fh.write(header)
        for i in range(3):  # full spectrum in FFT ordering -> ascending m, row major
            fh.write(np.fft.fftshift(u.component(i).coeffs).astype("<c8"))


def read_checkpoint(path):
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
    grid = GridSpec(n, box_len, dealias_fraction=1.0)
    shifted = data.reshape(3, n, n, n).astype(np.complex128)
    full = np.fft.ifftshift(shifted, axes=(1, 2, 3))
    # a real field has c(-m) = conj(c(m)) on every mode
    scale = max(np.abs(full).max(), 1e-300)
    if np.abs(full - np.conj(_reverse_modes(full))).max() > STORAGE_TOL * scale:
        raise ValueError("checkpoint spectrum is not Hermitian: the field is not real")
    u = VectorField(grid, half_spectrum(full))
    if u.div_defect() > STORAGE_TOL * np.sqrt(modes(grid).ksq.max()):
        raise ValueError("checkpoint field is not divergence-free")
    return u, PhysParams(alpha, beta, nu), time
