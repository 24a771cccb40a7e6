import struct
from dataclasses import replace

import numpy as np
import pytest

from bardina import GridSpec, PhysParams
from bardina.checkpoint import (
    HEADER,
    STEADY_STATE_TIME,
    read_checkpoint,
    write_checkpoint,
)
from bardina.spectral import dealias, forward_transform, half_spectrum, inverse_transform

from conftest import random_field


class TestRoundTrip:
    def test_round_trip(self, grid8, params, tmp_path):
        u = random_field(grid8, seed=150, amplitude=0.8)
        path = tmp_path / "state.bard"
        write_checkpoint(path, u, params, 2.5)
        v, p, t = read_checkpoint(path)
        assert t == 2.5
        assert p == params
        assert v.grid == replace(grid8, dealias_fraction=1.0)
        # storage is complex64, so round trip is exact at single precision
        assert np.abs(v.coeffs - u.coeffs.astype(np.complex64)).max() == 0.0

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("fraction", [0.5, 2 / 3, 1.0])
    def test_reads_back_on_the_fraction_1_grid(self, params, tmp_path, n, fraction):
        grid = GridSpec(n, dealias_fraction=fraction)
        u = random_field(grid, seed=158, k_max=grid.dealias_cutoff)
        path = tmp_path / "state.bard"
        write_checkpoint(path, u, params, 0.5)
        v = read_checkpoint(path)[0]
        assert v.grid == GridSpec(n, dealias_fraction=1.0)
        assert v.coeffs.shape == (3, n, n, n)  # read by the benchmark's checkpoint check
        assert np.array_equal(dealias(v, grid).hat, u.hat.astype(np.complex64))

    def test_steady_state_sentinel(self, grid8, params, tmp_path):
        u = random_field(grid8, seed=151)
        path = tmp_path / "steady.bard"
        write_checkpoint(path, u, params, STEADY_STATE_TIME)
        _, _, t = read_checkpoint(path)
        assert t == STEADY_STATE_TIME

    def test_byte_identical_rewrites(self, grid8, params, tmp_path):
        u = random_field(grid8, seed=152)
        a, b = tmp_path / "a.bard", tmp_path / "b.bard"
        write_checkpoint(a, u, params, 1.0)
        write_checkpoint(b, u, params, 1.0)
        assert a.read_bytes() == b.read_bytes()

    def test_header_layout(self, grid8, params, tmp_path):
        u = random_field(grid8, seed=153)
        path = tmp_path / "h.bard"
        write_checkpoint(path, u, params, 0.0)
        raw = path.read_bytes()
        assert raw[:4] == b"BARD"
        # header (4 + 4 + 4 + 5*8 bytes) plus 3 n^3 complex64 payload
        assert len(raw) == 52 + 3 * 8**3 * 8


class TestStreamedBody:
    # the body is written one component at a time, with the bytes of the
    # whole shifted full spectrum, for a field with every mode set and its box
    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("fraction", [0.5, 2 / 3, 1.0])
    def test_body_is_the_shifted_full_spectrum(self, params, tmp_path, n, fraction):
        samples = np.random.default_rng(154).standard_normal((3,) + (n,) * 3)
        u = forward_transform(samples, GridSpec(n, dealias_fraction=1.0))
        for i, field in enumerate((u, dealias(u, GridSpec(n, dealias_fraction=fraction)))):
            path = tmp_path / f"{i}.bard"
            write_checkpoint(path, field, params, 0.5)
            expected = np.fft.fftshift(field.coeffs, axes=(1, 2, 3)).astype("<c8").tobytes()
            assert path.read_bytes()[HEADER.size:] == expected


def _v1_file(path, grid, params, full, time=0.0):
    """Write a checkpoint by the documented v1 layout from a full spectrum."""
    header = struct.pack(
        "<4sIIddddd", b"BARD", 1, grid.n, grid.box_len,
        params.alpha, params.beta, params.nu, time,
    )
    body = np.fft.fftshift(full, axes=(1, 2, 3)).astype("<c8").tobytes()
    path.write_bytes(header + body)


def _fftn_spectrum(u):
    """Full spectrum of a field computed with numpy's complex fftn."""
    phys = inverse_transform(u)
    return np.stack([np.fft.fftn(phys[i]) / u.grid.n**3 for i in range(3)])


class TestFullSpectrumFiles:
    def test_reads_fftn_written_file(self, grid8, params, tmp_path):
        # files hold the full spectrum, as written from a complex fftn
        u = random_field(grid8, seed=155, amplitude=0.8)
        full = _fftn_spectrum(u)
        path = tmp_path / "fftn.bard"
        _v1_file(path, grid8, params, full, 1.5)
        v, p, t = read_checkpoint(path)
        stored = full.astype(np.complex64)
        assert (p, t) == (params, 1.5)
        assert np.array_equal(v.hat, half_spectrum(stored))
        assert np.abs(v.coeffs - stored).max() <= 1e-7 * np.abs(stored).max()

    def test_rejects_non_real_field(self, grid8, params, tmp_path):
        full = _fftn_spectrum(random_field(grid8, seed=156))
        full[0, 1, 2, 6] += 0.5 * np.abs(full).max()  # breaks c(-m) = conj(c(m))
        path = tmp_path / "complex.bard"
        _v1_file(path, grid8, params, full)
        with pytest.raises(ValueError, match="Hermitian"):
            read_checkpoint(path)

    @pytest.mark.parametrize("mode", [(1, 2, 0), (3, 5, 4)])
    def test_rejects_non_real_self_paired_plane(self, grid8, params, tmp_path, mode):
        # m_z = 0 and m_z = n/2 hold both m and -m in the half spectrum
        full = _fftn_spectrum(random_field(grid8, seed=157))
        full[(1,) + mode] += 0.5j * np.abs(full).max()
        path = tmp_path / "plane.bard"
        _v1_file(path, grid8, params, full)
        with pytest.raises(ValueError, match="Hermitian"):
            read_checkpoint(path)

    def test_rejects_divergent_field(self, grid8, params, tmp_path):
        x = np.arange(8) * grid8.dx
        X = np.meshgrid(x, x, x, indexing="ij")[0]
        full = np.zeros((3, 8, 8, 8), dtype=np.complex128)
        full[0] = np.fft.fftn(np.sin(X)) / 8**3  # div u = cos x
        path = tmp_path / "div.bard"
        _v1_file(path, grid8, params, full)
        with pytest.raises(ValueError, match="divergence-free"):
            read_checkpoint(path)


class TestErrors:
    def _write(self, grid8, params, tmp_path):
        u = random_field(grid8, seed=154)
        path = tmp_path / "x.bard"
        write_checkpoint(path, u, params, 0.5)
        return path

    def test_bad_magic(self, grid8, params, tmp_path):
        path = self._write(grid8, params, tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="magic"):
            read_checkpoint(path)

    def test_bad_version(self, grid8, params, tmp_path):
        path = self._write(grid8, params, tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            read_checkpoint(path)

    def test_truncated_header(self, grid8, params, tmp_path):
        path = self._write(grid8, params, tmp_path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(ValueError, match="truncated"):
            read_checkpoint(path)

    def test_truncated_body(self, grid8, params, tmp_path):
        path = self._write(grid8, params, tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(ValueError, match="coefficients"):
            read_checkpoint(path)
