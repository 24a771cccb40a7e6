import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bardina import GridSpec, PhysParams
from bardina.checkpoint import HEADER, STEADY_STATE_TIME, read_checkpoint, write_checkpoint
from bardina.spectral import VectorField, forward_transform

from conftest import random_field

round_trips = settings(max_examples=20, deadline=None,
                       suppress_health_check=[HealthCheck.function_scoped_fixture])
grids = st.builds(GridSpec, st.sampled_from([8, 16]),
                  dealias_fraction=st.sampled_from([0.5, 2 / 3, 1.0]))


class TestRoundTrip:
    def test_round_trip(self, grid8, params, tmp_path):
        u = random_field(grid8, seed=150, amplitude=0.8)
        path = tmp_path / "state.bard"
        write_checkpoint(path, u, params, 2.5)
        v, p, t = read_checkpoint(path)
        assert t == 2.5
        assert p == params
        assert v.grid == grid8
        assert v.hat.tobytes() == u.hat.tobytes()  # complex128 storage: bit for bit

    @round_trips
    @given(grid=grids, seed=st.integers(0, 2**32 - 1),
           eta_c=st.floats(1e-6, 1e6), time=st.floats(-1.0, 1e6))
    def test_v2_round_trip_is_bitwise(self, tmp_path, grid, seed, eta_c, time):
        u = random_field(grid, seed=seed, k_max=grid.dealias_cutoff)
        params = PhysParams(alpha=0.7, beta=1.3, nu=0.05, eta_c=eta_c)
        path = tmp_path / "state.bard"
        write_checkpoint(path, u, params, time)
        v, p, t = read_checkpoint(path)
        assert (v.grid, p, t) == (grid, params, time)
        assert v.hat.tobytes() == u.hat.tobytes()
        assert v.coeffs.shape == (3,) + (grid.n,) * 3  # read by the benchmark's checkpoint check
        # the body is the field's own box in complex128
        assert path.read_bytes()[HEADER.size:] == u.hat.astype("<c16").tobytes()

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

    def test_header_layout(self, grid8, tmp_path):
        params = PhysParams(alpha=0.7, beta=1.3, nu=0.05, eta_c=2.5)
        u = random_field(grid8, seed=153)
        path = tmp_path / "h.bard"
        write_checkpoint(path, u, params, 0.25)
        raw = path.read_bytes()
        # magic, version, n (4 + 4 + 4 bytes), box_len, alpha, beta, nu, time,
        # eta_c, fraction (7*8) and crc32 (4)
        assert HEADER.size == 72
        body = raw[72:]
        assert HEADER.unpack(raw[:72]) == (
            b"BARD", 2, 8, grid8.box_len, 0.7, 1.3, 0.05, 0.25,
            2.5, grid8.dealias_fraction, zlib.crc32(body),
        )
        assert body == u.hat.astype("<c16").tobytes()
        assert len(raw) == 72 + 3 * 5 * 5 * 3 * 16  # the box (5, 5, 3) at n = 8

    def test_n64_file_size(self):
        # the box (43, 43, 22) of GridSpec(64)
        assert 72 + 3 * np.prod(GridSpec(64).box_shape) * 16 == 1_952_616


class TestBody:
    # the body is written from the field's own box, with no full spectrum,
    # shift or cast copy
    def test_write_holds_no_copy_of_the_field(self, params, tmp_path):
        grid = GridSpec(32)
        u = random_field(grid, seed=160)
        body = 3 * int(np.prod(grid.box_shape)) * 16
        assert body == 232_848
        tracemalloc.start()
        try:
            write_checkpoint(tmp_path / "state.bard", u, params, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a full spectrum of one component alone would come to 2.25 times the box
        assert peak <= 1.25 * body


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

    @pytest.mark.parametrize("version", [1, 99])
    def test_bad_version(self, grid8, params, tmp_path, version):
        # version 1, the complex64 full spectrum, is refused like any other
        path = self._write(grid8, params, tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = version.to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=f"unsupported checkpoint version {version}$"):
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


class TestV2Errors:
    """Each damage to a version 2 file is a ValueError naming it."""

    def _write(self, tmp_path, u, params):
        path = tmp_path / "x.bard"
        write_checkpoint(path, u, params, 0.5)
        return path

    def test_flipped_body_byte(self, grid8, params, tmp_path):
        path = self._write(tmp_path, random_field(grid8, seed=161), params)
        raw = bytearray(path.read_bytes())
        raw[100] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="CRC32"):
            read_checkpoint(path)

    def test_truncated_extended_header(self, grid8, params, tmp_path):
        # one byte short of the crc32 that ends the header
        path = self._write(tmp_path, random_field(grid8, seed=162), params)
        path.write_bytes(path.read_bytes()[: HEADER.size - 1])
        with pytest.raises(ValueError, match="truncated"):
            read_checkpoint(path)

    @pytest.mark.parametrize("cut", [1, 16, 17])
    def test_truncated_body(self, grid8, params, tmp_path, cut):
        path = self._write(tmp_path, random_field(grid8, seed=163), params)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ValueError, match="coefficients"):
            read_checkpoint(path)

    @pytest.mark.parametrize("fraction", [0.0, 1.5, float("nan")])
    def test_invalid_fraction(self, grid8, params, tmp_path, fraction):
        path = self._write(tmp_path, random_field(grid8, seed=164), params)
        raw = bytearray(path.read_bytes())
        raw[60:68] = struct.pack("<d", fraction)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="dealias fraction"):
            read_checkpoint(path)

    @pytest.mark.parametrize("grid, index", [
        (GridSpec(8), (2, 1, 2, 0)),  # m = (1, 2, 0), k_z = 0
        (GridSpec(8, dealias_fraction=1.0), (0, 0, 1, 4)),  # m = (0, 1, 4 = n/2), k_x = 0
    ])
    def test_non_real_self_paired_plane(self, params, tmp_path, grid, index):
        # m and -m both lie in the planes m_z = 0 and m_z = n/2; the added
        # coefficient is normal to k, so the field stays divergence-free
        u = random_field(grid, seed=165)
        hat = u.hat.copy()
        hat[index] += 1e-6j * np.abs(hat).max()
        v = VectorField(grid, hat)
        assert v.div_defect() <= 1e-15
        path = self._write(tmp_path, v, params)
        with pytest.raises(ValueError, match="Hermitian"):
            read_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(np.nan, 0.0)])
    def test_non_finite_coefficient(self, grid8, params, tmp_path, value):
        # every other check compares with ">", which a NaN passes
        hat = random_field(grid8, seed=166).hat.copy()
        hat[1, 2, 1, 1] = value
        path = self._write(tmp_path, VectorField(grid8, hat), params)
        with pytest.raises(ValueError, match="non-finite"):
            read_checkpoint(path)

    def test_divergent_field(self, grid8, params, tmp_path):
        x = np.arange(8) * grid8.dx
        X = np.meshgrid(x, x, x, indexing="ij")[0]
        samples = np.zeros((3, 8, 8, 8))
        samples[0] = np.sin(X)  # div u = cos x
        path = self._write(tmp_path, forward_transform(samples, grid8), params)
        with pytest.raises(ValueError, match="divergence-free"):
            read_checkpoint(path)
