"""Deterministic generators of divergence-free initial data and forces."""

from dataclasses import dataclass

import numpy as np

from .spectral import (
    VectorField,
    _project,
    mode_indices,
    modes,
    norms,
    vector_from_physical,
)

__all__ = ["FieldRecipe", "generate"]

KINDS = ("shear", "taylor_green", "abc", "random_band")


@dataclass(frozen=True)
class FieldRecipe:
    """Recipe for a divergence-free vector field.

    amplitude scales the physical field for the analytic kinds; for
    random_band it is the target H^1_alpha norm of the result (alpha taken
    from the companion parameter set at generation time, see generate).
    """

    kind: str
    amplitude: float = 1.0
    seed: int = 0
    k_min: int = 1
    k_max: int = 2

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}, expected one of {KINDS}")
        if not np.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        if self.kind == "random_band" and self.k_min > self.k_max:
            raise ValueError(f"empty band: k_min={self.k_min} > k_max={self.k_max}")


def _axes(grid):
    x = np.arange(grid.n) * grid.dx
    return np.meshgrid(x, x, x, indexing="ij")


def _certified(samples, grid):
    """Physical samples -> box field with a checked div_free certificate."""
    return VectorField(grid, vector_from_physical(samples, grid).box, div_free=True)


def generate(recipe, grid, alpha=1.0):
    """Build the vector field described by a recipe on a grid.

    All outputs are real, divergence-free (certificate set) box fields.
    For random_band, alpha enters the target-norm rescaling.
    """
    if recipe.kind == "shear":
        return _shear(recipe, grid)
    if recipe.kind == "taylor_green":
        return _taylor_green(recipe, grid)
    if recipe.kind == "abc":
        return _abc(recipe, grid)
    return _random_band(recipe, grid, alpha)


def _shear(recipe, grid):
    x, y, z = _axes(grid)
    two_pi_l = 2.0 * np.pi / grid.box_len
    u = np.stack(
        [
            recipe.amplitude * np.sin(two_pi_l * y),
            np.zeros_like(y),
            np.zeros_like(y),
        ]
    )
    return _certified(u, grid)


def _taylor_green(recipe, grid):
    x, y, z = _axes(grid)
    q = 2.0 * np.pi / grid.box_len
    a = recipe.amplitude
    u = np.stack(
        [
            a * np.cos(q * x) * np.sin(q * y) * np.sin(q * z),
            -a * np.sin(q * x) * np.cos(q * y) * np.sin(q * z),
            np.zeros_like(x),
        ]
    )
    return _certified(u, grid)


def _abc(recipe, grid):
    x, y, z = _axes(grid)
    q = 2.0 * np.pi / grid.box_len
    a = recipe.amplitude
    u = np.stack(
        [
            a * (np.sin(q * z) + np.cos(q * y)),
            a * (np.sin(q * x) + np.cos(q * z)),
            a * (np.sin(q * y) + np.cos(q * x)),
        ]
    )
    return _certified(u, grid)


def _random_band(recipe, grid, alpha):
    cutoff = grid.dealias_cutoff
    if recipe.k_max > cutoff or recipe.k_min < 0:
        raise ValueError(
            f"band [{recipe.k_min}, {recipe.k_max}] outside retained modes "
            f"(cutoff {cutoff})"
        )
    rng = np.random.default_rng(recipe.seed)
    n, b = grid.n, grid.box_shape[0]
    mb = np.fft.fftfreq(b, 1.0 / b).astype(np.int64)  # box rows: FFT order of b points
    mz = mode_indices(grid)[: cutoff + 1]
    mag = np.sqrt(mb[:, None, None] ** 2 + mb[None, :, None] ** 2 + mz[None, None, :] ** 2)
    # |m| <= k_max <= cutoff, so the band lies inside the box.  Both parts
    # are drawn on the full spectrum, so a seed gives the same field in any
    # layout; c(m) is Hermitian-symmetrized from the draws at the band modes
    # m (full-spectrum index m mod n) and at their mirrors -m.
    bx, by, bz = np.nonzero((mag >= recipe.k_min) & (mag <= recipe.k_max))
    x, y, z = mb[bx] % n, mb[by] % n, mz[bz] % n
    mx, my, mz = -x % n, -y % n, -z % n
    draw = np.empty((3, n, n, n))
    rng.standard_normal(out=draw)
    re, re_m = draw[:, x, y, z], draw[:, mx, my, mz]
    rng.standard_normal(out=draw)
    im, im_m = draw[:, x, y, z], draw[:, mx, my, mz]
    hat = np.zeros((3,) + grid.box_shape, dtype=np.complex128)
    hat[:, bx, by, bz] = 0.5 * ((re + 1j * im) + np.conj(re_m + 1j * im_m))
    hat = _project(hat, modes(grid, grid.box_shape))
    current = norms(VectorField(grid, hat), alpha).h1alpha_sq
    if current > 0:
        hat *= recipe.amplitude / np.sqrt(current)
    return VectorField(grid, hat, div_free=True)  # the one certificate check
