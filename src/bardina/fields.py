"""Deterministic generators of divergence-free initial data and forces."""

from dataclasses import dataclass

import numpy as np

from .spectral import (
    VectorField,
    _forward,
    _project,
    mode_indices,
    modes,
    norms,
)

__all__ = ["FieldRecipe", "generate"]

# The analytic kinds: (amplitude a, wavenumber q = 2 pi / box_len, x, y, z)
# -> the three physical components.
_ANALYTIC = {
    "shear": lambda a, q, x, y, z: (a * np.sin(q * y), np.zeros_like(y), np.zeros_like(y)),
    "taylor_green": lambda a, q, x, y, z: (
        a * np.cos(q * x) * np.sin(q * y) * np.sin(q * z),
        -a * np.sin(q * x) * np.cos(q * y) * np.sin(q * z),
        np.zeros_like(x),
    ),
    "abc": lambda a, q, x, y, z: (
        a * (np.sin(q * z) + np.cos(q * y)),
        a * (np.sin(q * x) + np.cos(q * z)),
        a * (np.sin(q * y) + np.cos(q * x)),
    ),
}
KINDS = (*_ANALYTIC, "random_band")


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


def generate(recipe, grid, alpha=1.0):
    """Build the vector field described by a recipe on a grid.

    All outputs are real, divergence-free (certificate set) box fields.
    For random_band, alpha enters the target-norm rescaling.  A field whose
    H^1_alpha energy overflows to inf or NaN is a ValueError.
    """
    formula = _ANALYTIC.get(recipe.kind)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        if formula is None:
            hat = _random_band(recipe, grid, alpha)
        else:
            x = np.arange(grid.n) * grid.dx
            axes = np.meshgrid(x, x, x, indexing="ij")
            u = np.stack(formula(recipe.amplitude, 2.0 * np.pi / grid.box_len, *axes))
            hat = _forward(u, grid)
        energy = norms(VectorField(grid, hat), alpha).h1alpha_sq
    if not np.isfinite(energy):
        raise ValueError(
            f"the {recipe.kind} field of amplitude {recipe.amplitude:g} has an H1_alpha "
            "energy beyond the float range"
        )
    return VectorField(grid, hat, div_free=True)  # the one certificate check


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
    # are drawn on the full spectrum, so a seed gives the same field on any
    # grid of n whose box holds the band; c(m) is Hermitian-symmetrized from
    # the draws at the band modes m (full-spectrum index m mod n) and -m.
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
    hat = _project(hat, modes(grid))
    current = norms(VectorField(grid, hat), alpha).h1alpha_sq
    if current > 0:
        hat *= recipe.amplitude / np.sqrt(current)
    return hat
