"""Deterministic generators of divergence-free initial data and forces."""

from collections import namedtuple

import numpy as np

from .spectral import (
    VectorField,
    _Checked,
    _forward,
    _project,
    fft_order,
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


class FieldRecipe(_Checked, namedtuple("FieldRecipe", "kind amplitude seed k_min k_max",
                                        defaults=(1.0, 0, 1, 2))):
    """Recipe for a divergence-free vector field.

    amplitude scales the physical field for the analytic kinds; for
    random_band it is the target H^1_alpha norm of the result (alpha taken
    from the companion parameter set at generation time, see generate).
    """

    __slots__ = ()

    def _check(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}, expected one of {KINDS}")
        if not np.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
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
            hat = _forward(u, grid).copy()
        energy = norms(VectorField(grid, hat), alpha).h1alpha_sq
    if not np.isfinite(energy):
        raise ValueError(
            f"the {recipe.kind} field of amplitude {recipe.amplitude:g} has an H1_alpha "
            "energy beyond the float range"
        )
    return VectorField(grid, hat, div_free=True)  # the one certificate check


DRAW_BYTES = 1 << 20  # most bytes of one block of a random_band draw


def _random_band(recipe, grid, alpha):
    cutoff = grid.dealias_cutoff
    if recipe.k_max > cutoff or recipe.k_min < 0:
        raise ValueError(f"band k_min={recipe.k_min}, k_max={recipe.k_max} outside the "
                         f"retained modes 0..{cutoff} of n={grid.n}")
    rng = np.random.default_rng(recipe.seed)
    n, b = grid.n, grid.box_shape[0]
    mb = fft_order(b)  # box rows: FFT order of b points
    mz = fft_order(grid.n)[: cutoff + 1]
    mag = np.sqrt(mb[:, None, None] ** 2 + mb[None, :, None] ** 2 + mz[None, None, :] ** 2)
    # |m| <= k_max <= cutoff, so the band lies inside the box.  Both parts
    # are drawn on the full spectrum, so a seed gives the same field on any
    # grid of n whose box holds the band; c(m) is Hermitian-symmetrized from
    # the draws at the band modes m (full-spectrum index m mod n) and -m,
    # the only values of each draw that are kept (_band_draws).
    bx, by, bz = np.nonzero((mag >= recipe.k_min) & (mag <= recipe.k_max))
    x, y, z = mb[bx] % n, mb[by] % n, mz[bz] % n
    comps, cube = np.arange(3)[:, None], (3, n, n, n)
    at = np.stack([np.ravel_multi_index((comps, x, y, z), cube),
                   np.ravel_multi_index((comps, -x % n, -y % n, -z % n), cube)])
    (re, re_m), (im, im_m) = _band_draws(rng, n, at)
    c = 0.5 * ((re + 1j * im) + np.conj(re_m + 1j * im_m))
    # projected on the band's modes only: _project is per mode, and the
    # modes outside the band stay +0 in the box either way
    symbols = modes(grid)
    k = tuple(np.broadcast_to(ki, grid.box_shape)[bx, by, bz] for ki in symbols.k)
    band = symbols._replace(k=k, leray=symbols.leray[:, bx, by, bz])
    hat = np.zeros((3,) + grid.box_shape, dtype=np.complex128)
    hat[:, bx, by, bz] = _project(c, band)
    current = norms(VectorField(grid, hat), alpha).h1alpha_sq  # summed over the box
    if current > 0:  # the whole box: a negative amplitude turns its +0s to -0s, as it did
        hat *= recipe.amplitude / np.sqrt(current)
    return hat


def _band_draws(rng, n, at):
    """The values at the flat indices `at` of two successive standard-normal
    draws of shape (3, n, n, n), as an array (2,) + at.shape.  Each draw is
    taken in blocks of whole (n, n) planes, at most DRAW_BYTES a block, in
    one reused buffer: blocked calls of standard_normal(out=...) give the
    values of one whole call, and the whole draw is one block up to n = 32."""
    plane, planes = n * n, 3 * n
    per_block = max(1, DRAW_BYTES // (8 * plane))
    block = np.empty((min(per_block, planes), plane))
    draws = np.empty((2,) + at.shape)
    for d in draws:
        for lo in range(0, planes, per_block):
            part = block[: min(per_block, planes - lo)]
            rng.standard_normal(out=part)
            start = lo * plane
            inside = (at >= start) & (at < start + part.size)
            d[inside] = part.ravel()[at[inside] - start]
    return draws
