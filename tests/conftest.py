import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bardina import FieldRecipe, GridSpec, PhysParams, VectorField, generate, spectral
from oracles import half_spectrum


@pytest.fixture
def grid8():
    return GridSpec(8)


@pytest.fixture
def full8():
    """n = 8 at dealias_fraction 1: the box is the whole half spectrum, so
    fields on it hold every mode (general fields, checkpoint fields)."""
    return GridSpec(8, dealias_fraction=1.0)


@pytest.fixture
def grid16():
    return GridSpec(16)


@pytest.fixture
def params():
    return PhysParams(alpha=1.0, beta=1.0, nu=0.5)


def random_field(grid, alpha=1.0, seed=0, amplitude=1.0, k_min=1, k_max=2):
    """Divergence-free random band-limited field."""
    return generate(
        FieldRecipe("random_band", amplitude, seed=seed, k_min=k_min, k_max=k_max),
        grid,
        alpha,
    )


def zero_field(grid):
    """The zero field on the grid, certified divergence-free."""
    return VectorField(grid, np.zeros((3,) + grid.box_shape, complex), div_free=True)


def slab_budget(monkeypatch, n, rows):
    """Lower SLAB_BYTES so that an n-grid runs slabs of `rows` x rows."""
    monkeypatch.setattr(spectral, "SLAB_BYTES", rows * spectral._slab_row_bytes(n))
    assert spectral._slab_rows(n) == rows


def random_scalar_samples(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n, n))


def half_hat(v):
    """The half spectrum (n, n, n//2+1) per component of a field on any grid:
    its box, zero elsewhere."""
    return half_spectrum(v.coeffs)
