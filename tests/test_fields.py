import numpy as np
import pytest

from bardina import FieldRecipe, GridSpec, VectorField, generate, norms
from bardina.spectral import inverse_transform

from conftest import half_hat
from oracles import hermitian_defect, random_band_full_spectrum


class TestRecipes:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FieldRecipe("vortex")

    def test_infinite_amplitude_rejected(self):
        with pytest.raises(ValueError):
            FieldRecipe("shear", float("inf"))

    def test_empty_band_rejected(self):
        with pytest.raises(ValueError):
            FieldRecipe("random_band", 1.0, k_min=3, k_max=2)


class TestGenerate:
    def test_shear_physical_profile(self, grid8):
        A = 1.5
        u = generate(FieldRecipe("shear", A), grid8)
        x = np.arange(8) * grid8.dx
        Y = np.meshgrid(x, x, x, indexing="ij")[1]
        phys = inverse_transform(u.component(0))
        assert np.abs(phys - A * np.sin(2 * np.pi * Y / grid8.box_len)).max() <= 1e-12
        assert np.abs(u.coeffs[1]).max() == 0.0
        assert np.abs(u.coeffs[2]).max() == 0.0
        assert u.div_free

    @pytest.mark.parametrize("kind", ["shear", "taylor_green", "abc"])
    def test_analytic_kinds_divergence_free(self, grid8, kind):
        u = generate(FieldRecipe(kind, 0.8), grid8)
        assert u.div_defect() <= 1e-12
        assert hermitian_defect(u) <= 1e-12

    def test_taylor_green_divergence_symbolic(self, grid16):
        # d/dx [cos x sin y sin z] + d/dy [-sin x cos y sin z] = 0 pointwise
        u = generate(FieldRecipe("taylor_green", 1.0), grid16)
        assert u.div_defect() <= 1e-12

    def test_random_band_deterministic(self, grid8):
        r = FieldRecipe("random_band", 1.0, seed=42, k_min=1, k_max=2)
        a = generate(r, grid8, alpha=1.0)
        b = generate(r, grid8, alpha=1.0)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_random_band_seed_changes_field(self, grid8):
        a = generate(FieldRecipe("random_band", 1.0, seed=1), grid8)
        b = generate(FieldRecipe("random_band", 1.0, seed=2), grid8)
        assert not np.array_equal(a.coeffs, b.coeffs)

    def test_random_band_target_norm(self, grid8):
        alpha = 1.3
        u = generate(FieldRecipe("random_band", 0.7, seed=5), grid8, alpha)
        assert abs(norms(u, alpha).h1alpha_sq - 0.49) <= 1e-10

    def test_random_band_real_and_div_free(self, grid8):
        u = generate(FieldRecipe("random_band", 1.0, seed=6, k_min=1, k_max=2), grid8)
        assert hermitian_defect(u) <= 1e-12
        assert u.div_defect() <= 1e-10

    def test_random_band_checks_its_certificate_once(self, grid16, monkeypatch):
        calls = []
        div_defect = VectorField.div_defect
        monkeypatch.setattr(VectorField, "div_defect", lambda v: calls.append(v) or div_defect(v))
        u = generate(FieldRecipe("random_band", 1.0, seed=8, k_min=1, k_max=4), grid16)
        assert calls == [u] and u.hat.shape == (3,) + grid16.box_shape

    @pytest.mark.parametrize("kind", ["shear", "taylor_green", "abc", "random_band"])
    def test_energy_overflow_rejected(self, grid8, kind):
        # finite coefficients, but an H1_alpha energy beyond the float range
        with pytest.raises(ValueError, match="energy beyond the float range"):
            generate(FieldRecipe(kind, 1e200), grid8)

    def test_large_finite_energy_accepted(self, grid8):
        u = generate(FieldRecipe("shear", 1e150), grid8)
        assert 1e300 < norms(u, 1.0).h1alpha_sq < np.inf

    def test_band_outside_cutoff_rejected(self, grid8):
        with pytest.raises(ValueError):
            generate(FieldRecipe("random_band", 1.0, k_min=1, k_max=3), grid8)

    def test_band_support(self, grid8):
        from bardina.spectral import mode_indices

        u = generate(FieldRecipe("random_band", 1.0, seed=7, k_min=2, k_max=2), grid8)
        m = mode_indices(grid8)
        mag = np.sqrt(
            m[:, None, None] ** 2 + m[None, :, None] ** 2 + m[None, None, :] ** 2
        )
        outside = (mag < 2) | (mag > 2)
        assert np.abs(u.coeffs[:, outside]).max() == 0.0

    @pytest.mark.parametrize("n, fraction", [(8, 2 / 3), (16, 1.0), (32, 2 / 3), (64, 2 / 3)])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_random_band_matches_full_spectrum_construction(self, n, fraction, seed):
        grid = GridSpec(n, dealias_fraction=fraction)
        cutoff = grid.dealias_cutoff
        for k_min, k_max in ((0, 0), (0, 2), (1, 2), (2, cutoff)):
            r = FieldRecipe("random_band", 0.7, seed=seed, k_min=k_min, k_max=k_max)
            got = half_hat(generate(r, grid, alpha=0.8))
            ref = random_band_full_spectrum(r, grid, 0.8).hat
            # bitwise on every mode; zeros may differ in sign only
            assert np.array_equal(got, ref)
            nonzero = ref != 0
            assert got[nonzero].tobytes() == ref[nonzero].tobytes()
