"""Initial-datum generators."""

import math

import numpy as np
import pytest

from logns.data import DatumSpec, make_datum
from logns.diagnostics import mass
from logns.geometry import DomainKind, GridGeometry, odd_extension
from logns.spectral import mode_radius


def torus(n=64):
    return GridGeometry(DomainKind.TORUS, (1.0,), (n,))


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DatumSpec(kind="soliton")

    def test_plane_wave_needs_modes(self):
        with pytest.raises(ValueError):
            DatumSpec(kind="plane_wave")

    def test_band_limited_needs_cutoff(self):
        with pytest.raises(ValueError):
            DatumSpec(kind="random_band_limited")

    def test_rough_needs_target(self):
        with pytest.raises(ValueError):
            DatumSpec(kind="random_rough")


class TestPlaneWave:
    def test_values(self):
        geom = torus(32)
        f = make_datum(DatumSpec(kind="plane_wave", modes=(3,), amplitude=0.5j), geom)
        x = geom.axis_coordinates(0)
        np.testing.assert_allclose(f.data, 0.5j * np.exp(6j * math.pi * x), atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            make_datum(DatumSpec(kind="plane_wave", modes=(1, 2)), torus(32))

    def test_rejected_on_dirichlet(self):
        geom = GridGeometry(DomainKind.DIRICHLET_INTERVAL, (1.0,), (32,))
        with pytest.raises(ValueError):
            make_datum(DatumSpec(kind="plane_wave", modes=(1,)), geom)


class TestGaussianBump:
    def test_peak_at_center(self):
        geom = torus()
        f = make_datum(DatumSpec(kind="gaussian_bump", center=(0.5,), width=0.05), geom)
        assert np.argmax(np.abs(f.data)) == 32

    def test_default_center_is_midpoint(self):
        geom = torus()
        a = make_datum(DatumSpec(kind="gaussian_bump", width=0.05), geom)
        b = make_datum(DatumSpec(kind="gaussian_bump", center=(0.5,), width=0.05), geom)
        np.testing.assert_array_equal(a.data, b.data)

    def test_periodization_is_smooth_at_the_wrap(self):
        # images make the sampled bump continuous across x = 0 == x = 1
        geom = torus(128)
        f = make_datum(DatumSpec(kind="gaussian_bump", center=(0.0,), width=0.2), geom)
        assert abs(f.data[1] - f.data[-1]) < 1e-3
        assert abs(f.data[0]) == pytest.approx(np.abs(f.data).max())

    def test_center_dimension_check(self):
        with pytest.raises(ValueError):
            make_datum(DatumSpec(kind="gaussian_bump", center=(0.5, 0.5)), torus())


class TestRandomKinds:
    def test_band_limited_support(self):
        geom = torus()
        f = make_datum(DatumSpec(kind="random_band_limited", cutoff=6.0, seed=5), geom)
        coeffs = np.fft.fftn(f.data) / f.data.size
        assert np.all(np.abs(coeffs[mode_radius(geom) > 6.0]) < 1e-14)

    def test_unit_mass(self):
        geom = torus()
        for spec in (
            DatumSpec(kind="random_band_limited", cutoff=8.0, seed=1),
            DatumSpec(kind="random_rough", target_s=0.5, seed=1),
        ):
            assert mass(make_datum(spec, geom)) == pytest.approx(1.0, rel=1e-12)

    def test_seed_determinism(self):
        geom = torus()
        spec = DatumSpec(kind="random_rough", target_s=0.5, seed=42)
        a = make_datum(spec, geom)
        b = make_datum(spec, geom)
        assert np.array_equal(a.data, b.data)
        c = make_datum(DatumSpec(kind="random_rough", target_s=0.5, seed=43), geom)
        assert not np.array_equal(a.data, c.data)

    def test_rough_spectrum_decays(self):
        geom = torus(256)
        f = make_datum(DatumSpec(kind="random_rough", target_s=0.5, seed=3), geom)
        coeffs = np.abs(np.fft.fftn(f.data) / f.data.size)
        # every coefficient sits on the prescribed power-law envelope
        radius = mode_radius(geom)
        envelope = (1.0 + radius) ** -(0.5 + 0.5 + 0.05)
        ratio = coeffs / envelope
        assert ratio.max() == pytest.approx(ratio.min(), rel=1e-10)


class TestDirichletData:
    @pytest.mark.parametrize(
        "spec",
        [
            DatumSpec(kind="gaussian_bump", center=(0.3,), width=0.05),
            DatumSpec(kind="random_band_limited", cutoff=6.0, seed=2),
            DatumSpec(kind="random_rough", target_s=0.5, seed=2),
        ],
    )
    def test_boundary_zero_and_odd(self, spec):
        geom = GridGeometry(DomainKind.DIRICHLET_INTERVAL, (1.0,), (64,))
        f = make_datum(spec, geom)
        assert f.data[0] == 0.0
        # odd_extension validates antisymmetry internally
        ext = odd_extension(f)
        m = ext.geometry.points[-1]
        idx = (-np.arange(m)) % m
        np.testing.assert_allclose(ext.data[idx], -ext.data, atol=1e-12)

    def test_slab_datum(self):
        geom = GridGeometry(DomainKind.DIRICHLET_SLAB, (1.0, 1.0), (16, 16))
        f = make_datum(DatumSpec(kind="random_band_limited", cutoff=4.0, seed=7), geom)
        assert np.all(f.data[:, 0] == 0.0)
        assert mass(f) > 0.0
