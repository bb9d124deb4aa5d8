"""Grid geometry, odd extension, and symmetry transforms."""

import math
import re

import numpy as np
import pytest

from logns.geometry import (
    DomainKind,
    Field,
    GeometryError,
    GridGeometry,
    galilean_boost,
    odd_extension,
    require_same_geometry,
    restrict_to_half,
)


def torus(n=64):
    return GridGeometry(DomainKind.TORUS, (1.0,), (n,))


class TestGridGeometryValidation:
    def test_accepts_string_kind(self):
        geom = GridGeometry("torus", (1.0,), (16,))
        assert geom.kind is DomainKind.TORUS

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 6, 12, 100])
    def test_rejects_non_power_of_two_points(self, n):
        with pytest.raises(GeometryError):
            GridGeometry(DomainKind.TORUS, (1.0,), (n,))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            GridGeometry(DomainKind.PERIODIC_BOX, (1.0, 2.0), (16,))

    def test_rejects_empty(self):
        with pytest.raises(GeometryError):
            GridGeometry(DomainKind.TORUS, (), ())

    def test_rejects_nonpositive_length(self):
        with pytest.raises(GeometryError):
            GridGeometry(DomainKind.PERIODIC_BOX, (0.0,), (16,))
        with pytest.raises(GeometryError):
            GridGeometry(DomainKind.PERIODIC_BOX, (math.inf,), (16,))

    def test_torus_requires_unit_lengths(self):
        with pytest.raises(GeometryError):
            GridGeometry(DomainKind.TORUS, (2.0,), (16,))

    def test_dirichlet_interval_is_one_dimensional(self):
        GridGeometry(DomainKind.DIRICHLET_INTERVAL, (1.0,), (16,))
        with pytest.raises(GeometryError):
            GridGeometry(DomainKind.DIRICHLET_INTERVAL, (1.0, 1.0), (16, 16))

    def test_slab_needs_two_dimensions(self):
        GridGeometry(DomainKind.DIRICHLET_SLAB, (1.0, 1.0), (8, 8))
        with pytest.raises(GeometryError):
            GridGeometry(DomainKind.DIRICHLET_SLAB, (1.0,), (8,))


class TestGridGeometryProperties:
    def test_cell_volume_and_volume(self):
        geom = GridGeometry(DomainKind.PERIODIC_BOX, (2.0, 3.0), (8, 16))
        assert geom.dim == 2
        assert geom.volume == pytest.approx(6.0)
        assert geom.cell_volume == pytest.approx(6.0 / 128)

    def test_axis_coordinates(self):
        geom = GridGeometry(DomainKind.PERIODIC_BOX, (2.0,), (8,))
        np.testing.assert_allclose(geom.axis_coordinates(0), np.arange(8) * 0.25)

    def test_coordinate_grids_broadcast(self):
        geom = GridGeometry(DomainKind.PERIODIC_BOX, (1.0, 2.0), (4, 8))
        grids = geom.coordinate_grids()
        assert grids[0].shape == (4, 1)
        assert grids[1].shape == (1, 8)
        assert (grids[0] + grids[1]).shape == (4, 8)

    def test_doubled(self):
        geom = GridGeometry(DomainKind.DIRICHLET_SLAB, (1.0, 0.5), (8, 16))
        dbl = geom.transform_grid()
        assert dbl.kind is DomainKind.PERIODIC_BOX
        assert dbl.lengths == (1.0, 1.0)
        assert dbl.points == (8, 32)

    @pytest.mark.parametrize("geom", [
        torus(), GridGeometry(DomainKind.PERIODIC_BOX, (1.0, 0.5), (8, 16)),
    ], ids=["torus", "box"])
    def test_transform_grid_of_a_periodic_grid_is_the_grid(self, geom):
        assert geom.transform_grid() is geom

    @pytest.mark.parametrize("kind, dirichlet", [
        ("torus", False), ("periodic_box", False),
        ("dirichlet_interval", True), ("dirichlet_slab", True),
    ])
    def test_every_kind_is_either_dirichlet_or_periodic(self, kind, dirichlet):
        assert DomainKind(kind).is_dirichlet is dirichlet
        dim = 2 if kind == "dirichlet_slab" else 1
        geom = GridGeometry(kind, (1.0,) * dim, (8,) * dim)
        assert geom.is_dirichlet is dirichlet


class TestField:
    def test_shape_mismatch(self):
        with pytest.raises(GeometryError):
            Field(torus(16), np.zeros(8, dtype=complex))

    def test_require_same_geometry(self):
        require_same_geometry(Field(torus(16), np.zeros(16)), Field(torus(16), np.zeros(16)))
        with pytest.raises(GeometryError):
            require_same_geometry(Field(torus(16), np.zeros(16)), Field(torus(32), np.zeros(32)))


class TestOddExtension:
    def sine_field(self, n=32, modes=3):
        geom = GridGeometry(DomainKind.DIRICHLET_INTERVAL, (1.0,), (n,))
        x = geom.axis_coordinates(0)
        return Field(geom, np.sin(math.pi * modes * x) * (1.0 + 0.5j))

    def test_round_trip_is_bit_exact(self):
        f = self.sine_field()
        back = restrict_to_half(odd_extension(f))
        assert back.geometry == f.geometry
        assert np.array_equal(back.data, f.data)

    def test_extension_is_antisymmetric(self):
        ext = odd_extension(self.sine_field())
        m = ext.geometry.points[-1]
        idx = (-np.arange(m)) % m
        np.testing.assert_array_equal(ext.data[idx], -ext.data)

    def test_rejects_nonzero_boundary(self):
        geom = GridGeometry(DomainKind.DIRICHLET_INTERVAL, (1.0,), (16,))
        with pytest.raises(GeometryError):
            odd_extension(Field(geom, np.ones(16, dtype=complex)))

    def test_rejects_periodic_input(self):
        with pytest.raises(GeometryError):
            odd_extension(Field(torus(16), np.zeros(16)))

    @pytest.mark.parametrize("kind, lengths, points", [
        ("dirichlet_interval", (1.0,), (16,)), ("dirichlet_slab", (1.0, 1.0), (4, 16)),
    ], ids=["interval", "slab"])
    def test_restrict_rejects_dirichlet_input_naming_its_kind(self, kind, lengths, points):
        geom = GridGeometry(kind, lengths, points)
        with pytest.raises(GeometryError,
                           match=f"^restrict_to_half requires a periodic geometry, got {kind}$"):
            restrict_to_half(Field(geom, np.zeros(points)))

    def test_restrict_rejects_non_antisymmetric(self):
        rng = np.random.default_rng(0)
        f = Field(torus(32), rng.standard_normal(32) + 1j)
        with pytest.raises(GeometryError):
            restrict_to_half(f)

    def test_slab_round_trip(self):
        geom = GridGeometry(DomainKind.DIRICHLET_SLAB, (1.0, 1.0), (8, 16))
        grids = geom.coordinate_grids()
        data = np.cos(2 * math.pi * grids[0]) * np.sin(math.pi * 2 * grids[1])
        f = Field(geom, data)
        back = restrict_to_half(odd_extension(f))
        assert np.array_equal(back.data, f.data)


RESTRICT_GEOMETRIES = {
    "interval": GridGeometry(DomainKind.DIRICHLET_INTERVAL, (1.0,), (16,)),
    "slab": GridGeometry(DomainKind.DIRICHLET_SLAB, (1.0, 0.5), (4, 8)),
}


class TestRestrictResidual:
    """restrict_to_half's residual is max_j |u_j + u_{-j}| over the last axis."""

    def odd_field(self, geom, seed=0):
        rng = np.random.default_rng(seed)
        half = rng.standard_normal(geom.points) + 1j * rng.standard_normal(geom.points)
        half[..., 0] = 0.0
        return odd_extension(Field(geom, half))

    @pytest.mark.parametrize("plane", ["0", "n", "j", "2n-j"])
    @pytest.mark.parametrize("name", list(RESTRICT_GEOMETRIES))
    def test_one_defect_is_rejected(self, name, plane):
        geom = RESTRICT_GEOMETRIES[name]
        ext = self.odd_field(geom)
        assert np.array_equal(restrict_to_half(ext).data, ext.data[..., : geom.points[-1]])
        n = geom.points[-1]
        index = {"0": 0, "n": n, "j": 3, "2n-j": 2 * n - 3}[plane]
        data = ext.data.copy()
        data[(0,) * (geom.dim - 1) + (index,)] += 1e-6  # one sample, one plane
        # planes 0 and n pair with themselves, so their defect counts twice
        residual = "2.000e-06" if plane in ("0", "n") else "1.000e-06"
        with pytest.raises(GeometryError, match=rf"not antisymmetric .*residual {residual}"):
            restrict_to_half(Field(ext.geometry, data))

    @pytest.mark.parametrize("points", [(8,), (4, 16), (4, 4, 8)])
    def test_residual_equals_the_gathered_form(self, points):
        geom = GridGeometry(DomainKind.PERIODIC_BOX, (1.0,) * len(points), points)
        rng = np.random.default_rng(len(points))
        data = rng.standard_normal(points) + 1j * rng.standard_normal(points)
        m = points[-1]
        expected = np.abs(data[..., (-np.arange(m)) % m] + data).max()
        with pytest.raises(GeometryError, match=re.escape(f"residual {expected:.3e}")):
            restrict_to_half(Field(geom, data))


class TestGalileanBoost:
    def test_zero_time_is_pure_modulation(self):
        geom = torus(32)
        f = Field(geom, np.ones(32, dtype=complex))
        boosted = galilean_boost(f, (2,), 0.0)
        x = geom.axis_coordinates(0)
        np.testing.assert_allclose(boosted.data, np.exp(4j * math.pi * x), atol=1e-14)

    def test_preserves_mass(self):
        rng = np.random.default_rng(7)
        f = Field(torus(64), rng.standard_normal(64) + 1j * rng.standard_normal(64))
        boosted = galilean_boost(f, (3,), 0.37)
        assert np.sum(np.abs(boosted.data) ** 2) == pytest.approx(
            np.sum(np.abs(f.data) ** 2), rel=1e-13
        )

    def test_shifts_plane_wave_mode(self):
        geom = torus(32)
        x = geom.axis_coordinates(0)
        f = Field(geom, np.exp(2j * math.pi * 3 * x))
        boosted = galilean_boost(f, (2,), 0.0)
        coeffs = np.fft.fft(boosted.data) / 32
        assert abs(coeffs[5]) == pytest.approx(1.0, abs=1e-13)

    def test_rejects_dirichlet(self):
        geom = GridGeometry(DomainKind.DIRICHLET_INTERVAL, (1.0,), (16,))
        with pytest.raises(GeometryError, match="^galilean_boost requires a periodic "
                                                "geometry, got dirichlet_interval$"):
            galilean_boost(Field(geom, np.zeros(geom.points)), (1,), 0.0)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            galilean_boost(Field(torus(16), np.zeros(16)), (1, 1), 0.0)

    @pytest.mark.filterwarnings("error")  # no overflow warning on the way
    @pytest.mark.parametrize("points, modes", [
        ((32,), (10**300,)),
        ((16, 16), (10**153 + 6 * 10**152,) * 2),  # each |v_i|^2 is finite, the sum is not
    ], ids=["1-d", "2-d-sum"])
    def test_rejects_a_boost_whose_squared_speed_overflows(self, points, modes):
        geom = GridGeometry(DomainKind.TORUS, (1.0,) * len(points), points)
        with pytest.raises(GeometryError, match=r"^\|v\|\^2 is not finite for v = \["):
            galilean_boost(Field(geom, np.ones(points, dtype=complex)), modes, 0.1)

    def test_off_grid_shift_matches_analytic_plane_wave(self):
        # for a plane wave the spectral shift can be checked in closed form
        geom = torus(64)
        x = geom.axis_coordinates(0)
        f = Field(geom, np.exp(2j * math.pi * 2 * x))
        t = 0.123
        v = 2 * math.pi * 1
        boosted = galilean_boost(f, (1,), t)
        expected = np.exp(1j * v * x - 1j * v * v * t) * np.exp(
            2j * math.pi * 2 * (x - 2 * v * t)
        )
        np.testing.assert_allclose(boosted.data, expected, atol=1e-12)

