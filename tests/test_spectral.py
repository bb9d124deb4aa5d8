"""Fourier transforms, the free propagator, and multiplier norms."""

import math

import numpy as np
import pytest

from logns import diagnostics, spectral
from logns.diagnostics import hs_norm, measure
from logns.geometry import DomainKind, Field, GeometryError, GridGeometry, odd_extension
from logns.integrator import SimConfig, march
from logns.spectral import (
    aligned_empty,
    free_propagator,
    free_symbol,
    hs_multiplier_norm,
    mode_radius,
    resample_modes,
    spectrum,
    squared_frequency,
    truncate_modes,
)


def torus(n=64):
    return GridGeometry(DomainKind.TORUS, (1.0,), (n,))


def plane_wave(geom, mode, amplitude=1.0):
    grids = geom.coordinate_grids()
    phase = sum(2j * math.pi * m * x / l for m, x, l in zip(mode, grids, geom.lengths))
    return Field(geom, amplitude * np.exp(phase))


def coefficients(f):
    return np.fft.fftn(f.data) / f.data.size


class TestTransforms:
    def test_plane_wave_coefficient(self):
        f = plane_wave(torus(), (5,), amplitude=0.5 - 0.25j)
        coeffs = coefficients(f)
        assert coeffs[5] == pytest.approx(0.5 - 0.25j, abs=1e-14)
        others = np.abs(coeffs)
        others[5] = 0.0
        assert others.max() < 1e-14

    def test_parseval(self):
        rng = np.random.default_rng(3)
        geom = GridGeometry(DomainKind.PERIODIC_BOX, (2.0, 0.5), (16, 32))
        f = Field(geom, rng.standard_normal((16, 32)) + 1j * rng.standard_normal((16, 32)))
        m = geom.cell_volume * np.sum(np.abs(f.data) ** 2)
        assert geom.volume * np.sum(np.abs(coefficients(f)) ** 2) == pytest.approx(m, rel=1e-13)


class TestFrequencyGrids:
    def test_squared_frequency_values(self):
        geom = GridGeometry(DomainKind.PERIODIC_BOX, (2.0,), (8,))
        xi2 = squared_frequency(geom)
        # fft ordering: 0, 1, 2, 3, -4, -3, -2, -1 over length 2
        expected = np.array([0, 1, 4, 9, 16, 9, 4, 1]) / 4.0
        np.testing.assert_allclose(xi2, expected)

    def test_mode_radius_is_length_independent(self):
        a = mode_radius(GridGeometry(DomainKind.PERIODIC_BOX, (2.0,), (8,)))
        b = mode_radius(GridGeometry(DomainKind.PERIODIC_BOX, (5.0,), (8,)))
        np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(a, [0, 1, 2, 3, 4, 3, 2, 1])

    # the arguments of every lru_cache'd function of spectral and diagnostics
    # that returns an array, and of the one that does not: the transform plan
    CACHED = {
        "squared_frequency": (), "mode_radius": (), "free_symbol": (1e-3,),
        "bessel_weight": (0.5,), "_gagliardo_symbol": (0.5,),
    }
    PLAN = "_plan"

    def test_every_cached_array_is_read_only(self):
        # a caller writing into a cached grid would corrupt every later user
        geom = torus(16)
        cached = {name: f for module in (spectral, diagnostics)
                  for name, f in vars(module).items() if hasattr(f, "cache_info")}
        assert set(cached) == {*self.CACHED, self.PLAN}
        for name, args in self.CACHED.items():
            out = cached[name](geom, *args)
            assert not out.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                out *= 0
        # the plan of a (3, 16, 64) state's last two axes: tuples of numbers all through
        plan = cached[self.PLAN]((3, 16, 64), 1, 3)
        assert plan == ((2, 1 / 64), (1, 1 / 16))
        assert type(plan) is tuple and all(
            type(entry) is tuple and all(type(v) in (int, float) for v in entry)
            for entry in plan)

    @pytest.mark.parametrize("geom", [
        torus(64),
        GridGeometry(DomainKind.PERIODIC_BOX, (2.0, 0.5), (16, 32)),
        GridGeometry(DomainKind.TORUS, (1.0,) * 3, (8,) * 3),
    ], ids=["torus64", "box16x32", "torus8^3"])
    def test_free_symbol_is_the_exponential_of_its_exponent_bitwise(self, geom):
        # formed in its aligned array, the symbol keeps the bits of the expression
        symbol = free_symbol(geom, 1e-3)
        expected = np.exp(-4.0 * math.pi**2 * squared_frequency(geom) * 1j * 1e-3)
        assert symbol.tobytes() == expected.tobytes()
        assert symbol.__array_interface__["data"][0] % 64 == 0

    def test_truncation_is_safe_from_writes_to_the_cached_radius(self):
        geom = torus(16)
        radius = mode_radius(geom)
        with pytest.raises(ValueError, match="read-only"):
            radius *= 0
        assert np.max(np.abs(truncate_modes(plane_wave(geom, (3,)), 2.0).data)) < 1e-15


class TestAlignedEmpty:
    LAYOUTS = [((), complex), ((3,), float), ((5, 7), complex), ((2, 3, 4), float),
               ((2, 64, 128), complex)]

    @pytest.mark.parametrize("layout", LAYOUTS, ids=["scalar", "3", "5x7", "2x3x4", "2x64x128"])
    def test_starts_on_a_64_byte_boundary(self, layout):
        for _ in range(8):  # numpy's own allocations start at varying offsets
            [a] = aligned_empty(layout)
            assert a.__array_interface__["data"][0] % 64 == 0
            assert (a.shape, a.dtype) == (layout[0], np.dtype(layout[1]))
            assert a.flags.c_contiguous and a.flags.writeable

    def test_arrays_of_one_buffer_are_aligned_and_disjoint(self):
        arrays = aligned_empty(*self.LAYOUTS)
        for a, (shape, dtype) in zip(arrays, self.LAYOUTS):
            assert a.__array_interface__["data"][0] % 64 == 0
            assert (a.shape, a.dtype) == (shape, np.dtype(dtype))
        for k, a in enumerate(arrays):
            a[...] = k
        assert [np.all(a == k) for k, a in enumerate(arrays)] == [True] * len(arrays)


def propagated(f, dt):
    """A copy of the field advanced by `free_propagator` over dt."""
    data = f.data.copy()
    free_propagator(data, free_symbol(f.geometry, dt))
    return Field(f.geometry, data)


class TestFreePropagator:
    def test_plane_wave_phase(self):
        geom = torus()
        f = plane_wave(geom, (3,))
        dt = 0.01
        out = propagated(f, dt)
        expected = f.data * np.exp(-4j * math.pi**2 * 9 * dt)
        np.testing.assert_allclose(out.data, expected, atol=1e-13)

    def test_unitary(self):
        rng = np.random.default_rng(5)
        f = Field(torus(), rng.standard_normal(64) + 1j * rng.standard_normal(64))
        out = propagated(f, 0.37)
        assert np.sum(np.abs(out.data) ** 2) == pytest.approx(
            np.sum(np.abs(f.data) ** 2), rel=1e-13
        )

    def test_composition(self):
        rng = np.random.default_rng(6)
        f = Field(torus(32), rng.standard_normal(32) + 1j * rng.standard_normal(32))
        once = propagated(f, 0.3)
        twice = propagated(propagated(f, 0.1), 0.2)
        np.testing.assert_allclose(once.data, twice.data, atol=1e-13)

    def test_box_lengths_enter_the_symbol(self):
        geom = GridGeometry(DomainKind.PERIODIC_BOX, (2.0,), (64,))
        f = plane_wave(geom, (4,))
        out = propagated(f, 0.05)
        expected = f.data * np.exp(-4j * math.pi**2 * (4 / 2.0) ** 2 * 0.05)
        np.testing.assert_allclose(out.data, expected, atol=1e-13)

    @pytest.mark.parametrize("geom, batch", [
        (GridGeometry(DomainKind.TORUS, (1.0, 1.0), (256, 256)), 1),
        (GridGeometry(DomainKind.PERIODIC_BOX, (1.0, 0.5), (32, 16)), 1),
        (GridGeometry(DomainKind.TORUS, (1.0, 1.0, 1.0), (16, 16, 16)), 1),
        (GridGeometry(DomainKind.TORUS, (1.0,), (4096,)), 1),
        (GridGeometry(DomainKind.DIRICHLET_SLAB, (1.0, 1.0), (64, 64)).transform_grid(), 1),
        (GridGeometry(DomainKind.TORUS, (1.0,), (64,)), 3),
    ], ids=["torus256", "box32x16", "torus16cubed", "torus4096", "slab64doubled", "batch3"])
    def test_propagate_is_bitwise_the_normalised_fft_pair(self, geom, batch):
        # per-axis transforms over a batch give bitwise the literal pair of
        # each field
        rng = np.random.default_rng(14)
        shape = (batch, *geom.points)
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        axes = tuple(range(1, data.ndim))
        unit_symbol = np.exp(-4.0 * math.pi**2 * squared_frequency(geom) * 1j * 1e-3)
        literal = np.fft.ifftn(np.fft.fftn(data, axes=axes) * unit_symbol, axes=axes)
        free_propagator(data, free_symbol(geom, 1e-3))
        assert np.array_equal(data.view(np.uint64), literal.view(np.uint64))

    def test_each_shape_gets_its_own_plan(self):
        """The step's axes and 1/n scales are planned once per state shape.
        Shapes alternate in one process, twice round, among them two 2-d grids
        of different sides and a batch beside its single field, so a plan used
        for a shape it was not made for breaks the bits of the literal pair."""
        slab = GridGeometry(DomainKind.DIRICHLET_SLAB, (1.0, 1.0), (64, 64)).transform_grid()
        cases = [
            (torus(64), ()), (torus(64), (3,)),
            (GridGeometry(DomainKind.TORUS, (1.0, 1.0), (256, 256)), (1,)),
            (GridGeometry(DomainKind.TORUS, (1.0,) * 3, (16,) * 3), ()),
            (slab, (1,)),
        ]
        rng = np.random.default_rng(21)
        for geom, batch in [*cases, *cases[::-1]]:
            shape = (*batch, *geom.points)
            data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            axes = tuple(range(len(batch), data.ndim))
            symbol = free_symbol(geom, 1e-3)
            literal = np.fft.ifftn(np.fft.fftn(data, axes=axes) * symbol, axes=axes)
            free_propagator(data, symbol)
            assert np.array_equal(data.view(np.uint64), literal.view(np.uint64)), shape


class TestDirectTransforms:
    """The step and record transforms call numpy's pocketfft gufuncs, not the
    np.fft wrappers, and get bitwise what the wrappers give."""

    @pytest.mark.parametrize("shape", [(3, 64), (32, 16), (16, 16, 16), (64, 128)],
                             ids=["batch3x64", "box32x16", "torus16cubed", "slab64doubled"])
    @pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
    def test_transform_is_bitwise_numpys(self, shape, inverse):
        rng = np.random.default_rng(18)
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for axis in range(data.ndim):  # the last axis without an `axes` list, the others with
            literal = (np.fft.ifft if inverse else np.fft.fft)(data, axis=axis)
            plan = spectral._plan(shape, axis, axis + 1)
            out = np.empty_like(data)
            spectral._transform(data, plan, inverse, out)
            assert np.array_equal(out.view(np.uint64), literal.view(np.uint64))
            in_place = data.copy()
            spectral._transform(in_place, plan, inverse, in_place)
            assert np.array_equal(in_place.view(np.uint64), literal.view(np.uint64))

    @pytest.mark.parametrize("geom", [
        GridGeometry(DomainKind.TORUS, (1.0,), (128,)),
        GridGeometry(DomainKind.TORUS, (1.0, 1.0), (32, 32)),
        GridGeometry(DomainKind.DIRICHLET_SLAB, (1.0, 1.0), (16, 16)),
    ], ids=["torus128", "torus32sq", "slab16"])
    def test_steps_and_records_bypass_the_numpy_wrappers(self, geom, monkeypatch):
        rng = np.random.default_rng(19)
        data = rng.standard_normal(geom.points) + 1j * rng.standard_normal(geom.points)
        if geom.is_dirichlet:
            data[..., 0] = 0.0  # the boundary plane
        datum = Field(geom, data)
        cfg = SimConfig(lam=1.0, eps=1e-3, dt=1e-3, t_final=4e-3, geometry=geom)

        def run():
            samples = [(t, u.data) for t, [u] in march([datum], cfg, [0, 1, 4])]
            records = [measure(Field(geom, u), t, 1.0, 1e-3, (0.5, 1.0)) for t, u in samples]
            return samples, records

        expected = run()

        def wrapper_called(*args, **kwargs):
            raise AssertionError("a numpy.fft wrapper was called")

        for name in ("fft", "ifft", "fftn", "ifftn"):
            monkeypatch.setattr(np.fft, name, wrapper_called)
        samples, records = run()
        assert records == expected[1]
        for (t, u), (t_expected, u_expected) in zip(samples, expected[0], strict=True):
            assert t == t_expected
            assert np.array_equal(u.view(np.uint64), u_expected.view(np.uint64))


class TestMultiplierNorm:
    def test_s_zero_is_l2_norm(self):
        rng = np.random.default_rng(9)
        f = Field(torus(), rng.standard_normal(64) + 1j * rng.standard_normal(64))
        m = math.sqrt(f.geometry.cell_volume * np.sum(np.abs(f.data) ** 2))
        assert hs_multiplier_norm(*spectrum(f), 0.0) == pytest.approx(m, rel=1e-13)

    @pytest.mark.parametrize("s", [0.25, 0.5, 1.0, -0.5])
    def test_plane_wave_closed_form(self, s):
        geom = GridGeometry(DomainKind.PERIODIC_BOX, (2.0, 1.0), (16, 16))
        f = plane_wave(geom, (2, 3), amplitude=0.7)
        weight = 1.0 + 4.0 * math.pi**2 * ((2 / 2.0) ** 2 + (3 / 1.0) ** 2)
        expected = 0.7 * math.sqrt(geom.volume) * weight ** (s / 2.0)
        assert hs_multiplier_norm(*spectrum(f), s) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_s(self):
        rng = np.random.default_rng(10)
        f = Field(torus(), rng.standard_normal(64) + 1j * rng.standard_normal(64))
        norms = [hs_multiplier_norm(*spectrum(f), s) for s in (0.0, 0.25, 0.5, 1.0)]
        assert norms == sorted(norms)

    def test_power_spectrum_sums_to_mass(self):
        rng = np.random.default_rng(11)
        geom = GridGeometry(DomainKind.PERIODIC_BOX, (2.0, 0.5), (16, 8))
        f = Field(geom, rng.standard_normal(geom.points) + 1j * rng.standard_normal(geom.points))
        m = geom.cell_volume * float(np.sum(np.abs(f.data) ** 2))
        _, total = spectrum(f)
        assert total(np.ones(geom.points)) == pytest.approx(m, rel=1e-13)

    @pytest.mark.parametrize("geom", [
        GridGeometry(DomainKind.TORUS, (1.0, 1.0), (256, 256)),
        GridGeometry(DomainKind.PERIODIC_BOX, (1.0, 0.5), (32, 16)),
        GridGeometry(DomainKind.PERIODIC_BOX, (3.7, 1.3), (64, 32)),
        GridGeometry(DomainKind.TORUS, (1.0, 1.0, 1.0), (16, 16, 16)),
        GridGeometry(DomainKind.TORUS, (1.0,), (4096,)),
        GridGeometry(DomainKind.DIRICHLET_SLAB, (1.0, 1.0), (64, 64)).transform_grid(),
    ], ids=["torus256", "box32x16", "box64x32", "torus16cubed", "torus4096", "slab64doubled"])
    def test_power_spectrum_is_bitwise_the_complex_normalisation(self, geom):
        rng = np.random.default_rng(13)
        data = rng.standard_normal(geom.points) + 1j * rng.standard_normal(geom.points)
        literal = geom.volume * np.abs(np.fft.fftn(data) / data.size) ** 2
        power = spectral._power(np.fft.fftn(data), geom)
        assert np.array_equal(power.view(np.uint64), literal.view(np.uint64))

    def test_dirichlet_measures_the_extension(self):
        geom = GridGeometry(DomainKind.DIRICHLET_INTERVAL, (1.0,), (32,))
        f = Field(geom, np.sin(3 * math.pi * geom.axis_coordinates(0)))
        norm = hs_multiplier_norm(*spectrum(f), 0.5)
        assert norm == hs_norm(f, 0.5)
        assert norm == hs_multiplier_norm(*spectrum(odd_extension(f)), 0.5)


class TestTruncateModes:
    def test_keeps_low_zeroes_high(self):
        geom = torus(32)
        f = Field(geom, plane_wave(geom, (2,)).data + plane_wave(geom, (9,)).data)
        out = coefficients(truncate_modes(f, 5.0))
        assert abs(out[2]) == pytest.approx(1.0, abs=1e-13)
        assert abs(out[9]) < 1e-14

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        f = Field(torus(32), rng.standard_normal(32) + 1j * rng.standard_normal(32))
        once = truncate_modes(f, 7.0)
        twice = truncate_modes(once, 7.0)
        np.testing.assert_allclose(once.data, twice.data, atol=1e-14)

    def test_radius_at_or_below_is_kept(self):
        geom = torus(32)
        f = plane_wave(geom, (5,))
        out = truncate_modes(f, 5.0)
        np.testing.assert_allclose(out.data, f.data, atol=1e-13)


class TestResampleModes:
    BOX = GridGeometry(DomainKind.PERIODIC_BOX, (1.0, 0.5), (32, 16))
    FINE_BOX = GridGeometry(DomainKind.PERIODIC_BOX, (1.0, 0.5), (64, 32))

    def random_field(self, geom, seed=5):
        rng = np.random.default_rng(seed)
        return Field(geom, rng.standard_normal(geom.points) + 1j * rng.standard_normal(geom.points))

    @pytest.mark.parametrize("coarse, fine", [(torus(32), torus(64)), (BOX, FINE_BOX)])
    def test_refining_interpolates_and_restricting_undoes_it(self, coarse, fine):
        f = self.random_field(coarse)
        refined = resample_modes(f, fine)
        assert refined.geometry == fine
        np.testing.assert_allclose(refined.data[(slice(None, None, 2),) * coarse.dim], f.data,
                                   atol=1e-14)
        np.testing.assert_allclose(resample_modes(refined, coarse).data, f.data, atol=1e-14)

    def test_restricting_keeps_the_shared_modes(self):
        fine = torus(64)
        f = Field(fine, plane_wave(fine, (5,), 2.0).data + plane_wave(fine, (-20,)).data)
        out = resample_modes(f, torus(32))
        np.testing.assert_allclose(out.data, plane_wave(torus(32), (5,), 2.0).data, atol=1e-14)

    @pytest.mark.parametrize("source, target", [
        (torus(32), GridGeometry(DomainKind.PERIODIC_BOX, (2.0,), (64,))),
        (BOX, GridGeometry(DomainKind.PERIODIC_BOX, (1.0, 0.5), (64, 8))),
        (torus(32), GridGeometry(DomainKind.DIRICHLET_INTERVAL, (1.0,), (64,))),
    ])
    def test_rejects_grids_that_share_no_mode_set(self, source, target):
        with pytest.raises(GeometryError):
            resample_modes(self.random_field(source), target)
