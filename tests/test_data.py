"""Initial-datum generators."""

import math

import numpy as np
import pytest

from logns import data
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

    def test_a_key_of_another_kind_keeps_its_default(self):
        DatumSpec(kind="random_rough", target_s=0.5, width=0.08)
        with pytest.raises(ValueError, match="^width: unknown key$"):
            DatumSpec(kind="random_rough", target_s=0.5, width=0.1)

    def test_rejects_a_non_finite_complex_amplitude(self):
        with pytest.raises(ValueError, match=r"^amplitude: expected a number or \[re, im\]"):
            DatumSpec(kind="plane_wave", modes=(1,), amplitude=complex(1.0, -math.inf))


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


def image_sum_bump(spec, geom):
    """The bump as one exponential of the squared distance per tuple of
    images, 5^d of them: the form the per-axis sums factor."""
    grids = geom.coordinate_grids()
    total = np.zeros(geom.points, dtype=float)
    for image in np.ndindex(*([5] * geom.dim)):
        r2 = sum((x - c + (k - 2) * l) ** 2
                 for x, c, l, k in zip(grids, spec.center, geom.lengths, image))
        total = total + np.exp(-r2 / (2.0 * spec.width * spec.width))
    return spec.amplitude * total


class TestGaussianImageSum:
    WIDTHS = (0.01, 0.05, 0.2, 1.0, 50.0)
    TWO_PI = 2.0 * math.pi

    @pytest.mark.parametrize("geom", [
        GridGeometry(DomainKind.TORUS, (1.0,), (64,)),
        GridGeometry(DomainKind.PERIODIC_BOX, (TWO_PI,), (32,)),
        GridGeometry(DomainKind.DIRICHLET_INTERVAL, (1.0,), (64,)).transform_grid(),
    ], ids=["torus", "box", "interval"])
    @pytest.mark.parametrize("offset", [0.5, 0.37])
    @pytest.mark.parametrize("width", WIDTHS)
    def test_one_axis_keeps_its_bits(self, geom, offset, width):
        spec = DatumSpec(kind="gaussian_bump", amplitude=3 - 2j, width=width,
                         center=(offset * geom.lengths[0],))
        np.testing.assert_array_equal(data._gaussian_bump(spec, geom),
                                      image_sum_bump(spec, geom))

    @pytest.mark.parametrize("geom", [
        GridGeometry(DomainKind.TORUS, (1.0, 1.0), (32, 16)),
        GridGeometry(DomainKind.TORUS, (1.0,) * 3, (16,) * 3),
        GridGeometry(DomainKind.PERIODIC_BOX, (TWO_PI,) * 2, (8, 8)),
        GridGeometry(DomainKind.PERIODIC_BOX, (TWO_PI, 1.0, 3.0), (8, 16, 8)),
        GridGeometry(DomainKind.DIRICHLET_SLAB, (1.0, 0.5), (16, 16)).transform_grid(),
        GridGeometry(DomainKind.DIRICHLET_SLAB, (1.0,) * 3, (8, 8, 16)).transform_grid(),
    ], ids=["torus2d", "torus3d", "box2d", "box3d", "slab2d", "slab3d"])
    @pytest.mark.parametrize("offset", [0.5, 0.37])
    @pytest.mark.parametrize("width", WIDTHS)
    def test_more_axes_agree_to_roundoff(self, geom, offset, width):
        # exp(-a) exp(-b) rounds apart from exp(-(a + b)); most where every
        # sample lies deep in the tail, as at width 0.01 on a coarse box
        spec = DatumSpec(kind="gaussian_bump", width=width,
                         center=tuple(offset * l for l in geom.lengths))
        expected = image_sum_bump(spec, geom)
        got = data._gaussian_bump(spec, geom)
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


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

    @pytest.mark.parametrize("lengths, points", [((1.0,), (64,)), ((1.0, 1.0), (32, 16)),
                                                 ((1.0, 0.5), (32, 16))])
    def test_default_center_is_the_middle_of_the_domain(self, lengths, points):
        # the middle of the doubled box is an antisymmetry node: a bump there is zero
        kind = DomainKind.DIRICHLET_INTERVAL if len(points) == 1 else DomainKind.DIRICHLET_SLAB
        geom = GridGeometry(kind, lengths, points)
        centered = tuple(l / 2 for l in lengths)
        a = make_datum(DatumSpec(kind="gaussian_bump", width=0.1), geom)
        b = make_datum(DatumSpec(kind="gaussian_bump", width=0.1, center=centered), geom)
        np.testing.assert_array_equal(a.data, b.data)
        assert np.unravel_index(np.argmax(np.abs(a.data)), points) == tuple(n // 2 for n in points)


class TestZeroDatum:
    @pytest.mark.parametrize("spec, geom", [
        # cutoff < 1 keeps only the constant mode, which antisymmetrization removes
        (DatumSpec(kind="random_band_limited", cutoff=0.5),
         GridGeometry(DomainKind.DIRICHLET_INTERVAL, (1.0,), (64,))),
        (DatumSpec(kind="random_band_limited", cutoff=0.5),
         GridGeometry(DomainKind.DIRICHLET_SLAB, (1.0, 1.0), (32, 16))),
        # a bump centered on the antisymmetry node leaves only roundoff
        (DatumSpec(kind="gaussian_bump", width=0.25, center=(0.5, 1.0)),
         GridGeometry(DomainKind.DIRICHLET_SLAB, (1.0, 1.0), (32, 16))),
        (DatumSpec(kind="gaussian_bump", amplitude=0.0), torus()),
        (DatumSpec(kind="plane_wave", modes=(2,), amplitude=0.0), torus()),
    ])
    def test_is_rejected(self, spec, geom):
        with pytest.raises(ValueError, match=f"^datum: {spec.kind} vanishes on this "
                           rf"{geom.kind.value} grid \(norm \S+ against a sample scale of "
                           rf"\S+\)$"):
            make_datum(spec, geom)

    @pytest.mark.parametrize("kind", ["complex", "complex strided", "real", "tiny", "zero"])
    def test_norms_are_numpys_without_blas(self, kind, monkeypatch):
        """The zero test's norms agree with np.linalg.norm to 1e-12, without
        calling it: its BLAS dot on the strided real and imaginary views of a
        complex datum cost several times the datum with the BLAS's threads."""
        rng = np.random.default_rng(25)
        a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        a = {"complex": a, "complex strided": a[:, ::3], "real": a.real.copy(),
             "tiny": 1e-150 * a, "zero": 0.0 * a}[kind]
        expected = np.linalg.norm(a)

        def blas_norm(*args, **kwargs):
            raise AssertionError("np.linalg.norm was called")

        monkeypatch.setattr(np.linalg, "norm", blas_norm)
        for e in (0, 5):  # the norm of the parts scaled by 2^-e
            assert data._norm(data._parts(a), e) == pytest.approx(
                math.ldexp(expected, -e), rel=1e-12, abs=0.0)
        make_datum(DatumSpec(kind="random_band_limited", cutoff=8.0),
                   GridGeometry(DomainKind.TORUS, (1.0, 1.0), (64, 64)))

    def test_small_nonzero_datum_is_kept(self):
        f = make_datum(DatumSpec(kind="gaussian_bump", amplitude=1e-100), torus())
        assert mass(f) > 0.0
