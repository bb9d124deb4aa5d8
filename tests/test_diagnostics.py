"""Mass, energy, and the two fractional Sobolev norms."""

import math
import sys

import numpy as np
import pytest

from logns import diagnostics, geometry, spectral
from logns.cli import main
from logns.data import DatumSpec, make_datum
from logns.diagnostics import (
    energy,
    hs_gagliardo_norm,
    hs_norm,
    l2_distance,
    mass,
    measure,
)
from logns.geometry import DomainKind, Field, GeometryError, GridGeometry, odd_extension
from logns.integrator import SimConfig, evolve, march
from logns.io import write_snapshot
from logns.spectral import bessel_weight, hs_multiplier_norm, spectrum


def torus(n=64):
    return GridGeometry(DomainKind.TORUS, (1.0,), (n,))


def constant_field(geom, c):
    return Field(geom, np.full(geom.points, c, dtype=complex))


class TestMass:
    def test_plane_wave(self):
        geom = GridGeometry(DomainKind.PERIODIC_BOX, (2.0, 3.0), (8, 8))
        grids = geom.coordinate_grids()
        f = Field(geom, 0.5 * np.exp(2j * math.pi * (grids[0] / 2.0 + grids[1] / 3.0)))
        assert mass(f) == pytest.approx(0.25 * 6.0, rel=1e-13)

    def test_additive_in_orthogonal_modes(self):
        geom = torus(32)
        x = geom.axis_coordinates(0)
        f = Field(geom, np.exp(2j * math.pi * x) + 2.0 * np.exp(4j * math.pi * x))
        assert mass(f) == pytest.approx(1.0 + 4.0, rel=1e-13)


class TestEnergy:
    def test_constant_field_unregularized(self):
        # E = -2 lam V F(|c|), F(r) = r^2 (ln r - 1/2); c = 1 gives E = lam
        for lam in (-1.0, 1.0, 2.5):
            assert energy(constant_field(torus(), 1.0), lam) == pytest.approx(lam, rel=1e-13)

    def test_constant_field_closed_form(self):
        c = 0.7
        lam = 1.3
        f_val = c * c * (math.log(c) - 0.5)
        assert energy(constant_field(torus(), c), lam) == pytest.approx(
            -2.0 * lam * f_val, rel=1e-12
        )

    def test_regularized_potential_matches_quadrature(self):
        # integral_0^r 2 s ln(s + eps) ds by dense midpoint quadrature
        r, eps, lam = 0.9, 0.05, 1.0
        s = (np.arange(200000) + 0.5) * (r / 200000)
        quad = float(np.sum(2.0 * s * np.log(s + eps))) * (r / 200000)
        e = energy(constant_field(torus(), r), lam, eps)
        assert e == pytest.approx(-2.0 * lam * quad, rel=1e-8)

    # the record's potential against math.fsum of the closed form
    # F(r) = (r^2 - eps^2) ln(r + eps) - r^2 / 2 + eps r + eps^2 ln(eps), per
    # point in floats, within the roundoff bound derived in CHANGES.md

    @staticmethod
    def potential_error(r, eps):
        """(record potential - cell fsum F(r_j), its bound (ceil(log2 N) + 20)
        u cell M, M = sum_j (r_j^2 + eps^2)(|ln(r_j + eps)| + 1) + r_j^2 / 2
        + eps r_j + eps^2 |ln eps|) for the field r + 0j on a torus."""
        f = Field(torus(r.size), r + 0j)
        _, potential = diagnostics._modulus_sums(f, eps)
        cell = f.geometry.cell_volume
        with np.errstate(divide="ignore", invalid="ignore"):
            log = np.log(r + eps)
        log[r + eps == 0.0] = 0.0  # 0 ln 0 = 0 at eps = 0
        tail = eps * eps * math.log(eps) if eps else 0.0
        closed_form = (r * r - eps * eps) * log - 0.5 * r * r + eps * r + tail
        magnitude = math.fsum((r * r + eps * eps) * (np.abs(log) + 1.0) + 0.5 * r * r + eps * r
                              + abs(tail))
        bound = (math.ceil(math.log2(r.size)) + 20) * 2.0**-53 * cell * magnitude
        return potential - cell * math.fsum(closed_form), bound

    def test_unregularized_potential_is_the_closed_form_with_exact_zeros(self):
        # at eps = 0 the masked log keeps 0 ln 0 = 0, with no warning
        r = np.abs(np.random.default_rng(5).standard_normal(4096)) * 3.0
        r[::7] = 0.0
        r[1] = math.exp(0.5)  # where r^2 ln r and r^2 / 2 cancel
        error, bound = self.potential_error(r, 0.0)
        assert abs(error) <= bound, (error, bound)
        # a zero sample adds exactly 0: one nonzero sample gives its own F
        one = np.zeros(64)
        one[5] = 2.5
        _, potential = diagnostics._modulus_sums(Field(torus(64), one + 0j), 0.0)
        log = float(np.log(np.full(64, 2.5))[5])  # numpy's log, as the record takes it
        assert potential == (6.25 * log - 0.5 * 6.25) / 64

    def test_potential_where_the_sums_cancel(self):
        # r = e^(1/2) everywhere: F = 0, while sum q ln r and sum q / 2 are large
        r = np.full(4096, math.exp(0.5))
        error, bound = self.potential_error(r, 0.0)
        assert abs(error) <= bound, (error, bound)

    @pytest.mark.parametrize("eps", [1e-3, 0.05, 2.0])
    def test_regularized_potential_is_the_closed_form(self, eps):
        r = np.abs(np.random.default_rng(4).standard_normal(4096)) * 3.0
        error, bound = self.potential_error(r, eps)
        assert abs(error) <= bound, (error, bound)

    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    def test_mass_is_bitwise_the_squared_l2_of_the_modulus(self, eps):
        for f in (slab_field(), make_datum(DatumSpec(kind="random_rough", target_s=0.5, seed=2),
                                           GridGeometry(DomainKind.PERIODIC_BOX, (1.0, 2.0),
                                                        (16, 8)))):
            expected = diagnostics.squared_l2(f.geometry, np.abs(f.data))
            assert measure(f, 0.0, 1.0, eps, ()).mass == expected == mass(f)

    def test_plane_wave_kinetic_term(self):
        geom = torus()
        x = geom.axis_coordinates(0)
        a = 1.0  # |u| = 1 kills the eps = 0 potential up to the -1/2 term
        f = Field(geom, a * np.exp(2j * math.pi * 3 * x))
        lam = 2.0
        expected = 4.0 * math.pi**2 * 9 + lam  # kinetic + (-2 lam F(1))
        assert energy(f, lam) == pytest.approx(expected, rel=1e-12)

    def test_zero_modulus_is_finite(self):
        assert energy(constant_field(torus(), 0.0), 1.0) == 0.0

    def test_rejects_negative_eps(self):
        with pytest.raises(ValueError):
            energy(constant_field(torus(), 1.0), 1.0, eps=-0.1)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_rejects_non_finite_eps(self, eps):
        with pytest.raises(ValueError, match="eps must be >= 0"):
            energy(constant_field(torus(), 1.0), 1.0, eps=eps)

    def test_dirichlet_kinetic_is_half_of_extension(self):
        geom = GridGeometry(DomainKind.DIRICHLET_INTERVAL, (1.0,), (64,))
        x = geom.axis_coordinates(0)
        f = Field(geom, np.sin(2 * math.pi * x))
        lam = 0.0  # isolate the kinetic term
        ext = odd_extension(f)
        assert energy(f, lam) == pytest.approx(energy(ext, lam) / 2.0, rel=1e-12)


class TestL2Distance:
    def test_matches_mass_of_difference(self):
        rng = np.random.default_rng(1)
        f = Field(torus(), rng.standard_normal(64) + 0j)
        g = Field(torus(), rng.standard_normal(64) + 0j)
        expected = math.sqrt(mass(Field(torus(), f.data - g.data)))
        assert l2_distance(f, g) == pytest.approx(expected, rel=1e-13)

    def test_rejects_geometry_mismatch(self):
        with pytest.raises(GeometryError):
            l2_distance(constant_field(torus(16), 1.0), constant_field(torus(32), 1.0))


class TestHsNorm:
    @pytest.mark.parametrize("s", [-0.5, 0.25, 1.0])
    def test_equals_the_literal_sum_2d(self, s):
        geom = GridGeometry(DomainKind.PERIODIC_BOX, (1.0, 2.0), (8, 4))
        rng = np.random.default_rng(6)
        f = Field(geom, rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4)))
        coeffs = np.fft.fftn(f.data) / f.data.size
        total = 0.0
        for n0, n1 in np.ndindex(8, 4):
            k0, k1 = (n0 if n0 < 4 else n0 - 8), (n1 if n1 < 2 else n1 - 4)
            xi2 = (k0 / 1.0) ** 2 + (k1 / 2.0) ** 2
            total += (1.0 + 4.0 * math.pi**2 * xi2) ** s * geom.volume * abs(coeffs[n0, n1]) ** 2
        assert hs_norm(f, s) == pytest.approx(math.sqrt(total), rel=1e-13)

    def test_periodic_delegates_to_multiplier_norm(self):
        rng = np.random.default_rng(2)
        f = Field(torus(), rng.standard_normal(64) + 1j * rng.standard_normal(64))
        assert hs_norm(f, 0.5) == hs_multiplier_norm(*spectrum(f), 0.5)

    def test_dirichlet_measures_the_extension(self):
        geom = GridGeometry(DomainKind.DIRICHLET_INTERVAL, (1.0,), (32,))
        x = geom.axis_coordinates(0)
        f = Field(geom, np.sin(3 * math.pi * x))
        assert hs_norm(f, 0.5) == hs_multiplier_norm(*spectrum(odd_extension(f)), 0.5)


def slab_field(seed=8):
    geom = GridGeometry(DomainKind.DIRICHLET_SLAB, (1.0, 2.0), (16, 8))
    return make_datum(DatumSpec(kind="random_band_limited", cutoff=3.0, seed=seed), geom)


class TestMeasure:
    @pytest.mark.parametrize(
        "f",
        [
            make_datum(
                DatumSpec(kind="random_band_limited", cutoff=4.0, seed=1),
                GridGeometry(DomainKind.PERIODIC_BOX, (1.0, 2.0), (16, 8)),
            ),
            slab_field(),
        ],
        ids=["box", "slab"],
    )
    def test_equals_the_single_quantity_functions(self, f):
        lam, eps = -1.5, 1e-3
        rec = measure(f, 0.25, lam, eps, (0.25, 0.5, 1.0))
        assert rec.time == 0.25
        assert rec.mass == mass(f)
        assert rec.energy == energy(f, lam, eps)
        assert rec.hs_norms == {s: hs_norm(f, s) for s in (0.25, 0.5, 1.0)}

    def test_dirichlet_norms_cover_the_doubled_box(self):
        # H^s norms are taken over the odd extension, not halved, so the
        # s = 0 norm squared is twice the mass; the benchmark reference pins it
        f = slab_field()
        assert hs_norm(f, 0.0) ** 2 == pytest.approx(2.0 * mass(f), rel=1e-13)
        rec = measure(f, 0.0, 1.0, 0.0, (0.0,))
        assert rec.hs_norms[0.0] ** 2 == pytest.approx(2.0 * rec.mass, rel=1e-13)

    def test_rejects_negative_eps(self):
        with pytest.raises(ValueError):
            measure(slab_field(), 0.0, 1.0, -0.1, ())

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_rejects_non_finite_eps(self, eps):
        with pytest.raises(ValueError, match="eps must be >= 0"):
            measure(slab_field(), 0.0, 1.0, eps, ())

    @pytest.mark.parametrize("eps", [1e-3, 0.0])
    def test_peaks_at_one_and_a_half_field_sizes(self, peak_traced_bytes, eps):
        # the FFT buffer and |c| (1.5 field sizes), then P and the product
        # buffer (1), released before |u| and |u|^2 (1)
        geom = GridGeometry(DomainKind.TORUS, (1.0, 1.0), (256, 256))
        f = make_datum(DatumSpec(kind="random_band_limited", cutoff=32.0, seed=0), geom)
        measure(f, 0.0, 1.0, eps, (1.0,), (0.5,))  # builds the cached weights
        _, peak = peak_traced_bytes(measure, f, 0.0, 1.0, eps, (1.0,), (0.5,))
        assert peak <= 1.5 * 16 * 256 * 256 + 64 * 1024, peak


HALF_SPECTRUM_GEOMETRIES = {
    "interval128": GridGeometry(DomainKind.DIRICHLET_INTERVAL, (1.0,), (128,)),
    "slab64x64": GridGeometry(DomainKind.DIRICHLET_SLAB, (1.0, 1.0), (64, 64)),
    "slab32x16": GridGeometry(DomainKind.DIRICHLET_SLAB, (1.0, 0.5), (32, 16)),
    "slab8x8x16": GridGeometry(DomainKind.DIRICHLET_SLAB, (1.0, 1.0, 1.0), (8, 8, 16)),
}


@pytest.mark.parametrize("name", list(HALF_SPECTRUM_GEOMETRIES))
def test_the_half_spectrum_gives_the_full_doubled_box_sums(name):
    """A Dirichlet record, read off the non-redundant half of the odd
    extension's spectrum, equals the sums over the whole doubled box."""
    geom = HALF_SPECTRUM_GEOMETRIES[name]
    # a rough datum has power in every mode the half keeps
    f = make_datum(DatumSpec(kind="random_rough", target_s=0.5, seed=3), geom)
    lam, eps, hs_values, gagliardo_values = -1.5, 1e-3, (0.0, 0.25, 0.5, 1.0), (0.25, 0.75)
    record = measure(f, 0.0, lam, eps, hs_values, gagliardo_values)

    ext = odd_extension(f)
    box = ext.geometry
    power = box.volume * np.abs(np.fft.fftn(ext.data) / ext.data.size) ** 2
    xi2 = sum((n / l) ** 2 for n, l in zip(box.mode_grids(), box.lengths))
    kinetic = 4.0 * math.pi**2 * float(np.sum(xi2 * power)) / 2.0  # the box covers f twice
    r = np.abs(f.data)
    density = (r * r - eps * eps) * np.log(r + eps) - 0.5 * r * r + eps * r + eps**2 * math.log(eps)
    potential = geom.cell_volume * float(np.sum(density))
    expected = {
        "mass": geom.cell_volume * float(np.sum(r**2)),
        "energy": kinetic - 2.0 * lam * potential,
        **{f"H^{s}": math.sqrt(float(np.sum((1.0 + 4.0 * math.pi**2 * xi2) ** s * power)))
           for s in hs_values},
        **{f"gagliardo H^{s}": math.sqrt(float(np.sum(
            diagnostics._gagliardo_symbol(box, s) * power))) for s in gagliardo_values},
    }
    got = {"mass": record.mass, "energy": record.energy,
           **{f"H^{s}": v for s, v in record.hs_norms.items()},
           **{f"gagliardo H^{s}": v for s, v in record.gagliardo_norms.items()}}
    assert got == pytest.approx(expected, rel=1e-13, abs=0.0)
    assert expected["H^0.0"] ** 2 == pytest.approx(2.0 * expected["mass"], rel=1e-13)


def count_calls(monkeypatch, *geometry_functions):
    """Counts np.fft.fftn calls, as `fftn`; spectra of fields (one forward
    transform each, the half spectrum of an odd extension on a Dirichlet
    grid), as `spectrum`; and calls of the named `geometry` functions,
    wherever logns bound them."""
    counts = dict.fromkeys(("fftn", "spectrum", *geometry_functions), 0)

    def counted(key, function):
        def call(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)
        return call

    def patch(key, function):
        for name, module in list(sys.modules.items()):
            if name.startswith("logns") and getattr(module, function.__name__, None) is function:
                monkeypatch.setattr(module, function.__name__, counted(key, function))

    monkeypatch.setattr(np.fft, "fftn", counted("fftn", np.fft.fftn))
    patch("spectrum", spectral.spectrum)
    for key in geometry_functions:
        patch(key, getattr(geometry, key))
    return counts


@pytest.fixture
def transform_counts(monkeypatch):
    """Counts forward FFTs and odd extensions."""
    return count_calls(monkeypatch, "odd_extension")


class TestTransformCounts:
    def test_one_extension_and_one_fft_per_record(self, transform_counts):
        # the extension's half spectrum, transformed in place; no full spectrum
        measure(slab_field(), 0.0, 1.0, 1e-3, (0.25, 0.5))
        assert transform_counts == {"fftn": 0, "spectrum": 1, "odd_extension": 1}

    def test_gagliardo_norms_ride_on_the_record_spectrum(self, transform_counts):
        f = slab_field()
        measure(f, 0.0, 1.0, 1e-3, (), (0.25, 0.5))  # builds and caches the symbols
        transform_counts.update(fftn=0, spectrum=0, odd_extension=0)
        record = measure(f, 0.0, 1.0, 1e-3, (0.25, 0.5), (0.25, 0.5))
        assert transform_counts == {"fftn": 0, "spectrum": 1, "odd_extension": 1}
        assert record.gagliardo_norms == {s: hs_gagliardo_norm(f, s) for s in (0.25, 0.5)}

    def test_norms_command_takes_one_spectrum(self, transform_counts, tmp_path, capsys):
        path = tmp_path / "slab.bin"
        write_snapshot(slab_field(), 0.5, path)
        argv = ["norms", "--snapshot", str(path), "--s", "0.25,0.5", "--lambda", "1",
                "--eps", "0.01"]
        assert main(argv) == 0  # builds and caches the symbols
        transform_counts.update(fftn=0, spectrum=0, odd_extension=0)
        assert main(argv) == 0
        assert transform_counts == {"fftn": 0, "spectrum": 1, "odd_extension": 1}
        assert capsys.readouterr().out.count("gagliardo") == 4

    def test_a_record_restricts_extends_and_transforms_once_per_run(self, monkeypatch):
        f = slab_field()
        cfg = SimConfig(lam=1.0, eps=1e-3, dt=1e-3, t_final=0.02, geometry=f.geometry,
                        record_every=2, hs_values=(0.25, 0.5))
        evolve(f, cfg)  # builds and caches the symbol and the weights
        counts = count_calls(monkeypatch, "odd_extension", "restrict_to_half",
                             "_antisymmetry_fault")
        n = len(evolve(f, cfg).records)
        assert n == 11
        # the datum is extended once per march; then each sample checks the
        # running state's antisymmetry once and copies its half, and each
        # record extends that half for its one half spectrum
        assert counts == {"fftn": 0, "spectrum": n, "odd_extension": n + 1,
                          "restrict_to_half": 0, "_antisymmetry_fault": n}
        counts.update(spectrum=0, odd_extension=0, _antisymmetry_fault=0)
        # a batch of two runs is still checked once per sample
        assert len(list(march([f, f], cfg, cfg.record_steps))) == n
        assert counts == {"fftn": 0, "spectrum": 0, "odd_extension": 2,
                          "restrict_to_half": 0, "_antisymmetry_fault": n}

    def test_records_build_no_geometry(self, monkeypatch):
        """The doubled geometry is built once per parent geometry, not once per
        record; a sample, cut from the doubled state, builds no half geometry."""
        f = slab_field()
        cfg = SimConfig(lam=1.0, eps=1e-3, dt=1e-3, t_final=0.02, geometry=f.geometry,
                        hs_values=(0.25, 0.5))
        geometry._doubled.cache_clear()
        geometry._half.cache_clear()
        built = []
        post_init = GridGeometry.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(GridGeometry, "__post_init__", counted)
        assert len(evolve(f, cfg).records) == 21
        assert built == [f.geometry.transform_grid()]
        built.clear()
        evolve(f, cfg)
        assert built == []

    def test_bessel_weight_is_cached_read_only(self):
        geom = slab_field().geometry.transform_grid()
        weight = bessel_weight(geom, 0.5)
        assert bessel_weight(geom, 0.5) is weight
        assert not weight.flags.writeable
        with pytest.raises(ValueError):
            weight[0, 0] = 0.0

    @pytest.mark.parametrize("s", [0.0, 1.0])
    def test_measure_rejects_gagliardo_s_outside_open_interval(self, s):
        with pytest.raises(ValueError):
            measure(slab_field(), 0.0, 1.0, 1e-3, (), (s,))

    def test_one_extension_and_one_fft_per_gagliardo_norm(self, transform_counts):
        f = slab_field()
        hs_gagliardo_norm(f, 0.5)  # builds and caches the symbol
        transform_counts.update(fftn=0, spectrum=0, odd_extension=0)
        hs_gagliardo_norm(f, 0.5)
        assert transform_counts == {"fftn": 0, "spectrum": 1, "odd_extension": 1}


def gagliardo_brute_force(field, s):
    """Literal double sum over all grid pairs, y over the fundamental cell."""
    geom = field.geometry
    d = geom.dim
    spacings = [l / n for l, n in zip(geom.lengths, geom.points)]
    cell = geom.cell_volume
    total = 0.0
    for shift in np.ndindex(*geom.points):
        if all(c == 0 for c in shift):
            continue
        signed = [c if c < n // 2 else c - n for c, n in zip(shift, geom.points)]
        y = math.sqrt(sum((c * h) ** 2 for c, h in zip(signed, spacings)))
        rolled = np.roll(field.data, [-c for c in shift], axis=tuple(range(d)))
        total += float(np.sum(np.abs(rolled - field.data) ** 2)) / y ** (d + 2 * s)
    return math.sqrt(mass(field) + cell * cell * total)


class TestGagliardoNorm:
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_matches_brute_force_1d(self, s):
        rng = np.random.default_rng(4)
        f = Field(torus(16), rng.standard_normal(16) + 1j * rng.standard_normal(16))
        assert hs_gagliardo_norm(f, s) == pytest.approx(gagliardo_brute_force(f, s), rel=1e-12)

    def test_matches_brute_force_2d(self):
        rng = np.random.default_rng(5)
        geom = GridGeometry(DomainKind.PERIODIC_BOX, (1.0, 2.0), (8, 8))
        f = Field(geom, rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        assert hs_gagliardo_norm(f, 0.5) == pytest.approx(
            gagliardo_brute_force(f, 0.5), rel=1e-12
        )

    def test_constant_field_reduces_to_mass(self):
        f = constant_field(torus(16), 2.0)
        assert hs_gagliardo_norm(f, 0.5) == pytest.approx(math.sqrt(mass(f)), rel=1e-13)

    @pytest.mark.parametrize("s", [0.0, 1.0, -0.5, 1.5])
    def test_rejects_s_outside_open_interval(self, s):
        with pytest.raises(ValueError):
            hs_gagliardo_norm(constant_field(torus(16), 1.0), s)

    def test_large_plane_wave_closed_form(self):
        # A e^{2 pi i m x} on N points: D(k) = 2 N |A|^2 (1 - cos 2 pi m k / N)
        n, m, amp, s = 16384, 5, 0.5 - 0.25j, 0.5
        geom = torus(n)
        f = Field(geom, amp * np.exp(2j * math.pi * m * geom.axis_coordinates(0)))
        k = np.arange(1, n)
        y = np.minimum(k, n - k) / n
        d_k = 2.0 * n * abs(amp) ** 2 * (1.0 - np.cos(2.0 * math.pi * m * k / n))
        double_sum = float(np.sum(d_k / y ** (1.0 + 2.0 * s)))
        expected = math.sqrt(abs(amp) ** 2 + double_sum / n**2)
        assert hs_gagliardo_norm(f, s) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_matches_brute_force_3d_unequal_box(self, s):
        rng = np.random.default_rng(6)
        geom = GridGeometry(DomainKind.PERIODIC_BOX, (1.0, 2.0, 0.5), (4, 8, 4))
        f = Field(geom, rng.standard_normal(geom.points) + 1j * rng.standard_normal(geom.points))
        assert hs_gagliardo_norm(f, s) == pytest.approx(gagliardo_brute_force(f, s), rel=1e-12)

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_matches_brute_force_dirichlet_slab(self, s):
        rng = np.random.default_rng(7)
        geom = GridGeometry(DomainKind.DIRICHLET_SLAB, (1.0, 1.0), (8, 4))
        data = rng.standard_normal(geom.points) + 1j * rng.standard_normal(geom.points)
        data[..., 0] = 0.0
        f = Field(geom, data)
        assert hs_gagliardo_norm(f, s) == pytest.approx(
            gagliardo_brute_force(odd_extension(f), s), rel=1e-12
        )

    def test_smooth_data_precision(self):
        # W(0) - W(n) cancels in the symbol; measured 1.5e-12, bound 1e-10
        f = make_datum(DatumSpec(kind="gaussian_bump", width=0.25), torus(4096))
        assert hs_gagliardo_norm(f, 0.75) == pytest.approx(
            gagliardo_brute_force(f, 0.75), rel=1e-10
        )

    def test_dirichlet_via_extension(self):
        geom = GridGeometry(DomainKind.DIRICHLET_INTERVAL, (1.0,), (16,))
        x = geom.axis_coordinates(0)
        f = Field(geom, np.sin(2 * math.pi * x))
        assert hs_gagliardo_norm(f, 0.5) == pytest.approx(
            gagliardo_brute_force(odd_extension(f), 0.5), rel=1e-12
        )

