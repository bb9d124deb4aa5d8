"""Scalar kernel tests: examples with known values, symmetry properties,
randomized inequality suites, and pinned regression constants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logns import constants, nonlinearity as nl

finite_complex = st.complex_numbers(
    allow_nan=False, allow_infinity=False, max_magnitude=1e12
)
small_eps = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


class TestLogKernel:
    def test_zero_convention(self):
        assert nl.g(0.0) == 0.0

    def test_unit_modulus(self):
        assert nl.g(1.0) == 0.0

    def test_real_e(self):
        # ln(e^2) = 2
        assert nl.g(math.e) == pytest.approx(2.0 * math.e, rel=1e-15)

    def test_magnitude_identity(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        np.testing.assert_allclose(
            np.abs(nl.g(z)), np.abs(z) * np.abs(np.log(np.abs(z) ** 2)), rtol=1e-13
        )

    @given(finite_complex)
    def test_odd_and_conjugate_symmetry(self, z):
        assert nl.g(-z) == pytest.approx(-nl.g(z), rel=1e-12, abs=1e-300)
        assert nl.g(np.conj(z)) == pytest.approx(np.conj(nl.g(z)), rel=1e-12, abs=1e-300)


class TestRegularizedKernel:
    def test_zero_datum(self):
        assert nl.g_eps(0.0, 1.0) == 0.0

    def test_log_e(self):
        assert nl.g_eps(1.0, math.e - 1.0) == pytest.approx(2.0, rel=1e-15)

    def test_eps_zero_matches_g(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        np.testing.assert_allclose(nl.g_eps(z, 0.0), nl.g(z), rtol=1e-13)

    def test_rejects_negative_eps(self):
        with pytest.raises(ValueError):
            nl.g_eps(1.0, -0.1)

    @given(finite_complex, small_eps)
    def test_symmetries(self, z, eps):
        assert nl.g_eps(-z, eps) == pytest.approx(-nl.g_eps(z, eps), rel=1e-12, abs=1e-300)


class TestPhaseFlow:
    def test_unit_fixed_point(self):
        assert nl.phase_flow(1.0, 3.7, 0.0, 0.42) == pytest.approx(1.0)

    def test_phase_wrap(self):
        # ln e = 1, so dt = pi gives phase 2 pi
        out = nl.phase_flow(math.e, 1.0, 0.0, math.pi)
        assert out == pytest.approx(math.e, rel=1e-12)

    def test_zero_stays_zero(self):
        assert nl.phase_flow(0.0, 1.0, 0.0, 1.0) == 0.0

    def test_modulus_conserved(self):
        rng = np.random.default_rng(2)
        z = (rng.standard_normal(2000) + 1j * rng.standard_normal(2000)) * 10.0 ** rng.uniform(
            -8, 8, 2000
        )
        lam, eps, dt = 1.7, 0.3, 0.05
        np.testing.assert_allclose(np.abs(nl.phase_flow(z, lam, eps, dt)), np.abs(z), rtol=1e-14)

    def test_flow_composition(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        lam, eps = -0.8, 0.1
        ab = nl.phase_flow(nl.phase_flow(z, lam, eps, 0.3), lam, eps, 0.5)
        once = nl.phase_flow(z, lam, eps, 0.8)
        np.testing.assert_allclose(ab, once, rtol=1e-13)


def largest_sin_sqrt_coeff():
    """The largest coeff with coeff * _LOG_RANGE <= pi/2 in floating point."""
    coeff = math.pi / 2 / nl._LOG_RANGE
    while coeff * nl._LOG_RANGE > math.pi / 2:
        coeff = np.nextafter(coeff, 0.0)
    return float(coeff)


def phase_of(modulus, coeff, eps=0.0, run_points=None):
    """rotation_phase on a copy of `modulus`; returns the phase."""
    modulus = np.array(modulus, dtype=float)
    phase = np.empty(modulus.shape, dtype=complex)
    nl.rotation_phase(modulus, coeff, eps, phase,
                      modulus.size if run_points is None else run_points)
    return phase


def cos_sin_phase(modulus, coeff, eps=0.0):
    """The reference phase: cos and sin of the same angle."""
    angle = np.zeros(np.shape(modulus))
    np.log(np.add(modulus, eps), out=angle, where=np.add(modulus, eps) > 0.0)
    angle *= coeff
    return np.cos(angle) + 1j * np.sin(angle)


class TestRotationPhase:
    """The sin/sqrt phase under the a-priori angle bound, and the cos/sin
    phase past the bound or below the size floor."""

    def test_log_range_is_ln_of_the_smallest_double(self):
        assert nl._LOG_RANGE == -np.log(np.finfo(float).smallest_subnormal)
        assert nl._LOG_RANGE == -np.log(np.nextafter(0.0, 1.0))
        assert np.log(np.finfo(float).max) < nl._LOG_RANGE

    def test_sin_sqrt_matches_cos_sin_within_2_ulp(self):
        rng = np.random.default_rng(5)
        coeff, eps = 2e-3, 1e-3
        modulus = np.exp(rng.uniform(-500.0, 500.0, 4096))  # |angle| <= 1
        phase, ref = phase_of(modulus, coeff, eps), cos_sin_phase(modulus, coeff, eps)
        assert np.array_equal(phase.imag, ref.imag)
        assert np.all(np.abs(phase.real - ref.real) <= 2 * np.spacing(ref.real))
        assert not np.array_equal(phase.real, ref.real)  # the sin/sqrt path ran

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_extreme_moduli_at_the_bound_give_unit_phases(self, sign):
        modulus = np.ones(1024)
        modulus[:2] = 5e-324, 1.7e308
        phase = phase_of(modulus, sign * largest_sin_sqrt_coeff())
        assert np.all(np.isfinite(phase))
        np.testing.assert_allclose(np.abs(phase), 1.0, rtol=0.0, atol=1e-15)
        assert phase[0] == -sign * 1j  # the angle is -sign*pi/2: cos from sin is exactly 0

    def test_masked_zeros_give_exactly_one(self):
        modulus = np.exp(np.linspace(-3.0, 3.0, 1024))
        modulus[::7] = 0.0
        phase = phase_of(modulus, 2e-3)
        assert np.all(phase[::7] == 1.0)

    @pytest.mark.parametrize("case", ["one ulp above the bound", "below the size floor"])
    def test_cos_sin_path(self, case):
        modulus = np.exp(np.linspace(-700.0, 700.0, 1024))
        at = largest_sin_sqrt_coeff()
        if case == "one ulp above the bound":
            coeff, run_points = np.nextafter(at, 1.0), 1024
        else:
            coeff, run_points = at, 1023
        assert not np.array_equal(phase_of(modulus, at).real, cos_sin_phase(modulus, at).real)
        assert np.array_equal(phase_of(modulus, coeff, run_points=run_points),
                              cos_sin_phase(modulus, coeff))


class TestMonotonicityGap:
    def test_equal_points(self):
        assert nl.monotonicity_gap(2.0 + 1j, 2.0 + 1j, 0.5, 0.7) == 0.0

    def test_real_pair_vanishes(self):
        assert nl.monotonicity_gap(2.0, 3.0) == pytest.approx(0.0, abs=1e-15)

    def test_known_value(self):
        # conj(2i - 1) (2i ln 2 - 0) = (4 - 2i) ln 2, imaginary part -2 ln 2
        gap = nl.monotonicity_gap(2j, 1.0)
        assert gap == pytest.approx(-2.0 * math.log(2.0), rel=1e-14)
        assert abs(gap) <= abs(2j - 1.0) ** 2

    @given(finite_complex, finite_complex, small_eps, small_eps)
    @settings(max_examples=300)
    def test_bounded_by_lemma(self, z1, z2, e1, e2):
        gap = abs(nl.monotonicity_gap(z1, z2, e1, e2))
        bound = nl.monotonicity_bound(z1, z2, e1, e2)
        assert gap <= bound + 1e-12 * (1.0 + abs(z1 - z2) ** 2)

    def test_randomized_suite(self):
        # wide log-uniform moduli plus the eps-free special case
        rng = np.random.default_rng(11)
        n = 200_000
        moduli = 10.0 ** rng.uniform(-15, 15, (2, n))
        z1, z2 = moduli * np.exp(2j * np.pi * rng.random((2, n)))
        for e1, e2 in [
            (10.0 ** rng.uniform(-15, 15, n), 10.0 ** rng.uniform(-15, 15, n)),
            (np.zeros(n), np.zeros(n)),
        ]:
            gap = np.abs(nl.monotonicity_gap(z1, z2, e1, e2))
            bound = nl.monotonicity_bound(z1, z2, e1, e2)
            slack = 1e-12 * (1.0 + np.abs(z1 - z2) ** 2)
            assert np.all(gap <= bound + slack)

    def test_near_equal_adversarial(self):
        rng = np.random.default_rng(12)
        z = 10.0 ** rng.uniform(-10, 10, 50_000) * np.exp(2j * np.pi * rng.random(50_000))
        w = z * (1.0 + 1e-12 * rng.standard_normal(50_000))
        gap = np.abs(nl.monotonicity_gap(z, w, 0.0, 0.0))
        assert np.all(gap <= np.abs(z - w) ** 2 + 1e-12 * (1.0 + np.abs(z - w) ** 2))


class TestGrowthBound:
    def test_origin(self):
        assert nl.pointwise_growth_ratio(0.0, 0.5) == 0.0

    def test_unit(self):
        assert nl.pointwise_growth_ratio(1.0, 0.5) == 0.0

    def test_rejects_bad_delta(self):
        for delta in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(ValueError):
                nl.pointwise_growth_ratio(1.0, delta)

    def test_sup_on_log_grid(self):
        t = 2.0 ** np.linspace(-40, 40, 400_001)
        sup = nl.pointwise_growth_ratio(t.astype(complex), 0.5).max()
        assert sup <= 4.0 / math.e
        assert sup <= constants.GROWTH_RATIO_SUP_DELTA_HALF * (1.0 + 1e-9)


class TestDifferenceBounds:
    def test_equal_points(self):
        assert nl.difference_ratios(1.0 + 1j, 1.0 + 1j, 0.5) == (0.0, 0.0)

    def test_large_moduli_kill_holder_part(self):
        r1, _ = nl.difference_ratios(3.0, 5.0 + 2j, 0.5)
        assert r1 == 0.0

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            nl.difference_ratios(1.0, 2.0, 1.5)

    def test_pinned_suprema(self):
        rng = np.random.default_rng(2024)
        n = 1_000_000
        moduli = 10.0 ** rng.uniform(-8, 3, (2, n))
        z, w = moduli * np.exp(2j * np.pi * rng.random((2, n)))
        r1, r2 = nl.difference_ratios(z, w, 0.5)
        assert r1.max() <= constants.HOLDER_RATIO_SUP_ALPHA_HALF
        assert r2.max() <= constants.LOG_LIPSCHITZ_RATIO_SUP
        # adversarial near-equal pairs across the cutoff shoulder
        r = rng.uniform(0.5, 4.0, 200_000)
        z = r * np.exp(2j * np.pi * rng.random(200_000))
        w = z * (1.0 + 1e-7 * np.exp(2j * np.pi * rng.random(200_000)))
        r1, r2 = nl.difference_ratios(z, w, 0.5)
        assert r1.max() <= constants.HOLDER_RATIO_SUP_ALPHA_HALF
        assert r2.max() <= constants.LOG_LIPSCHITZ_RATIO_SUP
