"""Scalar kernel tests: examples with known values, symmetry properties,
randomized inequality suites, and agreement with reference formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logns import nonlinearity as nl

finite_complex = st.complex_numbers(
    allow_nan=False, allow_infinity=False, max_magnitude=1e12
)
small_eps = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


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

    @pytest.mark.parametrize("eps", [-0.1, math.nan, math.inf, np.array([0.1, -0.1])],
                             ids=["negative", "nan", "inf", "negative-in-array"])
    def test_rejects_negative_or_non_finite_eps(self, eps):
        with pytest.raises(ValueError, match="^eps must be >= 0 and finite, got "):
            nl.phase_flow(np.array([1.0 + 1j, 0.5]), 1.0, eps, 1e-3)

    def test_a_list_eps_holding_zero_keeps_zero(self):
        # 0 ln 0 = 0 where |z| + eps = 0, with no divide or invalid warning
        out = nl.phase_flow(np.array([0j, 1.0]), 1.0, [0.0, 0.1], 0.1)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(np.exp(0.2j * math.log(1.1)), rel=1e-15)

    def test_an_array_eps_gives_the_bits_of_the_list(self):
        z = np.array([0j, 1.0, 0.3 - 2j])
        eps = [0.0, 0.1, 0.0]
        assert np.array_equal(nl.phase_flow(z, -1.3, np.array(eps), 0.2),
                              nl.phase_flow(z, -1.3, eps, 0.2))


def largest_half_angle_coeff():
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


# the half-angle phase lies within 4 * 2^-52 of cos and sin, and within
# 2 * 2^-52 of the unit circle
ULP = 2.0**-52


def assert_near_cos_sin(phase, ref):
    assert np.all(np.abs(phase.real - ref.real) <= 4 * ULP)
    assert np.all(np.abs(phase.imag - ref.imag) <= 4 * ULP)
    assert np.all(np.abs(np.abs(phase) - 1.0) <= 2 * ULP)


class TestRotationPhase:
    """The half-angle phase under the a-priori angle bound, and the cos/sin
    phase past the bound or below the size floor."""

    def test_log_range_is_ln_of_the_smallest_double(self):
        assert nl._LOG_RANGE == -np.log(np.finfo(float).smallest_subnormal)
        assert nl._LOG_RANGE == -np.log(np.nextafter(0.0, 1.0))
        assert np.log(np.finfo(float).max) < nl._LOG_RANGE

    def test_half_angle_matches_cos_sin_within_4_ulp(self):
        rng = np.random.default_rng(5)
        coeff, eps = 2e-3, 1e-3
        modulus = np.exp(rng.uniform(-500.0, 500.0, 4096))  # |angle| <= 1
        phase, ref = phase_of(modulus, coeff, eps), cos_sin_phase(modulus, coeff, eps)
        assert_near_cos_sin(phase, ref)
        assert not np.array_equal(phase, ref)  # the half-angle path ran

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_extreme_moduli_at_the_bound_give_unit_phases(self, sign):
        modulus = np.ones(1024)
        modulus[:2] = 5e-324, 1.7e308
        coeff = sign * largest_half_angle_coeff()
        phase = phase_of(modulus, coeff)
        assert np.all(np.isfinite(phase))
        assert_near_cos_sin(phase, cos_sin_phase(modulus, coeff))
        # the angle is -sign*pi/2, the half angle -sign*pi/4: tan = -sign*1 to an ulp
        assert abs(phase[0] - -sign * 1j) <= 4 * ULP

    def test_masked_zeros_give_exactly_one(self):
        modulus = np.exp(np.linspace(-3.0, 3.0, 1024))
        modulus[::7] = 0.0
        phase = phase_of(modulus, 2e-3)
        assert np.all(phase[::7] == 1.0)

    @pytest.mark.parametrize("case", ["one ulp above the bound", "below the size floor"])
    def test_cos_sin_path(self, case):
        modulus = np.exp(np.linspace(-700.0, 700.0, 1024))
        at = largest_half_angle_coeff()
        if case == "one ulp above the bound":
            coeff, run_points = np.nextafter(at, 1.0), 1024
        else:
            coeff, run_points = at, 1023
        assert not np.array_equal(phase_of(modulus, at).real, cos_sin_phase(modulus, at).real)
        assert np.array_equal(phase_of(modulus, coeff, run_points=run_points),
                              cos_sin_phase(modulus, coeff))


def two_pass_gap(z1, z2, eps1=0.0, eps2=0.0):
    """The gap as evaluated before the one-pass kernel: masked logs of where
    copies, and the factor from a complex product."""
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    e1 = np.asarray(eps1, dtype=float)
    e2 = np.asarray(eps2, dtype=float)
    r1 = np.abs(z1)
    r2 = np.abs(z2)
    a1 = r1 + e1
    a2 = r2 + e2
    valid = (a1 > 0.0) & (a2 > 0.0)
    with np.errstate(over="ignore"):
        x = ((r1 - r2) + (e1 - e2)) / np.where(valid, a2, 1.0)
    near = valid & (np.abs(x) < 0.5)
    ldiff = np.zeros(np.shape(x))
    np.log1p(x, out=ldiff, where=near)
    far = valid & ~near
    np.subtract(
        np.log(np.where(far, a1, 1.0)), np.log(np.where(far, a2, 1.0)),
        out=ldiff, where=far,
    )
    return ldiff * np.imag(np.conj(z1 - z2) * z2)


def hard_pairs(n, seed):
    """n pairs (z1, z2, eps1, eps2): log-uniform moduli on [1e-15, 1e15] with
    independent phases, where the fifth block has z1 = 0, z2 = 0 or both, the
    next two are near-equal (relative offsets 1e-12 and 1e-3), and eps is 0 in
    a third of eps1 and a fifth of eps2."""
    rng = np.random.default_rng(seed)
    m = np.exp(rng.uniform(-15.0, 15.0, (4, n)) * math.log(10.0))
    z1, z2 = m[:2] * np.exp(2j * np.pi * rng.random((2, n)))
    e1, e2 = m[2:]
    k = n // 5
    z1[:k // 3] = 0.0
    z2[k // 3:2 * k // 3] = 0.0
    z1[2 * k // 3:k] = z2[2 * k // 3:k] = 0.0
    for lo, offset in ((k, 1e-12), (2 * k, 1e-3)):
        kick = rng.standard_normal((2, k)) * offset
        z2[lo:lo + k] = z1[lo:lo + k] * (1.0 + kick[0] + 1j * kick[1])
    e1[::3] = 0.0
    e2[::5] = 0.0
    return z1, z2, e1, e2


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

    @pytest.mark.parametrize("eps", ["random", "zero", "equal"])
    def test_agrees_with_the_two_pass_formula(self, eps):
        """10^6 pairs: the one-pass kernel is the two-pass formula to 1e-14 of
        what the suite compares it with."""
        z1, z2, e1, e2 = hard_pairs(1_000_000, seed=17)
        if eps == "zero":
            e1 = e2 = 0.0
        elif eps == "equal":
            e2 = e1
        gap = nl.monotonicity_gap(z1, z2, e1, e2)
        ref = two_pass_gap(z1, z2, e1, e2)
        scale = nl.monotonicity_bound(z1, z2, e1, e2) + 1e-12 * (1.0 + np.abs(z1 - z2) ** 2)
        assert np.all(np.isfinite(gap))
        assert np.all(np.abs(gap - ref) <= 1e-14 * scale)
        assert np.all(gap[np.abs(ref) == 0.0] == 0.0)

    def test_scalars_agree_and_stay_scalars(self):
        z1, z2, e1, e2 = hard_pairs(500, seed=18)
        for args in zip(z1.tolist(), z2.tolist(), e1.tolist(), e2.tolist()):
            for inputs in (args, tuple(map(np.asarray, args))):
                gap = nl.monotonicity_gap(*inputs)
                assert not isinstance(gap, np.ndarray) and np.ndim(gap) == 0
                scale = nl.monotonicity_bound(*args) + 1e-12 * (1.0 + abs(args[0] - args[1]) ** 2)
                assert abs(gap - two_pass_gap(*args)) <= 1e-14 * scale

    def test_origin_gives_zero_without_warnings(self):
        with np.errstate(all="raise"):
            assert nl.monotonicity_gap(0.0, 2.0 + 1j) == 0.0
            assert nl.monotonicity_gap(1j, 0.0) == 0.0
            assert nl.monotonicity_gap(0.0, 0.0) == 0.0
            assert nl.monotonicity_gap(0.0, 1e300, 0.0, 1e-300) == 0.0
            gap = nl.monotonicity_gap(np.array([0.0, 1j, 3.0]), np.array([1.0, 0.0, 0.0]))
        assert np.array_equal(gap, [0.0, 0.0, 0.0])

    def test_broadcasts_as_the_formula_does(self):
        rng = np.random.default_rng(19)
        z1 = rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1))
        z2 = 0.5 - 2j
        e1, e2 = rng.random(4), rng.random((2, 1, 1))
        gap = nl.monotonicity_gap(z1, z2, e1, e2)
        assert gap.shape == (2, 3, 4)
        np.testing.assert_allclose(gap, two_pass_gap(z1, z2, e1, e2), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("kernel", [nl.monotonicity_gap, nl.monotonicity_bound])
    @pytest.mark.parametrize("eps1, eps2", [
        (math.nan, 0.0), (0.0, math.nan), (-5.0, 0.0), (np.array([0.1, math.nan]), 0.2),
        (math.inf, 0.0), (0.0, math.inf), (np.array([0.1, math.inf]), 0.2),
    ], ids=["nan-first", "nan-second", "negative", "nan-in-array",
            "inf-first", "inf-second", "inf-in-array"])
    def test_rejects_negative_or_nan_eps(self, kernel, eps1, eps2):
        with pytest.raises(ValueError, match=r"^eps must be >= 0 and finite, got \["):
            kernel(1.0, 2j, eps1, eps2)

    @pytest.mark.parametrize("kernel", [nl.monotonicity_gap, nl.monotonicity_bound])
    def test_empty_eps_arrays_have_nothing_to_reject(self, kernel):
        empty = np.zeros(0)
        assert kernel(empty, empty, empty, 0.0).shape == (0,)


class TestRealFirstArgument:
    """A real z1 skips the complex copy of the kernels' first argument; the gap
    and the bound keep the bits of the kernels called with z1 + 0j, non-finite
    results included."""

    # 0, -0, subnormals, inf and nan, a negative real, and moduli 1e-15 to 1e15
    SPECIAL = [0.0, -0.0, 5e-324, 2.2e-308, 1e-310, math.inf, -math.inf, math.nan, -2.5,
               1e308, 1.0]

    @staticmethod
    def pairs(n, seed):
        rng = np.random.default_rng(seed)
        r = np.exp(rng.uniform(-34.5, 34.5, n))
        r[: len(TestRealFirstArgument.SPECIAL)] = TestRealFirstArgument.SPECIAL
        z2 = np.exp(rng.uniform(-34.5, 34.5, n)) * np.exp(2j * np.pi * rng.random(n))
        z2[20:30] = [0.0, 1.0, -1.0, 1j, 5e-324, 1e308 + 1e308j, math.inf,
                     complex(math.inf, 1.0), complex(1.0, math.nan), math.nan]
        e1, e2 = np.exp(rng.uniform(-34.5, 34.5, (2, n)))
        return r, z2, e1, e2

    @staticmethod
    def assert_same_bits(got, expected):
        assert type(got) is type(expected)
        got, expected = np.asarray(got), np.asarray(expected)
        assert got.shape == expected.shape and got.dtype == expected.dtype == float
        assert np.array_equal(got.reshape(-1).view(np.uint64),
                              expected.reshape(-1).view(np.uint64))

    @pytest.mark.parametrize("kernel", [nl.monotonicity_gap, nl.monotonicity_bound])
    @pytest.mark.parametrize("eps", ["arrays", "scalar zero", "equal arrays", "zero arrays"])
    def test_gives_the_bits_of_the_complex_path(self, kernel, eps):
        r, z2, e1, e2 = self.pairs(4096, seed=23)
        if eps == "scalar zero":
            e1 = e2 = 0.0
        elif eps == "equal arrays":
            e2 = e1
        elif eps == "zero arrays":
            e1 = e2 = np.zeros_like(r)
        with np.errstate(all="ignore"):
            got, expected = kernel(r, z2, e1, e2), kernel(r + 0j, z2, e1, e2)
        self.assert_same_bits(got, expected)
        # the specials reach the result: inf and nan where the complex path has them
        assert not np.all(np.isfinite(expected))

    def test_an_infinite_distance_keeps_the_nan_bound(self):
        # 0 * inf in the eps term, as in the literal expression
        for z1 in (math.inf, complex(math.inf, 0.0)):
            with np.errstate(invalid="ignore"):
                assert math.isnan(nl.monotonicity_bound(z1, 1j))
                assert math.isnan(nl.monotonicity_bound(np.array([z1]), 1j, 0.0, 0.0)[0])

    @pytest.mark.parametrize("kernel", [nl.monotonicity_gap, nl.monotonicity_bound])
    @pytest.mark.parametrize("eps", ["arrays", "scalar zero"])
    def test_broadcasts_as_the_complex_path(self, kernel, eps):
        rng = np.random.default_rng(24)
        r = rng.standard_normal((3, 1))
        z2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        e1, e2 = (rng.random((2, 1, 1)), 0.25) if eps == "arrays" else (0.0, 0.0)
        got, expected = kernel(r, z2, e1, e2), kernel(r + 0j, z2, e1, e2)
        assert got.shape == ((2, 3, 4) if eps == "arrays" else (3, 4))
        self.assert_same_bits(got, expected)

    @pytest.mark.parametrize("kernel", [nl.monotonicity_gap, nl.monotonicity_bound])
    def test_scalars_stay_scalars(self, kernel):
        for args in ((2.0, 1j), (0.5, 3.0 - 1j, 0.1, 0.2), (-1.0, 1.0, 0.0, 0.0)):
            got, expected = kernel(*args), kernel(args[0] + 0j, *args[1:])
            assert np.ndim(got) == 0 and not isinstance(got, np.ndarray)
            self.assert_same_bits(got, expected)

    def test_the_origin_gives_zero_without_warnings(self):
        with np.errstate(all="raise"):
            for z1, z2, eps in ((0.0, 2.0 + 1j, ()), (0.0, 0.0, ()),
                                (0.0, 1e300, (0.0, 1e-300)),
                                (np.array([0.0, -0.0, 3.0]), np.array([1.0, 0.0, 0.0]), ())):
                gap = nl.monotonicity_gap(z1, z2, *eps)
                self.assert_same_bits(gap, nl.monotonicity_gap(np.asarray(z1) + 0j, z2, *eps))
                assert np.all(gap == 0.0)

    @pytest.mark.parametrize("kernel", [nl.monotonicity_gap, nl.monotonicity_bound])
    def test_a_rejected_eps_is_named_joined(self, kernel):
        """Each eps is judged alone; the message shows the two joined, as
        np.append gives them."""
        e1, e2 = np.array([0.1, 0.2]), -1.0
        with pytest.raises(ValueError) as info:
            kernel(1.0, 2j, e1, e2)
        assert str(info.value) == f"eps must be >= 0 and finite, got {np.append(e1, e2)}"
