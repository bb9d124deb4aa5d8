"""Desk-scale runs of each named experiment plus report plumbing."""

import cmath
import math
import types
from dataclasses import replace

import pytest

from logns.data import DatumSpec, make_datum
from logns import constants, experiments, nonlinearity
from logns.diagnostics import l2_distance
from logns.experiments import (
    gagliardo_equivalence_bounds,
    run_convergence_order,
    run_eps_cauchy,
    run_galilean,
    run_h1_approximation,
    run_hs_growth,
    run_lipschitz,
    run_scaling_invariance,
)
from logns.geometry import DomainKind, GeometryError, GridGeometry
from logns.integrator import SimConfig, final_state


def torus(n=32):
    return GridGeometry(DomainKind.TORUS, (1.0,), (n,))


def quick_config(**kw):
    base = dict(lam=1.0, eps=1e-2, dt=1e-2, t_final=0.2, geometry=torus())
    base.update(kw)
    return SimConfig(**base)


GAUSSIAN = DatumSpec(kind="gaussian_bump", width=0.25)
BAND = DatumSpec(kind="random_band_limited", cutoff=6.0, seed=3)


class TestLipschitz:
    def test_bound_holds(self):
        report = run_lipschitz(GAUSSIAN, quick_config(), datum_b=BAND)
        assert report.passed
        assert report.margins["worst_ratio"] <= 1.0 + 1e-6
        assert report.n_samples == len(report.series)

    def test_identical_data_degenerate_case(self):
        report = run_lipschitz(BAND, quick_config(), datum_b=BAND)
        assert report.passed
        assert report.margins["degenerate"] == 1.0


class TestHsGrowth:
    def test_requires_tracked_exponents(self):
        with pytest.raises(ValueError):
            run_hs_growth(BAND, quick_config())

    def test_bound_and_equivalence_cross_check(self):
        report = run_hs_growth(BAND, quick_config(hs_values=(0.25, 0.5)))
        assert report.passed
        assert report.margins["max_ratio_s=0.25"] <= 1.0 + 1e-6
        assert 1.2 <= report.margins["gagliardo_ratio_s=0.5"] <= 4.5

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_one_dimensional_envelope_is_the_pinned_band(self, s):
        assert gagliardo_equivalence_bounds(1, s) == constants.GAGLIARDO_EQUIVALENCE_BOUNDS
        assert gagliardo_equivalence_bounds(1, s) == (1.2, 4.5)

    def test_envelope_scales_with_dimension(self):
        # sqrt(C(1, 1/4) / C(d, 1/4)) is 1.548 in 2-d and 2.047 in 3-d
        lo, hi = constants.GAGLIARDO_EQUIVALENCE_BOUNDS
        assert gagliardo_equivalence_bounds(2, 0.25) == (lo, pytest.approx(hi * 1.548, rel=1e-3))
        assert gagliardo_equivalence_bounds(3, 0.25) == (lo, pytest.approx(hi * 2.047, rel=1e-3))

    def test_cross_check_passes_on_3d_torus(self):
        # the Gagliardo ratio at s = 1/4 is 4.99 here, above the 1-d upper end 4.5
        geom = GridGeometry(DomainKind.TORUS, (1.0, 1.0, 1.0), (16, 16, 16))
        config = SimConfig(lam=1.0, eps=1e-3, dt=1e-3, t_final=0.05, geometry=geom,
                           hs_values=(0.25, 0.5))
        spec = DatumSpec(kind="random_band_limited", cutoff=4.0, seed=0)
        report = run_hs_growth(spec, config)
        assert report.margins["gagliardo_ratio_s=0.25"] > 4.5
        assert report.margins["max_ratio_s=0.25"] <= 1.0 + 1e-6
        assert report.passed


def dt8_budget(spec, config):
    """The scaling budget before the roundoff budget: ten times the L^2
    distance between the endpoints of the base run at dt and at dt/8."""
    datum = make_datum(spec, config.geometry)
    coarse = final_state(datum, config)
    fine = final_state(datum, replace(config, dt=config.dt / 8.0))
    return max(10.0 * l2_distance(coarse, fine), 1e-12)


NARROW = DatumSpec(kind="gaussian_bump", width=0.1)
# (datum, config, z) on every geometry; the 64^2 torus at dt = 1e-3 takes the
# sin/sqrt phase, the other cases cos/sin
BUDGET_CASES = {
    **{f"z={z}": (GAUSSIAN, quick_config(eps=0.0), z)
       for z in (2.0, 1.0 / 3.0, 1.0 + 1.0j, 1e100, 1e-100)},
    "lie-lam=-2": (GAUSSIAN, quick_config(eps=0.0, lam=-2.0, splitting="lie"), 1.0 + 1.0j),
    "torus-4096-t=2": (GAUSSIAN, quick_config(eps=0.0, geometry=torus(4096), t_final=2.0,
                                              record_every=20), 1.0 / 3.0),
    "box-32x16": (GAUSSIAN, quick_config(eps=0.0, geometry=GridGeometry(
        DomainKind.PERIODIC_BOX, (1.0, 0.5), (32, 16))), 1.0 + 1.0j),
    "torus-16^3": (GAUSSIAN, quick_config(eps=0.0, geometry=GridGeometry(
        DomainKind.TORUS, (1.0,) * 3, (16,) * 3)), 1.0 + 1.0j),
    "interval": (NARROW, quick_config(eps=0.0, geometry=GridGeometry(
        DomainKind.DIRICHLET_INTERVAL, (1.0,), (32,))), 1.0 + 1.0j),
    "slab-32^2": (NARROW, quick_config(eps=0.0, geometry=GridGeometry(
        DomainKind.DIRICHLET_SLAB, (1.0, 1.0), (32, 32))), 1.0 / 3.0),
    "torus-64^2-sin-sqrt": (GAUSSIAN, quick_config(eps=0.0, geometry=GridGeometry(
        DomainKind.TORUS, (1.0, 1.0), (64, 64)), dt=1e-3, t_final=0.05, record_every=10),
        1.0 + 1.0j),
}


class TestScalingInvariance:
    def test_rejects_regularized_config(self):
        with pytest.raises(ValueError):
            run_scaling_invariance(GAUSSIAN, quick_config(), z=2.0)

    def test_rejects_zero_z_before_marching(self, monkeypatch):
        def no_march(*args):
            raise AssertionError("marched before rejecting z = 0")

        monkeypatch.setattr(experiments, "march", no_march)
        with pytest.raises(ValueError, match="nonzero"):
            run_scaling_invariance(GAUSSIAN, quick_config(eps=0.0), z=0.0)

    @pytest.mark.parametrize("case", BUDGET_CASES)
    def test_roundoff_budget_covers_the_error_tenfold(self, case):
        spec, config, z = BUDGET_CASES[case]
        report = run_scaling_invariance(spec, config, z=z)
        assert report.passed
        assert report.margins["max_rel_err"] <= report.margins["budget"] / 10.0
        assert report.margins["budget"] <= dt8_budget(spec, config)

    @pytest.mark.parametrize("amplitude", [1e100, 1e-100])
    def test_budget_follows_the_datum_amplitude(self, amplitude):
        # ln|u| of both runs moves with the amplitude, as it does with z
        spec = replace(GAUSSIAN, amplitude=amplitude)
        report = run_scaling_invariance(spec, quick_config(eps=0.0), z=1.0 / 3.0)
        assert report.passed
        assert report.margins["max_rel_err"] <= report.margins["budget"] / 10.0

    def test_sin_sqrt_case_takes_that_path(self):
        config = BUDGET_CASES["torus-64^2-sin-sqrt"][1]
        assert math.prod(config.geometry.points) >= nonlinearity._SIN_SQRT_MIN_POINTS
        assert 2.0 * abs(config.lam) * config.dt * nonlinearity._LOG_RANGE <= math.pi / 2

    def test_budget_sees_a_phase_off_by_1e_10(self, monkeypatch):
        # the config of acceptance check 05, whose dt/8 budget is 4.4e-5
        config = quick_config(eps=0.0, geometry=torus(64), dt=1e-3, t_final=1.0,
                              record_every=50)
        assert run_scaling_invariance(GAUSSIAN, config, z=2.0).passed
        off = types.SimpleNamespace(exp=lambda w: cmath.exp(w) * (1.0 + 1e-10))
        monkeypatch.setattr(experiments, "cmath", off)
        report = run_scaling_invariance(GAUSSIAN, config, z=2.0)
        assert report.margins["max_rel_err"] == pytest.approx(1e-10, rel=1e-3)
        assert report.margins["max_rel_err"] <= dt8_budget(GAUSSIAN, config)
        assert not report.passed

    def test_marches_both_runs_once(self, marched_steps):
        config = quick_config(eps=0.0)
        run_scaling_invariance(GAUSSIAN, config, z=2.0)
        assert marched_steps == [(2, config.n_steps)]


class TestGalilean:
    def test_covariance(self):
        report = run_galilean(BAND, quick_config(), boost_modes=(1,))
        assert report.passed
        assert report.margins["rel_discrepancy"] <= report.margins["budget"]

    def test_reruns_at_dt_over_8(self, marched_steps):
        # the boosted and plain runs in one march, then the plain run at dt/8
        config = quick_config()
        run_galilean(BAND, config, boost_modes=(1,))
        assert marched_steps == [(2, config.n_steps), (1, 8 * config.n_steps)]

    def test_rejects_dirichlet(self):
        geom = GridGeometry(DomainKind.DIRICHLET_INTERVAL, (1.0,), (32,))
        cfg = quick_config(geometry=geom)
        with pytest.raises(GeometryError):
            run_galilean(DatumSpec(kind="gaussian_bump", width=0.1), cfg, boost_modes=(1,))


class TestEpsCauchy:
    def test_consecutive_distances_decrease(self):
        ladder = [2.0**-k for k in range(2, 8)]
        report = run_eps_cauchy(GAUSSIAN, quick_config(), eps_sequence=ladder)
        assert report.margins["monotone"] == 1.0
        assert report.n_samples == len(ladder) - 1


class TestH1Approximation:
    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            run_h1_approximation(BAND, quick_config(), cutoffs=[4.0])
        with pytest.raises(ValueError):
            run_h1_approximation(BAND, quick_config(), cutoffs=[8.0, 4.0])

    def test_truncation_ladder(self):
        rough = DatumSpec(kind="random_rough", target_s=0.5, seed=4)
        report = run_h1_approximation(rough, quick_config(), cutoffs=[2.0, 4.0, 8.0])
        assert report.passed
        sups = [v for k, v in report.margins.items() if k.startswith("sup_dist")]
        assert sups == sorted(sups, reverse=True)

    def test_marches_each_truncation_once(self, marched_steps):
        # one batched march of all k truncations
        run_h1_approximation(BAND, quick_config(), cutoffs=[2.0, 4.0, 8.0])
        assert [batch for batch, _ in marched_steps] == [3]

    def test_identical_truncations_degenerate_case(self):
        # on 32 points no mode exceeds |n| = 16, so both truncations keep every mode
        report = run_h1_approximation(BAND, quick_config(), cutoffs=[16.0, 20.0])
        assert report.passed
        assert report.margins == {"sup_dist_K16_K20": 0.0}


class TestConvergenceOrder:
    def test_ladder_validation(self):
        with pytest.raises(ValueError):
            run_convergence_order(GAUSSIAN, quick_config(), dt_ladder=[1e-2])
        with pytest.raises(ValueError):
            run_convergence_order(GAUSSIAN, quick_config(), dt_ladder=[1e-3, 1e-2])

    def test_strang_is_second_order(self):
        cfg = quick_config(geometry=torus(64), t_final=0.4, dt=1e-2)
        report = run_convergence_order(GAUSSIAN, cfg, dt_ladder=[1e-2, 5e-3, 2.5e-3])
        assert report.passed
        assert 1.7 <= report.margins["order"] <= 2.3

    def test_lie_is_first_order(self):
        cfg = quick_config(geometry=torus(64), t_final=0.4, dt=1e-2, splitting="lie")
        report = run_convergence_order(GAUSSIAN, cfg, dt_ladder=[2e-2, 1e-2, 5e-3])
        assert report.passed
        assert 0.8 <= report.margins["order"] <= 1.2


class TestReportPlumbing:
    def test_digest_is_stable_and_sensitive(self):
        a = run_scaling_invariance(GAUSSIAN, quick_config(eps=0.0), z=2.0)
        b = run_scaling_invariance(GAUSSIAN, quick_config(eps=0.0), z=2.0)
        c = run_scaling_invariance(GAUSSIAN, quick_config(eps=0.0), z=3.0)
        assert a.config_digest == b.config_digest
        assert a.config_digest != c.config_digest

    def test_verdict_strings(self):
        report = run_galilean(BAND, quick_config(), boost_modes=(0,))
        assert report.verdict in ("pass", "fail")
