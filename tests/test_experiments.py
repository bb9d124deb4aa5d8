"""Desk-scale runs of each named experiment plus report plumbing."""

import math

import pytest

from logns.data import DatumSpec
from logns import constants, experiments, integrator
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
from logns.integrator import SimConfig


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

    def test_exact_invariance(self):
        report = run_scaling_invariance(GAUSSIAN, quick_config(eps=0.0), z=1 + 1j)
        assert report.passed
        assert report.margins["max_rel_err"] <= report.margins["budget"]


class TestGalilean:
    def test_covariance(self):
        report = run_galilean(BAND, quick_config(), boost_modes=(1,))
        assert report.passed
        assert report.margins["rel_discrepancy"] <= report.margins["budget"]

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

    def test_marches_each_truncation_once(self, monkeypatch):
        marches = []

        def counting_march(datum, config, steps):
            marches.append(config)
            return march(datum, config, steps)

        march = integrator.march
        monkeypatch.setattr(integrator, "march", counting_march)
        monkeypatch.setattr(experiments, "march", counting_march)
        run_h1_approximation(BAND, quick_config(), cutoffs=[2.0, 4.0, 8.0])
        assert len(marches) == 3

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
