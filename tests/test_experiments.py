"""Desk-scale runs of each named experiment plus report plumbing."""

import cmath
import math
import types
from dataclasses import replace

import pytest

from logns.data import DatumSpec, make_datum
from logns import experiments, integrator, nonlinearity
from logns.diagnostics import l2_distance, measure
from logns.experiments import (
    run_convergence_order,
    run_eps_cauchy,
    run_galilean,
    run_h1_approximation,
    run_hs_growth,
    run_lipschitz,
    run_scaling_invariance,
)
from logns.geometry import DomainKind, Field, GridGeometry
from logns.integrator import SimConfig, final_state


def torus(n=32):
    return GridGeometry(DomainKind.TORUS, (1.0,), (n,))


def quick_config(**kw):
    base = dict(lam=1.0, eps=1e-2, dt=1e-2, t_final=0.2, geometry=torus())
    base.update(kw)
    return SimConfig(**base)


GAUSSIAN = DatumSpec(kind="gaussian_bump", width=0.25)
BAND = DatumSpec(kind="random_band_limited", cutoff=6.0, seed=3)


class TestEnvelope:
    """The growth rule v(t) <= e^{rate |t|} v(0) and the decreasing sup ladder,
    each stated once for every experiment."""

    def test_plain_ratio(self):
        # squared H^s norms 4 at t = 0 and 9 at t = 1 under e^{4 |lam| t}, lam = 1
        ratios = experiments._envelope([(0.0, 4.0), (1.0, 9.0)], 4.0)
        assert ratios[0] == 1.0
        assert ratios[1] == pytest.approx(9.0 / (4.0 * math.exp(4.0)), rel=1e-13)

    def test_an_envelope_beyond_the_float_range_leaves_ratio_0(self):
        # e^{4 * 400} overflows, and math.exp raises there
        assert experiments._envelope([(0.0, 4.0), (400.0, 9.0)], 4.0) == [1.0, 0.0]

    @pytest.mark.parametrize("sups, decreasing", [
        ([3.0, 2.0, 1.0], True), ([0.0, 0.0], True), ([2.0, 2.0], False),
        ([1.0, 0.0, 0.0], True), ([1.0, 2.0], False),
    ])
    def test_decreasing_sups(self, sups, decreasing):
        assert experiments._decreasing(sups) is decreasing


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

    def test_bound_holds_in_both_norms(self):
        report = run_hs_growth(BAND, quick_config(hs_values=(0.25, 0.5)))
        assert report.passed
        assert report.margins["max_ratio_s=0.25"] <= 1.0 + 1e-6
        assert report.margins["gagliardo_max_ratio_s=0.5"] <= 1.0 + 1e-6

    def test_gagliardo_envelope_holds_on_3d_torus(self):
        # the Gagliardo / multiplier ratio at s = 1/4 is 4.99 here, far from its
        # 1-d values; the envelope compares each norm only with itself
        geom = GridGeometry(DomainKind.TORUS, (1.0, 1.0, 1.0), (16, 16, 16))
        config = SimConfig(lam=1.0, eps=1e-3, dt=1e-3, t_final=0.05, geometry=geom,
                           hs_values=(0.25, 0.5))
        spec = DatumSpec(kind="random_band_limited", cutoff=4.0, seed=0)
        report = run_hs_growth(spec, config)
        assert report.margins["gagliardo_max_ratio_s=0.25"] <= 1.0 + 1e-6
        assert report.margins["max_ratio_s=0.25"] <= 1.0 + 1e-6
        assert report.passed

    def test_exact_solution_passes(self):
        # the constant plane wave only turns its phase, so every norm is constant
        report = run_hs_growth(DatumSpec(kind="plane_wave", modes=(0,)),
                               quick_config(hs_values=(0.25, 0.5, 1.0)))
        assert report.passed
        assert set(report.margins.values()) == {1.0}

    def test_the_series_is_each_records_worst_ratio_over_every_norm(self):
        """The exponents' order changes no point of the series: each is the
        largest envelope ratio at its record over every judged norm, so the
        series peaks at the largest margin."""
        forward = run_hs_growth(BAND, quick_config(hs_values=(0.25, 0.5, 1.0)))
        backward = run_hs_growth(BAND, quick_config(hs_values=(1.0, 0.5, 0.25)))
        assert backward.series == forward.series
        assert backward.margins == forward.margins
        assert forward.n_samples == len(forward.series) == backward.n_samples
        assert max(r for _, r in forward.series) == max(forward.margins.values())

    def test_a_gagliardo_norm_past_its_envelope_fails(self, monkeypatch):
        # from the second record on, the Gagliardo norms grow like e^{2 |lam| t}
        # with 1 % to spare, so their squares break the e^{4 |lam| t} envelope
        def grown(field, t, lam, eps, hs_values, gagliardo_values):
            record = measure(field, t, lam, eps, hs_values, gagliardo_values)
            if t > 0.0:
                record.gagliardo_norms = {s: 1.01 * math.exp(2.0 * abs(lam) * t) * first[s]
                                          for s in gagliardo_values}
            else:
                first.update(record.gagliardo_norms)
            return record

        first = {}
        monkeypatch.setattr(experiments, "measure", grown)
        report = run_hs_growth(BAND, quick_config(hs_values=(0.25, 0.5, 1.0)))
        assert not report.passed
        for s in (0.25, 0.5):
            assert report.margins[f"gagliardo_max_ratio_s={s:g}"] > 1.0 + 1e-6
        for s in (0.25, 0.5, 1.0):
            assert report.margins[f"max_ratio_s={s:g}"] <= 1.0 + 1e-6
        assert "gagliardo_max_ratio_s=1" not in report.margins


def dt8_budget(spec, config):
    """The scaling and Galilean budget before the roundoff and spatial
    self-error budgets: ten times the L^2 distance between the endpoints of
    the base run at dt and at dt/8."""
    datum = make_datum(spec, config.geometry)
    coarse = final_state(datum, config)
    fine = final_state(datum, replace(config, dt=config.dt / 8.0))
    return max(10.0 * l2_distance(coarse, fine), 1e-12)


NARROW = DatumSpec(kind="gaussian_bump", width=0.1)
# (datum, config, z) on every geometry; the 64^2 torus at dt = 1e-3 takes the
# half-angle phase (its id names the branch's earlier sin/sqrt form), the other
# cases cos/sin
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
        assert math.prod(config.geometry.points) >= nonlinearity._HALF_ANGLE_MIN_POINTS
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


GALILEAN_CONFIG = dict(lam=1.0, eps=1e-2, dt=1e-3, t_final=0.2)
# (datum, config, boost modes) on which the spatial self-error budget holds
# with a fivefold margin; under the dt/8 budget the 16^3 torus was a false FAIL
GALILEAN_CASES = {
    **{f"torus-64-width={w}": (DatumSpec(kind="gaussian_bump", width=w),
                               SimConfig(**GALILEAN_CONFIG, geometry=torus(64)), (1,))
       for w in (0.25, 0.12, 0.08)},
    "box-32x16": (DatumSpec(kind="gaussian_bump", width=0.12), SimConfig(
        **GALILEAN_CONFIG, geometry=GridGeometry(DomainKind.PERIODIC_BOX, (1.0, 0.5), (32, 16))),
        (1, 1)),
    "torus-16^3": (DatumSpec(kind="gaussian_bump", width=0.15), SimConfig(
        **GALILEAN_CONFIG, geometry=GridGeometry(DomainKind.TORUS, (1.0,) * 3, (16,) * 3)),
        (1, 1, 1)),
}


class TestGalilean:
    def test_covariance(self):
        report = run_galilean(BAND, quick_config(), boost_modes=(1,))
        assert report.passed
        assert report.margins["rel_discrepancy"] <= report.margins["budget"]

    def test_marches_the_n_and_2n_grids_once_each(self, marched_steps, monkeypatch):
        # the boosted and plain runs in one march, then both again on the 2N grid
        grids = []
        counting_march = experiments.march

        def recording_march(data, config, steps, eps=None):
            grids.append(config.geometry.points)
            return counting_march(data, config, steps, eps)

        monkeypatch.setattr(experiments, "march", recording_march)
        config = quick_config()
        run_galilean(BAND, config, boost_modes=(1,))
        assert marched_steps == [(2, config.n_steps), (2, config.n_steps)]
        assert grids == [(32,), (64,)]

    @pytest.mark.parametrize("case", GALILEAN_CASES)
    def test_self_error_budget_covers_the_discrepancy_fivefold(self, case):
        spec, config, modes = GALILEAN_CASES[case]
        report = run_galilean(spec, config, boost_modes=modes)
        assert report.passed
        assert report.margins["rel_discrepancy"] <= report.margins["budget"] / 5.0

    @pytest.mark.parametrize("amplitude", [1e100, 1.0, 1e-100])
    def test_budget_is_relative(self, amplitude):
        # the dt/8 budget was absolute: 3.6e97, 3.6e-3 and 1e-12 here
        spec = replace(GAUSSIAN, amplitude=amplitude)
        report = run_galilean(spec, quick_config(), boost_modes=(1,))
        assert report.passed
        assert report.margins["budget"] <= 1e-9

    def test_budget_sees_a_phase_off_by_1e_8(self, monkeypatch):
        # the config of acceptance check 06, whose dt/8 budget is 4.4e-5
        config = SimConfig(lam=1.0, eps=1e-3, dt=1e-3, t_final=1.0, geometry=torus(64))
        assert run_galilean(GAUSSIAN, config, boost_modes=(2,)).passed
        boost = experiments.galilean_boost

        def boost_off(field, modes, t):
            out = boost(field, modes, t)
            return Field(out.geometry, cmath.exp(1e-8j) * out.data) if t else out

        monkeypatch.setattr(experiments, "galilean_boost", boost_off)
        report = run_galilean(GAUSSIAN, config, boost_modes=(2,))
        assert report.margins["rel_discrepancy"] == pytest.approx(1e-8, rel=1e-3)
        assert report.margins["rel_discrepancy"] <= dt8_budget(GAUSSIAN, config)
        assert not report.passed

    @pytest.mark.parametrize("modes", [(1.5,), (math.nan,), (math.inf,)])
    def test_rejects_a_non_integral_boost_mode(self, modes):
        with pytest.raises(ValueError, match="boost_modes"):
            run_galilean(BAND, quick_config(), boost_modes=modes)

    def test_an_integral_float_mode_is_rejected_as_a_config_rejects_it(self):
        with pytest.raises(ValueError,
                           match=r"^experiment\.boost_modes: expected an integer, got 2\.0$"):
            run_galilean(BAND, quick_config(), boost_modes=(2.0,))

    @pytest.mark.parametrize("modes, lengths, accepted", [
        ((15,), (1.0,), True), ((16,), (1.0,), False), ((-16,), (1.0,), False),
        ((16,), (2.0,), True), ((10, 11), (1.0, 1.0), True), ((11, 11), (1.0, 1.0), False),
    ], ids=["15", "16", "-16", "16-over-length-2", "10x11", "11x11"])
    def test_boost_phase_rounding_is_bounded_by_the_budget_floor(self, modes, lengths,
                                                                 accepted):
        """2^-53 |v|^2 t_final <= 1e-12, i.e. |v|^2 t_final <= 9007.2: at t_final = 1,
        (2 pi 15)^2 = 8883 passes and (2 pi 16)^2 = 10106 does not."""
        geom = GridGeometry(DomainKind.PERIODIC_BOX, lengths, (8,) * len(modes))
        errors = []
        experiments.parse_params("galilean", {"boost_modes": list(modes)}, errors, geom,
                                 quick_config(geometry=geom, t_final=1.0))
        assert [e.split(" rounds by ")[0] for e in errors] == (
            [] if accepted else ["experiment.boost_modes: the boost phase |v|^2 t_final"])

    def test_rejects_dirichlet(self):
        geom = GridGeometry(DomainKind.DIRICHLET_INTERVAL, (1.0,), (32,))
        cfg = quick_config(geometry=geom)
        with pytest.raises(ValueError, match="^geometry.kind: experiment galilean needs a "
                                             "periodic geometry, got 'dirichlet_interval'$"):
            run_galilean(DatumSpec(kind="gaussian_bump", width=0.1), cfg, boost_modes=(1,))


class TestEpsCauchy:
    def test_consecutive_distances_decrease(self):
        ladder = [2.0**-k for k in range(2, 8)]
        report = run_eps_cauchy(GAUSSIAN, quick_config(), eps_sequence=ladder)
        assert report.margins["monotone"] == 1.0
        assert report.n_samples == len(ladder) - 1

    def test_identical_runs_at_lam_zero_degenerate_case(self):
        # without the nonlinearity every regularization gives the same run, so
        # every sup distance is 0: an exactly Cauchy ladder, as h1-approx's
        # identical truncations are
        config = quick_config(lam=0.0, geometry=torus(64))
        report = run_eps_cauchy(GAUSSIAN, config, eps_sequence=[0.25, 0.125, 0.0625])
        assert report.passed
        assert report.margins["monotone"] == 1.0
        assert report.margins["final"] == 0.0

    def test_a_single_eps_is_rejected(self):
        with pytest.raises(ValueError, match="at least 2 entries, got 1"):
            run_eps_cauchy(GAUSSIAN, quick_config(), eps_sequence=[0.1])


class TestH1Approximation:
    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            run_h1_approximation(BAND, quick_config(), cutoffs=[4.0])
        with pytest.raises(ValueError):
            run_h1_approximation(BAND, quick_config(), cutoffs=[8.0, 4.0])

    def test_rejects_a_vanishing_truncation(self):
        # only mode 1, so the truncations at 0 and 0.5 are roundoff
        wave = DatumSpec(kind="plane_wave", modes=(1,))
        with pytest.raises(ValueError, match="^cutoffs: the truncation at cutoff 0 vanishes"):
            run_h1_approximation(wave, quick_config(), cutoffs=[0.0, 0.5])

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


def orders(report):
    """The self-convergence orders of a convergence report, finest last."""
    return [v for k, v in report.margins.items() if k.startswith("order_dt=")]


# acceptance check 10's configs, the ladder the verify-1d workload runs too
CHECK_10 = dict(lam=1.0, eps=1e-2, dt=1e-3, t_final=1.0, geometry=torus(64))
CHECK_10_LADDER = [4e-3, 2e-3, 1e-3]
# a narrow datum over a short time: the first self orders are far from the
# asymptotic ones (Strang 6.593, 2.004, 2.638, 2.006, 2.034; Lie 3.898,
# 0.996, 0.996), and a slope fitted against a dt_min/8 reference FAILs both
NARROW_ORDERS = dict(lam=1.0, eps=1e-2, dt=1e-3, t_final=0.2, geometry=torus(64))


class TestConvergenceOrder:
    def test_ladder_validation(self):
        with pytest.raises(ValueError, match="at least 2 entries"):
            run_convergence_order(GAUSSIAN, quick_config(), dt_ladder=[1e-2])
        with pytest.raises(ValueError, match="strictly decreasing"):
            run_convergence_order(GAUSSIAN, quick_config(), dt_ladder=[1e-3, 1e-2])
        with pytest.raises(ValueError, match="rung -0.01: must be positive"):
            run_convergence_order(GAUSSIAN, quick_config(), dt_ladder=[1e-2, -1e-2])
        with pytest.raises(ValueError, match="rung 0.03: t_final is not an integer multiple"):
            run_convergence_order(GAUSSIAN, quick_config(), dt_ladder=[3e-2, 1e-2])

    def test_strang_is_second_order(self):
        cfg = quick_config(geometry=torus(64), t_final=0.4, dt=1e-2)
        report = run_convergence_order(GAUSSIAN, cfg, dt_ladder=[1e-2, 5e-3, 2.5e-3])
        assert report.passed
        assert report.margins["added_rungs"] == 3
        assert orders(report) == pytest.approx([1.901, 2.598, 2.010, 2.002], abs=1e-3)
        assert report.margins["order"] == orders(report)[-1]

    def test_lie_is_first_order(self):
        cfg = quick_config(geometry=torus(64), t_final=0.4, dt=1e-2, splitting="lie")
        report = run_convergence_order(GAUSSIAN, cfg, dt_ladder=[2e-2, 1e-2, 5e-3])
        assert report.passed
        assert report.margins["added_rungs"] == 1
        assert 0.8 <= report.margins["order"] <= 1.2

    def test_lie_judged_in_the_strang_band_fails(self, monkeypatch):
        # a config that claims Strang while every rung marches Lie
        monkeypatch.setattr(experiments, "final_state", lambda datum, config: final_state(
            datum, replace(config, splitting="lie")))
        report = run_convergence_order(GAUSSIAN, SimConfig(**CHECK_10),
                                       dt_ladder=CHECK_10_LADDER)
        assert not report.passed
        assert report.margins["added_rungs"] == experiments._MAX_ADDED_RUNGS == 4
        assert len(orders(report)) == 5
        assert all(0.98 <= p <= 1.01 for p in orders(report))

    @pytest.mark.parametrize("splitting, added", [("strang", 4), ("lie", 2)])
    def test_orders_far_from_asymptotic_pass_after_added_rungs(self, splitting, added):
        spec = DatumSpec(kind="gaussian_bump", width=0.12)
        cfg = SimConfig(**NARROW_ORDERS, splitting=splitting)
        report = run_convergence_order(spec, cfg, dt_ladder=CHECK_10_LADDER)
        assert report.passed
        assert report.margins["added_rungs"] == added
        assert orders(report)[0] > 3.5

    def test_a_two_rung_ladder_gets_two_orders(self):
        report = run_convergence_order(GAUSSIAN, quick_config(t_final=0.1),
                                       dt_ladder=[2e-2, 1e-2])
        assert report.passed
        assert report.margins["added_rungs"] >= 2
        assert len(orders(report)) >= 2
        assert len([k for k in report.margins if k.startswith("diff_dt=")]) == 3

    def test_plane_wave_is_the_exact_regime(self, marched_steps):
        spec = DatumSpec(kind="plane_wave", modes=(2,))
        report = run_convergence_order(spec, quick_config(t_final=0.4),
                                       dt_ladder=[1e-2, 5e-3, 2.5e-3])
        assert report.passed
        assert report.margins["exact_regime"] == 1.0
        assert report.margins["added_rungs"] == 0
        assert "order" not in report.margins
        assert orders(report) == []
        assert len(marched_steps) == 3

    def test_halvings_stop_at_the_step_limit(self, monkeypatch, marched_steps):
        # the rung of 20 steps fits under a limit of 20, the next one does not
        monkeypatch.setattr(integrator, "_MAX_STEPS", 20)  # the limit SimConfig enforces
        report = run_convergence_order(GAUSSIAN, quick_config(t_final=0.1),
                                       dt_ladder=[2e-2, 1e-2])
        assert not report.passed
        assert report.margins["added_rungs"] == 1
        assert [steps for _, steps in marched_steps] == [5, 10, 20]

    def test_check_10_strang_marches_four_rungs_and_no_reference(self, marched_steps):
        # one rung of dt_min / 2 is added; t_final = 1, so a run's steps are 1 / dt
        run_convergence_order(GAUSSIAN, SimConfig(**CHECK_10), dt_ladder=CHECK_10_LADDER)
        assert marched_steps == [(1, 250), (1, 500), (1, 1000), (1, 2000)]


class TestSelfOrder:
    @pytest.mark.parametrize("rungs", [[4e-3, 2e-3, 1e-3], [1e-2, 5e-3, 2.5e-3],
                                       [0.1, 0.03, 0.02], [3e-2, 2e-2, 1.5e-3]])
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 2.3, 4.0, -1.0])
    def test_recovers_the_order_of_synthetic_differences(self, rungs, p):
        # u_dt = u + C dt^p: the differences are C (a^p - b^p) and C (b^p - c^p),
        # which on the two halving ladders are proportional to a^p and b^p
        a, b, c = rungs
        ratio = (a**p - b**p) / (b**p - c**p)
        assert experiments._self_order(rungs, ratio) == pytest.approx(p, rel=1e-12)

    @pytest.mark.parametrize("ratio", [0.0, -1.0, math.inf, math.nan, 2.0**100, 2.0**-100])
    def test_a_ratio_without_a_root_gives_nan(self, ratio):
        assert math.isnan(experiments._self_order([4e-3, 2e-3, 1e-3], ratio))


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
