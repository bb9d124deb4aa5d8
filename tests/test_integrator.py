"""Splitting scheme mechanics: substeps, schedules, conservation, errors."""

import math
from dataclasses import replace

import numpy as np
import pytest

from logns import integrator, nonlinearity
from logns.data import DatumSpec, make_datum
from logns.diagnostics import l2_distance, mass
from logns.geometry import (
    DomainKind,
    Field,
    GeometryError,
    GridGeometry,
    odd_extension,
    restrict_to_half,
)
from logns.integrator import (
    IntegrationError,
    SimConfig,
    eps_continuation,
    evolve,
    evolve_pair,
    final_state,
    march,
    samples,
    step,
)
from logns.spectral import free_propagator, free_symbol


def torus(n=64):
    return GridGeometry(DomainKind.TORUS, (1.0,), (n,))


def interval(n=64):
    return GridGeometry(DomainKind.DIRICHLET_INTERVAL, (1.0,), (n,))


def config(geom=None, **kw):
    base = dict(lam=1.0, eps=1e-2, dt=1e-2, t_final=0.1, geometry=geom or torus())
    base.update(kw)
    return SimConfig(**base)


def random_field(geom, seed=0):
    rng = np.random.default_rng(seed)
    return Field(geom, rng.standard_normal(geom.points) + 1j * rng.standard_normal(geom.points))


class TestSimConfigValidation:
    def test_rejects_negative_eps(self):
        with pytest.raises(ValueError):
            config(eps=-1.0)

    def test_rejects_zero_dt(self):
        with pytest.raises(ValueError):
            config(dt=0.0)

    def test_rejects_sign_mismatch(self):
        with pytest.raises(ValueError):
            config(dt=-1e-2, t_final=0.1)

    def test_backward_in_time_is_allowed(self):
        cfg = config(dt=-1e-2, t_final=-0.1)
        assert cfg.n_steps == 10

    def test_rejects_dt_larger_than_horizon(self):
        with pytest.raises(ValueError):
            config(dt=0.2, t_final=0.1)

    def test_rejects_unknown_splitting(self):
        with pytest.raises(ValueError):
            config(splitting="yoshida")

    def test_rejects_bad_hs_exponent(self):
        with pytest.raises(ValueError):
            config(hs_values=(1.5,))

    def test_rejects_step_count_blowup(self):
        with pytest.raises(ValueError):
            config(dt=1e-9, t_final=1e3)

    def test_n_steps_requires_integer_multiple(self):
        with pytest.raises(ValueError):
            config(dt=3e-2, t_final=0.1).n_steps
        assert config(dt=1e-2, t_final=0.1).n_steps == 10


class TestStep:
    def test_constant_field_closed_form(self):
        # free flow is trivial on a constant, leaving one full phase rotation
        geom = torus()
        c = 0.8 + 0.1j
        cfg = config(geom)
        out = step(Field(geom, np.full(64, c)), cfg)
        expected = c * np.exp(2j * cfg.lam * cfg.dt * math.log(abs(c) + cfg.eps))
        np.testing.assert_allclose(out.data, np.full(64, expected), atol=1e-13)

    def test_lie_and_strang_agree_on_constants(self):
        geom = torus()
        f = Field(geom, np.full(64, 0.5 + 0.5j))
        a = step(f, config(geom, splitting="strang"))
        b = step(f, config(geom, splitting="lie"))
        np.testing.assert_allclose(a.data, b.data, atol=1e-13)

    def test_geometry_mismatch(self):
        with pytest.raises(GeometryError):
            step(random_field(torus(32)), config(torus(64)))

    @pytest.mark.parametrize("splitting", ["lie", "strang"])
    def test_mass_conserved_per_step(self, splitting):
        f = random_field(torus(), seed=3)
        out = step(f, config(splitting=splitting))
        assert mass(out) == pytest.approx(mass(f), rel=1e-13)


class TestEvolve:
    def test_record_schedule(self):
        traj = evolve(random_field(torus(32)), config(torus(32), record_every=3))
        # t = 0, steps 3, 6, 9, and the final step 10
        times = [rec.time for rec in traj.records]
        np.testing.assert_allclose(times, [0.0, 0.03, 0.06, 0.09, 0.10])

    def test_snapshot_schedule(self):
        traj = evolve(random_field(torus(32)), config(torus(32), snapshot_every=5))
        assert [t for t, _ in traj.snapshots] == [0.0, 0.05, 0.1]

    def test_samples_take_records_and_snapshots_on_their_own_schedules(self):
        f = random_field(torus(32))
        cfg = config(torus(32), record_every=3, snapshot_every=5)
        taken = [(round(t, 12), record is not None, snapshot is not None)
                 for t, record, snapshot in samples(f, cfg)]
        assert taken == [(0.0, True, True), (0.03, True, False), (0.05, False, True),
                         (0.06, True, False), (0.09, True, False), (0.1, True, True)]

    def test_no_snapshots_by_default(self):
        traj = evolve(random_field(torus(32)), config(torus(32)))
        assert traj.snapshots == []

    def test_deterministic(self):
        f = random_field(torus(), seed=9)
        a = evolve(f, config(snapshot_every=1))
        b = evolve(f, config(snapshot_every=1))
        assert np.array_equal(a.snapshots[-1][1].data, b.snapshots[-1][1].data)

    def test_rejects_non_finite_datum(self):
        data = np.ones(64, dtype=complex)
        data[5] = np.nan
        with pytest.raises(IntegrationError) as info:
            evolve(Field(torus(), data), config())
        assert (info.value.step, info.value.time, info.value.run) == (None, None, None)

    def test_non_finite_abort_names_the_step(self):
        data = np.ones(64, dtype=complex)
        data[3] = 1e308  # finite, but its record's mass |u|^2 overflows
        with pytest.raises(IntegrationError, match="step 0") as info:
            evolve(Field(torus(), data), config())
        assert (info.value.step, info.value.time, info.value.run) == (0, 0.0, 0)
        assert str(info.value) == "non-finite record at step 0 (t=0): mass inf, energy nan"

    def test_tracked_hs_norms_recorded(self):
        traj = evolve(random_field(torus(32)), config(torus(32), hs_values=(0.25, 0.5)))
        assert set(traj.records[0].hs_norms) == {0.25, 0.5}

    def test_dirichlet_run_keeps_boundary_zero(self):
        geom = GridGeometry(DomainKind.DIRICHLET_INTERVAL, (1.0,), (64,))
        x = geom.axis_coordinates(0)
        f = Field(geom, np.sin(2 * math.pi * x) + 0.5 * np.sin(5 * math.pi * x))
        final = final_state(f, config(geom))
        assert abs(final.data[0]) < 1e-13
        assert mass(final) == pytest.approx(mass(f), rel=1e-12)

    def test_forward_backward_round_trip(self):
        f = random_field(torus(), seed=13)
        fwd = final_state(f, config(t_final=0.1))
        back = final_state(fwd, config(dt=-1e-2, t_final=-0.1))
        assert l2_distance(back, f) < 1e-12


def dirichlet_datum(geom):
    return make_datum(DatumSpec(kind="random_band_limited", cutoff=8.0, seed=5), geom)


class TestMarch:
    def test_yields_at_requested_steps(self):
        f = random_field(torus(32))
        cfg = config(torus(32))
        samples = list(march([f], cfg, [0, 3, 4, 10]))
        assert [t for t, _ in samples] == [0.0, 3 * cfg.dt, 4 * cfg.dt, 10 * cfg.dt]
        assert np.array_equal(samples[0][1][0].data, f.data)

    def test_stops_at_last_requested_step(self):
        f = random_field(torus(32))
        [(t, [u])] = march([f], config(torus(32)), [4])
        assert np.array_equal(u.data, final_state(f, config(torus(32), t_final=0.04)).data)

    @pytest.mark.parametrize("steps", [[3, 2], [11]])
    def test_rejects_steps_off_the_run(self, steps):
        with pytest.raises(ValueError):
            list(march([random_field(torus(32))], config(torus(32)), steps))

    def test_samples_are_independent_copies(self):
        f = random_field(torus(32))
        samples = list(march([f], config(torus(32), splitting="lie"), range(11)))
        samples[3][1][0].data[:] = 0.0
        again = list(march([f], config(torus(32), splitting="lie"), range(11)))
        assert np.array_equal(samples[-1][1][0].data, again[-1][1][0].data)


class TestFinalState:
    def test_matches_evolve_endpoint(self):
        f = random_field(torus(), seed=4)
        traj = evolve(f, config(snapshot_every=1))
        end = final_state(f, config())
        assert np.array_equal(end.data, traj.snapshots[-1][1].data)

    @pytest.mark.parametrize("splitting", ["lie", "strang"])
    @pytest.mark.parametrize("geometry", ["torus", "dirichlet_interval"])
    def test_schedule_independent_bitwise(self, splitting, geometry):
        geom = torus() if geometry == "torus" else interval()
        f = random_field(geom, seed=6) if geometry == "torus" else dirichlet_datum(geom)
        base = config(geom, splitting=splitting, t_final=0.2)
        end = final_state(f, base).data
        for record_every in (1, 7):
            cfg = replace(base, record_every=record_every, snapshot_every=5)
            assert np.array_equal(evolve(f, cfg).snapshots[-1][1].data, end)
            assert np.array_equal(list(march([f], cfg, cfg.record_steps))[-1][1][0].data, end)
        assert np.array_equal(list(march([f], base, range(21)))[-1][1][0].data, end)


def per_step_dirichlet_reference(datum, cfg):
    """Odd-extend, propagate and restrict on every step; yields every state."""
    def rotate(u, tau):
        phase = np.empty_like(u.data)
        nonlinearity.phase_flow(np.abs(u.data), 2.0 * cfg.lam * tau, cfg.eps, phase, u.data.size)
        return Field(u.geometry, u.data * phase)

    def free(u):
        extended = odd_extension(u)
        free_propagator(extended.data, free_symbol(extended.geometry, cfg.dt))
        return restrict_to_half(extended)

    u = datum
    yield u
    for _ in range(cfg.n_steps):
        if cfg.splitting == "strang":
            u = rotate(free(rotate(u, cfg.dt / 2.0)), cfg.dt / 2.0)
        else:
            u = free(rotate(u, cfg.dt))
        yield u


DIRICHLET_GEOMETRIES = {
    "interval": interval(128),
    "slab": GridGeometry(DomainKind.DIRICHLET_SLAB, (1.0, 2.0), (16, 32)),
    "slab3d": GridGeometry(DomainKind.DIRICHLET_SLAB, (1.0, 1.0, 1.0), (16, 8, 16)),
}


class TestDirichletOnDoubledGrid:
    """The half-grid phase and the restricted closing rotation against the
    per-step odd-extend, propagate and restrict reference, in every dimension;
    eps = 0 takes the masked log."""

    @pytest.mark.parametrize(
        "geom, splitting, eps",
        [pytest.param(geom, splitting, eps, id=f"{name}-{splitting}{'-eps0' if eps == 0 else ''}")
         for name, geom in DIRICHLET_GEOMETRIES.items()
         for eps in (1e-3, 0.0) for splitting in ("lie", "strang")],
    )
    def test_matches_per_step_reference(self, geom, splitting, eps):
        datum = dirichlet_datum(geom)
        cfg = config(geom, splitting=splitting, dt=1e-3, t_final=0.1, lam=-1.0, eps=eps)
        scale = math.sqrt(mass(datum))
        for (t, [u]), ref in zip(march([datum], cfg, range(cfg.n_steps + 1)),
                               per_step_dirichlet_reference(datum, cfg)):
            assert u.geometry == geom
            assert not np.any(u.data[..., 0])
            assert l2_distance(u, ref) <= 1e-12 * scale, t


BATCH_GEOMETRIES = {
    "torus": torus(64),
    "box": GridGeometry(DomainKind.PERIODIC_BOX, (1.0, 0.5), (32, 16)),
    "box32": GridGeometry(DomainKind.PERIODIC_BOX, (1.0, 1.0), (32, 32)),  # the size floor
    "torus3d": GridGeometry(DomainKind.TORUS, (1.0, 1.0, 1.0), (16, 16, 16)),
    "interval": interval(64),
    "slab": GridGeometry(DomainKind.DIRICHLET_SLAB, (1.0, 1.0), (16, 16)),
}


class TestBatchedMarch:
    @pytest.mark.parametrize("splitting", ["lie", "strang"])
    @pytest.mark.parametrize("name", list(BATCH_GEOMETRIES))
    def test_each_member_equals_its_own_march_bitwise(self, name, splitting):
        geom = BATCH_GEOMETRIES[name]
        data = [make_datum(DatumSpec(kind="random_band_limited", cutoff=4.0, seed=k), geom)
                for k in range(3)]
        eps = [0.1, 0.0, 1e-3]
        cfg = config(geom, splitting=splitting, dt=1e-3, t_final=0.01)
        steps = [0, 1, 4, 10]
        batched = list(march(data, cfg, steps, eps))
        for k, (datum, e) in enumerate(zip(data, eps)):
            alone = list(march([datum], replace(cfg, eps=e), steps))
            for (t, fields), (t_alone, [u]) in zip(batched, alone):
                assert t == t_alone
                assert fields[k].geometry == geom
                assert np.array_equal(fields[k].data, u.data), (k, t)

    def test_zero_samples_stay_finite_at_eps_zero(self):
        geom = torus(32)
        data = np.exp(2j * math.pi * geom.axis_coordinates(0))
        data[::4] = 0.0
        f = Field(geom, data)
        [(_, [end])] = march([f], config(geom, eps=0.0), [10])
        assert np.all(np.isfinite(end.data))
        assert mass(end) == pytest.approx(mass(f), rel=1e-13)

    @pytest.mark.parametrize("geom", [torus(), interval()], ids=["torus", "interval"])
    def test_non_finite_member_names_its_index_and_step(self, geom):
        good = random_field(geom, seed=1)
        if geom.is_dirichlet:
            good.data[0] = 0.0  # the boundary sample
        data = np.ones(64, dtype=complex)
        data[3] = 1e308
        with pytest.raises(IntegrationError, match=r"step 1 .*run 1 of 2") as info:
            list(march([good, Field(geom, data)], config(geom), [10]))
        assert (info.value.step, info.value.time, info.value.run) == (1, config().dt, 1)

    @pytest.mark.parametrize("eps", [[0.1], [0.1, -1.0], [0.1, math.nan], [0.1, math.inf]])
    def test_rejects_bad_member_eps(self, eps):
        data = [random_field(torus(32), seed=k) for k in range(2)]
        with pytest.raises(ValueError, match="one eps per run" if len(eps) == 1 else
                           "eps must be >= 0"):
            list(march(data, config(torus(32)), [1], eps))


class TestHalfAnglePhase:
    """The half-angle phase (lam = 1, dt = 1e-3, at least 1024 points per run)
    against the cos/sin phase, forced by raising the size floor."""

    @pytest.mark.parametrize("geom", [
        GridGeometry(DomainKind.TORUS, (1.0, 1.0), (64, 64)),
        GridGeometry(DomainKind.TORUS, (1.0, 1.0, 1.0), (16, 16, 16)),
        GridGeometry(DomainKind.DIRICHLET_SLAB, (1.0, 1.0), (32, 32)),
        interval(4096),
    ], ids=["torus64x64", "torus16x16x16", "slab32x32", "interval4096"])
    def test_matches_the_cos_sin_path(self, geom, monkeypatch):
        datum = make_datum(DatumSpec(kind="random_band_limited", cutoff=8.0, seed=2), geom)
        cfg = config(geom, dt=1e-3, t_final=0.05, eps=1e-3)
        end = final_state(datum, cfg)
        monkeypatch.setattr(nonlinearity, "_HALF_ANGLE_MIN_POINTS", math.inf)
        reference = final_state(datum, cfg)
        assert not np.array_equal(end.data, reference.data)  # the half-angle path ran
        assert l2_distance(end, reference) <= 1e-13 * math.sqrt(mass(reference))
        assert mass(end) == pytest.approx(mass(datum), rel=1e-13)


class TestFiniteCheck:
    """The state a step leaves is checked before the next rotation or the
    next sample, whichever comes first: through the max of the rotation's
    |u| on periodic grids, the sum of the state on Dirichlet grids and at
    every sample, and in full only where that reduction is not finite. Either
    way the error names the step that went
    non-finite and the run's largest finite |u| after it. The steps hold
    numpy's overflow and invalid warnings, so these tests need no warning
    filter under the suite's warnings-as-errors."""

    @pytest.mark.filterwarnings("error")  # no overflow warning on the way
    def test_an_overflow_is_an_integration_error_not_a_warning(self):
        data = np.ones(64, dtype=complex)
        data[3] = 1e308
        with pytest.raises(IntegrationError, match=r"^non-finite sample at step 1 \(") as info:
            list(march([Field(torus(), data)], config(), [10]))
        assert info.value.step == 1

    @pytest.mark.parametrize("steps", [[1], [10]])
    @pytest.mark.parametrize("splitting", ["lie", "strang"])
    @pytest.mark.parametrize("geometry, big, finite_max", [
        ("torus", 1e308, {"lie": "2.81277e+306", "strang": "2.81277e+306"}),
        ("torus", 1.5e308 + 1.5e308j, {"lie": "0", "strang": "0"}),  # |u| overflows
        ("interval", 1e308, {"lie": "0", "strang": "0"}),
        ("slab", 2e307, {"lie": "1.79767e+306", "strang": "1.79767e+306"}),  # in part
    ])
    def test_names_the_step_that_went_non_finite(self, geometry, big, finite_max, splitting,
                                                   steps):
        geom = {"torus": torus(), "interval": interval(),
                "slab": GridGeometry(DomainKind.DIRICHLET_SLAB, (1.0, 1.0), (16, 16))}[geometry]
        data = np.ones(geom.points, dtype=complex)
        data[(3,) * geom.dim] = big
        with pytest.raises(IntegrationError) as info:
            list(march([Field(geom, data)], config(geom, splitting=splitting), steps))
        assert str(info.value) == ("non-finite sample at step 1 (t=0.01) in run 0 of 1; "
                                   f"max finite |u| = {finite_max[splitting]}")
        assert (info.value.step, info.value.time, info.value.run) == (1, 0.01, 0)

    @pytest.mark.parametrize("plane", ["n+1", "2n-1"])
    @pytest.mark.parametrize("geometry", ["interval", "slab"])
    def test_a_non_finite_mirrored_sample_names_its_step(self, geometry, plane, monkeypatch):
        # on Dirichlet grids |u| covers planes 0..n only, so planes n+1..2n-1
        # are seen by the sum of the whole state
        geom = {"interval": interval(),
                "slab": GridGeometry(DomainKind.DIRICHLET_SLAB, (1.0, 1.0), (16, 16))}[geometry]
        n = geom.points[-1]
        j = n + 1 if plane == "n+1" else 2 * n - 1
        calls = []

        def propagate(state, symbol):
            integrator_propagate(state, symbol)
            calls.append(len(calls) + 1)
            if len(calls) == 2:  # the state step 2 leaves
                state[(0,) * (state.ndim - 1) + (j,)] = math.nan

        integrator_propagate = integrator.free_propagator
        monkeypatch.setattr(integrator, "free_propagator", propagate)
        datum = make_datum(DatumSpec(kind="gaussian_bump", width=0.1), geom)
        with pytest.raises(IntegrationError, match=r"^non-finite sample at step 2 \(t=0.02\) "
                                                   r"in run 0 of 1; ") as info:
            list(march([datum], config(geom), [10]))
        assert (info.value.step, info.value.run) == (2, 0)
        assert calls == [1, 2]

    @pytest.mark.parametrize("geometry", ["torus", "interval"])
    def test_an_overflow_of_the_closing_rotation_names_its_step(self, geometry, monkeypatch):
        # step 1 leaves finite samples whose modulus overflows (on the interval,
        # an odd state); Strang's closing half-rotation of the sample turns them
        # nan, which the check of the rotated sample reports as step 1
        geom = {"torus": torus(), "interval": interval()}[geometry]
        big = 1.3e308 + 1.3e308j

        def propagate(state, symbol):
            state[...] = big
            if geom.is_dirichlet:
                n = geom.points[-1]
                state[..., 0] = state[..., n] = 0.0
                state[..., n + 1 :] = -big

        monkeypatch.setattr(integrator, "free_propagator", propagate)
        datum = make_datum(DatumSpec(kind="gaussian_bump", width=0.1), geom)
        with pytest.raises(IntegrationError, match=r"^non-finite sample at step 1 \(t=0.01\) "
                                                   r"in run 0 of 1; ") as info:
            list(march([datum], config(geom), [1]))
        assert (info.value.step, info.value.time, info.value.run) == (1, 0.01, 0)

    def test_a_sample_that_is_not_odd_names_its_step_and_run(self, monkeypatch):
        # an even perturbation of run 1 alone, in the state step 3 leaves
        geom = interval()
        n = geom.points[-1]
        calls = []

        def propagate(state, symbol):
            integrator_propagate(state, symbol)
            calls.append(len(calls) + 1)
            if len(calls) == 3:
                state[1, n - 5] += 1e-3
                state[1, n + 5] += 1e-3

        integrator_propagate = integrator.free_propagator
        monkeypatch.setattr(integrator, "free_propagator", propagate)
        datum = make_datum(DatumSpec(kind="gaussian_bump", width=0.1), geom)
        sampled = []
        with pytest.raises(IntegrationError, match=r"^sample at step 3 \(t=0.03\) in run 1 of 2 "
                                                   r"is not antisymmetric in the last axis "
                                                   r"\(residual 2.000e-03\)$") as info:
            for t, _ in march([datum, datum], config(geom), range(11)):
                sampled.append(t)
        assert (info.value.step, info.value.time, info.value.run) == (3, 0.03, 1)
        assert sampled == [0.0, 0.01, 0.02]

    def test_a_finite_state_whose_sum_overflows_does_not_raise(self, monkeypatch):
        # the transform of such a state overflows too, so the free flow is the
        # identity here: each interior sample keeps |u| = 1.4e307 and a phase
        # near 0, and the sum of the first half of the state overflows
        checked = []

        def check_finite(state, i, dt):
            check(state, i, dt)
            checked.append(i)

        check = integrator._check_finite
        monkeypatch.setattr(integrator, "_check_finite", check_finite)
        monkeypatch.setattr(integrator, "free_propagator", lambda state, symbol: None)
        geom = interval()
        data = np.full(geom.points, 1e307 + 1e307j)
        data[0] = 0.0
        [(_, [end])] = march([Field(geom, data)], config(geom, lam=1e-4), [10])
        # the full scan ran after every step, and on the closing half-rotation's
        # sample at step 10, and passed
        assert checked == [*range(1, 11), 10]
        assert np.all(np.isfinite(end.data))


class TestAlignedBuffers:
    """The state, |u| and phase buffers of a step and the cached free symbol
    start on 64-byte boundaries, in 1, 2 and 3 dimensions and on the doubled
    grid of a Dirichlet slab."""

    @pytest.mark.parametrize("geom", [
        torus(64),
        GridGeometry(DomainKind.TORUS, (1.0, 1.0), (256, 256)),
        GridGeometry(DomainKind.DIRICHLET_SLAB, (1.0, 1.0), (32, 32)),
        GridGeometry(DomainKind.TORUS, (1.0, 1.0, 1.0), (16, 16, 16)),
    ], ids=["torus64", "torus256x256", "slab32x32", "torus16x16x16"])
    def test_step_arrays_start_on_64_byte_boundaries(self, geom, monkeypatch):
        seen = {}

        def phase_flow(modulus, coeff, eps, phase, *rest):
            seen.setdefault("modulus", []).append(modulus)
            seen.setdefault("phase", []).append(phase)
            rotation(modulus, coeff, eps, phase, *rest)

        def propagate(state, symbol):
            seen.setdefault("state", []).append(state)
            seen.setdefault("symbol", []).append(symbol)
            transform(state, symbol)

        rotation, transform = integrator.phase_flow, integrator.free_propagator
        monkeypatch.setattr(integrator, "phase_flow", phase_flow)
        monkeypatch.setattr(integrator, "free_propagator", propagate)
        datum = make_datum(DatumSpec(kind="gaussian_bump", width=0.1), geom)
        list(march([datum, datum], config(geom, dt=1e-3, t_final=2e-3), [1, 2]))
        assert set(seen) == {"modulus", "phase", "state", "symbol"}
        for name, arrays in seen.items():
            assert all(a.__array_interface__["data"][0] % 64 == 0 for a in arrays), name


class TestEvolvePair:
    def test_distance_series(self):
        a = random_field(torus(32), seed=1)
        b = random_field(torus(32), seed=2)
        distances = evolve_pair(a, b, config(torus(32)))
        assert len(distances) == 11
        assert distances[0][1] == pytest.approx(l2_distance(a, b), rel=1e-13)

    def test_rejects_geometry_mismatch(self):
        with pytest.raises(GeometryError):
            evolve_pair(random_field(torus(32)), random_field(torus(64)), config(torus(32)))


class TestEpsContinuation:
    @pytest.mark.parametrize("ladder", [[], [0.25]])
    def test_rejects_fewer_than_two(self, ladder):
        f = random_field(torus(32))
        with pytest.raises(ValueError, match=f"at least 2 entries, got {len(ladder)}"):
            eps_continuation(f, config(torus(32)), ladder)

    def test_rejects_non_decreasing(self):
        f = random_field(torus(32))
        with pytest.raises(ValueError):
            eps_continuation(f, config(torus(32)), [0.25, 0.25])

    def test_rejects_nonpositive(self):
        f = random_field(torus(32))
        with pytest.raises(ValueError):
            eps_continuation(f, config(torus(32)), [0.25, 0.0])

    def test_pairs_and_labels(self):
        f = random_field(torus(32))
        out = eps_continuation(f, config(torus(32)), [0.25, 0.125, 0.0625])
        assert [pair for pair, _ in out] == [(0.25, 0.125), (0.125, 0.0625)]
        assert all(d >= 0.0 for _, d in out)

    def test_streams_without_holding_samples(self, peak_traced_bytes):
        # 11 runs x 101 samples of a 64^2 field would hold 72 MB if kept
        geom = GridGeometry(DomainKind.TORUS, (1.0, 1.0), (64, 64))
        f = make_datum(DatumSpec(kind="gaussian_bump", width=0.1), geom)
        cfg = SimConfig(lam=1.0, eps=1e-2, dt=1e-3, t_final=0.1, geometry=geom)
        out, peak = peak_traced_bytes(eps_continuation, f, cfg, [2.0**-k for k in range(2, 13)])
        assert len(out) == 10
        assert peak < 10 * 2**20
