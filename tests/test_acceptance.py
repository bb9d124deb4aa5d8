"""Acceptance suite: one check per guaranteed property, one verdict line each.

Each test prints "[ k/11] <label>: PASS|FAIL"; the conftest replays the
collected lines in the terminal summary so they survive pytest capture.
Tolerances and pinned regression constants are fixed; see logns.constants.
"""

import math
import time

import numpy as np
import pytest

from logns import constants
from logns.cli import main
from logns.data import DatumSpec, make_datum
from logns.diagnostics import l2_distance, mass, measure
from logns.experiments import (
    run_convergence_order,
    run_eps_cauchy,
    run_galilean,
    run_hs_growth,
    run_lipschitz,
    run_scaling_invariance,
)
from logns.geometry import DomainKind, Field, GridGeometry
from logns.integrator import SimConfig, evolve, final_state
from logns.io import read_snapshot, write_snapshot


VERDICT_LINES: list[str] = []


def _verdict(index: int, label: str, ok: bool) -> None:
    line = f"[{index:2d}/11] {label}: {'PASS' if ok else 'FAIL'}"
    VERDICT_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def torus(n):
    return GridGeometry(DomainKind.TORUS, (1.0,), (n,))


def test_01_monotonicity_inequality_suite(capsys):
    """`logns check-inequality` passes 10^6 random tuples for each case, with
    and without regularization."""
    start = time.monotonic()
    code = main(["check-inequality", "--samples", "1000000", "--seed", "20240817"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out.splitlines()
    ok = code == 0 and "samples per case : 1000000" in out and elapsed < 5.0
    ok &= "non-finite       : 0 (gap or bound; 0 passes)" in out
    _verdict(1, "pointwise monotonicity inequality (2 x 1e6 tuples)", ok)


def test_02_plane_wave_phase_oracle():
    """Single-mode datum evolves by a pure phase; closed-form comparison."""
    geom = torus(64)
    amp, mode, lam, eps, dt, t_final = 0.5, 3, 1.0, 1e-2, 1e-3, 1.0
    datum = make_datum(DatumSpec(kind="plane_wave", modes=(mode,), amplitude=amp), geom)
    cfg = SimConfig(lam=lam, eps=eps, dt=dt, t_final=t_final, geometry=geom)
    out = final_state(datum, cfg)
    theta_rate = -4.0 * math.pi**2 * mode**2 + 2.0 * lam * math.log(amp + eps)
    exact = Field(geom, datum.data * np.exp(1j * theta_rate * t_final))
    rel_err = l2_distance(out, exact) / math.sqrt(mass(exact))
    _verdict(2, f"plane-wave phase oracle (rel err {rel_err:.2e} <= 1e-8)", rel_err <= 1e-8)


def test_03_lipschitz_flow_bound():
    """20 random datum pairs obey |u-v| <= e^{2|lam|t} |u0-v0| at >= 100 samples."""
    geom = torus(128)
    start = time.monotonic()
    worst = 0.0
    ok = True
    for k in range(20):
        lam = -1.0 if k % 2 else 1.0
        if k % 4 < 2:
            spec_a = DatumSpec(kind="gaussian_bump", width=0.05 + 0.01 * k,
                               center=(0.3 + 0.02 * k,))
            spec_b = DatumSpec(kind="gaussian_bump", width=0.06 + 0.01 * k,
                               center=(0.6 - 0.01 * k,), amplitude=0.8)
        else:
            spec_a = DatumSpec(kind="random_band_limited", cutoff=16.0, seed=100 + k)
            spec_b = DatumSpec(kind="random_band_limited", cutoff=24.0, seed=200 + k)
        cfg = SimConfig(lam=lam, eps=1e-3, dt=1e-3, t_final=1.0, geometry=geom,
                        record_every=10)
        report = run_lipschitz(spec_a, cfg, datum_b=spec_b)
        ok &= report.passed and report.n_samples >= 100
        worst = max(worst, report.margins["worst_ratio"])
    elapsed = time.monotonic() - start
    ok &= worst <= 1.0 + 1e-6
    ok &= elapsed < 60.0
    _verdict(3, f"L2 Lipschitz envelope (worst ratio {worst:.9f}, {elapsed:.1f}s)", ok)


def test_04_hs_growth_bound():
    """Squared H^s norms, multiplier and Gagliardo, stay under e^{4|lam|t} at
    every record, torus and Dirichlet interval."""
    start = time.monotonic()
    ok = True
    worst = 0.0
    spec = DatumSpec(kind="random_rough", target_s=0.5, seed=11)
    geometries = [
        torus(128),
        GridGeometry(DomainKind.DIRICHLET_INTERVAL, (1.0,), (128,)),
    ]
    for geom in geometries:
        cfg = SimConfig(lam=1.0, eps=1e-3, dt=1e-3, t_final=1.0, geometry=geom,
                        record_every=10, hs_values=(0.25, 0.5))
        report = run_hs_growth(spec, cfg)
        ok &= report.passed
        # every margin is a worst envelope ratio, multiplier or Gagliardo
        worst = max(worst, *report.margins.values())
    elapsed = time.monotonic() - start
    ok &= worst <= 1.0 + 1e-6
    ok &= elapsed < 60.0
    _verdict(4, f"H^s growth envelope (worst ratio {worst:.9f}, {elapsed:.1f}s)", ok)


def test_05_scaling_invariance():
    """z phi evolves to z u e^{i lam t ln|z|^2} within the roundoff budget."""
    geom = torus(64)
    spec = DatumSpec(kind="gaussian_bump", width=0.25)
    ok = True
    worst = 0.0
    for z in (2.0, 1.0 / 3.0, 1.0 + 1.0j):
        cfg = SimConfig(lam=1.0, eps=0.0, dt=1e-3, t_final=1.0, geometry=geom,
                        record_every=50)
        report = run_scaling_invariance(spec, cfg, z=z)
        ok &= report.passed
        worst = max(worst, report.margins["max_rel_err"])
    _verdict(5, f"scaling invariance (max rel err {worst:.2e})", ok)


def test_06_galilean_covariance():
    """Boost-then-evolve matches evolve-then-boost within the self-error budget."""
    geom = torus(64)
    spec = DatumSpec(kind="gaussian_bump", width=0.25)
    ok = True
    worst = 0.0
    for modes in ((1,), (2,)):
        cfg = SimConfig(lam=1.0, eps=1e-3, dt=1e-3, t_final=1.0, geometry=geom)
        report = run_galilean(spec, cfg, boost_modes=modes)
        ok &= report.passed
        worst = max(worst, report.margins["rel_discrepancy"])
    _verdict(6, f"Galilean covariance (max discrepancy {worst:.2e})", ok)


def test_07_mass_and_energy_conservation():
    """Mass drift at roundoff over 1e4 steps; energy drift scales like dt^2."""
    geom = torus(64)
    datum = make_datum(DatumSpec(kind="gaussian_bump", width=0.25), geom)

    cfg = SimConfig(lam=1.0, eps=1e-2, dt=1e-4, t_final=1.0, geometry=geom,
                    record_every=10000)
    traj = evolve(datum, cfg)
    m0 = traj.records[0].mass
    mass_drift = max(abs(rec.mass - m0) for rec in traj.records) / m0
    ok = mass_drift <= 1e-11

    def energy_drift(dt):
        c = SimConfig(lam=1.0, eps=1e-2, dt=dt, t_final=1.0, geometry=geom,
                      record_every=max(1, round(0.05 / dt)))
        recs = evolve(datum, c).records
        return max(abs(r.energy - recs[0].energy) for r in recs)

    factor = energy_drift(1e-3) / energy_drift(5e-4)
    ok &= 3.0 <= factor <= 5.0
    _verdict(
        7,
        f"conservation (mass drift {mass_drift:.2e}, energy dt-halving x{factor:.2f})",
        ok,
    )


def test_08_norm_equivalence():
    """Gagliardo/multiplier ratio on 1e3 band-limited fields stays in pinned bands."""
    geom = torus(256)
    cutoffs = (8.0, 16.0, 32.0, 64.0, 96.0)
    exponents = (0.25, 0.5, 0.75)
    start = time.monotonic()
    lo_seen = {s: math.inf for s in exponents}
    hi_seen = {s: 0.0 for s in exponents}
    for seed in range(1000):
        spec = DatumSpec(kind="random_band_limited", cutoff=cutoffs[seed % 5], seed=seed)
        # one record: both norms at every s from one spectrum
        record = measure(make_datum(spec, geom), 0.0, 1.0, 0.0, exponents, exponents)
        for s in exponents:
            ratio = record.gagliardo_norms[s] / record.hs_norms[s]
            lo_seen[s] = min(lo_seen[s], ratio)
            hi_seen[s] = max(hi_seen[s], ratio)
    elapsed = time.monotonic() - start
    ok = elapsed < 120.0
    for s, (lo, hi) in constants.GAGLIARDO_MULTIPLIER_RATIO.items():
        ok &= lo > 0.0  # the interval itself certifies equivalence from below
        ok &= lo <= lo_seen[s] and hi_seen[s] <= hi
    spread = ", ".join(
        f"s={s:g}: [{lo_seen[s]:.3f}, {hi_seen[s]:.3f}]" for s in sorted(lo_seen)
    )
    _verdict(8, f"norm equivalence ({spread}, {elapsed:.1f}s)", ok)


def test_09_eps_cauchy_ladder():
    """Dyadic regularization ladder: consecutive sup-distances shrink."""
    geom = torus(128)
    spec = DatumSpec(kind="gaussian_bump", width=0.08)
    cfg = SimConfig(lam=1.0, eps=1e-2, dt=1e-3, t_final=1.0, geometry=geom,
                    record_every=10)
    ladder = [2.0**-k for k in range(2, 13)]
    report = run_eps_cauchy(spec, cfg, eps_sequence=ladder)
    final_rel = report.margins["final"] / math.sqrt(mass(make_datum(spec, geom)))
    ok = report.passed and report.margins["monotone"] == 1.0
    ok &= final_rel <= constants.EPS_CAUCHY_FINAL_MAX
    _verdict(9, f"eps-Cauchy ladder (final rel dist {final_rel:.2e})", ok)


def splitting_orders_verdict(reports):
    """Check 10's label and verdict on one convergence report per splitting:
    Strang's last order in [1.7, 2.3], Lie's in [0.8, 1.2]. A ladder in the
    exact regime, as a linear run's is, judges no order and has no `order`
    margin: it fails, labelled `<splitting> exact-regime`."""
    bands = {"strang": (1.7, 2.3), "lie": (0.8, 1.2)}
    ok, parts = True, []
    for splitting, report in reports.items():
        lo, hi = bands[splitting]
        order = report.margins.get("order")
        ok &= report.passed and order is not None and lo <= order <= hi
        parts.append(f"{splitting} exact-regime" if order is None else f"{splitting} {order:.2f}")
    return f"splitting orders ({', '.join(parts)})", ok


def splitting_order_reports(lam):
    """The convergence report of each splitting on check 10's run at lambda."""
    geom = torus(64)
    spec = DatumSpec(kind="gaussian_bump", width=0.25)
    ladder = [4e-3, 2e-3, 1e-3]
    return {splitting: run_convergence_order(
                spec, SimConfig(lam=lam, eps=1e-2, dt=1e-3, t_final=1.0, geometry=geom,
                                splitting=splitting), dt_ladder=ladder)
            for splitting in ("strang", "lie")}


def test_10_splitting_orders():
    """Strang lands near order 2, Lie near order 1, on smooth data."""
    _verdict(10, *splitting_orders_verdict(splitting_order_reports(1.0)))


def test_check_10_fails_a_linear_run():
    """lambda = 0 is linear, so both splittings are exact: the ladders are in
    the exact regime and their reports have no `order`, which check 10 fails
    by name (reading the margin raised KeyError)."""
    reports = splitting_order_reports(0.0)
    for report in reports.values():
        assert report.margins["exact_regime"] == 1.0
        assert "order" not in report.margins
    assert splitting_orders_verdict(reports) == (
        "splitting orders (strang exact-regime, lie exact-regime)", False)


def test_11_determinism_and_round_trips(tmp_path):
    """Identical runs yield identical bytes; snapshots survive a round trip.

    The 64-point run takes the cos/sin phase; the 32^2 run (1024 points,
    lambda * dt = 1e-3) takes the half-angle phase."""
    configs = {
        "n64": '{"geometry": {"kind": "torus", "points": [64]},'
        '"sim": {"lambda": 1.0, "eps": 0.001, "dt": 0.01, "t_final": 0.2,'
        ' "snapshot_every": 10, "hs_values": [0.5]},'
        '"datum": {"kind": "random_band_limited", "cutoff": 8.0, "seed": 21}}',
        "n32x32": '{"geometry": {"kind": "torus", "points": [32, 32]},'
        '"sim": {"lambda": 1.0, "eps": 0.001, "dt": 0.001, "t_final": 0.05,'
        ' "snapshot_every": 25, "hs_values": [0.5]},'
        '"datum": {"kind": "random_band_limited", "cutoff": 8.0, "seed": 21}}',
    }
    ok = True
    for name, cfg_text in configs.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(cfg_text)
        a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        for out_dir in (a, b):
            assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
        ok &= (a / "timeseries.csv").read_bytes() == (b / "timeseries.csv").read_bytes()
        snaps_a = sorted(a.glob("snapshot_*.bin"))
        snaps_b = sorted(b.glob("snapshot_*.bin"))
        ok &= len(snaps_a) == len(snaps_b) > 0
        ok &= all(x.read_bytes() == y.read_bytes() for x, y in zip(snaps_a, snaps_b))
        field, t = read_snapshot(snaps_a[-1])
        rt_path = tmp_path / f"{name}_rt.bin"
        write_snapshot(field, t, rt_path)
        ok &= rt_path.read_bytes() == snaps_a[-1].read_bytes()
    _verdict(11, "determinism and format round trips", ok)
