"""End-to-end command-line behavior and exit codes."""

import argparse
import io
import json
import math
import struct
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from logns import cli, experiments, nonlinearity
from logns.cli import main
from logns.data import DatumSpec, make_datum
from logns.diagnostics import energy, hs_gagliardo_norm, hs_norm, mass
from logns.experiments import EXPERIMENTS
from logns.geometry import DomainKind, Field, GridGeometry
from logns.integrator import evolve
from logns.io import load_config, read_snapshot, write_snapshot, write_timeseries


def write_config(tmp_path, extra="", sim_extra=""):
    text = (
        '{"geometry": {"kind": "torus", "points": [32]},'
        '"sim": {"lambda": 1.0, "eps": 0.01, "dt": 0.01, "t_final": 0.1'
        + sim_extra
        + "}"
        + extra
        + "}"
    )
    path = tmp_path / "config.json"
    path.write_text(text)
    return path


GAUSSIAN_DATUM = ',"datum": {"kind": "gaussian_bump", "width": 0.25}'


def overflow_at_step_1(cfg):
    """Rewrite a `write_config` sim so that its t = 0 record is finite and its
    first step is not: 2 lam (dt / 2) overflows, so the rotation angle is
    inf, while 2 lam times the potential of the datum does not."""
    cfg.write_text(cfg.read_text().replace(
        '"lambda": 1.0, "eps": 0.01, "dt": 0.01, "t_final": 0.1',
        '"lambda": 1e306, "eps": 0.01, "dt": 1000.0, "t_final": 10000.0'))


def csv_rows(path):
    """The rows of a time-series CSV below its header, one array row each."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class TestSimulate:
    def test_writes_csv_and_snapshots(self, tmp_path):
        cfg = write_config(
            tmp_path, extra=GAUSSIAN_DATUM, sim_extra=', "snapshot_every": 5'
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert len(csv_rows(out / "timeseries.csv")) == 11
        snaps = sorted(out.glob("snapshot_*.bin"))
        assert len(snaps) == 3
        _, t = read_snapshot(snaps[-1])
        assert t == pytest.approx(0.1)

    def test_the_datum_is_freed_once_the_first_sample_is_yielded(self, tmp_path,
                                                                  monkeypatch):
        """`simulate` hands the datum to `samples`, and `samples` and `march`
        let go of it once the run's state holds it: at every snapshot write,
        from the t = 0 sample on, neither the datum nor its array is alive."""
        refs, alive = [], []
        make, write = cli.make_datum, cli.write_snapshot

        def tracked_make_datum(spec, geometry):
            datum = make(spec, geometry)
            refs.extend((weakref.ref(datum), weakref.ref(datum.data)))
            return datum

        def checking_write_snapshot(field, t, path):
            alive.append([ref() is not None for ref in refs])
            write(field, t, path)

        monkeypatch.setattr(cli, "make_datum", tracked_make_datum)
        monkeypatch.setattr(cli, "write_snapshot", checking_write_snapshot)
        cfg = write_config(tmp_path, extra=GAUSSIAN_DATUM, sim_extra=', "snapshot_every": 5')
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
        assert alive == [[False, False]] * 3

    def test_experiment_section_is_checked_against_every_experiments_keys(self, tmp_path,
                                                                          capsys):
        cfg = write_config(tmp_path, extra=GAUSSIAN_DATUM
                           + ',"experiment": {"bogus": 1, "z": "x", "boost_modes": [1]}')
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: experiment.bogus: unknown key",
            "config error: experiment.z: expected a number or [re, im], got 'x'",
        ]
        assert not out.exists()

    def test_missing_datum_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert "datum" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_integration_error_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, extra=GAUSSIAN_DATUM)
        overflow_at_step_1(cfg)
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite sample at step 1")
        assert "Traceback" not in err

    def test_a_non_finite_record_exits_2_naming_its_step(self, tmp_path, capsys):
        # 2 lam overflows, so the energy of the t = 0 record does, before any step
        cfg = write_config(tmp_path, extra=GAUSSIAN_DATUM, sim_extra=', "snapshot_every": 1')
        cfg.write_text(cfg.read_text().replace('"lambda": 1.0', '"lambda": 1e308'))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: non-finite record at step 0 (t=0): energy inf",
            f"kept {out / 'timeseries.csv'} (0 records, 0 snapshots)",
        ]
        assert sorted(p.name for p in out.iterdir()) == ["timeseries.csv"]

    def test_failed_run_keeps_what_it_sampled(self, tmp_path, capsys):
        cfg = write_config(tmp_path, extra=GAUSSIAN_DATUM, sim_extra=', "snapshot_every": 1')
        overflow_at_step_1(cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("error: non-finite sample at step 1")
        assert err[1:] == [f"kept {out / 'timeseries.csv'} (1 records, 1 snapshots, "
                           "last sample at t=0)"]
        [[time, *_]] = csv_rows(out / "timeseries.csv")
        assert time == 0.0
        field, t = read_snapshot(out / "snapshot_000000.bin")
        assert t == 0.0
        assert np.array_equal(field.data, make_datum(DatumSpec(kind="gaussian_bump", width=0.25),
                                                     field.geometry).data)
        assert sorted(p.name for p in out.iterdir()) == ["snapshot_000000.bin", "timeseries.csv"]

    def test_failed_snapshot_write_keeps_what_it_sampled(self, tmp_path, capsys):
        cfg = write_config(tmp_path, extra=GAUSSIAN_DATUM, sim_extra=', "snapshot_every": 1')
        out = tmp_path / "out"
        (out / "snapshot_000001.bin").mkdir(parents=True)
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("error: ") and "snapshot_000001.bin" in err[0]
        assert err[1:] == [f"kept {out / 'timeseries.csv'} (2 records, 1 snapshots, "
                           "last sample at t=0.01)"]
        assert csv_rows(out / "timeseries.csv")[:, 0].tolist() == [0.0, 0.01]
        _, t = read_snapshot(out / "snapshot_000000.bin")
        assert t == 0.0

    def test_a_full_device_names_the_csv(self, tmp_path, capsys):
        """The few rows stay buffered until the CSV is closed, after the run:
        the fault there names the file as an open or a write fault does."""
        cfg = write_config(tmp_path, extra=GAUSSIAN_DATUM)
        out = tmp_path / "out"
        out.mkdir()
        (out / "timeseries.csv").symlink_to("/dev/full")
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: cannot write time series to {out / 'timeseries.csv'}: "
            "[Errno 28] No space left on device"]
        assert captured.out == ""

    def test_a_full_device_names_the_snapshot(self, tmp_path, capsys):
        cfg = write_config(tmp_path, extra=GAUSSIAN_DATUM, sim_extra=', "snapshot_every": 1')
        out = tmp_path / "out"
        out.mkdir()
        (out / "snapshot_000001.bin").symlink_to("/dev/full")
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot write snapshot to {out / 'snapshot_000001.bin'}: "
            "[Errno 28] No space left on device",
            f"kept {out / 'timeseries.csv'} (2 records, 1 snapshots, last sample at t=0.01)"]

    def test_an_unwritable_csv_exits_2_before_the_run(self, tmp_path, capsys):
        # the CSV is opened before the first step: a run whose time series
        # cannot be written does not start, writes no snapshot and keeps nothing
        cfg = write_config(tmp_path, extra=GAUSSIAN_DATUM, sim_extra=', "snapshot_every": 1')
        out = tmp_path / "out"
        (out / "timeseries.csv").mkdir(parents=True)
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: cannot write time series to {out / 'timeseries.csv'}: ")
        assert captured.out == ""
        assert sorted(p.name for p in out.iterdir()) == ["timeseries.csv"]

    def test_memory_is_flat_in_the_record_count(self, tmp_path, peak_traced_bytes):
        """Each row is written as its record is sampled and the schedule of
        steps is not held, so 2,001 records peak within 500 kB of 201: both
        peaked near 37 kB. With the records kept to the end, they peaked at
        1.56 MB and 0.16 MB."""

        def peak(t_final):
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps({
                "geometry": {"kind": "torus", "points": [4]},
                "sim": {"lambda": 1.0, "eps": 1e-3, "dt": 1e-3, "t_final": t_final,
                        "hs_values": [0.5]},
                "datum": {"kind": "gaussian_bump", "width": 0.25},
            }))
            argv = ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
            code, peak = peak_traced_bytes(main, argv)
            assert code == 0
            assert len(csv_rows(tmp_path / "out" / "timeseries.csv")) == round(t_final / 1e-3) + 1
            return peak

        peak(0.002)  # builds and caches the symbol and the weight
        few, many = peak(0.2), peak(2.0)
        assert abs(many - few) < 500_000, (few, many)

    def test_the_csv_is_that_of_the_kept_records(self, tmp_path):
        """The streamed CSV is byte for byte the one written from every record
        of `evolve`, which keeps them all."""
        cfg = write_config(tmp_path, extra=GAUSSIAN_DATUM,
                           sim_extra=', "hs_values": [0.75, 0.25], "record_every": 3')
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        doc = load_config(cfg)
        kept = tmp_path / "kept.csv"
        traj = evolve(make_datum(doc.datum, doc.sim.geometry), doc.sim)
        write_timeseries(traj.records, kept, doc.sim.hs_values)
        assert (out / "timeseries.csv").read_bytes() == kept.read_bytes()
        assert kept.read_text().startswith("time,mass,energy,hs_0.25,hs_0.75\n0,")

    def test_distinct_exponents_get_distinct_columns(self, tmp_path):
        """`:g` prints 0.1234567 and 0.1234568 both as 0.123457."""
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "geometry": {"kind": "torus", "points": [16]},
            "sim": {"lambda": 1.0, "eps": 1e-3, "dt": 1e-3, "t_final": 2e-3,
                    "hs_values": [0.1234567, 0.1234568]},
            "datum": {"kind": "gaussian_bump", "width": 0.25},
        }))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        header = (out / "timeseries.csv").read_text().splitlines()[0]
        assert header == "time,mass,energy,hs_0.1234567,hs_0.1234568"

    def test_memory_is_flat_in_the_snapshot_count(self, tmp_path, peak_traced_bytes):
        """Each snapshot is written as it is sampled, so a run with a snapshot
        every step peaks where the same run with two snapshots does."""
        field_bytes = 16 * 64 * 64

        def peak(snapshot_every):
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps({
                "geometry": {"kind": "torus", "points": [64, 64]},
                "sim": {"lambda": 1.0, "eps": 1e-3, "dt": 1e-3, "t_final": 0.02,
                        "hs_values": [0.5], "snapshot_every": snapshot_every},
                "datum": {"kind": "random_band_limited", "cutoff": 8.0},
            }))
            argv = ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]
            code, peak = peak_traced_bytes(main, argv)
            assert code == 0
            return peak

        peak(1)  # builds and caches the symbol and the weight
        every_step, two = peak(1), peak(20)
        assert abs(every_step - two) < 3 * field_bytes, (every_step, two)

    def test_out_dir_that_is_a_file_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, extra=GAUSSIAN_DATUM)
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("sim, message", [
        ('"dt": 0.003, "t_final": 0.01', "t_final is not an integer multiple of dt"),
        ('"dt": 0.001, "t_final": 0.01, "record_every": 11',
         "record_every * dt must not exceed t_final"),
    ], ids=["multiple", "record_every"])
    def test_step_count_is_checked_before_anything_is_written(self, tmp_path, capsys, sim,
                                                              message):
        cfg = write_config(tmp_path, extra=GAUSSIAN_DATUM)
        cfg.write_text(cfg.read_text().replace('"dt": 0.01, "t_final": 0.1', sim))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: sim: {message}"]
        assert not out.exists()

    def test_invalid_config_reports_every_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"geometry": {"kind": "x", "points": [32]}, "sim": {}}')
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "geometry.kind" in err
        assert "sim.lambda" in err
        assert "sim.dt" in err


class TestExperiment:
    def test_scaling_experiment_passes(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            extra=GAUSSIAN_DATUM + ',"experiment": {"z": [2.0, 0.0]}',
        )
        # scaling needs eps = 0
        cfg.write_text(cfg.read_text().replace('"eps": 0.01', '"eps": 0.0'))
        report_path = tmp_path / "report.json"
        code = main(
            ["experiment", "scaling", "--config", str(cfg), "--out", str(report_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        report = json.loads(report_path.read_text())
        assert report["name"] == "scaling_invariance"
        assert report["verdict"] == "pass"

    @pytest.mark.parametrize("name, eps, params, message", [
        ("h1-approx", 0.01, '{"cutoffs": [8.0, 4.0]}',
         "experiment.cutoffs: must be strictly increasing, got [8.0, 4.0]"),
        ("scaling", 0.001, '{"z": 2.0}',
         "sim.eps: experiment scaling needs eps = 0, got 0.001"),
        ("scaling", 0.0, '{"z": [1e200, 0]}',
         "experiment.z: |z|^2 is outside the float range, got (1e+200+0j)"),
        ("scaling", 0.0, '{"z": [1e-200, 0]}',
         "experiment.z: |z|^2 is outside the float range, got (1e-200+0j)"),
        ("hs-growth", 0.01, "{}",
         "sim.hs_values: experiment hs-growth needs at least one exponent"),
        ("galilean", 0.01, '{"boost_modes": [%d]}' % 10**300,
         "experiment.boost_modes: the boost phase |v|^2 t_final rounds by inf, "
         "above the budget floor 1e-12"),
        ("galilean", 0.01, '{"boost_modes": [%d]}' % 10**11,
         "experiment.boost_modes: the boost phase |v|^2 t_final rounds by 4.38e+06, "
         "above the budget floor 1e-12"),
    ], ids=["decreasing-cutoffs", "regularized-scaling", "z-overflow", "z-underflow",
            "no-hs_values", "boost-overflow", "boost-beyond-phase-precision"])
    def test_an_experiment_that_cannot_run_is_a_config_error(self, tmp_path, capsys,
                                                              monkeypatch, name, eps, params,
                                                              message):
        def no_datum(*args):
            raise AssertionError("built the datum before rejecting the config")

        monkeypatch.setattr(experiments, "make_datum", no_datum)
        cfg = write_config(tmp_path, extra=GAUSSIAN_DATUM + f',"experiment": {params}')
        cfg.write_text(cfg.read_text().replace('"eps": 0.01', f'"eps": {eps}'))
        report_path = tmp_path / "report.json"
        assert main(["experiment", name, "--config", str(cfg), "--out", str(report_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"config error: {message}"]
        assert captured.out == "" and not report_path.exists()

    def test_hs_growth_passes_on_a_wide_gaussian(self, tmp_path, capsys):
        # nearly all its power is in the mean mode, whose Gagliardo / multiplier
        # ratio is 1 (1.001228 overall); both envelopes hold
        doc = {"geometry": {"kind": "torus", "points": [128]},
               "sim": {"lambda": 1.0, "eps": 1e-3, "dt": 1e-3, "t_final": 0.05,
                       "hs_values": [0.5]},
               "datum": {"kind": "gaussian_bump", "width": 0.5}}
        (tmp_path / "config.json").write_text(json.dumps(doc))
        assert main(["experiment", "hs-growth", "--config", str(tmp_path / "config.json"),
                     "--out", str(tmp_path / "report.json")]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "verdict    : PASS" in captured.out.splitlines()

    def test_a_full_device_names_the_report(self, tmp_path, capsys):
        """The report is written after the verdict is printed; the device's
        fault, at close, names the report's path."""
        doc = {"geometry": {"kind": "torus", "points": [16]},
               "sim": {"lambda": 1.0, "eps": 1e-3, "dt": 1e-3, "t_final": 2e-3,
                       "hs_values": [0.5]},
               "datum": {"kind": "gaussian_bump", "width": 0.5}}
        (tmp_path / "config.json").write_text(json.dumps(doc))
        report_path = tmp_path / "report.json"
        report_path.symlink_to("/dev/full")
        assert main(["experiment", "hs-growth", "--config", str(tmp_path / "config.json"),
                     "--out", str(report_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == "verdict    : PASS"
        assert captured.err.splitlines() == [
            f"error: cannot write report to {report_path}: [Errno 28] No space left on device"]

    # lambda 1, dt 50 and t_final 400: e^{4 |lam| t} and e^{2 lam^2 |t dt|}
    # leave the float range, where math.exp raises; so does lambda^2 at 1e200
    INF_BUDGET = ["config error: sim: experiment scaling's roundoff budget is inf: its "
                  "stretch e^{2 lam^2 |t_final dt|} is out of the float range"]

    @pytest.mark.parametrize("name, sim, extra, code, err", [
        ("lipschitz", {}, {"datum_b": {"kind": "gaussian_bump", "width": 0.2}}, 0, []),
        ("hs-growth", {}, {}, 0, []),
        ("scaling", {"eps": 0.0}, {"experiment": {"z": 2.0}}, 2, INF_BUDGET),
        ("scaling", {"eps": 0.0, "lambda": 1e200, "dt": 0.01, "t_final": 0.02},
         {"experiment": {"z": 2.0}}, 2, INF_BUDGET),
    ], ids=["lipschitz", "hs-growth", "scaling", "scaling-lambda-1e200"])
    def test_a_growth_bound_beyond_the_float_range(self, tmp_path, capsys, name, sim, extra,
                                                   code, err):
        doc = {"geometry": {"kind": "torus", "points": [32]},
               "sim": {"lambda": 1.0, "eps": 1e-3, "dt": 50.0, "t_final": 400.0,
                       "hs_values": [0.5], **sim},
               "datum": {"kind": "gaussian_bump", "width": 0.1}, **extra}
        (tmp_path / "config.json").write_text(json.dumps(doc))
        assert main(["experiment", name, "--config", str(tmp_path / "config.json"),
                     "--out", str(tmp_path / "report.json")]) == code
        captured = capsys.readouterr()
        assert captured.err.splitlines() == err
        if code == 0:  # a finite value under an infinite envelope has ratio 0
            assert "verdict    : PASS" in captured.out.splitlines()

    # a Gaussian of width 0.1 (lambda 1, eps 1e-3, dt 1e-3): at amplitude 1e154
    # its mass overflows, at 1e-170 it underflows to 0, while no sample is
    # zero to roundoff; each ended in a traceback, a nan margin or a vacuous PASS
    MASS_1E154, MASS_1E_170 = (f"error: datum: gaussian_bump has mass {m} on this torus grid, "
                               "not a positive finite float" for m in ("inf", "0"))
    # a finite positive mass whose sum of |u|^2 leaves [tiny / u_r^2, max / 4]: on
    # a 4,096-point box of length 1e-3 at amplitudes 3e151 and -3e151 the
    # distance between the two data overflowed (a traceback under -W error, else
    # worst_ratio nan); at 1e-160 and 1e-161 on a 16-point torus every squared
    # difference underflowed, and each verdict passed on a discrepancy of 0
    SQUARES_3E151, SQUARES_1E_160, SQUARES_1E_161 = (
        f"error: datum: gaussian_bump has a sum of |u|^2 of {v} over the samples of this "
        f"{grid} grid, outside [1.81e-276, 4.49e+307], where the verdicts' squared L^2 "
        "distances neither underflow nor overflow"
        for v, grid in (("9.21e+307", "periodic_box"), ("2.84e-320", "torus"),
                        ("2.87e-322", "torus")))

    @pytest.mark.parametrize("name, points, t_final, amplitude, extra, message", [
        ("lipschitz", 64, 0.01, 1.0,
         {"datum_b": {"kind": "gaussian_bump", "width": 0.1, "amplitude": 1e154}},
         MASS_1E154.replace("datum:", "datum_b:")),
        ("galilean", 16, 0.002, 1e-170, {"experiment": {"boost_modes": [1]}}, MASS_1E_170),
        ("scaling", 16, 0.002, 1e-170, {"sim": {"eps": 0.0}, "experiment": {"z": 2.0}},
         MASS_1E_170),
        ("hs-growth", 16, 0.004, 1e-170, {"sim": {"hs_values": [0.5]}}, MASS_1E_170),
        ("eps-cauchy", 16, 0.004, 1e154, {"experiment": {"eps_sequence": [0.25, 0.125]}},
         MASS_1E154),
        ("convergence", 16, 0.004, 1e154, {"experiment": {"dt_ladder": [2e-3, 1e-3]}},
         MASS_1E154),
        ("eps-cauchy", 16, 0.004, 1e-170, {"experiment": {"eps_sequence": [0.25, 0.125]}},
         MASS_1E_170),
        ("convergence", 16, 0.004, 1e-170, {"experiment": {"dt_ladder": [2e-3, 1e-3]}},
         MASS_1E_170),
        ("h1-approx", 16, 0.004, 1e-170, {"experiment": {"cutoffs": [2, 4]}}, MASS_1E_170),
        ("lipschitz", 4096, 0.01, 3e151,
         {"geometry": {"kind": "periodic_box", "lengths": [1e-3]},
          "datum_b": {"kind": "gaussian_bump", "width": 0.1, "amplitude": -3e151}},
         SQUARES_3E151),
        ("galilean", 16, 0.004, 1e-160, {"experiment": {"boost_modes": [1]}}, SQUARES_1E_160),
        ("scaling", 16, 0.004, 1e-160, {"sim": {"eps": 0.0}, "experiment": {"z": 2.0}},
         SQUARES_1E_160),
        ("convergence", 16, 0.004, 1e-160, {"experiment": {"dt_ladder": [2e-3, 1e-3]}},
         SQUARES_1E_160),
        ("eps-cauchy", 16, 0.004, 1e-160, {"experiment": {"eps_sequence": [0.25, 0.125]}},
         SQUARES_1E_160),
        ("h1-approx", 16, 0.004, 1e-161, {"experiment": {"cutoffs": [2, 4]}}, SQUARES_1E_161),
    ], ids=["lipschitz-b-1e154", "galilean-1e-170", "scaling-1e-170", "hs-growth-1e-170",
            "eps-cauchy-1e154", "convergence-1e154", "eps-cauchy-1e-170", "convergence-1e-170",
            "h1-approx-1e-170", "lipschitz-box-3e151", "galilean-1e-160", "scaling-1e-160",
            "convergence-1e-160", "eps-cauchy-1e-160", "h1-approx-1e-161"])
    def test_a_datum_whose_mass_leaves_the_float_range_exits_2(
            self, tmp_path, capsys, name, points, t_final, amplitude, extra, message):
        doc = {"geometry": {"kind": "torus", "points": [points]},
               "sim": {"lambda": 1.0, "eps": 1e-3, "dt": 1e-3, "t_final": t_final},
               "datum": {"kind": "gaussian_bump", "width": 0.1, "amplitude": amplitude}}
        for section, values in extra.items():
            doc[section] = {**doc.get(section, {}), **values}
        (tmp_path / "config.json").write_text(json.dumps(doc))
        report_path = tmp_path / "report.json"
        assert main(["experiment", name, "--config", str(tmp_path / "config.json"),
                     "--out", str(report_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [message]
        assert captured.out == "" and not report_path.exists()

    def test_missing_experiment_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, extra=GAUSSIAN_DATUM)
        cfg.write_text(cfg.read_text().replace('"eps": 0.01', '"eps": 0.0'))
        assert main(["experiment", "scaling", "--config", str(cfg)]) == 2
        assert "experiment.z" in capsys.readouterr().err

    def test_unknown_experiment_key(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, extra=GAUSSIAN_DATUM + ',"experiment": {"boost_modes": [1]}'
        )
        assert main(["experiment", "hs-growth", "--config", str(cfg)]) == 2
        assert "boost_modes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, section, key",
        [
            ("eps-cauchy", '{"eps_sequence": [0.1, "x"]}', "experiment.eps_sequence"),
            ("galilean", '{"boost_modes": 1}', "experiment.boost_modes"),
            ("h1-approx", '{"cutoffs": null}', "experiment.cutoffs"),
            ("scaling", '{"z": [0, 0]}', "experiment.z"),
        ],
    )
    def test_malformed_experiment_section_exits_2(self, tmp_path, capsys, name, section, key):
        cfg = write_config(tmp_path, extra=GAUSSIAN_DATUM + ',"experiment": ' + section)
        cfg.write_text(cfg.read_text().replace('"eps": 0.01', '"eps": 0.0'))
        assert main(["experiment", name, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {key}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("datum, cutoffs, messages", [
        ('{"kind": "random_rough", "target_s": 0.5}', "[-2, -1]",
         ["config error: experiment.cutoffs: cutoff -2: must be at least 0",
          "config error: experiment.cutoffs: cutoff -1: must be at least 0"]),
        # only mode 1, so the truncations at 0 and 0.5 are roundoff
        ('{"kind": "plane_wave", "modes": [1]}', "[0, 0.5]",
         ["error: cutoffs: the truncation at cutoff 0 vanishes"]),
    ], ids=["negative", "vanishing"])
    def test_h1_approx_on_a_zero_truncation_exits_2(self, tmp_path, capsys, datum, cutoffs,
                                                     messages):
        cfg = write_config(tmp_path, extra=f',"datum": {datum},'
                                           f'"experiment": {{"cutoffs": {cutoffs}}}')
        report_path = tmp_path / "report.json"
        argv = ["experiment", "h1-approx", "--config", str(cfg), "--out", str(report_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == len(messages)
        assert all(line.startswith(m) for line, m in zip(lines, messages))
        assert captured.out == "" and not report_path.exists()

    def test_lipschitz_needs_both_data(self, tmp_path, capsys):
        cfg = write_config(tmp_path, extra=GAUSSIAN_DATUM)
        assert main(["experiment", "lipschitz", "--config", str(cfg)]) == 2
        assert "datum_b" in capsys.readouterr().err

    def test_galilean_roundtrip(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            extra=GAUSSIAN_DATUM + ',"experiment": {"boost_modes": [1]}',
        )
        report_path = tmp_path / "report.json"
        code = main(
            ["experiment", "galilean", "--config", str(cfg), "--out", str(report_path)]
        )
        assert code == 0
        assert json.loads(report_path.read_text())["name"] == "galilean"

    def test_convergence_report_is_json(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            extra=GAUSSIAN_DATUM + ',"experiment": {"dt_ladder": [0.02, 0.01, 0.005]}',
        )
        report_path = tmp_path / "report.json"
        code = main(
            ["experiment", "convergence", "--config", str(cfg), "--out", str(report_path)]
        )
        report = json.loads(report_path.read_text())
        assert report["name"] == "convergence_order"
        assert report["passed"] is True and code == 0
        assert 1.7 <= report["margins"]["order"] <= 2.3
        assert report["margins"]["added_rungs"] == 1

    @pytest.mark.parametrize("ladder, messages", [
        ("[0.03, 0.02]", ["rung 0.03: t_final is not an integer multiple of dt"]),
        ("[0.02, -0.01]", ["rung -0.01: must be positive"]),
        ("[0.3, 0.2]", ["rung 0.3: dt must not exceed t_final",
                        "rung 0.2: dt must not exceed t_final"]),
        ("[0.02, 0.02]", ["must be strictly decreasing, got [0.02, 0.02]"]),
        ("[0.02, 1e-10]", ["rung 1e-10: t_final/dt exceeds the 100000000 step limit"]),
    ], ids=["not-dividing", "negative", "above-t_final", "repeated", "step-limit"])
    def test_a_ladder_that_cannot_run_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                                         ladder, messages):
        def no_datum(*args):
            raise AssertionError("built the datum before rejecting the ladder")

        monkeypatch.setattr(experiments, "make_datum", no_datum)
        cfg = write_config(tmp_path, extra=GAUSSIAN_DATUM +
                           f',"experiment": {{"dt_ladder": {ladder}}}')
        report_path = tmp_path / "report.json"
        argv = ["experiment", "convergence", "--config", str(cfg), "--out", str(report_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"config error: experiment.dt_ladder: {m}"
                                             for m in messages]
        assert "Traceback" not in captured.err
        assert captured.out == "" and not report_path.exists()

    @pytest.mark.parametrize("ladder, messages", [
        ("[0.25, 0.5]", ["must be strictly decreasing, got [0.25, 0.5]"]),
        ("[0.5, 0.0]", ["entry 0: must be positive"]),
        ("[0.5, 0.5, -0.5]", ["must be strictly decreasing, got [0.5, 0.5, -0.5]",
                              "entry -0.5: must be positive"]),
    ], ids=["increasing", "zero", "repeated-and-negative"])
    def test_an_eps_ladder_that_cannot_run_is_a_config_error(self, tmp_path, capsys,
                                                              monkeypatch, ladder, messages):
        def no_datum(*args):
            raise AssertionError("built the datum before rejecting the ladder")

        monkeypatch.setattr(experiments, "make_datum", no_datum)
        cfg = write_config(tmp_path, extra=GAUSSIAN_DATUM +
                           f',"experiment": {{"eps_sequence": {ladder}}}')
        report_path = tmp_path / "report.json"
        argv = ["experiment", "eps-cauchy", "--config", str(cfg), "--out", str(report_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"config error: experiment.eps_sequence: {m}"
                                             for m in messages]
        assert captured.out == "" and not report_path.exists()


# tiny grids, one per domain kind
MATRIX_GEOMETRIES = {
    DomainKind.TORUS: {"kind": "torus", "points": [16]},
    DomainKind.PERIODIC_BOX: {"kind": "periodic_box", "points": [8, 4], "lengths": [1.0, 0.5]},
    DomainKind.DIRICHLET_INTERVAL: {"kind": "dirichlet_interval", "points": [16],
                                    "lengths": [1.0]},
    DomainKind.DIRICHLET_SLAB: {"kind": "dirichlet_slab", "points": [8, 4],
                                "lengths": [1.0, 1.0]},
}
MATRIX_PARAMS = {"z": [2.0, 0.0], "eps_sequence": [0.1, 0.05, 0.025], "cutoffs": [2.0, 4.0],
                 "dt_ladder": [0.01, 0.005]}


def matrix_config(name, geometry):
    entry = EXPERIMENTS[name]
    dim = len(geometry["points"])
    params = {**MATRIX_PARAMS, "boost_modes": [1] * dim}
    doc = {
        "geometry": geometry,
        # scaling needs the unregularized flow, hs-growth tracked exponents
        "sim": {"lambda": 1.0, "eps": 0.0 if name == "scaling" else 0.01, "dt": 0.005,
                "t_final": 0.02, "record_every": 2, "hs_values": [0.5]},
        "datum": {"kind": "gaussian_bump", "width": 0.2},
        "experiment": {key: params[key] for key in entry.params},
    }
    if entry.needs_datum_b:
        doc["datum_b"] = {"kind": "random_band_limited", "cutoff": 3.0, "seed": 1}
    return doc


@pytest.mark.parametrize("kind", list(MATRIX_GEOMETRIES), ids=lambda k: k.value)
@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_experiment_geometry_matrix(tmp_path, capsys, monkeypatch, name, kind):
    """Each experiment runs on each geometry its entry supports and is a config error on the rest."""
    made = []
    make = experiments.make_datum
    monkeypatch.setattr(experiments, "make_datum", lambda *a: made.append(a) or make(*a))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(matrix_config(name, MATRIX_GEOMETRIES[kind])))
    report_path = tmp_path / "report.json"
    code = main(["experiment", name, "--config", str(cfg), "--out", str(report_path)])
    err = capsys.readouterr().err
    if EXPERIMENTS[name].periodic_only and kind.value.startswith("dirichlet"):
        assert code == 2
        assert (f"config error: geometry.kind: experiment {name} needs a periodic geometry, "
                f"got '{kind.value}'") in err.splitlines()
        assert not made and not report_path.exists()
    else:
        assert code in (0, 1), err
        report = json.loads(report_path.read_text())
        assert len(report["config_digest"]) == 64
        assert report["verdict"] == ("pass" if code == 0 else "fail")
        assert made


def test_readme_lists_every_experiment_as_the_registry_does():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = {line.split("|")[1].strip(" `"): line for line in readme.splitlines()
            if line.startswith("| `")}
    for name, entry in EXPERIMENTS.items():
        row = rows[name]
        assert f"`{entry.runner}`" in row
        assert all(f"`{key}`" in row for key in entry.params)
        assert ("`datum_b`" in row) == entry.needs_datum_b
        assert row.endswith("| periodic only (`torus`, `periodic_box`) |" if entry.periodic_only
                            else "| all |")


# cutoff < 1 keeps only the constant mode, which a Dirichlet grid's antisymmetrization removes
ZERO_DIRICHLET = {
    "geometry": {"kind": "dirichlet_interval", "points": [64], "lengths": [1.0]},
    "sim": {"lambda": 1.0, "eps": 0.0, "dt": 0.01, "t_final": 0.1},
    "datum": {"kind": "random_band_limited", "cutoff": 0.5},
}


@pytest.mark.parametrize("argv, extra", [
    (["simulate"], {}),
    (["experiment", "lipschitz"], {"datum_b": ZERO_DIRICHLET["datum"]}),
    (["experiment", "scaling"], {"experiment": {"z": 2.0}}),
    (["experiment", "eps-cauchy"], {"experiment": {"eps_sequence": [0.1, 0.05, 0.025]}}),
    (["experiment", "convergence"], {"experiment": {"dt_ladder": [0.02, 0.01]}}),
], ids=lambda v: v[-1] if isinstance(v, list) else None)
def test_zero_datum_exits_2_without_a_verdict(tmp_path, capsys, argv, extra):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**ZERO_DIRICHLET, **extra}))
    out = ["--out-dir", str(tmp_path / "out")] if argv == ["simulate"] else [
        "--out", str(tmp_path / "report.json")]
    assert main(argv + ["--config", str(cfg)] + out) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: datum: random_band_limited vanishes")
    assert "Traceback" not in captured.err
    assert "PASS" not in captured.out and "verdict" not in captured.out
    assert not (tmp_path / "report.json").exists() and not (tmp_path / "out").exists()


# 2^48 samples of float64 exceed a 47-bit address space: the allocation fails
# at once in any overcommit mode and touches no memory
HUGE_TORUS = {
    "geometry": {"kind": "torus", "points": [2**48]},
    "sim": {"lambda": 1.0, "eps": 0.01, "dt": 0.01, "t_final": 0.1},
    "datum": {"kind": "gaussian_bump", "width": 0.25},
    "datum_b": {"kind": "gaussian_bump", "width": 0.2},
}


@pytest.mark.parametrize("argv", [["simulate"], ["experiment", "lipschitz"]],
                         ids=lambda argv: argv[-1])
def test_a_grid_that_cannot_be_allocated_exits_2(tmp_path, capsys, argv):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(HUGE_TORUS))
    out = ["--out-dir", str(tmp_path / "out")] if argv == ["simulate"] else [
        "--out", str(tmp_path / "out")]
    assert main(argv + ["--config", str(cfg)] + out) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: Unable to allocate ")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_plane_wave_on_dirichlet_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**ZERO_DIRICHLET, "datum": {"kind": "plane_wave", "modes": [1]}}))
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: datum.kind: plane_wave is incompatible with Dirichlet boundaries\n")


BOX_GALILEAN = {
    "geometry": {"kind": "periodic_box", "points": [8, 4], "lengths": [1.0, 0.5]},
    "sim": {"lambda": 1.0, "eps": 0.01, "dt": 0.01, "t_final": 0.1},
    "experiment": {"boost_modes": [1, 1]},
}


@pytest.mark.parametrize("data, message", [
    ({"datum": {"kind": "gaussian_bump", "center": [0.5]}},
     "datum.center: expected one coordinate per axis (2), got 1"),
    ({"datum": {"kind": "plane_wave", "modes": [1, 0, 2]}},
     "datum.modes: expected one integer per axis (2), got 3"),
], ids=["center", "modes"])
def test_datum_needs_one_entry_per_axis(tmp_path, capsys, data, message):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**BOX_GALILEAN, **data}))
    argv = ["experiment", "galilean", "--config", str(cfg), "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "r.json").exists()


def test_second_datum_needs_one_entry_per_axis(tmp_path, capsys):
    doc = {**BOX_GALILEAN, "experiment": {},
           "datum": {"kind": "gaussian_bump", "center": [0.5, 0.25, 0.0]},
           "datum_b": {"kind": "gaussian_bump", "center": [0.5]}}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main(["experiment", "lipschitz", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: datum.center: expected one coordinate per axis (2), got 3",
        "config error: datum_b.center: expected one coordinate per axis (2), got 1",
    ]


def slab_snapshot(tmp_path):
    geom = GridGeometry(DomainKind.DIRICHLET_SLAB, (1.0, 1.0), (16, 8))
    field = make_datum(DatumSpec(kind="random_band_limited", cutoff=3.0, seed=2), geom)
    write_snapshot(field, 0.5, tmp_path / "slab.bin")
    return field, tmp_path / "slab.bin"


class TestNorms:
    def test_prints_norms_of_snapshot(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, extra=GAUSSIAN_DATUM, sim_extra=', "snapshot_every": 10'
        )
        out = tmp_path / "out"
        main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
        capsys.readouterr()
        snap = sorted(out.glob("snapshot_*.bin"))[-1]
        code = main(
            ["norms", "--snapshot", str(snap), "--s", "0.25,0.5",
             "--lambda", "1.0", "--eps", "0.01"]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "mass" in text
        assert "H^0.25" in text
        assert "gagliardo" in text

    def test_dirichlet_values_match_the_diagnostics(self, tmp_path, capsys):
        field, path = slab_snapshot(tmp_path)
        argv = ["norms", "--snapshot", str(path), "--s", "0.25,1", "--lambda", "-1", "--eps", "0.01"]
        assert main(argv) == 0
        printed = [float(tok) for line in capsys.readouterr().out.splitlines()
                   for tok in line.partition(":")[2].split()
                   if tok not in ("multiplier", "gagliardo")]
        expected = [0.5, mass(field), energy(field, -1.0, 0.01), hs_norm(field, 0.25),
                    hs_gagliardo_norm(field, 0.25), hs_norm(field, 1.0)]
        assert printed == expected

    def test_a_negative_number_in_exponent_form_is_a_value(self, tmp_path, capsys):
        # argparse alone takes a lone -2e-3 for an option, not for the value of --lambda
        _, path = slab_snapshot(tmp_path)
        argv = ["norms", "--snapshot", str(path), "--eps", "0.01"]
        assert main([*argv, "--s", "0.5", "--lambda=-2e-3"]) == 0
        joined = capsys.readouterr().out
        assert main([*argv, "--s", "0.5", "--lambda", "-2e-3"]) == 0
        assert capsys.readouterr().out == joined
        # an abbreviated option, and a list of numbers, one with a leading point
        assert main([*argv, "--s", "-5e-1,0.5", "--lam", "-2e-3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[3].startswith("H^-0.5  : multiplier ")
        assert lines[:3] + lines[4:] == joined.splitlines()
        assert main([*argv, "--s", "-.5,0.5", "--lam", "-2e-3"]) == 0
        assert capsys.readouterr().out.splitlines() == lines

    def test_distinct_exponents_get_distinct_lines(self, tmp_path, capsys):
        """`:g` prints 0.1234567 and 0.1234568 both as 0.123457; the labels
        `:g` gives exactly (0.5, 1) are kept."""
        field, path = slab_snapshot(tmp_path)
        argv = ["norms", "--snapshot", str(path), "--s", "0.1234567,0.1234568,0.5,1",
                "--lambda", "1", "--eps", "0.01"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()[3:]
        assert [line.split()[0] for line in lines] == [
            "H^0.1234567", "H^0.1234568", "H^0.5", "H^1"]
        assert float(lines[0].split()[3]) == hs_norm(field, 0.1234567)

    def test_a_file_name_that_looks_negative_is_a_value(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, extra=GAUSSIAN_DATUM).rename("-1.json")
        assert main(["simulate", "--config", "-1.json", "--out-dir", "out"]) == 0
        assert capsys.readouterr().out.startswith("wrote out/timeseries.csv (11 records")

    def test_a_huge_negative_lambda_is_no_usage_error(self, tmp_path, capsys):
        _, path = slab_snapshot(tmp_path)
        code = main(["norms", "--snapshot", str(path), "--s", "0.5", "--eps", "1e-3",
                     "--lambda", "-1e300"])
        assert code in (0, 2)
        assert "usage:" not in capsys.readouterr().err

    def test_negative_eps_exits_2(self, tmp_path, capsys):
        _, path = slab_snapshot(tmp_path)
        argv = ["norms", "--snapshot", str(path), "--s", "0.5", "--lambda", "1", "--eps", "-0.1"]
        assert main(argv) == 2
        assert "eps must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--eps", "nan"), ("--eps", "inf"), ("--lambda", "nan"), ("--lambda", "inf"),
        ("--s", "nan"), ("--s", "0.5,inf"), ("--lambda", "-inf"), ("--eps", "-nan"),
    ])
    def test_non_finite_numbers_exit_2(self, tmp_path, capsys, flag, value):
        _, path = slab_snapshot(tmp_path)
        args = {"--s": "0.5", "--lambda": "1", "--eps": "0.01", flag: value}
        assert main(["norms", "--snapshot", str(path), *(a for kv in args.items() for a in kv)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {flag} must be finite, got "
                                             f"{float(value.split(',')[-1])}"]
        assert captured.out == ""

    @pytest.mark.parametrize("blob, message", [
        (b"garbage", "bad magic"),
        # magic, version 1, geometry tag 7, dimension 1
        (b"LOGNSFLD" + struct.pack("<III", 1, 7, 1) + bytes(24), "unknown geometry tag 7"),
        # a periodic box of 6 points and its payload
        (b"LOGNSFLD" + struct.pack("<IIIIdd", 1, 1, 1, 6, 1.0, 0.0) + bytes(96),
         "points per axis must be powers of two >= 4, got 6"),
    ], ids=["magic", "tag", "grid"])
    def test_bad_snapshot_exits_2(self, tmp_path, capsys, blob, message):
        path = tmp_path / "junk.bin"
        path.write_bytes(blob)
        code = main(
            ["norms", "--snapshot", str(path), "--s", "0.5", "--lambda", "1", "--eps", "0"]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_snapshot_that_is_a_directory_exits_2(self, tmp_path, capsys):
        argv = ["norms", "--snapshot", str(tmp_path), "--s", "0.5", "--lambda", "1", "--eps", "0"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind, points, cutoff, s, expected", [
        (DomainKind.TORUS, (256, 256), 32.0, "1", [
            "time   : 0.125",
            "mass   : 0.99999999999999989",
            "energy : 20197.253233847539",
            "H^1  : multiplier 142.11853430920669",
        ]),
        (DomainKind.DIRICHLET_SLAB, (64, 64), 16.0, "0.25,0.5", [
            "time   : 0.125",
            "mass   : 0.24289371899753465",
            "energy : 743.81504519932923",
            "H^0.25  : multiplier 1.8417522232699843  gagliardo 8.0476379233978736",
            "H^0.5  : multiplier 4.9877615212272737  gagliardo 16.097523060004104",
        ]),
    ], ids=["torus256", "slab64"])
    def test_stdout_is_pinned(self, tmp_path, capsys, kind, points, cutoff, s, expected):
        """Every printed digit, as computed before the spectrum was normalised
        in real arithmetic and snapshots were read in place."""
        geom = GridGeometry(kind, (1.0, 1.0), points)
        field = make_datum(DatumSpec(kind="random_band_limited", cutoff=cutoff, seed=0), geom)
        write_snapshot(field, 0.125, tmp_path / "snap.bin")
        argv = ["norms", "--snapshot", str(tmp_path / "snap.bin"), "--s", s,
                "--lambda", "1.0", "--eps", "0.001"]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines() == expected


    def test_a_non_finite_record_exits_2_with_one_error_line(self, tmp_path, capsys):
        # finite samples whose mass |u|^2 overflows: one line, no numpy warning
        # (the suite turns warnings into errors), and nothing on stdout
        data = np.ones(64, dtype=complex)
        data[3] = 1e308
        write_snapshot(Field(GridGeometry(DomainKind.TORUS, (1.0,), (64,)), data), 0.0,
                       tmp_path / "big.bin")
        argv = ["norms", "--snapshot", str(tmp_path / "big.bin"), "--s", "0.5",
                "--lambda", "1", "--eps", "0.01"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: non-finite record at t=0: mass inf, energy nan, H^0.5 inf, "
            "gagliardo H^0.5 inf"]
        assert captured.out == ""


# the ends of the float range and the non-finite values a file or a flag may
# hold; each draw takes one of them or a moderate number, with even odds
EXTREME_VALUES = [0.0, 1e154, 1e308, -1e308, 1.7976931348623157e308, 1e-310, 5e-324,
                  math.nan, math.inf, -math.inf]
EXTREME_NUMBERS = ["0", "-1", "-inf", "-.5", "5e-324", "1e-300", "1e-12", "0.999", "1e12",
                   "1e300", "-1e300", "1.7976931348623157e308", "nan", "inf"]
moderate = st.floats(min_value=-4.0, max_value=4.0)
values = st.one_of(st.sampled_from(EXTREME_VALUES), moderate)
numbers = st.one_of(st.sampled_from(EXTREME_NUMBERS), moderate.map(repr))
eps_numbers = st.one_of(st.sampled_from(EXTREME_NUMBERS), st.floats(0.0, 4.0).map(repr))


@st.composite
def snapshots(draw):
    """A geometry of at most 4,096 points of any kind, and its samples: ones,
    zeros or random values, a Dirichlet boundary plane of zeros, and up to
    four samples replaced by `values`."""
    kind = draw(st.sampled_from(list(DomainKind)))
    lo = 2 if kind is DomainKind.DIRICHLET_SLAB else 1
    hi = 1 if kind is DomainKind.DIRICHLET_INTERVAL else 3
    dim = draw(st.integers(lo, hi))
    exponents, budget = [], 12  # at most 2^12 points, at least 2^2 per axis
    for axis in range(dim):
        exponents.append(draw(st.integers(2, budget - 2 * (dim - 1 - axis))))
        budget -= exponents[-1]
    points = tuple(2**e for e in exponents)
    lengths = ((1.0,) * dim if kind is DomainKind.TORUS else tuple(
        draw(st.lists(st.sampled_from([1e-3, 1.0, 2 * math.pi, 1e3]),
                      min_size=dim, max_size=dim))))
    base = draw(st.sampled_from(["ones", "zeros", "random"]))
    if base == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        data = rng.standard_normal(points) + 1j * rng.standard_normal(points)
    else:
        data = np.full(points, 1.0 if base == "ones" else 0.0, dtype=complex)
    if kind.is_dirichlet:
        data[..., 0] = 0.0
    flat = data.reshape(-1)
    for index, re, im in draw(st.lists(st.tuples(st.integers(0, flat.size - 1), values,
                                                 values), max_size=4)):
        flat[index] = complex(re, im)
    return Field(GridGeometry(kind, lengths, points), data)


class TestNormsFuzz:
    @given(field=snapshots(), lam=numbers, eps=eps_numbers,
           s=st.lists(numbers, min_size=1, max_size=3),
           joined=st.lists(st.booleans(), min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_exits_0_or_2_without_a_traceback(self, tmp_path_factory, field, lam, eps, s,
                                              joined):
        """In process: a call builds no parser, so a few hundred of them are cheap.
        Each number is passed as `--flag=value` or as `--flag value`."""
        path = tmp_path_factory.mktemp("fuzz") / "snap.bin"
        write_snapshot(field, 0.5, path)
        argv = ["norms", "--snapshot", str(path)]
        for flag, value, join in zip(("--s", "--lambda", "--eps"), (",".join(s), lam, eps),
                                     joined):
            argv += [f"{flag}={value}"] if join else [flag, value]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        if code == 0:
            values = [tok for line in out.getvalue().splitlines()
                      for tok in line.partition(":")[2].split()
                      if tok not in ("multiplier", "gagliardo")]
            assert all(math.isfinite(float(v)) for v in values), out.getvalue()
            assert err.getvalue() == ""
        else:
            assert code == 2
            [line] = err.getvalue().splitlines()
            assert line.startswith("error: ")
            assert out.getvalue() == ""


# the numbers a config may hold: the ends of the float range, values whose
# squares or products leave it, and the non-finite values json reads
CONFIG_VALUES = [*EXTREME_VALUES, -1.0, 1e-300, 1e-200, 1e-150, 1e-12, 1e12, 1e150, 1e200,
                 1e300]
config_numbers = st.one_of(st.sampled_from(CONFIG_VALUES), moderate)


@st.composite
def simulate_configs(draw):
    """A `logns simulate` config: a grid of any kind with 4 to 64 points per
    axis and at most 4,096 in all, at most 20 steps, each number drawn from
    CONFIG_VALUES or a moderate value, and now and then an unknown key."""
    kind = draw(st.sampled_from(list(DomainKind)))
    dim = 1 if kind is DomainKind.DIRICHLET_INTERVAL else draw(
        st.integers(2 if kind is DomainKind.DIRICHLET_SLAB else 1, 3))
    exponents, budget = [], 12
    for axis in range(dim):
        exponents.append(draw(st.integers(2, min(6, budget - 2 * (dim - 1 - axis)))))
        budget -= exponents[-1]
    geometry = {"kind": kind.value, "points": [2**e for e in exponents]}
    if kind is not DomainKind.TORUS or draw(st.booleans()):
        geometry["lengths"] = draw(st.lists(config_numbers, min_size=dim, max_size=dim))
    dt = draw(config_numbers)
    sim = {"lambda": draw(config_numbers), "eps": draw(config_numbers), "dt": dt,
           "t_final": draw(st.integers(1, 20)) * dt}
    for key, values in (("splitting", st.sampled_from(["lie", "strang"])),
                        ("record_every", st.integers(1, 5)),
                        ("snapshot_every", st.integers(1, 10)),
                        ("hs_values", st.lists(config_numbers, max_size=3))):
        if draw(st.booleans()):
            sim[key] = draw(values)
    doc = {"geometry": geometry, "sim": sim, "datum": draw(datum_sections(dim))}
    if draw(st.integers(0, 9)) == 0:
        draw(st.sampled_from([doc, geometry, sim, doc["datum"]]))["bogus"] = 1
    return doc


@st.composite
def datum_sections(draw, dim):
    """A datum section of any kind for a grid of `dim` axes, each number drawn
    from CONFIG_VALUES or a moderate value."""
    datum = {"kind": draw(st.sampled_from(
        ["plane_wave", "gaussian_bump", "random_band_limited", "random_rough"]))}
    optional = {
        "plane_wave": {"modes": st.lists(st.sampled_from([0, 1, -3, 10**6, 2**63]),
                                         min_size=dim, max_size=dim)},
        "gaussian_bump": {"width": config_numbers,
                          "center": st.lists(config_numbers, min_size=dim, max_size=dim)},
        "random_band_limited": {"cutoff": config_numbers, "seed": st.integers(0, 9)},
        "random_rough": {"target_s": config_numbers, "seed": st.integers(0, 9)},
    }[datum["kind"]]
    if datum["kind"] in ("plane_wave", "gaussian_bump"):
        optional["amplitude"] = st.one_of(config_numbers,
                                          st.lists(config_numbers, min_size=2, max_size=2))
    for key, values in optional.items():
        if key in ("modes", "cutoff", "target_s") or draw(st.booleans()):
            datum[key] = draw(values)
    return datum


class TestSimulateFuzz:
    @given(doc=simulate_configs())
    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_exits_0_or_2_without_a_traceback(self, tmp_path_factory, doc):
        """In process, under the suite's warnings-as-errors: a run ends with
        its CSV written, or with exit 2 and error lines (and the line naming
        what a failed run kept), never with a warning or an exception."""
        work = tmp_path_factory.mktemp("fuzz")
        (work / "config.json").write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["simulate", "--config", str(work / "config.json"),
                         "--out-dir", str(work / "out")])
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == []
            assert out.getvalue().startswith("wrote ")
        else:
            assert code == 2
            assert lines and lines[0].startswith(("error: ", "config error: "))
            assert all(line.startswith(("error: ", "config error: ", "kept "))
                       for line in lines), lines


@st.composite
def ladders(draw, moderate_entries, descending):
    """Two or three distinct entries, all drawn from CONFIG_VALUES or all from
    `moderate_entries`, sorted into the ladder's order or left as drawn."""
    entries = draw(st.sampled_from([config_numbers, moderate_entries]))
    values = draw(st.lists(entries, min_size=2, max_size=3, unique=True))
    return sorted(values, reverse=descending) if draw(st.booleans()) else values


@st.composite
def experiment_configs(draw):
    """A `logns experiment` config: an experiment's name, a `simulate_configs`
    config, the experiment's parameters and, for lipschitz, a `datum_b`.
    About half the configs get unit lengths, moderate lambda, eps and dt and
    no unknown key, so that the extreme numbers of their data and parameters
    reach a run. A moderate dt rung is t_final / k, k <= 20; scaling's eps
    and hs-growth's exponents are set or left as drawn."""
    name = draw(st.sampled_from(list(EXPERIMENTS)))
    doc = draw(simulate_configs())
    geometry = doc["geometry"]
    dim = len(geometry["points"])
    exponents = st.lists(st.sampled_from([0.25, 0.5, 1.0]), max_size=3, unique=True)
    if draw(st.booleans()):
        dt = draw(st.sampled_from([1e-3, 1e-2]))
        doc = {"geometry": {"kind": geometry["kind"], "points": geometry["points"],
                            "lengths": [1.0] * dim},
               "sim": {"lambda": draw(moderate), "eps": draw(st.floats(0.0, 1.0)), "dt": dt,
                       "t_final": draw(st.integers(1, 20)) * dt,
                       "splitting": draw(st.sampled_from(["lie", "strang"])),
                       "hs_values": draw(exponents)},
               "datum": draw(datum_sections(dim))}
    sim = doc["sim"]
    if name == "scaling" and draw(st.booleans()):
        sim["eps"] = 0.0
    if name == "hs-growth" and draw(st.booleans()):
        sim["hs_values"] = draw(exponents.filter(bool))
    params = {
        "z": st.one_of(config_numbers, st.lists(config_numbers, min_size=2, max_size=2)),
        "boost_modes": st.lists(st.sampled_from([0, 1, -3, 10**6]), min_size=dim, max_size=dim),
        "eps_sequence": ladders(st.floats(0.0, 1.0), descending=True),
        "cutoffs": ladders(st.floats(0.0, 16.0), descending=False),
        "dt_ladder": ladders(st.integers(1, 20).map(lambda k: sim["t_final"] / k),
                             descending=True),
    }
    doc["experiment"] = {key: draw(params[key]) for key in EXPERIMENTS[name].params}
    if EXPERIMENTS[name].needs_datum_b:
        doc["datum_b"] = draw(datum_sections(dim))
    return name, doc


class TestExperimentFuzz:
    @given(case=experiment_configs())
    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_exits_with_a_verdict_or_2(self, tmp_path_factory, case):
        """In process, under the suite's warnings-as-errors: a run ends in a
        verdict whose margins are finite, with nothing on stderr, or with
        exit 2 and error lines, never with a warning or an exception."""
        name, doc = case
        work = tmp_path_factory.mktemp("fuzz")
        (work / "config.json").write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["experiment", name, "--config", str(work / "config.json"),
                         "--out", str(work / "report.json")])
        lines = err.getvalue().splitlines()
        if code in (0, 1):
            assert lines == []
            margins = json.loads((work / "report.json").read_text())["margins"]
            assert all(math.isfinite(v) for v in margins.values()), margins
        else:
            assert code == 2
            assert lines and all(line.startswith(("error: ", "config error: "))
                                 for line in lines), lines



@st.composite
def sweep_datum(draw, dim, periodic):
    """A datum of the soundness sweep: a Gaussian of width 0.05 to 0.2 and
    amplitude 0.2 to 3, a band-limited or rough (s = 0.25 to 2) field, or,
    on a periodic grid, a plane wave."""
    kind = draw(st.sampled_from(["gaussian_bump", "random_band_limited", "random_rough",
                                 *["plane_wave"] * periodic]))
    if kind == "gaussian_bump":
        return {"kind": kind, "width": draw(st.sampled_from([0.05, 0.1, 0.2])),
                "amplitude": draw(st.sampled_from([0.2, 1.0, 3.0]))}
    if kind == "random_band_limited":
        return {"kind": kind, "cutoff": draw(st.sampled_from([2.0, 4.0, 8.0])),
                "seed": draw(st.integers(0, 9))}
    if kind == "random_rough":
        return {"kind": kind, "target_s": draw(st.sampled_from([0.25, 0.5, 1.0, 2.0])),
                "seed": draw(st.integers(0, 9))}
    return {"kind": kind, "modes": draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)),
            "amplitude": draw(st.sampled_from([0.2, 1.0, 3.0]))}


@st.composite
def sound_configs(draw):
    """A valid config of an experiment whose verdict is a theorem the scheme
    meets: lipschitz, hs-growth or scaling (at eps = 0). The torus in 1-d to
    3-d, the periodic box, the interval and 2-d and 3-d slabs, with 8 to 256
    points per axis in 1-d, 8 to 32 in 2-d and 8 in 3-d (the sweep's
    budget is about 2 s), 20 to 100 steps and both splittings."""
    name = draw(st.sampled_from(["lipschitz", "hs-growth", "scaling"]))
    kind, dim = draw(st.sampled_from([
        ("torus", 1), ("torus", 2), ("torus", 3), ("periodic_box", 1), ("periodic_box", 2),
        ("dirichlet_interval", 1), ("dirichlet_slab", 2), ("dirichlet_slab", 3)]))
    points = {1: [8, 16, 32, 64, 128, 256], 2: [8, 16, 32], 3: [8]}[dim]
    geometry = {"kind": kind, "points": draw(st.lists(st.sampled_from(points),
                                                      min_size=dim, max_size=dim))}
    if kind != "torus":
        geometry["lengths"] = draw(st.lists(st.sampled_from([1.0, 2.0, 2.0 * math.pi]),
                                            min_size=dim, max_size=dim))
    dt = draw(st.sampled_from([5e-4, 1e-3, 2e-3]))
    sim = {"lambda": draw(st.sampled_from([-2.0, -1.0, -0.3, 0.5, 1.0, 2.0])),
           "eps": 0.0 if name == "scaling" else draw(st.sampled_from([0.0, 1e-3, 1e-2, 0.1])),
           "dt": dt, "t_final": draw(st.integers(20, 100)) * dt,
           "splitting": draw(st.sampled_from(["lie", "strang"])),
           "record_every": draw(st.sampled_from([1, 5, 10]))}
    if name == "hs-growth":
        sim["hs_values"] = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0]), min_size=1,
                                         max_size=3, unique=True))
    periodic = kind in ("torus", "periodic_box")
    doc = {"geometry": geometry, "sim": sim, "datum": draw(sweep_datum(dim, periodic))}
    if name == "lipschitz":
        doc["datum_b"] = draw(sweep_datum(dim, periodic))
    if name == "scaling":
        doc["experiment"] = {"z": draw(st.sampled_from([0.5, 2.0, [0.6, 0.8], [-1.0, 3.0]]))}
    return name, doc


class TestSoundnessSweep:
    @given(case=sound_configs())
    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_the_scheme_passes_every_theorem_it_meets(self, tmp_path_factory, case):
        """In process: the correct scheme PASSes lipschitz, hs-growth and
        scaling on every valid config drawn, exit 0 with nothing on stderr.
        A FAIL here is a false FAIL of the harness, or a fault of the scheme."""
        name, doc = case
        work = tmp_path_factory.mktemp("sweep")
        (work / "config.json").write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["experiment", name, "--config", str(work / "config.json"),
                         "--out", str(work / "report.json")])
        assert (code, err.getvalue()) == (0, ""), out.getvalue()


class TestOutOfRange:
    """Configs whose numbers are finite but whose squares or products leave
    the float range: each exits as below, with no warning (the suite turns
    warnings into errors) and no traceback."""

    SIM = {"lambda": 1.0, "eps": 0.001, "dt": 0.001, "t_final": 0.002}
    CASES = {
        # 2 width^2 is inf, or 0: the bump's exponent has no scale
        "width 1e300": ({"kind": "torus", "points": [16]}, None,
                        {"kind": "gaussian_bump", "width": 1e300}, 2,
                        "config error: datum.width: 2 width^2 is out of the float range"),
        "width 1e-300": ({"kind": "torus", "points": [16]}, None,
                         {"kind": "gaussian_bump", "width": 1e-300}, 2,
                         "config error: datum.width: 2 width^2 is out of the float range"),
        # a finite datum whose mass overflows is not called vanishing: the
        # mass rule rejects it before any record
        "amplitude 1e160": ({"kind": "torus", "points": [64]}, None,
                            {"kind": "gaussian_bump", "amplitude": 1e160}, 2,
                            "error: datum: gaussian_bump has mass inf on this torus grid"),
        "amplitude max": ({"kind": "torus", "points": [64]}, None,
                          {"kind": "gaussian_bump", "amplitude": 1.7976931348623157e308,
                           "width": 0.3}, 2,
                          "error: datum: gaussian_bump overflows on this torus grid"),
        "interval 1e-200": ({"kind": "dirichlet_interval", "points": [64], "lengths": [1e-200]},
                            None, {"kind": "gaussian_bump"}, 2,
                            "config error: geometry: lengths [1e-200] put the cell volume"),
        "box 1e200 x 1e200": ({"kind": "periodic_box", "points": [8, 8],
                               "lengths": [1e200, 1e200]}, None,
                              {"kind": "random_rough", "target_s": 0.5}, 2,
                              "config error: geometry: lengths [1e+200, 1e+200] put"),
        "dt 1e300": ({"kind": "periodic_box", "points": [16, 16], "lengths": [1e-150, 1.0]},
                     {"dt": 1e300, "t_final": 2e300}, {"kind": "plane_wave", "modes": [1, 1]},
                     2, "config error: sim: dt 1e+300 overflows the free symbol's phase"),
        # the Gaussian's far images square to inf, and exp(-inf) = 0
        "slab 1e200": ({"kind": "dirichlet_slab", "points": [16, 16], "lengths": [1.0, 1e200]},
                       None, {"kind": "gaussian_bump"}, 0, None),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_exits_with_one_line(self, tmp_path, capsys, case):
        geometry, sim, datum, code, first = self.CASES[case]
        doc = {"geometry": geometry, "sim": {**self.SIM, **(sim or {})}, "datum": datum}
        (tmp_path / "config.json").write_text(json.dumps(doc))
        argv = ["simulate", "--config", str(tmp_path / "config.json"),
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == code
        lines = capsys.readouterr().err.splitlines()
        if code == 0:
            assert lines == []
        else:
            assert lines[0].startswith(first), lines
            assert lines[1:] == ([] if lines[0].startswith(("config error: ", "error: datum"))
                                 else [f"kept {tmp_path / 'out' / 'timeseries.csv'} "
                                       "(0 records, 0 snapshots)"])


class TestParserReuse:
    NORMS = ["norms", "--s", "0.25,1", "--lambda", "-1", "--eps", "0.01"]

    @pytest.fixture
    def snapshot(self, tmp_path):
        return str(slab_snapshot(tmp_path)[1])

    def test_main_builds_no_parser(self, snapshot, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        outputs = []
        for _ in range(2):
            assert main([*self.NORMS, "--snapshot", snapshot]) == 0
            outputs.append(capsys.readouterr())
        assert built == []
        assert outputs[0] == outputs[1] and outputs[0].err == ""

    def test_a_usage_error_after_a_call_exits_2_with_the_usage(self, snapshot, capsys):
        assert main([*self.NORMS, "--snapshot", snapshot]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            main(["norms", "--snapshot", snapshot])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: logns norms [-h] --snapshot SNAPSHOT --s S")
        assert err.endswith("logns norms: error: the following arguments are required: "
                            "--s, --lambda, --eps\n")
        # the failed parse left no state behind
        assert main([*self.NORMS, "--snapshot", snapshot]) == 0

    @pytest.mark.parametrize("command", [[], ["simulate"], ["experiment"], ["norms"],
                                         ["check-inequality"]])
    def test_help_exits_0_with_the_text_of_a_fresh_parser(self, command, capsys, monkeypatch):
        """Help is formatted when it is printed, at the terminal width of that time."""
        texts = {}
        for columns in ("80", "40"):
            monkeypatch.setenv("COLUMNS", columns)
            for name, parse in (("main", main), ("fresh", cli.build_parser().parse_args)):
                with pytest.raises(SystemExit) as info:
                    parse([*command, "--help"])
                assert info.value.code == 0
                texts[name, columns] = capsys.readouterr().out
        assert texts["main", "80"] == texts["fresh", "80"]
        assert texts["main", "40"] == texts["fresh", "40"] != texts["main", "80"]
        assert texts["main", "80"].startswith(" ".join(["usage: logns", *command]))


class TestCheckInequality:
    def test_small_suite_passes(self, capsys):
        assert main(["check-inequality", "--samples", "20000", "--seed", "1"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_passing_run_prints_how_close_the_bound_came(self, capsys):
        assert main(["check-inequality", "--samples", "1000", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        worst = float(out.split("worst margin     :")[1].split()[0])
        assert worst < 0.0
        # the margin of a pass is the slack floor; the ratio shows the bound's use
        ratio = float(out.split("worst ratio      :")[1].split()[0])
        assert 0.0 < ratio <= 1.0
        assert "verdict          : PASS" in out

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_rejects_fewer_than_one_sample(self, samples, capsys):
        assert main(["check-inequality", "--samples", samples]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --samples must be at least 1, got {samples}\n"
        assert captured.out == ""

    def test_rejects_a_negative_seed(self, capsys):
        assert main(["check-inequality", "--samples", "10", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --seed must be non-negative, got -1\n"
        assert captured.out == ""

    @pytest.mark.parametrize("seed, ratio", [
        (0, "6.526562e-01"), (3, "5.628545e-01"), (7, "6.014502e-01"),
    ])
    def test_stdout_is_pinned(self, seed, ratio, capsys):
        """Every printed digit of the default suite at three seeds, with each
        block's moduli and relative phases drawn from one stream and shared by
        both cases. The worst ratio is the unequal-eps case's; at eps = 0 the
        ratio is at most 1/2. At seed 0, moduli drawn per chunk of 2^16 pairs
        printed worst ratio 6.902857e-01, two independent phases per pair
        5.757966e-01, and a relative phase from two normals 6.094800e-01."""
        assert main(["check-inequality", "--samples", "1000000", "--seed", str(seed)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "samples per case : 1000000",
            "non-finite       : 0 (gap or bound; 0 passes)",
            "worst margin     : -1.000000e-12 (<= 0 passes)",
            f"worst ratio      : {ratio} (<= 1 passes)",
            "verdict          : PASS",
        ]

    def test_a_count_off_the_block_size_draws_every_sample(self, capsys, monkeypatch):
        """70001 is not a multiple of the 2^13 block: the suite draws eight
        blocks of 2^13 pairs, then one of 4465, and judges both cases on each
        block, so every pair is evaluated once per case."""
        sizes = []
        gap = nonlinearity.monotonicity_gap

        def sized_gap(z1, z2, eps1, eps2):
            sizes.append(np.size(z1))
            return gap(z1, z2, eps1, eps2)

        monkeypatch.setattr(nonlinearity, "monotonicity_gap", sized_gap)
        assert main(["check-inequality", "--samples", "70001", "--seed", "3"]) == 0
        assert sizes == [8192, 8192] * 8 + [4465, 4465]
        out = capsys.readouterr().out
        assert "samples per case : 70001" in out
        assert "verdict          : PASS" in out

    @pytest.mark.parametrize("kernel, value, every, count", [
        ("monotonicity_gap", np.nan, 1, 2000),
        ("monotonicity_gap", np.nan, 7, 286),  # 2 cases x 143
        ("monotonicity_gap", np.inf, 7, 286),
        ("monotonicity_bound", np.nan, 7, 286),
        ("monotonicity_bound", np.inf, 7, 286),
    ])
    def test_a_non_finite_gap_or_bound_fails(self, kernel, value, every, count, capsys,
                                             monkeypatch):
        """max() drops a NaN and an infinite bound makes a margin -inf, so
        neither may reach the margin unseen: each one fails and is counted."""
        original = getattr(nonlinearity, kernel)

        def broken(z1, z2, eps1, eps2):
            out = np.array(original(z1, z2, eps1, eps2), dtype=float)
            out[::every] = value
            return out

        monkeypatch.setattr(nonlinearity, kernel, broken)
        assert main(["check-inequality", "--samples", "1000", "--seed", "0"]) == 1
        out = capsys.readouterr().out
        assert f"non-finite       : {count} (gap or bound; 0 passes)" in out
        assert "verdict          : FAIL" in out

    @pytest.mark.parametrize("kernel, mutant", [
        ("monotonicity_gap", lambda gap: lambda *args: 2.0 * gap(*args)),
        # |z1 - z2|^2 alone bounds only the eps1 = eps2 case
        ("monotonicity_bound", lambda bound: lambda z1, z2, eps1, eps2: bound(z1, z2)),
    ], ids=["doubled gap", "bound without its eps term"])
    def test_a_wrong_kernel_fails(self, kernel, mutant, capsys, monkeypatch):
        monkeypatch.setattr(nonlinearity, kernel, mutant(getattr(nonlinearity, kernel)))
        assert main(["check-inequality", "--samples", "1000000", "--seed", "0"]) == 1
        out = capsys.readouterr().out
        assert float(out.split("worst ratio      :")[1].split()[0]) > 1.0
        assert "verdict          : FAIL" in out

    def test_draws_5_uniforms_per_pair(self, monkeypatch, capsys):
        """4 moduli (r1, r2, eps1, eps2) and one u per pair, shared by both
        cases, in two `random` calls per block: 5 uniforms per pair where a
        fresh draw for the eps = 0 case made it 8."""
        counts = []
        default_rng = np.random.default_rng

        class Counting:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def random(self, *args, **kwargs):
                out = self.rng.random(*args, **kwargs)
                counts.append(out.size)
                return out

        monkeypatch.setattr(np.random, "default_rng", Counting)
        assert main(["check-inequality", "--samples", "70001", "--seed", "3"]) == 0
        assert counts == [4 * 8192, 8192] * 8 + [4 * 4465, 4465]
        assert sum(counts) == 5 * 70001
        assert "verdict          : PASS" in capsys.readouterr().out

    def test_both_cases_of_a_block_get_its_one_draw(self, monkeypatch, capsys):
        """The two gap calls of a block receive bitwise-equal r1 and z2, the
        first with the scalar eps = 0, whose bound gives the slack, and the
        second with the block's eps rows; so do the two bound calls."""
        calls = {"monotonicity_gap": [], "monotonicity_bound": []}
        for name, record in calls.items():
            def recording(z1, z2, eps1, eps2, kernel=getattr(nonlinearity, name),
                          record=record):
                record.append((z1.copy(), z2.copy(), np.copy(eps1), np.copy(eps2)))
                return kernel(z1, z2, eps1, eps2)

            monkeypatch.setattr(nonlinearity, name, recording)
        assert main(["check-inequality", "--samples", "20000", "--seed", "0"]) == 0
        assert "verdict          : PASS" in capsys.readouterr().out
        for record in calls.values():
            assert [z1.size for z1, *_ in record] == [8192, 8192, 8192, 8192, 3616, 3616]
            for (r1_0, z2_0, e1_0, e2_0), (r1, z2, e1, e2) in zip(record[::2], record[1::2]):
                assert r1.dtype == float and z2.dtype == complex
                assert r1.tobytes() == r1_0.tobytes() and z2.tobytes() == z2_0.tobytes()
                assert e1_0.shape == e2_0.shape == () and e1_0 == e2_0 == 0.0
                assert e1.shape == e2.shape == r1.shape and np.all(e1 != e2)

    def test_peak_memory_is_at_most_the_two_phase_suites(self, peak_traced_bytes, capsys):
        """The suite with two phases per pair peaked at 12,289,298 traced bytes
        (13,146,168 on a process's first call) at 10^6 samples; one relative
        phase and the one-pass gap kernel may not use more."""
        argv = ["check-inequality", "--samples", "1000000", "--seed", "0"]
        code, peak = peak_traced_bytes(main, argv)
        assert code == 0
        assert peak <= 12_289_298

    def test_peak_memory_is_the_draw_buffers_and_a_few_blocks(self, peak_traced_bytes,
                                                              capsys):
        """The moduli buffer holds 4 floats per pair of one block of 2^13
        pairs (r1, r2, eps1, eps2), 32 B x 2^13 = 256 KiB, and the z2
        buffer for one block, 128 KiB; the kernels' and the suite's
        temporaries are block-sized, and peaked at 11.44 float arrays of 2^13
        pairs (1,142,900 traced bytes with the slack formed from the eps = 0
        bound, 1,143,024 with it formed from its own |z1 - z2|; 12.45 when
        each case drew its own pairs and formed its own slack), so 13 such
        arrays bound them:
        1,245,184 traced bytes in all, against 3,043,776 when the moduli of a
        whole 2^16 chunk were held (2 MiB). A first call of one sample keeps the one-time imports of the
        generator out of the peak."""
        assert main(["check-inequality", "--samples", "1", "--seed", "0"]) == 0
        argv = ["check-inequality", "--samples", "1000000", "--seed", "0"]
        code, peak = peak_traced_bytes(main, argv)
        assert code == 0
        assert peak <= 32 * 2**13 + 16 * 2**13 + 13 * 8 * 2**13

    @pytest.mark.parametrize("samples", [1, 8193, 70001, 2**17 + 5])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_stdout_is_that_of_whole_block_draws(self, seed, samples, capsys):
        """The buffered, in-place suite prints every byte that
        `whole_block_suite`, which draws and forms each block out of place,
        prints: at one pair, one past a block, a count off the block and 16
        blocks and 5 pairs."""
        assert main(["check-inequality", "--samples", str(samples), "--seed", str(seed)]) == 0
        assert capsys.readouterr().out == whole_block_suite(samples, seed)

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("block", [2**16, 1000], ids=["one block of 2^16", "1000"])
    def test_the_block_alone_fixes_the_stream(self, seed, block, capsys, monkeypatch):
        """`_BLOCK` cuts the stream: at a block of 2^16, which holds all 70001
        pairs in two blocks, and of 1000, which does not divide them, every
        printed byte is that of `whole_block_suite` cut at that block, and the
        buffers follow the block."""
        monkeypatch.setattr(cli, "_BLOCK", block)
        assert main(["check-inequality", "--samples", "70001", "--seed", str(seed)]) == 0
        assert capsys.readouterr().out == whole_block_suite(70001, seed, block)

    def test_relative_phases_fill_the_circle_evenly(self):
        """2^16 phases at seed 0 in 64 equal bins of (-pi, pi], 1024 expected
        in each. For uniform phases Pearson's statistic X^2 is asymptotically
        chi-square with k = 63 degrees of freedom, and Laurent & Massart (Ann.
        Statist. 2000, Lemma 1) give P(X^2 >= k + 2 sqrt(k x) + 2 x) <= e^-x;
        x = 20 makes that 63 + 2 sqrt(1260) + 40 < 174, a bound a uniform draw
        exceeds with probability below 2.1e-9. A phase on half the circle
        gives X^2 = 65536. Each phase is also pi (2u - 1) for the uniform u
        the generator gave, to within 4.5e-16."""
        n = 2**16
        z2 = cli._draw_z2(np.random.default_rng(0), np.ones(n), np.empty(2 * n))
        theta = np.angle(z2)
        counts, _ = np.histogram(theta, bins=64, range=(-math.pi, math.pi))
        assert counts.sum() == n
        assert np.sum((counts - n / 64) ** 2 / (n / 64)) < 174.0
        u = np.random.default_rng(0).random(n)
        assert np.max(np.abs(np.angle(np.exp(1j * (theta - math.pi * (2.0 * u - 1.0)))))) < 4.5e-16

    def test_the_phase_keeps_the_modulus_to_4_ulps(self):
        """|z2| = r2 within 4 units in the last place of r2, for every pair of
        a block whose r2 spans [1e-15, 1e15] as the suite's moduli do."""
        rng = np.random.default_rng(5)
        r2 = np.exp(rng.uniform(-cli._LOG_SPAN, cli._LOG_SPAN, cli._BLOCK))
        z2 = cli._draw_z2(rng, r2, np.empty(2 * cli._BLOCK))
        assert z2.shape == r2.shape
        assert np.all(np.abs(np.abs(z2) - r2) <= 4.0 * np.spacing(r2))

    def test_a_zero_uniform_gives_a_finite_phase_near_pi(self):
        """u = 0 is theta = -pi, where tan(theta / 2) is -1.6e16 and not an
        overflow: z2 is -r2 and an imaginary part of 1.2e-16 r2, with no
        warning (every warning is an error in this suite)."""

        class Zeros:
            def random(self, out):
                out[:] = 0.0
                return out

        r2 = np.array([1e-15, 1.0, 3.0, 1e15])
        z2 = cli._draw_z2(Zeros(), r2, np.empty(2 * r2.size))
        assert np.all(np.isfinite(z2))
        assert np.array_equal(z2.real, -r2)
        assert np.all(np.abs(z2.imag) <= 1.3e-16 * r2)


def whole_block_suite(n: int, seed: int, block: int = 2**13) -> str:
    """The stdout of `check-inequality` drawn the way the stream is defined:
    per block of `block` pairs, all 4 x block moduli (r1, r2, eps1, eps2) in
    one `random` call, then one uniform u per pair, whose relative phase
    theta = pi (2u - 1) is formed in the half-angle form. Both cases, the
    block's eps and eps = 0, read that one draw. Each quantity is formed by
    the suite's operations in the suite's order, out of place."""
    span = 15.0 * math.log(10.0)
    rng = np.random.default_rng(seed)
    non_finite, worst, ratio = 0, -math.inf, 0.0
    for lo in range(0, n, block):
        moduli = np.exp(rng.random((4, min(block, n - lo))) * (2.0 * span) - span)
        r1, r2 = moduli[0], moduli[1]
        t = np.tan((rng.random(r1.size) - 0.5) * math.pi)
        q = 2.0 / (t * t + 1.0)
        z2 = np.empty(r1.size, dtype=complex)
        z2.real, z2.imag = (q - 1.0) * r2, t * q * r2
        slack = 1e-12 * (1.0 + np.abs(z2 - r1) ** 2)
        for e1, e2 in ((moduli[2], moduli[3]), (0.0, 0.0)):
            gap = np.abs(nonlinearity.monotonicity_gap(r1, z2, e1, e2))
            bound = nonlinearity.monotonicity_bound(r1, z2, e1, e2)
            finite = np.isfinite(gap) & np.isfinite(bound)
            non_finite += int(np.count_nonzero(~finite))
            worst = max(worst, float(np.max(gap - bound - slack, where=finite,
                                            initial=-math.inf)))
            ratio = max(ratio, float(np.max(gap / (bound + slack), where=finite,
                                            initial=0.0)))
    passed = non_finite == 0 and worst <= 0.0
    return (f"samples per case : {n}\n"
            f"non-finite       : {non_finite} (gap or bound; 0 passes)\n"
            f"worst margin     : {worst:.6e} (<= 0 passes)\n"
            f"worst ratio      : {ratio:.6e} (<= 1 passes)\n"
            f"verdict          : {'PASS' if passed else 'FAIL'}\n")
