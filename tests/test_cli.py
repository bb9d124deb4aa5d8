"""End-to-end command-line behavior and exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from logns import experiments
from logns.cli import main
from logns.data import DatumSpec, make_datum
from logns.diagnostics import energy, hs_gagliardo_norm, hs_norm, mass
from logns.experiments import EXPERIMENTS
from logns.geometry import DomainKind, GridGeometry
from logns.io import read_snapshot, read_timeseries, write_snapshot


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


class TestSimulate:
    def test_writes_csv_and_snapshots(self, tmp_path):
        cfg = write_config(
            tmp_path, extra=GAUSSIAN_DATUM, sim_extra=', "snapshot_every": 5'
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        records = read_timeseries(out / "timeseries.csv")
        assert len(records) == 11
        snaps = sorted(out.glob("snapshot_*.bin"))
        assert len(snaps) == 3
        _, t = read_snapshot(snaps[-1])
        assert t == pytest.approx(0.1)

    def test_missing_datum_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert "datum" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_integration_error_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, extra=GAUSSIAN_DATUM)
        cfg.write_text(cfg.read_text().replace('"lambda": 1.0', '"lambda": 1e308'))
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite sample at step 1")
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_run_keeps_what_it_sampled(self, tmp_path, capsys):
        cfg = write_config(tmp_path, extra=GAUSSIAN_DATUM, sim_extra=', "snapshot_every": 1')
        cfg.write_text(cfg.read_text().replace('"lambda": 1.0', '"lambda": 1e308'))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("error: non-finite sample at step 1")
        assert err[1:] == [f"kept {out / 'timeseries.csv'} (1 records, 1 snapshots, "
                           "last sample at t=0)"]
        [record] = read_timeseries(out / "timeseries.csv")
        assert record.time == 0.0
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
        assert [r.time for r in read_timeseries(out / "timeseries.csv")] == [0.0, 0.01]
        _, t = read_snapshot(out / "snapshot_000000.bin")
        assert t == 0.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_run_with_unwritable_csv_keeps_nothing(self, tmp_path, capsys):
        # a failed run whose time series cannot be written says why, and does
        # not claim to have kept it
        cfg = write_config(tmp_path, extra=GAUSSIAN_DATUM)
        cfg.write_text(cfg.read_text().replace('"lambda": 1.0', '"lambda": 1e308'))
        out = tmp_path / "out"
        (out / "timeseries.csv").mkdir(parents=True)
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "kept" not in err
        assert [line.split(":")[0] for line in err.splitlines()] == ["error", "error"]
        assert err.startswith("error: non-finite sample at step 1")
        assert f"error: cannot write time series to {out / 'timeseries.csv'}" in err

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

    def slab_snapshot(self, tmp_path):
        geom = GridGeometry(DomainKind.DIRICHLET_SLAB, (1.0, 1.0), (16, 8))
        field = make_datum(DatumSpec(kind="random_band_limited", cutoff=3.0, seed=2), geom)
        write_snapshot(field, 0.5, tmp_path / "slab.bin")
        return field, tmp_path / "slab.bin"

    def test_dirichlet_values_match_the_diagnostics(self, tmp_path, capsys):
        field, path = self.slab_snapshot(tmp_path)
        argv = ["norms", "--snapshot", str(path), "--s", "0.25,1", "--lambda", "-1", "--eps", "0.01"]
        assert main(argv) == 0
        printed = [float(tok) for line in capsys.readouterr().out.splitlines()
                   for tok in line.partition(":")[2].split()
                   if tok not in ("multiplier", "gagliardo")]
        expected = [0.5, mass(field), energy(field, -1.0, 0.01), hs_norm(field, 0.25),
                    hs_gagliardo_norm(field, 0.25), hs_norm(field, 1.0)]
        assert printed == expected

    def test_negative_eps_exits_2(self, tmp_path, capsys):
        _, path = self.slab_snapshot(tmp_path)
        argv = ["norms", "--snapshot", str(path), "--s", "0.5", "--lambda", "1", "--eps", "-0.1"]
        assert main(argv) == 2
        assert "eps must be >= 0" in capsys.readouterr().err

    def test_bad_snapshot_exits_2(self, tmp_path, capsys):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"garbage")
        code = main(
            ["norms", "--snapshot", str(path), "--s", "0.5", "--lambda", "1", "--eps", "0"]
        )
        assert code == 2
        assert "magic" in capsys.readouterr().err

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
        assert "--samples must be at least 1" in captured.err
        assert "PASS" not in captured.out
