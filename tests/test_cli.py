"""End-to-end command-line behavior and exit codes."""

import json

import pytest

from logns.cli import main
from logns.io import read_snapshot, read_timeseries


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

    def test_bad_snapshot_exits_2(self, tmp_path, capsys):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"garbage")
        code = main(
            ["norms", "--snapshot", str(path), "--s", "0.5", "--lambda", "1", "--eps", "0"]
        )
        assert code == 2
        assert "magic" in capsys.readouterr().err


class TestCheckInequality:
    def test_small_suite_passes(self, capsys):
        assert main(["check-inequality", "--samples", "20000", "--seed", "1"]) == 0
        assert "PASS" in capsys.readouterr().out
