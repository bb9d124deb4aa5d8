"""Config validation, CSV time series, and the binary snapshot format."""

import math

import numpy as np
import pytest

from logns.diagnostics import DiagnosticsRecord
from logns.geometry import DomainKind, Field, GridGeometry
from logns.io import (
    ConfigError,
    SnapshotFormatError,
    parse_config,
    read_snapshot,
    read_timeseries,
    write_snapshot,
    write_timeseries,
)

MINIMAL = """
{
  "geometry": {"kind": "torus", "points": [64]},
  "sim": {"lambda": 1.0, "eps": 0.01, "dt": 0.001, "t_final": 1.0}
}
"""


class TestParseConfig:
    def test_minimal_document(self):
        doc = parse_config(MINIMAL)
        assert doc.geometry.kind is DomainKind.TORUS
        assert doc.geometry.lengths == (1.0,)  # torus default
        assert doc.sim == {"lam": 1.0, "eps": 0.01, "dt": 0.001, "t_final": 1.0}
        assert doc.datum is None
        assert doc.experiment == {}

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{not json")

    def test_top_level_must_be_object(self):
        with pytest.raises(ConfigError, match="top level"):
            parse_config("[1, 2]")

    def test_all_errors_are_collected(self):
        bad = """
        {
          "geometry": {"kind": "moebius", "points": [64]},
          "sim": {"lambda": 1.0, "eps": -0.5, "dt": 0.001},
          "bogus": 1
        }
        """
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        errors = exc.value.errors
        assert any("geometry.kind" in e for e in errors)
        assert any("sim.eps" in e for e in errors)
        assert any("sim.t_final" in e for e in errors)
        assert any("bogus" in e for e in errors)

    def test_unknown_sim_key(self):
        bad = MINIMAL.replace('"t_final": 1.0', '"t_final": 1.0, "cfl": 0.5')
        with pytest.raises(ConfigError, match="sim.cfl"):
            parse_config(bad)

    def test_physical_parameters_have_no_defaults(self):
        bad = MINIMAL.replace('"eps": 0.01, ', "")
        with pytest.raises(ConfigError, match="sim.eps"):
            parse_config(bad)

    def test_non_torus_needs_lengths(self):
        bad = MINIMAL.replace('"torus"', '"periodic_box"')
        with pytest.raises(ConfigError, match="lengths"):
            parse_config(bad)

    def test_boolean_is_not_a_number(self):
        bad = MINIMAL.replace('"eps": 0.01', '"eps": true')
        with pytest.raises(ConfigError, match="sim.eps"):
            parse_config(bad)

    def test_datum_parsing(self):
        text = MINIMAL.rstrip().rstrip("}") + ""","datum": {
            "kind": "plane_wave", "modes": [3], "amplitude": [0.5, -0.5]}}"""
        doc = parse_config(text)
        assert doc.datum.kind == "plane_wave"
        assert doc.datum.modes == (3,)
        assert doc.datum.amplitude == 0.5 - 0.5j

    def test_datum_unknown_key(self):
        text = MINIMAL.rstrip().rstrip("}") + ""","datum": {
            "kind": "gaussian_bump", "sigma": 0.1}}"""
        with pytest.raises(ConfigError, match="datum.sigma"):
            parse_config(text)

    def test_experiment_must_be_object(self):
        text = MINIMAL.rstrip().rstrip("}") + ""","experiment": [1]}"""
        with pytest.raises(ConfigError, match="experiment"):
            parse_config(text)

    def test_hs_values_range_checked(self):
        bad = MINIMAL.replace('"t_final": 1.0', '"t_final": 1.0, "hs_values": [0.5, 2.0]')
        with pytest.raises(ConfigError, match="hs_values"):
            parse_config(bad)


def sample_records():
    return [
        DiagnosticsRecord(0.0, 1.0, -0.5, hs_norms={0.5: 1.25, 0.25: 1.1}),
        DiagnosticsRecord(0.1, 1.0 + 1e-16, -0.5 + 1e-13,
                          hs_norms={0.5: math.pi, 0.25: 1.2}),
    ]


class TestTimeseries:
    def test_header_and_ordering(self, tmp_path):
        path = tmp_path / "ts.csv"
        write_timeseries(sample_records(), path)
        first = path.read_text().splitlines()[0]
        assert first == "time,mass,energy,hs_0.25,hs_0.5"

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "ts.csv"
        write_timeseries(sample_records(), path)
        blob = path.read_bytes()
        assert b"\r" not in blob
        assert blob.endswith(b"\n")

    def test_round_trip_preserves_doubles(self, tmp_path):
        path = tmp_path / "ts.csv"
        records = sample_records()
        write_timeseries(records, path)
        back = read_timeseries(path)
        assert len(back) == 2
        for orig, rec in zip(records, back):
            assert rec.time == orig.time
            assert rec.mass == orig.mass
            assert rec.energy == orig.energy
            assert rec.hs_norms == orig.hs_norms

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_timeseries(sample_records(), a)
        write_timeseries(sample_records(), b)
        assert a.read_bytes() == b.read_bytes()


def sample_field(kind=DomainKind.TORUS):
    if kind is DomainKind.DIRICHLET_INTERVAL:
        geom = GridGeometry(kind, (0.5,), (16,))
        x = geom.axis_coordinates(0)
        return Field(geom, np.sin(2 * math.pi * x / 0.5) * (1 - 0.5j))
    lengths = (1.0,) if kind is DomainKind.TORUS else (2.0, 0.5)
    points = (16,) if kind is DomainKind.TORUS else (8, 16)
    geom = GridGeometry(kind, lengths, points)
    rng = np.random.default_rng(8)
    return Field(geom, rng.standard_normal(points) + 1j * rng.standard_normal(points))


class TestSnapshots:
    @pytest.mark.parametrize(
        "kind", [DomainKind.TORUS, DomainKind.PERIODIC_BOX, DomainKind.DIRICHLET_INTERVAL]
    )
    def test_round_trip_bit_exact(self, kind, tmp_path):
        f = sample_field(kind)
        path = tmp_path / "snap.bin"
        write_snapshot(f, 0.375, path)
        back, t = read_snapshot(path)
        assert t == 0.375
        assert back.geometry == f.geometry
        assert np.array_equal(back.data, f.data)

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "snap.bin"
        write_snapshot(sample_field(), 0.0, path)
        assert path.read_bytes()[:8] == b"LOGNSFLD"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(SnapshotFormatError, match="magic"):
            read_snapshot(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "snap.bin"
        write_snapshot(sample_field(), 0.0, path)
        path.write_bytes(path.read_bytes()[:14])
        with pytest.raises(SnapshotFormatError):
            read_snapshot(path)

    def test_payload_size_mismatch(self, tmp_path):
        path = tmp_path / "snap.bin"
        write_snapshot(sample_field(), 0.0, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(SnapshotFormatError, match="payload"):
            read_snapshot(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "snap.bin"
        write_snapshot(sample_field(), 0.0, path)
        blob = bytearray(path.read_bytes())
        blob[8] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotFormatError, match="version"):
            read_snapshot(path)

    def test_deterministic_bytes(self, tmp_path):
        f = sample_field()
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        write_snapshot(f, 1.0, a)
        write_snapshot(f, 1.0, b)
        assert a.read_bytes() == b.read_bytes()
