"""Config validation, CSV time series, and the binary snapshot format."""

import dataclasses
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from logns import experiments, io
from logns.data import DATUM_KEYS, DATUM_KIND, DatumSpec
from logns.diagnostics import DiagnosticsRecord
from logns.experiments import EXPERIMENT_KEYS, EXPERIMENTS
from logns.geometry import GEOMETRY_KEYS, DomainKind, Field, GridGeometry
from logns.integrator import SIM_KEYS, SimConfig
from logns.io import (
    ConfigError,
    SnapshotFormatError,
    parse_config,
    read_snapshot,
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
        doc = parse_config(MINIMAL.rstrip().rstrip("}") + ',"datum": {"kind": "gaussian_bump"}}')
        assert doc.sim.geometry.kind is DomainKind.TORUS
        assert doc.sim.geometry.lengths == (1.0,)  # torus default
        assert (doc.sim.lam, doc.sim.eps, doc.sim.dt, doc.sim.t_final) == (1.0, 0.01, 0.001, 1.0)
        assert doc.datum.kind == "gaussian_bump"
        assert doc.experiment == {}

    def test_datum_is_required(self):
        with pytest.raises(ConfigError) as info:
            parse_config(MINIMAL)
        assert info.value.errors == ["datum: missing required key"]

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

    @pytest.mark.parametrize("value", ["NaN", "-Infinity", "1" + "0" * 400])
    def test_numbers_must_be_finite_floats(self, value):
        bad = MINIMAL.replace('"lambda": 1.0', f'"lambda": {value}')
        with pytest.raises(ConfigError, match="sim.lambda: expected a number"):
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

    def test_amplitude_must_be_a_number_or_pair(self):
        bad = MINIMAL.rstrip().rstrip("}") + ""","datum": {
            "kind": "plane_wave", "modes": [3], "amplitude": [1, 2, 3]}}"""
        with pytest.raises(ConfigError, match="datum.amplitude"):
            parse_config(bad)

    def test_experiment_parameters_parsed(self):
        text = MINIMAL.rstrip().rstrip("}") + ""","datum": {"kind": "gaussian_bump"},
            "experiment": {"z": [1.0, 2.0]}}"""
        unregularized = text.replace('"eps": 0.01', '"eps": 0.0')
        assert parse_config(unregularized, "scaling").experiment == {"z": 1.0 + 2.0j}
        galilean = text.replace('"z": [1.0, 2.0]', '"boost_modes": [2]')
        assert parse_config(galilean, "galilean").experiment == {"boost_modes": (2,)}

    def test_geometry_support_collected_with_the_rest(self):
        text = MINIMAL.replace('"torus"', '"dirichlet_interval", "lengths": [1.0]').replace(
            '"eps": 0.01', '"eps": -1').rstrip().rstrip("}") + """,
            "datum": {"kind": "plane_wave", "modes": [1]},
            "datum_b": {"kind": "plane_wave", "modes": [2]},
            "experiment": {"boost_modes": [1]}}"""
        with pytest.raises(ConfigError) as info:
            parse_config(text, "galilean")
        assert info.value.errors == [
            "sim.eps: out of range: -1.0",
            "datum.kind: plane_wave is incompatible with Dirichlet boundaries",
            "datum_b.kind: plane_wave is incompatible with Dirichlet boundaries",
            "geometry.kind: experiment galilean needs a periodic geometry, "
            "got 'dirichlet_interval'",
        ]

    def test_experiment_errors_collected_with_the_rest(self):
        text = MINIMAL.replace('"eps": 0.01', '"eps": -1').rstrip().rstrip("}") + """,
            "experiment": {"boost_modes": [1, 2], "z": 3}}"""
        with pytest.raises(ConfigError) as info:
            parse_config(text, "galilean")
        errors = info.value.errors
        assert "sim.eps: out of range: -1.0" in errors
        assert "experiment.z: unknown key" in errors
        assert "experiment.boost_modes: expected one integer per axis (1), got 2" in errors
        assert "datum: missing required key" in errors

    def test_hs_values_range_checked(self):
        bad = MINIMAL.replace('"t_final": 1.0', '"t_final": 1.0, "hs_values": [0.5, 2.0]')
        with pytest.raises(ConfigError, match="hs_values"):
            parse_config(bad)


# A valid config holding every key of every schema section, one datum per kind;
# eps is 0, as experiment scaling needs.
FULL_SECTIONS = {
    "geometry": {"kind": "periodic_box", "points": [8], "lengths": [1.0]},
    "sim": {"lambda": 1.0, "eps": 0.0, "dt": 0.001, "t_final": 1.0, "splitting": "strang",
            "record_every": 10, "hs_values": [0.5], "snapshot_every": 100},
}
FULL_DATA = {
    "plane_wave": {"kind": "plane_wave", "modes": [3], "amplitude": [1.0, 0.5]},
    "gaussian_bump": {"kind": "gaussian_bump", "amplitude": 2.0, "center": [0.5], "width": 0.1},
    "random_band_limited": {"kind": "random_band_limited", "cutoff": 4.0, "seed": 1},
    "random_rough": {"kind": "random_rough", "target_s": 0.5, "seed": 1},
}
FULL_EXPERIMENT = {"z": 2.0, "boost_modes": [1], "eps_sequence": [0.5, 0.25],
                   "cutoffs": [4.0, 8.0], "dt_ladder": [2e-3, 1e-3]}


def schema_cases():
    """(path, experiment name, valid document) for every key the schema accepts."""
    datum = FULL_DATA["gaussian_bump"]
    base = {**FULL_SECTIONS, "datum": datum, "datum_b": datum, "experiment": {}}
    yield from ((f"top level.{key}", None, base) for key in io._TOP_LEVEL)
    for section, table in (("geometry", GEOMETRY_KEYS), ("sim", SIM_KEYS)):
        yield from ((f"{section}.{key}", None, base) for key in table)
    yield "datum.kind", None, base
    for kind, table in DATUM_KEYS.items():
        doc = {**base, "datum": FULL_DATA[kind]}
        yield from ((f"datum.{key}", None, doc) for key in table)
    for key in EXPERIMENT_KEYS:
        name = next(name for name, entry in EXPERIMENTS.items() if key in entry.params)
        params = {k: FULL_EXPERIMENT[k] for k in EXPERIMENTS[name].params}
        yield f"experiment.{key}", name, {**base, "experiment": params}


def wrong_values(valid):
    """A string, null, a bool, NaN, infinity and an object, plus a float and an
    integer beyond the float range where an integer is expected."""
    yield from ("x", None, True, math.nan, math.inf)
    if not isinstance(valid, dict):
        yield {"k": 1}
    if isinstance(valid, int) and not isinstance(valid, bool):
        yield from (1.5, 10**400)
    if isinstance(valid, list):
        yield from ([{"k": 1}], [math.inf])
        if all(isinstance(v, int) for v in valid):
            yield from ([1.5], [10**400])


# a well-typed value outside the key's range, for every key that has one
OUT_OF_RANGE = {"sim.eps": -0.5, "sim.record_every": 0, "sim.hs_values": [0.0],
                "sim.snapshot_every": 0, "datum.width": 0.0, "datum.cutoff": -1.0,
                "datum.target_s": 0.0, "datum.seed": -1, "experiment.z": 0.0,
                "experiment.cutoffs": [-1.0, 1.0]}

# well-typed values that break an experiment key's own rule: a |z|^2 beyond the
# float range, and ladders too short, out of order or of the wrong sign
EXPERIMENT_FAULTS = {
    "experiment.z": [[1e200, 0], [1e-200, 0]],
    "experiment.eps_sequence": [[0.5], [0.25, 0.5], [0.5, 0.0], [0.5, 0.5, -0.5]],
    "experiment.cutoffs": [[4.0], [8.0, 4.0], [-2.0, -1.0]],
    "experiment.dt_ladder": [[1e-3], [1e-3, 2e-3], [2e-3, -1e-3]],
}

CASES = list(schema_cases())


def rejected_values(path, valid):
    """Every value the parser rejects for the key at `path` whose valid value is `valid`."""
    return [*wrong_values(valid), *([OUT_OF_RANGE[path]] if path in OUT_OF_RANGE else []),
            *EXPERIMENT_FAULTS.get(path, [])]


@pytest.mark.parametrize("path, name, doc", CASES, ids=[
    f"{path}-{doc['datum']['kind']}" if path.startswith("datum.") else path
    for path, _, doc in CASES])
def test_every_ill_typed_key_is_a_config_error_naming_its_path(path, name, doc):
    parse_config(json.dumps(doc), name)
    section, key = path.rsplit(".", 1)
    valid = doc[key] if section == "top level" else doc[section][key]
    for value in rejected_values(path, valid):
        bad = {**doc, key: value} if section == "top level" else {
            **doc, section: {**doc[section], key: value}}
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps(bad), name)
        assert any(e.startswith(f"{path}: ") for e in info.value.errors), (value, info.value)


# section -> (its key table, the object a valid document builds from it)
CONSTRUCTED = {
    "geometry": (GEOMETRY_KEYS, lambda doc: doc.sim.geometry),
    "sim": (SIM_KEYS, lambda doc: doc.sim),
    "datum": ({"kind": DATUM_KIND, **{k: v for t in DATUM_KEYS.values() for k, v in t.items()}},
              lambda doc: doc.datum),
}
CONSTRUCTED_CASES = [case for case in CASES if case[0].split(".")[0] in CONSTRUCTED]


@pytest.mark.parametrize("path, name, doc", CONSTRUCTED_CASES, ids=[
    f"{path}-{doc['datum']['kind']}" if path.startswith("datum.") else path
    for path, _, doc in CONSTRUCTED_CASES])
def test_a_constructor_rejects_what_the_config_rejects_for_the_same_reason(path, name, doc):
    """For every wrong value the parser rejects for a key, the constructor of the
    type the key builds, given the same value (or its tuple for a list), raises
    a ValueError naming the field with the parser's reason. None is the
    constructor's spelling of an absent key where the field defaults to None,
    so it is not passed there."""
    section, key = path.split(".")
    table, built = CONSTRUCTED[section]
    valid_object = built(parse_config(json.dumps(doc), name))
    field = table[key].name or key
    default = next(f.default for f in dataclasses.fields(valid_object) if f.name == field)
    for value in rejected_values(path, doc[section][key]):
        with pytest.raises(ConfigError) as info:
            parse_config(json.dumps({**doc, section: {**doc[section], key: value}}), name)
        [reason] = [e.removeprefix(f"{path}: ") for e in info.value.errors
                    if e.startswith(f"{path}: ")]
        spellings = [(value, reason)] if value is not None or default is not None else []
        if isinstance(value, list):
            spellings.append((tuple(value), reason.replace(repr(value), repr(tuple(value)))))
        for spelling, expected in spellings:
            with pytest.raises(ValueError) as info:
                dataclasses.replace(valid_object, **{field: spelling})
            assert f"{field}: {expected}" in str(info.value).split("; "), (spelling, info.value)


def runner_config(doc):
    """The SimConfig of `doc`'s geometry and sim sections, as the constructors build it."""
    sim = {SIM_KEYS[key].name or key: value for key, value in doc["sim"].items()}
    return SimConfig(geometry=GridGeometry(**doc["geometry"]), **sim)


DIRICHLET8 = {"kind": "dirichlet_interval", "points": [8], "lengths": [1.0]}
# a rule across sections broken: (experiment, sections replaced in its valid document)
CROSS_FAULTS = {
    "periodic-only-galilean": ("galilean", {"geometry": DIRICHLET8}),
    "periodic-only-h1-approx": ("h1-approx", {"geometry": DIRICHLET8}),
    "boost_modes-per-axis": ("galilean", {"experiment": {"boost_modes": [1, 2]}}),
    "dt_ladder-not-dividing": ("convergence", {"experiment": {"dt_ladder": [3e-3, 1e-3]}}),
    "dt_ladder-above-t_final": ("convergence", {"experiment": {"dt_ladder": [2.0, 1e-3]}}),
    "scaling-regularized": ("scaling", {"sim": {**FULL_SECTIONS["sim"], "eps": 0.01}}),
    "hs-growth-untracked": ("hs-growth", {"sim": {
        key: value for key, value in FULL_SECTIONS["sim"].items() if key != "hs_values"}}),
}


def experiment_faults():
    """(experiment name, document) for every experiment key and every rule across
    sections, one document per value the parser rejects: a valid document of
    the experiment with one fault."""
    for path, name, doc in CASES:
        if path.startswith("experiment."):
            key = path.split(".")[1]
            for value in rejected_values(path, doc["experiment"][key]):
                yield name, {**doc, "experiment": {**doc["experiment"], key: value}}
    base = next(doc for path, _, doc in CASES if path == "top level.geometry")
    for name, sections in CROSS_FAULTS.values():
        params = {key: FULL_EXPERIMENT[key] for key in EXPERIMENTS[name].params}
        yield name, {**base, "experiment": params, **sections}


FAULT_CASES = list(experiment_faults())


@pytest.mark.parametrize("name, doc", FAULT_CASES, ids=[
    f"{name}-{json.dumps(doc['experiment'])}" for name, doc in FAULT_CASES])
def test_a_runner_rejects_what_the_config_rejects_for_the_same_reason(monkeypatch, name, doc):
    """The runner, given the document's values as they are (its config built by
    the constructors), raises a ValueError holding the parser's errors, before
    any datum is built."""
    def no_datum(*args):
        raise AssertionError("built the datum before rejecting the parameters")

    monkeypatch.setattr(experiments, "make_datum", no_datum)
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(doc), name)
    with pytest.raises(ValueError) as raised:
        EXPERIMENTS[name].run(DatumSpec(**doc["datum"]), runner_config(doc), **doc["experiment"])
    assert str(raised.value).split("; ") == info.value.errors


TORUS16 = GridGeometry(DomainKind.TORUS, (1.0,), (16,))


@pytest.mark.parametrize("build, message", [
    (lambda: SimConfig(1.0, 0.1, 0.01, 0.1, TORUS16, record_every=2.0),
     "record_every: expected an integer, got 2.0"),
    (lambda: SimConfig(1.0, 0.1, 0.01, 0.1, TORUS16, snapshot_every=2.5),
     "snapshot_every: expected an integer, got 2.5"),
    (lambda: DatumSpec(kind="plane_wave", modes=(1.5,)), "modes: expected an integer, got 1.5"),
    (lambda: GridGeometry(DomainKind.TORUS, (1.0,), (16.9,)),
     "points: expected an integer, got 16.9"),
    (lambda: DatumSpec(kind="random_rough", target_s=0.5, seed=-1), "seed: out of range: -1"),
    (lambda: DatumSpec(kind="random_rough", target_s=0.5, seed=1.5),
     "seed: expected an integer, got 1.5"),
    (lambda: DatumSpec(kind="gaussian_bump", width=True), "width: expected a number, got True"),
], ids=["record_every", "snapshot_every", "modes", "points", "seed-negative", "seed-float",
        "width-bool"])
def test_constructors_cast_nothing_a_config_rejects(build, message):
    """Values that constructors once cast (points, modes), stored for a later
    TypeError (record_every, snapshot_every) or took as they were (seed, width)."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_readme_config_section_names_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("A config file is strict JSON")
    section = readme[start:readme.index("\n## ", start)]
    missing = [path for path, _, _ in CASES
               if f"`{path.rsplit('.', 1)[1]}`" not in section
               and f'"{path.rsplit(".", 1)[1]}"' not in section]
    assert not missing


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
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert back.shape == (2, 5)
        for orig, row in zip(records, back.tolist()):
            assert row == [orig.time, orig.mass, orig.energy, orig.hs_norms[0.25],
                           orig.hs_norms[0.5]]

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

    def test_bytes_follow_the_documented_layout(self, tmp_path):
        f = sample_field(DomainKind.PERIODIC_BOX)
        path = tmp_path / "snap.bin"
        write_snapshot(f, 0.25, path)
        header = b"LOGNSFLD" + struct.pack("<IIIIIddd", 1, 1, 2, 8, 16, 2.0, 0.5, 0.25)
        assert path.read_bytes() == header + f.data.astype("<c16").tobytes()

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

    def test_extra_trailing_sample(self, tmp_path):
        path = tmp_path / "snap.bin"
        write_snapshot(sample_field(), 0.0, path)
        path.write_bytes(path.read_bytes() + bytes(16))
        with pytest.raises(SnapshotFormatError, match="payload is 272 bytes, expected 256"):
            read_snapshot(path)

    @pytest.mark.parametrize("keep", [22, 30, 39])  # in the points, lengths, time
    def test_header_cut_after_the_dimension(self, tmp_path, keep):
        path = tmp_path / "snap.bin"
        write_snapshot(sample_field(), 0.0, path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(SnapshotFormatError, match="truncated header"):
            read_snapshot(path)

    def test_huge_dimension_is_a_truncated_header(self, tmp_path):
        path = tmp_path / "snap.bin"
        path.write_bytes(b"LOGNSFLD" + struct.pack("<III", 1, 0, 2**31) + bytes(32))
        with pytest.raises(SnapshotFormatError, match="truncated header"):
            read_snapshot(path)

    @staticmethod
    def header(tag, points, lengths):
        """Magic, version 1, a geometry tag, the points, the lengths and t = 0."""
        d = len(points)
        return (b"LOGNSFLD" + struct.pack("<III", 1, tag, d)
                + struct.pack(f"<{d}I{d}dd", *points, *lengths, 0.0))

    @pytest.mark.parametrize("points, message", [
        # int64 products of the points wrap, negative and to 0
        ((2**31, 2**30, 4), "payload is 0 bytes, expected 147573952589676412928"),
        ((2**31,) * 3, "payload is 0 bytes, expected 158456325028528675187087900672"),
        ((2**32 - 1,) * 2, "points per axis must be powers of two >= 4, got 4294967295"),
    ], ids=["negative", "zero", "not-a-power-of-two"])
    def test_a_huge_grid_is_no_wrapped_size(self, tmp_path, points, message):
        path = tmp_path / "snap.bin"
        path.write_bytes(self.header(0, points, (1.0,) * len(points)))
        with pytest.raises(SnapshotFormatError) as info:
            read_snapshot(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("kind, points, lengths, message", [
        (DomainKind.PERIODIC_BOX, (6,), (1.0,), "points per axis must be powers of two >= 4, got 6"),
        (DomainKind.TORUS, (8,), (2.0,), "torus geometry requires unit side lengths"),
        (DomainKind.DIRICHLET_INTERVAL, (8, 8), (1.0, 1.0), "dirichlet_interval is one-dimensional"),
    ], ids=["points", "torus-lengths", "interval-dimension"])
    @pytest.mark.parametrize("payload", [True, False], ids=["payload", "header-only"])
    def test_a_grid_the_geometry_rejects_names_the_file(self, tmp_path, kind, points, lengths,
                                                        message, payload):
        """The grid is checked before the payload is sized or read."""
        path = tmp_path / "snap.bin"
        path.write_bytes(self.header(io._KIND_TAGS[kind], points, lengths)
                         + bytes(16 * math.prod(points) if payload else 0))
        with pytest.raises(SnapshotFormatError) as info:
            read_snapshot(path)
        assert str(info.value) == f"{path}: {message}"

    def test_reads_into_one_owned_array(self, tmp_path, peak_traced_bytes):
        geom = GridGeometry(DomainKind.TORUS, (1.0, 1.0), (256, 256))
        field_bytes = 16 * 256 * 256
        rng = np.random.default_rng(4)
        f = Field(geom, rng.standard_normal(geom.points) + 1j * rng.standard_normal(geom.points))
        path = tmp_path / "snap.bin"
        write_snapshot(f, 0.5, path)
        read_snapshot(path)  # warm
        (back, t), peak = peak_traced_bytes(read_snapshot, path)
        assert peak <= field_bytes + 64 * 1024, peak
        assert t == 0.5 and np.array_equal(back.data, f.data)
        flags = back.data.flags
        assert flags.owndata and flags.writeable and flags.c_contiguous

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
