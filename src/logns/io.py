"""Configuration parsing, CSV time series, and the binary snapshot format.

Config files are strict JSON: unknown keys are errors and the physical
parameters (lambda, eps, dt, t_final) have no defaults. Each config section is
a table of keys, and one walker reports every unknown, missing or ill-typed
key as "section.key: message"; only checks that span sections are code. The
`sim` keys and the geometry build the run's SimConfig, whose checks across
keys report as "sim: message". The keys of an experiment, its data and its
geometries come from experiments.EXPERIMENTS.
CSV values use 17 significant digits so doubles round-trip exactly. Snapshots
are little-endian fixed binary, magic "LOGNSFLD".
"""

from __future__ import annotations

import json
import os
import struct
import sys
from collections.abc import Callable
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .data import DatumSpec
from .diagnostics import DiagnosticsRecord
from .experiments import EXPERIMENTS, dt_ladder_errors
from .geometry import DomainKind, Field, GridGeometry
from .integrator import SimConfig

__all__ = [
    "ConfigError",
    "SnapshotFormatError",
    "ConfigDocument",
    "parse_config",
    "load_config",
    "write_timeseries",
    "read_timeseries",
    "write_snapshot",
    "read_snapshot",
]

SNAPSHOT_MAGIC = b"LOGNSFLD"
SNAPSHOT_VERSION = 1

_KIND_TAGS = {
    DomainKind.TORUS: 0,
    DomainKind.PERIODIC_BOX: 1,
    DomainKind.DIRICHLET_INTERVAL: 2,
    DomainKind.DIRICHLET_SLAB: 3,
}
_TAG_KINDS = {v: k for k, v in _KIND_TAGS.items()}
# a snapshot header: magic, version, geometry tag and dimension d, then the
# layout of d: points, lengths and time
_FIXED = struct.Struct("<8sIII")


def _layout(d: int) -> struct.Struct:
    return struct.Struct(f"<{d}I{d}dd")


class ConfigError(ValueError):
    """Carries every validation error found in a config document."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class SnapshotFormatError(IOError):
    pass


@dataclass
class ConfigDocument:
    """Validated run description: run parameters with their geometry, data, extras."""

    sim: SimConfig
    datum: DatumSpec
    experiment: dict = dataclass_field(default_factory=dict)  # with datum_b if it needs one


def _is_number(v) -> bool:
    # json.loads also yields NaN, Infinity and integers beyond the float range
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


# Converters: each maps one JSON value to its parsed value or raises ValueError
# with the reason.

def _number(lo=None, hi=None, open_lo=False):
    def convert(v):
        if not _is_number(v):
            raise ValueError(f"expected a number, got {v!r}")
        v = float(v)
        if lo is not None and (v < lo or (v == lo and open_lo)) or hi is not None and v > hi:
            raise ValueError(f"out of range: {v}")
        return v
    return convert


def _integer(lo=None):
    def convert(v):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"expected an integer, got {v!r}")
        if abs(v) > sys.float_info.max or lo is not None and v < lo:
            raise ValueError(f"out of range: {v}")
        return v
    return convert


def _complex(nonzero=False):
    """A number or an [re, im] pair, as a complex."""
    def convert(v):
        if _is_number(v):
            z = complex(v)
        elif isinstance(v, list) and len(v) == 2 and all(_is_number(x) for x in v):
            z = complex(v[0], v[1])
        else:
            raise ValueError(f"expected a number or [re, im], got {v!r}")
        if nonzero and z == 0:
            raise ValueError("must be nonzero")
        return z
    return convert


def _choice(*options):
    def convert(v):
        if v not in options:
            raise ValueError(f"expected one of {', '.join(map(repr, options))}, got {v!r}")
        return v
    return convert


def _list_of(item, min_len=0, into=tuple):
    def convert(v):
        if not isinstance(v, list):
            raise ValueError(f"expected a list, got {v!r}")
        if len(v) < min_len:
            raise ValueError(f"expected at least {min_len} entries, got {len(v)}")
        return into(item(x) for x in v)
    return convert


def _section(v):
    if not isinstance(v, dict):
        raise ValueError("expected an object")
    return v


class _Key(NamedTuple):
    """One config key: whether it must be present, its converter, its parsed name."""

    required: bool
    convert: Callable
    name: str | None = None  # None: the key itself


_TOP_LEVEL = {
    "geometry": _Key(True, _section),
    "sim": _Key(True, _section),
    "datum": _Key(False, _section),
    "datum_b": _Key(False, _section),
    "experiment": _Key(False, _section),
}

_GEOMETRY = {
    "kind": _Key(True, _choice(*(k.value for k in DomainKind))),
    "points": _Key(True, _list_of(_integer())),
    "lengths": _Key(False, _list_of(_number())),  # required unless the kind is torus
}

_SIM = {
    "lambda": _Key(True, _number(), "lam"),
    "eps": _Key(True, _number(lo=0.0)),
    "dt": _Key(True, _number()),
    "t_final": _Key(True, _number()),
    "splitting": _Key(False, _choice("lie", "strang")),
    "record_every": _Key(False, _integer(lo=1)),
    "hs_values": _Key(False, _list_of(_number(lo=0.0, hi=1.0, open_lo=True))),
    "snapshot_every": _Key(False, _integer(lo=1)),
}

_AMPLITUDE = _Key(False, _complex())
_SEED = _Key(False, _integer(lo=0))
# datum kind -> its keys other than `kind`
_DATUM = {
    "plane_wave": {"modes": _Key(True, _list_of(_integer())), "amplitude": _AMPLITUDE},
    "gaussian_bump": {
        "amplitude": _AMPLITUDE,
        "center": _Key(False, _list_of(_number())),
        "width": _Key(False, _number(lo=0.0, open_lo=True)),
    },
    "random_band_limited": {"cutoff": _Key(True, _number(lo=0.0)), "seed": _SEED},
    "random_rough": {"target_s": _Key(True, _number(lo=0.0, open_lo=True)), "seed": _SEED},
}
_DATUM_KIND = _Key(True, _choice(*_DATUM))

_LADDER = _Key(True, _list_of(_number(), min_len=2, into=list))
# every parameter key of EXPERIMENTS
_EXPERIMENT = {
    "z": _Key(True, _complex(nonzero=True)),
    "boost_modes": _Key(True, _list_of(_integer())),
    "eps_sequence": _LADDER,
    "cutoffs": _Key(True, _list_of(_number(lo=0.0), min_len=2, into=list)),
    "dt_ladder": _LADDER,
}


def _walk(raw: dict, schema: dict[str, _Key], path: str, errors: list[str]) -> dict:
    """Parsed values of one section's keys, by parsed name.

    Appends to `errors` every unknown, missing or ill-typed key as
    "path.key: message"; keys with an error are left out of the result.
    """
    errors.extend(f"{path}.{key}: unknown key" for key in sorted(set(raw) - set(schema)))
    parsed = {}
    for key, entry in schema.items():
        if key not in raw:
            if entry.required:
                errors.append(f"{path}.{key}: missing required key")
            continue
        try:
            parsed[entry.name or key] = entry.convert(raw[key])
        except ValueError as exc:
            errors.append(f"{path}.{key}: {exc}")
    return parsed


# datum keys with one entry per axis -> what an entry is
_PER_AXIS = {"center": "coordinate", "modes": "integer"}


def _datum(raw: dict, path: str, errors: list[str], geometry: GridGeometry | None,
           dirichlet: bool) -> DatumSpec | None:
    n_errors = len(errors)
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in _DATUM:
        # the other keys depend on the kind, so only the kind is reported
        _walk({"kind": kind}, {"kind": _DATUM_KIND}, path, errors)
        return None
    if kind == "plane_wave" and dirichlet:
        errors.append(f"{path}.kind: plane_wave is incompatible with Dirichlet boundaries")
    fields = _walk(raw, {"kind": _DATUM_KIND, **_DATUM[kind]}, path, errors)
    for key, entry in _PER_AXIS.items():
        values = fields.get(key)
        if geometry is not None and values is not None and len(values) != geometry.dim:
            errors.append(f"{path}.{key}: expected one {entry} per axis ({geometry.dim}), "
                          f"got {len(values)}")
    if len(errors) > n_errors:
        return None
    try:
        return DatumSpec(**fields)
    except ValueError as exc:
        errors.append(f"{path}: {exc}")
        return None


def parse_config(text: str, experiment: str | None = None) -> ConfigDocument:
    """Validate a JSON config, reporting every error found.

    With an experiment name (a key of EXPERIMENTS) the `experiment` section,
    the second datum and the geometry kind are checked against its entry, and
    ConfigDocument.experiment holds the keyword arguments of its runner.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"invalid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top level: expected an object"])

    errors: list[str] = []
    sections = _walk(raw, _TOP_LEVEL, "top level", errors)

    geometry = kind = None
    if "geometry" in sections:
        n_errors = len(errors)
        fields = _walk(sections["geometry"], _GEOMETRY, "geometry", errors)
        kind = fields.get("kind")
        if "lengths" not in sections["geometry"] and kind is not None:
            if kind == DomainKind.TORUS:
                fields["lengths"] = (1.0,) * len(fields.get("points", ()))
            else:
                errors.append("geometry.lengths: missing required key")
        if len(errors) == n_errors:
            try:
                geometry = GridGeometry(**fields)
            except ValueError as exc:
                errors.append(f"geometry: {exc}")
    sim = None
    if "sim" in sections:
        n_errors = len(errors)
        fields = _walk(sections["sim"], _SIM, "sim", errors)
        if geometry is not None and len(errors) == n_errors:
            try:
                sim = SimConfig(geometry=geometry, **fields)
            except ValueError as exc:
                errors.append(f"sim: {exc}")
    dirichlet = kind in (DomainKind.DIRICHLET_INTERVAL, DomainKind.DIRICHLET_SLAB)
    data = {name: _datum(sections[name], name, errors, geometry, dirichlet)
            for name in ("datum", "datum_b") if name in sections}
    if "datum" not in raw:
        errors.append("datum: missing required key")

    params = sections.get("experiment", {})
    if experiment is not None:
        entry = EXPERIMENTS[experiment]
        params = _walk(params, {key: _EXPERIMENT[key] for key in entry.params}, "experiment",
                       errors)
        modes = params.get("boost_modes")
        if geometry is not None and modes is not None and len(modes) != geometry.dim:
            errors.append(f"experiment.boost_modes: expected one integer per axis "
                          f"({geometry.dim}), got {len(modes)}")
        ladder = params.get("dt_ladder")
        if sim is not None and ladder is not None:
            errors.extend(f"experiment.dt_ladder: {e}" for e in dt_ladder_errors(sim, ladder))
        if entry.periodic_only and dirichlet:
            errors.append(f"geometry.kind: experiment {experiment} needs a periodic geometry, "
                          f"got {kind!r}")
        if entry.needs_datum_b:
            if "datum_b" not in raw:
                errors.append(f"datum_b: missing required key ({experiment} compares two data)")
            params["datum_b"] = data.get("datum_b")

    if errors:
        raise ConfigError(errors)
    return ConfigDocument(sim=sim, datum=data["datum"], experiment=params)


def load_config(path: str | Path, experiment: str | None = None) -> ConfigDocument:
    return parse_config(Path(path).read_text(), experiment)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def write_timeseries(records: list[DiagnosticsRecord], destination: str | Path) -> None:
    """CSV with columns time,mass,energy,hs_<s>... (s ascending).

    17 significant digits, LF line endings.
    """
    s_values = sorted({s for rec in records for s in rec.hs_norms})
    header = ["time", "mass", "energy"]
    header += [f"hs_{s:g}" for s in s_values]
    lines = [",".join(header)]
    for rec in records:
        row = [_fmt(rec.time), _fmt(rec.mass), _fmt(rec.energy)]
        row += [_fmt(rec.hs_norms[s]) for s in s_values]
        lines.append(",".join(row))
    path = Path(destination)
    try:
        path.write_bytes(("\n".join(lines) + "\n").encode())
    except OSError as exc:
        raise IOError(f"cannot write time series to {path}: {exc}") from exc


def read_timeseries(source: str | Path) -> list[DiagnosticsRecord]:
    """Inverse of write_timeseries."""
    lines = Path(source).read_text().splitlines()
    header = lines[0].split(",")
    records = []
    for line in lines[1:]:
        values = [float(tok) for tok in line.split(",")]
        row = dict(zip(header, values))
        hs = {float(k[3:]): v for k, v in row.items() if k.startswith("hs_")}
        records.append(
            DiagnosticsRecord(
                time=row["time"], mass=row["mass"], energy=row["energy"], hs_norms=hs
            )
        )
    return records


def write_snapshot(field: Field, time: float, destination: str | Path) -> None:
    """Fixed little-endian binary snapshot; layout documented in the README.

    The header is written first, then the samples straight from the array.
    """
    geom = field.geometry
    header = _FIXED.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, _KIND_TAGS[geom.kind], geom.dim)
    header += _layout(geom.dim).pack(*geom.points, *geom.lengths, time)
    payload = np.ascontiguousarray(field.data, dtype="<c16")
    with open(destination, "wb") as f:
        f.write(header)
        f.write(memoryview(payload))  # no copy of the samples


def read_snapshot(source: str | Path) -> tuple[Field, float]:
    """Inverse of write_snapshot.

    The header is parsed from the file's leading bytes and the payload length
    checked against the file size; the samples are then read straight into
    the returned array, so the file is never held a second time.
    """
    with open(source, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        blob = f.read(_FIXED.size)
        if blob[:8] != SNAPSHOT_MAGIC:
            raise SnapshotFormatError(f"{source}: bad magic")
        try:
            _, version, kind_tag, d = _FIXED.unpack(blob)
            if version != SNAPSHOT_VERSION:
                raise SnapshotFormatError(f"{source}: unsupported version {version}")
            if kind_tag not in _TAG_KINDS:
                raise SnapshotFormatError(f"{source}: unknown geometry tag {kind_tag}")
            layout = _layout(d)
            # at most the file's bytes, so a huge d allocates nothing
            *values, time = layout.unpack(f.read(min(layout.size, size - _FIXED.size)))
        except struct.error as exc:
            raise SnapshotFormatError(f"{source}: truncated header") from exc
        points, lengths = values[:d], values[d:]
        offset = _FIXED.size + layout.size
        expected = 16 * int(np.prod(points))
        if size - offset != expected:
            raise SnapshotFormatError(
                f"{source}: payload is {size - offset} bytes, expected {expected}"
            )
        data = np.empty(points, dtype="<c16")
        read = f.readinto(data)
    if read != expected:  # the file changed after its size was taken
        raise SnapshotFormatError(f"{source}: payload is {read} bytes, expected {expected}")
    geometry = GridGeometry(_TAG_KINDS[kind_tag], lengths, points)
    return Field(geometry, data), time
