"""Configuration parsing, CSV time series, and the binary snapshot format.

Config files are strict JSON: unknown keys are errors and the physical
parameters (lambda, eps, dt, t_final) have no defaults. Each config section is
a table of keys, and one walker (`schema.walk`) reports every unknown, missing
or ill-typed key as "section.key: message"; only checks that span sections
are code. A section that builds a type has its table next to that type. The
`sim` keys and the geometry build the run's SimConfig, whose checks across
keys report as "sim: message". The keys of an experiment, its data and its
geometries come from experiments.EXPERIMENTS; `experiments.parse_params` checks them.
With no experiment named, the `experiment` section may hold any of its keys.
CSV values use 17 significant digits so doubles round-trip exactly. Snapshots
are little-endian fixed binary, magic "LOGNSFLD".
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections.abc import Iterable
from itertools import chain
from contextlib import suppress
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from .data import DATUM_KEYS, DATUM_KIND, DatumSpec, grid_errors
from .diagnostics import DiagnosticsRecord, exponent_label
from .experiments import EXPERIMENT_KEYS, EXPERIMENTS, parse_params
from .geometry import GEOMETRY_KEYS, DomainKind, Field, GeometryError, GridGeometry
from .integrator import SIM_KEYS, SimConfig
from .schema import Key, section, walk

__all__ = [
    "ConfigError",
    "SnapshotFormatError",
    "ConfigDocument",
    "parse_config",
    "load_config",
    "write_timeseries",
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


_TOP_LEVEL = {
    "geometry": Key(True, section),
    "sim": Key(True, section),
    "datum": Key(False, section),
    "datum_b": Key(False, section),
    "experiment": Key(False, section),
}


def _datum(raw: dict, path: str, errors: list[str], geometry: GridGeometry | None,
           dirichlet: bool) -> DatumSpec | None:
    n_errors = len(errors)
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in DATUM_KEYS:
        # the other keys depend on the kind, so only the kind is reported
        walk({"kind": kind}, {"kind": DATUM_KIND}, f"{path}.", errors)
        return None
    fields = walk(raw, {"kind": DATUM_KIND, **DATUM_KEYS[kind]}, f"{path}.", errors)
    dim = None if geometry is None else geometry.dim
    errors.extend(f"{path}.{e}" for e in grid_errors(kind, fields, dirichlet, dim))
    return DatumSpec(**fields) if len(errors) == n_errors else None


def parse_config(text: str, experiment: str | None = None) -> ConfigDocument:
    """Validate a JSON config, reporting every error found.

    With an experiment name (a key of EXPERIMENTS), `parse_params` checks the
    run's parameters and `datum_b` is required where the entry needs one;
    ConfigDocument.experiment holds the keyword arguments of its runner.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"invalid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top level: expected an object"])

    errors: list[str] = []
    sections = walk(raw, _TOP_LEVEL, "top level.", errors)

    geometry = kind = None
    if "geometry" in sections:
        n_errors = len(errors)
        fields = walk(sections["geometry"], GEOMETRY_KEYS, "geometry.", errors)
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
        fields = walk(sections["sim"], SIM_KEYS, "sim.", errors)
        if geometry is not None and len(errors) == n_errors:
            try:
                sim = SimConfig(geometry=geometry, **fields)
            except ValueError as exc:
                errors.append(f"sim: {exc}")
    dirichlet = kind is not None and DomainKind(kind).is_dirichlet
    data = {name: _datum(sections[name], name, errors, geometry, dirichlet)
            for name in ("datum", "datum_b") if name in sections}
    if "datum" not in raw:
        errors.append("datum: missing required key")

    params = sections.get("experiment", {})
    if experiment is None:  # any experiment's keys, each optional
        params = walk(params, {k: key._replace(required=False)
                               for k, key in EXPERIMENT_KEYS.items()}, "experiment.", errors)
    else:
        params = parse_params(experiment, params, errors, geometry, sim)
        if EXPERIMENTS[experiment].needs_datum_b:
            if "datum_b" not in raw:
                errors.append(f"datum_b: missing required key ({experiment} compares two data)")
            params["datum_b"] = data.get("datum_b")

    if errors:
        raise ConfigError(errors)
    return ConfigDocument(sim=sim, datum=data["datum"], experiment=params)


def load_config(path: str | Path, experiment: str | None = None) -> ConfigDocument:
    return parse_config(Path(path).read_text(), experiment)


def write_timeseries(records: Iterable[DiagnosticsRecord], destination: str | Path,
                     hs_values: Iterable[float]) -> None:
    """CSV with columns time,mass,energy,hs_<s>... for s in hs_values
    ascending, each labelled by `exponent_label`, and one row per record.

    17 significant digits, LF line endings. The header is written first and
    each row as its record is drawn from `records`, so a generator's rows
    reach the file as they are sampled, and the rows it gave before it stops,
    or raises, are kept. An OSError of the file itself is raised as an
    IOError that names it; whatever `records` raises passes unchanged.
    """
    s_values = sorted(set(hs_values))
    path = Path(destination)
    header = ["time", "mass", "energy", *(f"hs_{exponent_label(s)}" for s in s_values)]
    rows = ([f"{v:.17g}" for v in (rec.time, rec.mass, rec.energy,
                                  *(rec.hs_norms[s] for s in s_values))] for rec in records)
    f = _writing("time series", path, open, path, "w", encoding="ascii", newline="\n")
    try:
        for cells in chain([header], rows):
            _writing("time series", path, f.write, ",".join(cells) + "\n")
    except BaseException:
        with suppress(OSError):  # rows still buffered may not hide what was raised
            f.close()
        raise
    _writing("time series", path, f.close)  # it writes the rows still buffered


def _writing(what: str, path, call, *args, **kwargs):
    """call(*args, **kwargs), with an OSError raised as an IOError that names `path`."""
    try:
        return call(*args, **kwargs)
    except OSError as exc:
        raise IOError(f"cannot write {what} to {path}: {exc}") from exc


def write_snapshot(field: Field, time: float, destination: str | Path) -> None:
    """Fixed little-endian binary snapshot; layout documented in the README.

    The header is written first, then the samples straight from the array.
    An OSError, at close too, is raised as an IOError that names the file.
    """
    geom = field.geometry
    header = _FIXED.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, _KIND_TAGS[geom.kind], geom.dim)
    header += _layout(geom.dim).pack(*geom.points, *geom.lengths, time)
    payload = np.ascontiguousarray(field.data, dtype="<c16")
    try:
        with open(destination, "wb") as f:
            f.write(header)
            f.write(memoryview(payload))  # no copy of the samples
    except OSError as exc:
        raise IOError(f"cannot write snapshot to {destination}: {exc}") from exc


def read_snapshot(source: str | Path) -> tuple[Field, float]:
    """Inverse of write_snapshot.

    The header is parsed from the file's leading bytes, its grid checked and
    the payload length checked against the file size, each fault raised as a
    SnapshotFormatError that names the file; the samples are then read
    straight into the returned array, so the file is never held a second time.
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
        try:
            geometry = GridGeometry(_TAG_KINDS[kind_tag], values[d:], values[:d])
        except GeometryError as exc:
            raise SnapshotFormatError(f"{source}: {exc}") from exc
        offset = _FIXED.size + layout.size
        expected = 16 * math.prod(geometry.points)
        if size - offset != expected:
            raise SnapshotFormatError(
                f"{source}: payload is {size - offset} bytes, expected {expected}"
            )
        data = np.empty(geometry.points, dtype="<c16")
        read = f.readinto(data)
    if read != expected:  # the file changed after its size was taken
        raise SnapshotFormatError(f"{source}: payload is {read} bytes, expected {expected}")
    return Field(geometry, data), time
