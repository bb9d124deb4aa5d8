"""Configuration parsing, CSV time series, and the binary snapshot format.

Config files are strict JSON: unknown keys are errors and the physical
parameters (lambda, eps, dt, t_final) have no defaults. CSV values use 17
significant digits so doubles round-trip exactly. Snapshots are little-endian
fixed binary, magic "LOGNSFLD".
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from .data import DatumSpec
from .diagnostics import DiagnosticsRecord
from .geometry import DomainKind, Field, GridGeometry

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


class ConfigError(ValueError):
    """Carries every validation error found in a config document."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class SnapshotFormatError(IOError):
    pass


@dataclass
class ConfigDocument:
    """Validated run description: geometry, run parameters, data, extras."""

    geometry: GridGeometry
    sim: dict
    datum: DatumSpec | None = None
    datum_b: DatumSpec | None = None
    experiment: dict = dataclass_field(default_factory=dict)


class _Checker:
    """Walks a JSON tree collecting all errors instead of stopping at the first."""

    def __init__(self):
        self.errors: list[str] = []

    def fail(self, path: str, message: str) -> None:
        self.errors.append(f"{path}: {message}")

    def require_keys(self, obj: dict, path: str, required: set[str], optional: set[str]) -> bool:
        ok = True
        for key in sorted(set(obj) - required - optional):
            self.fail(f"{path}.{key}", "unknown key")
            ok = False
        for key in sorted(required - set(obj)):
            self.fail(f"{path}.{key}", "missing required key")
            ok = False
        return ok

    def number(self, obj: dict, path: str, key: str, lo=None, hi=None, allow_eq_lo=True):
        if key not in obj:
            return None
        v = obj[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            self.fail(f"{path}.{key}", f"expected a number, got {v!r}")
            return None
        v = float(v)
        if lo is not None and (v < lo or (v == lo and not allow_eq_lo)):
            self.fail(f"{path}.{key}", f"out of range: {v}")
            return None
        if hi is not None and v > hi:
            self.fail(f"{path}.{key}", f"out of range: {v}")
            return None
        return v

    def integer(self, obj: dict, path: str, key: str, lo=None):
        if key not in obj:
            return None
        v = obj[key]
        if isinstance(v, bool) or not isinstance(v, int):
            self.fail(f"{path}.{key}", f"expected an integer, got {v!r}")
            return None
        if lo is not None and v < lo:
            self.fail(f"{path}.{key}", f"out of range: {v}")
            return None
        return v


def _parse_geometry(obj, check: _Checker) -> GridGeometry | None:
    path = "geometry"
    if not isinstance(obj, dict):
        check.fail(path, "expected an object")
        return None
    if not check.require_keys(obj, path, {"kind", "points"}, {"lengths"}):
        return None
    kind_raw = obj["kind"]
    try:
        kind = DomainKind(kind_raw)
    except ValueError:
        check.fail(f"{path}.kind", f"unknown domain kind {kind_raw!r}")
        return None
    points = obj["points"]
    if not isinstance(points, list) or not all(
        isinstance(p, int) and not isinstance(p, bool) for p in points
    ):
        check.fail(f"{path}.points", "expected a list of integers")
        return None
    if "lengths" in obj:
        lengths = obj["lengths"]
        if not isinstance(lengths, list) or not all(
            isinstance(l, (int, float)) and not isinstance(l, bool) for l in lengths
        ):
            check.fail(f"{path}.lengths", "expected a list of numbers")
            return None
    elif kind is DomainKind.TORUS:
        lengths = [1.0] * len(points)
    else:
        check.fail(f"{path}.lengths", "missing required key")
        return None
    try:
        return GridGeometry(kind, tuple(lengths), tuple(points))
    except ValueError as exc:
        check.fail(path, str(exc))
        return None


def _parse_sim(obj, check: _Checker) -> dict | None:
    path = "sim"
    if not isinstance(obj, dict):
        check.fail(path, "expected an object")
        return None
    required = {"lambda", "eps", "dt", "t_final"}
    optional = {"splitting", "record_every", "hs_values", "snapshot_every"}
    check.require_keys(obj, path, required, optional)

    sim: dict = {}
    sim["lam"] = check.number(obj, path, "lambda")
    sim["eps"] = check.number(obj, path, "eps", lo=0.0)
    sim["dt"] = check.number(obj, path, "dt")
    sim["t_final"] = check.number(obj, path, "t_final")
    if "splitting" in obj:
        if obj["splitting"] not in ("lie", "strang"):
            check.fail(f"{path}.splitting", f"expected 'lie' or 'strang', got {obj['splitting']!r}")
        else:
            sim["splitting"] = obj["splitting"]
    if (v := check.integer(obj, path, "record_every", lo=1)) is not None:
        sim["record_every"] = v
    if (v := check.integer(obj, path, "snapshot_every", lo=1)) is not None:
        sim["snapshot_every"] = v
    if "hs_values" in obj:
        hs = obj["hs_values"]
        if not isinstance(hs, list) or not all(
            isinstance(s, (int, float)) and not isinstance(s, bool) and 0 < s <= 1 for s in hs
        ):
            check.fail(f"{path}.hs_values", "expected a list of exponents in (0, 1]")
        else:
            sim["hs_values"] = tuple(float(s) for s in hs)
    if any(sim.get(k) is None for k in ("lam", "eps", "dt", "t_final")):
        return None
    return sim


_DATUM_KEYS = {
    "plane_wave": ({"modes"}, {"amplitude"}),
    "gaussian_bump": (set(), {"amplitude", "center", "width"}),
    "random_band_limited": ({"cutoff"}, {"seed"}),
    "random_rough": ({"target_s"}, {"seed"}),
}


def _parse_datum(obj, check: _Checker, path: str) -> DatumSpec | None:
    if not isinstance(obj, dict):
        check.fail(path, "expected an object")
        return None
    kind = obj.get("kind")
    if kind not in _DATUM_KEYS:
        check.fail(f"{path}.kind", f"unknown datum kind {kind!r}")
        return None
    required, optional = _DATUM_KEYS[kind]
    if not check.require_keys(obj, path, required | {"kind"}, optional):
        return None
    kwargs: dict = {}
    if "modes" in obj:
        kwargs["modes"] = tuple(obj["modes"])
    if "amplitude" in obj:
        amp = obj["amplitude"]
        kwargs["amplitude"] = complex(amp[0], amp[1]) if isinstance(amp, list) else complex(amp)
    if "center" in obj:
        kwargs["center"] = tuple(obj["center"])
    if (v := check.number(obj, path, "width", lo=0.0, allow_eq_lo=False)) is not None:
        kwargs["width"] = v
    if (v := check.number(obj, path, "cutoff", lo=0.0)) is not None:
        kwargs["cutoff"] = v
    if (v := check.number(obj, path, "target_s", lo=0.0, allow_eq_lo=False)) is not None:
        kwargs["target_s"] = v
    if (v := check.integer(obj, path, "seed")) is not None:
        kwargs["seed"] = v
    try:
        return DatumSpec(kind=kind, **kwargs)
    except (ValueError, TypeError) as exc:
        check.fail(path, str(exc))
        return None


def parse_config(text: str) -> ConfigDocument:
    """Validate a JSON config, reporting every error found."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"invalid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top level: expected an object"])

    check = _Checker()
    check.require_keys(raw, "top level", {"geometry", "sim"}, {"datum", "datum_b", "experiment"})

    geometry = _parse_geometry(raw.get("geometry"), check) if "geometry" in raw else None
    sim = _parse_sim(raw.get("sim"), check) if "sim" in raw else None
    datum = _parse_datum(raw["datum"], check, "datum") if "datum" in raw else None
    datum_b = _parse_datum(raw["datum_b"], check, "datum_b") if "datum_b" in raw else None
    experiment = raw.get("experiment", {})
    if not isinstance(experiment, dict):
        check.fail("experiment", "expected an object")
        experiment = {}

    if check.errors:
        raise ConfigError(check.errors)
    return ConfigDocument(geometry=geometry, sim=sim, datum=datum, datum_b=datum_b,
                          experiment=experiment)


def load_config(path: str | Path) -> ConfigDocument:
    return parse_config(Path(path).read_text())


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
    """Fixed little-endian binary snapshot; layout documented in the README."""
    geom = field.geometry
    d = geom.dim
    header = SNAPSHOT_MAGIC
    header += struct.pack("<II", SNAPSHOT_VERSION, _KIND_TAGS[geom.kind])
    header += struct.pack("<I", d)
    header += struct.pack(f"<{d}I", *geom.points)
    header += struct.pack(f"<{d}d", *geom.lengths)
    header += struct.pack("<d", time)
    payload = np.ascontiguousarray(field.data, dtype="<c16").tobytes()
    Path(destination).write_bytes(header + payload)


def read_snapshot(source: str | Path) -> tuple[Field, float]:
    blob = Path(source).read_bytes()
    if len(blob) < 8 or blob[:8] != SNAPSHOT_MAGIC:
        raise SnapshotFormatError(f"{source}: bad magic")
    offset = 8
    try:
        version, kind_tag = struct.unpack_from("<II", blob, offset)
        offset += 8
        if version != SNAPSHOT_VERSION:
            raise SnapshotFormatError(f"{source}: unsupported version {version}")
        if kind_tag not in _TAG_KINDS:
            raise SnapshotFormatError(f"{source}: unknown geometry tag {kind_tag}")
        (d,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        points = struct.unpack_from(f"<{d}I", blob, offset)
        offset += 4 * d
        lengths = struct.unpack_from(f"<{d}d", blob, offset)
        offset += 8 * d
        (time,) = struct.unpack_from("<d", blob, offset)
        offset += 8
    except struct.error as exc:
        raise SnapshotFormatError(f"{source}: truncated header") from exc
    count = int(np.prod(points))
    expected = 16 * count
    if len(blob) - offset != expected:
        raise SnapshotFormatError(
            f"{source}: payload is {len(blob) - offset} bytes, expected {expected}"
        )
    data = np.frombuffer(blob, dtype="<c16", count=count, offset=offset).reshape(points)
    geometry = GridGeometry(_TAG_KINDS[kind_tag], lengths, points)
    return Field(geometry, data.copy()), time
