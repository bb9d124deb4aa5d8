"""Config keys: one rule per key, for the config parser and the constructors.

A key table maps each key of a config section to a `Key`; each table sits next
to the type it builds. `walk` applies one to a JSON section and `check` to the
fields of a constructed object, so a constructor accepts exactly what a config
accepts, and rejects the rest with the parser's reason. Converters also take
a tuple for a list and a complex for [re, im]. Imports nothing from logns.
"""

from __future__ import annotations

import dataclasses
import sys
from collections.abc import Callable
from typing import NamedTuple


def _is_number(v) -> bool:
    # json.loads also yields NaN, Infinity and integers beyond the float range
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


# Converters: each maps a value to its parsed value or raises ValueError, one argument per reason.

def number(lo=None, hi=None, open_lo=False):
    def convert(v):
        if not _is_number(v):
            raise ValueError(f"expected a number, got {v!r}")
        v = float(v)
        if lo is not None and (v < lo or (v == lo and open_lo)) or hi is not None and v > hi:
            raise ValueError(f"out of range: {v}")
        return v
    return convert


def integer(lo=None):
    def convert(v):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"expected an integer, got {v!r}")
        if abs(v) > sys.float_info.max or lo is not None and v < lo:
            raise ValueError(f"out of range: {v}")
        return v
    return convert


def complex_number(nonzero=False):
    """A number or an [re, im] pair, as a complex."""
    def convert(v):
        if _is_number(v) or isinstance(v, complex) and _is_number(v.real) and _is_number(v.imag):
            z = complex(v)
        elif isinstance(v, (list, tuple)) and len(v) == 2 and all(_is_number(x) for x in v):
            z = complex(v[0], v[1])
        else:
            raise ValueError(f"expected a number or [re, im], got {v!r}")
        if nonzero and z == 0:
            raise ValueError("must be nonzero")
        return z
    return convert


def choice(*options):
    def convert(v):
        if v not in options:
            raise ValueError(f"expected one of {', '.join(map(repr, options))}, got {v!r}")
        return v
    return convert


def list_of(item, min_len=0, into=tuple):
    def convert(v):
        if not isinstance(v, (list, tuple)):
            raise ValueError(f"expected a list, got {v!r}")
        if len(v) < min_len:
            raise ValueError(f"expected at least {min_len} entries, got {len(v)}")
        return into(item(x) for x in v)
    return convert


def ladder(decreasing: bool, positive: bool = True, entry: str = "entry"):
    """At least two numbers, strictly decreasing (or increasing), each positive
    (or at least 0), as a list. Every fault of order and sign is one reason."""
    def convert(v):
        values = list_of(number(), min_len=2, into=list)(v)
        faults = []
        if any(b >= a if decreasing else b <= a for a, b in zip(values, values[1:])):
            faults.append(f"must be strictly {'de' if decreasing else 'in'}creasing, got {values}")
        faults += [f"{entry} {x:g}: must be {'positive' if positive else 'at least 0'}"
                   for x in values if not (x > 0.0 if positive else x >= 0.0)]
        if faults:
            raise ValueError(*faults)
        return values
    return convert


def section(v):
    if not isinstance(v, dict):
        raise ValueError("expected an object")
    return v


class Key(NamedTuple):
    """One config key: whether it must be present, its converter, its parsed name."""

    required: bool
    convert: Callable
    name: str | None = None  # None: the key itself


def walk(raw: dict, schema: dict[str, Key], prefix: str, errors: list[str]) -> dict:
    """Parsed values of one section's keys, by parsed name. Appends to `errors`
    each reason a key is unknown, missing or ill-typed as "<prefix>key: reason"
    and leaves the key out of the result."""
    errors.extend(f"{prefix}{key}: unknown key" for key in sorted(set(raw) - set(schema)))
    parsed = {}
    for key, entry in schema.items():
        if key not in raw:
            if entry.required:
                errors.append(f"{prefix}{key}: missing required key")
            continue
        try:
            parsed[entry.name or key] = entry.convert(raw[key])
        except ValueError as exc:
            errors.extend(f"{prefix}{key}: {reason}" for reason in exc.args)
    return parsed


def check(obj, schema: dict[str, Key], error: type[ValueError] = ValueError) -> None:
    """`walk` over the fields of the frozen dataclass `obj`, storing each parsed
    value in its field; raises `error` with every message as "field: message".
    A field that is None by default is absent when None; a field with a default
    that `schema` does not name must keep it, or it is an unknown key."""
    by_field = {entry.name or key: entry for key, entry in schema.items()}
    raw = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.name in by_field:
            if value is not None or f.default is not None:
                raw[f.name] = value
        elif f.default is not dataclasses.MISSING and value != f.default:
            raw[f.name] = value
    errors: list[str] = []
    for name, value in walk(raw, by_field, "", errors).items():
        object.__setattr__(obj, name, value)
    if errors:
        raise error("; ".join(errors))
