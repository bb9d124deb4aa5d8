"""Structured grids and geometry transforms.

Periodic kinds (torus, periodic box) carry samples at x_j = j L / N per axis.
Dirichlet kinds impose u = 0 on the plane x_d = 0 of the last axis and are
handled through odd extension to a doubled periodic grid. Only this module
tells the kinds apart; the others ask it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .schema import Key, check, choice, integer, list_of, number

__all__ = [
    "DomainKind",
    "GridGeometry",
    "Field",
    "GeometryError",
    "odd_extension",
    "restrict_to_half",
    "galilean_boost",
]


class GeometryError(ValueError):
    """Raised for invalid geometries or geometry mismatches between fields."""


class DomainKind(str, Enum):
    TORUS = "torus"
    PERIODIC_BOX = "periodic_box"
    DIRICHLET_INTERVAL = "dirichlet_interval"
    DIRICHLET_SLAB = "dirichlet_slab"

    @property
    def is_dirichlet(self) -> bool:  # every other kind is periodic
        return self in (DomainKind.DIRICHLET_INTERVAL, DomainKind.DIRICHLET_SLAB)


# the keys of a config's `geometry` section, which build a GridGeometry
GEOMETRY_KEYS = {
    "kind": Key(True, choice(*(k.value for k in DomainKind))),
    "points": Key(True, list_of(integer())),
    "lengths": Key(False, list_of(number())),  # required unless the kind is torus
}


@dataclass(frozen=True)
class GridGeometry:
    """Domain kind, side lengths and samples per axis, as GEOMETRY_KEYS accepts them."""

    kind: DomainKind
    lengths: tuple[float, ...]
    points: tuple[int, ...]

    def __post_init__(self):
        check(self, GEOMETRY_KEYS, GeometryError)
        object.__setattr__(self, "kind", DomainKind(self.kind))
        if len(self.lengths) != len(self.points) or not self.points:
            raise GeometryError("lengths and points must be nonempty and of equal dimension")
        for n in self.points:
            if n < 4 or n & (n - 1):
                raise GeometryError(f"points per axis must be powers of two >= 4, got {n}")
        for l in self.lengths:
            if not l > 0:
                raise GeometryError(f"lengths must be positive finite, got {l}")
        if self.kind is DomainKind.TORUS and any(l != 1.0 for l in self.lengths):
            raise GeometryError("torus geometry requires unit side lengths")
        if self.kind is DomainKind.DIRICHLET_INTERVAL and self.dim != 1:
            raise GeometryError("dirichlet_interval is one-dimensional")
        if self.kind is DomainKind.DIRICHLET_SLAB and self.dim < 2:
            raise GeometryError("dirichlet_slab requires dimension >= 2")

    @property
    def dim(self) -> int:
        return len(self.points)

    @property
    def is_dirichlet(self) -> bool:
        return self.kind.is_dirichlet

    @property
    def cell_volume(self) -> float:
        return math.prod(l / n for l, n in zip(self.lengths, self.points))

    @property
    def volume(self) -> float:
        return math.prod(self.lengths)

    def axis_coordinates(self, axis: int) -> np.ndarray:
        """Sample positions x_j = j L / N along one axis."""
        n, l = self.points[axis], self.lengths[axis]
        return np.arange(n) * (l / n)

    def coordinate_grids(self) -> list[np.ndarray]:
        """Broadcastable coordinate arrays, one per axis."""
        return list(np.ix_(*[self.axis_coordinates(i) for i in range(self.dim)]))

    def mode_grids(self) -> list[np.ndarray]:
        """Signed integer mode indices n per axis in fft order, broadcastable like
        coordinate_grids(): 0, 1, ..., N/2 - 1, -N/2, ..., -1."""
        return list(np.ix_(*[np.fft.fftfreq(n, d=1.0 / n) for n in self.points]))

    def transform_grid(self) -> "GridGeometry":
        """The periodic grid a field's transforms run on: the grid itself if it
        is periodic, else the box covering the odd extension (`_doubled`)."""
        return _doubled(self) if self.is_dirichlet else self


@dataclass
class Field:
    """Complex samples on a structured grid, the discrete state u(t, .)."""

    geometry: GridGeometry
    data: np.ndarray

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=complex)
        if self.data.shape != self.geometry.points:
            raise GeometryError(
                f"data shape {self.data.shape} does not match grid {self.geometry.points}"
            )


def require_same_geometry(a: Field, b: Field) -> None:
    if a.geometry != b.geometry:
        raise GeometryError(f"geometry mismatch: {a.geometry} vs {b.geometry}")


def require_periodic(geometry: GridGeometry, what: str) -> None:
    if geometry.is_dirichlet:
        raise GeometryError(f"{what} requires a periodic geometry, got {geometry.kind.value}")


def odd_extension(field: Field) -> Field:
    """Antisymmetric reflection of a Dirichlet field across x_d = 0.

    The result lives on the doubled periodic grid and satisfies
    u~(x', -x_d) = -u~(x', x_d) at every sample; its first half is the input.
    """
    geom = field.geometry
    if not geom.is_dirichlet:
        raise GeometryError("odd_extension requires a Dirichlet geometry")
    scale = np.max(np.abs(field.data))
    boundary = np.abs(field.data[..., 0]).max() if field.data.size else 0.0
    if boundary > 1e-12 * scale:
        raise GeometryError(
            f"boundary samples must vanish: max |u| on the plane is {boundary:.3e}"
        )
    n = geom.points[-1]
    out = np.empty(geom.points[:-1] + (2 * n,), dtype=complex)
    out[..., :n] = field.data
    out[..., n] = 0.0
    np.negative(field.data[..., :0:-1], out=out[..., n + 1 :])
    return Field(geom.transform_grid(), out)


def restrict_to_half(field: Field) -> Field:
    """Inverse of odd_extension: keep the half grid x_d in [0, L).

    Rejects fields that are not antisymmetric in the last axis: the residual
    is max_j |u_j + u_{-j}| over the last axis, where plane 0 and plane n pair
    with themselves and every other plane j in 1..n-1 with plane 2n - j.
    """
    geom = field.geometry
    require_periodic(geom, "restrict_to_half")
    data = field.data
    n = geom.points[-1] // 2
    residual = np.maximum(
        2.0 * np.abs(data[..., 0]).max(),
        np.abs(data[..., 1 : n + 1] + data[..., : n - 1 : -1]).max(),
    )
    scale = np.max(np.abs(data))
    if residual > 1e-8 * max(scale, 1e-300):
        raise GeometryError(
            f"field is not antisymmetric in the last axis (residual {residual:.3e})"
        )
    half_data = data[..., :n].copy()
    half_data[..., 0] = 0.0
    return Field(_half(geom), half_data)


@lru_cache(maxsize=8)
def _doubled(geometry: GridGeometry) -> GridGeometry:
    """The periodic box of the odd extension (last axis doubled). Cached per geometry."""
    lengths = geometry.lengths[:-1] + (2.0 * geometry.lengths[-1],)
    points = geometry.points[:-1] + (2 * geometry.points[-1],)
    return GridGeometry(DomainKind.PERIODIC_BOX, lengths, points)


@lru_cache(maxsize=8)
def _half(geometry: GridGeometry) -> GridGeometry:
    """The Dirichlet geometry whose `_doubled` is `geometry`. Cached per geometry."""
    kind = DomainKind.DIRICHLET_INTERVAL if geometry.dim == 1 else DomainKind.DIRICHLET_SLAB
    lengths = geometry.lengths[:-1] + (geometry.lengths[-1] / 2.0,)
    return GridGeometry(kind, lengths, geometry.points[:-1] + (geometry.points[-1] // 2,))


def galilean_boost(field: Field, modes: Sequence[int], t: float) -> Field:
    """Galilean boost u(x) -> e^{i v.x - i |v|^2 t} u(x - 2 v t).

    v = 2 pi modes / lengths for integer mode indices, so the modulation is
    grid-periodic; a v whose |v|^2 is not finite is a GeometryError. The
    off-grid shift is applied as an exact modulation in Fourier space.
    """
    geom = field.geometry
    require_periodic(geom, "galilean_boost")
    if len(modes) != geom.dim:
        raise GeometryError(f"velocity has {len(modes)} components for a {geom.dim}-d grid")
    v = [2.0 * math.pi * float(m) / l for m, l in zip(modes, geom.lengths)]
    if not math.isfinite(sum(x * x for x in v)):  # Python floats overflow quietly
        raise GeometryError(f"|v|^2 is not finite for v = {v}")
    v = np.array(v)

    data = field.data
    if t != 0.0 and any(modes):
        # shift by a = 2 v t: multiply mode n by exp(-2 pi i n . a / L)
        coeffs = np.fft.fftn(data)
        for axis, (n_idx, l) in enumerate(zip(geom.mode_grids(), geom.lengths)):
            a = 2.0 * v[axis] * t
            coeffs = coeffs * np.exp(-2j * math.pi * n_idx * a / l)
        data = np.fft.ifftn(coeffs)

    grids = geom.coordinate_grids()
    vx = sum(v[i] * grids[i] for i in range(geom.dim))
    vv = float(np.dot(v, v))
    return Field(geom, np.exp(1j * vx - 1j * vv * t) * data)
