"""Fourier machinery: frequency grids, exact free propagator, multiplier H^s norm.

Fourier coefficients are fftn(data) / data.size, so a plane wave of amplitude
A has a single coefficient A. For a box with side lengths L the frequency of
mode n is n / L and norms carry the volume factor so that the s = 0
multiplier norm squared equals the mass.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .geometry import Field, GeometryError, GridGeometry

__all__ = [
    "free_propagator",
    "hs_multiplier_norm",
    "truncate_modes",
]


def _require_periodic(geometry: GridGeometry, what: str) -> None:
    if not geometry.is_periodic:
        raise GeometryError(f"{what} requires a periodic geometry, got {geometry.kind.value}")


def mode_grids(geometry: GridGeometry) -> list[np.ndarray]:
    """Signed integer mode indices n per axis in fft order, broadcastable like
    GridGeometry.coordinate_grids(): 0, 1, ..., N/2 - 1, -N/2, ..., -1."""
    return list(np.ix_(*[np.fft.fftfreq(n, d=1.0 / n) for n in geometry.points]))


@lru_cache(maxsize=32)
def squared_frequency(geometry: GridGeometry) -> np.ndarray:
    """|n / L|^2 on the full mode grid, fft ordering. Cached per geometry."""
    out = sum((n / l) ** 2 for n, l in zip(mode_grids(geometry), geometry.lengths))
    return np.broadcast_to(out, geometry.points).copy()


@lru_cache(maxsize=32)
def mode_radius(geometry: GridGeometry) -> np.ndarray:
    """|n| (integer mode index magnitude) on the full mode grid."""
    out = sum(n**2 for n in mode_grids(geometry))
    return np.sqrt(np.broadcast_to(out, geometry.points))


@lru_cache(maxsize=8)
def _free_symbol(geometry: GridGeometry, dt: float) -> np.ndarray:
    xi2 = squared_frequency(geometry)
    symbol = np.exp(-4.0 * math.pi**2 * xi2 * 1j * dt)
    symbol.flags.writeable = False
    return symbol


def free_propagator(field: Field, dt: float) -> Field:
    """Exact flow of i u_t + Lap u = 0: mode n picks up e^{-4 pi^2 |n/L|^2 i dt}.

    The symbol is cached per (geometry, dt), so a run builds it once.
    """
    _require_periodic(field.geometry, "free_propagator")
    symbol = _free_symbol(field.geometry, dt)
    return Field(field.geometry, np.fft.ifftn(np.fft.fftn(field.data) * symbol))


def hs_multiplier_norm(field: Field, s: float) -> float:
    """Bessel-potential norm: sqrt(V sum (1 + 4 pi^2 |n/L|^2)^s |f^(n)|^2).

    s = 0 reproduces the L^2 norm; any real s is accepted.
    """
    _require_periodic(field.geometry, "hs_multiplier_norm")
    coeffs = np.fft.fftn(field.data) / field.data.size
    weight = (1.0 + 4.0 * math.pi**2 * squared_frequency(field.geometry)) ** s
    total = float(np.sum(weight * np.abs(coeffs) ** 2))
    return math.sqrt(field.geometry.volume * total)


def truncate_modes(field: Field, radius: float) -> Field:
    """Sharp Fourier cutoff: zero all coefficients with |n| > radius."""
    _require_periodic(field.geometry, "truncate_modes")
    coeffs = np.fft.fftn(field.data)
    coeffs[mode_radius(field.geometry) > radius] = 0.0
    return Field(field.geometry, np.fft.ifftn(coeffs))
