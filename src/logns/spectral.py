"""Fourier machinery: frequency grids, exact free propagator, multiplier H^s norm.

Fourier coefficients are fftn(data) / data.size, so a plane wave of amplitude
A has a single coefficient A. For a box with side lengths L the frequency of
mode n is n / L, and norms carry the volume factor: the s = 0 multiplier norm
squared is the mass of a periodic field (see `diagnostics` for Dirichlet ones).
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
def free_symbol(geometry: GridGeometry, dt: float) -> np.ndarray:
    """e^{-4 pi^2 |n/L|^2 i dt} on the full mode grid. Cached per (geometry, dt), read-only."""
    xi2 = squared_frequency(geometry)
    symbol = np.exp(-4.0 * math.pi**2 * xi2 * 1j * dt)
    symbol.flags.writeable = False
    return symbol


def propagate(state: np.ndarray, symbol: np.ndarray) -> None:
    """In place state <- ifftn(fftn(state) * symbol) over its trailing symbol.ndim axes.

    One 1-d FFT per axis in reversed order, as fftn does, so a stack of fields
    gets bit for bit the result of each field alone. No check; every transform
    writes into `state`.
    """
    axes = range(state.ndim - symbol.ndim, state.ndim)[::-1]
    for axis in axes:
        np.fft.fft(state, axis=axis, out=state)
    state *= symbol
    for axis in axes:
        np.fft.ifft(state, axis=axis, out=state)


def free_propagator(field: Field, dt: float) -> Field:
    """Exact flow of i u_t + Lap u = 0: mode n picks up e^{-4 pi^2 |n/L|^2 i dt}.

    The symbol is cached per (geometry, dt), so a run builds it once.
    """
    _require_periodic(field.geometry, "free_propagator")
    data = field.data.copy()
    propagate(data, free_symbol(field.geometry, dt))
    return Field(field.geometry, data)


def power_spectrum(field: Field) -> np.ndarray:
    """P(n) = V |f^(n)|^2 on the full mode grid; weight w gives sqrt(sum w P)."""
    _require_periodic(field.geometry, "power_spectrum")
    return field.geometry.volume * np.abs(np.fft.fftn(field.data) / field.data.size) ** 2


def bessel_norm(geometry: GridGeometry, power: np.ndarray, s: float) -> float:
    """sqrt(sum_n (1 + 4 pi^2 |n/L|^2)^s P(n)) for a power spectrum P on `geometry`."""
    weight = (1.0 + 4.0 * math.pi**2 * squared_frequency(geometry)) ** s
    return math.sqrt(float(np.sum(weight * power)))


def hs_multiplier_norm(field: Field, s: float) -> float:
    """Bessel-potential norm: sqrt(V sum (1 + 4 pi^2 |n/L|^2)^s |f^(n)|^2).

    s = 0 reproduces the L^2 norm; any real s is accepted.
    """
    return bessel_norm(field.geometry, power_spectrum(field), s)


def truncate_modes(field: Field, radius: float) -> Field:
    """Sharp Fourier cutoff: zero all coefficients with |n| > radius."""
    _require_periodic(field.geometry, "truncate_modes")
    coeffs = np.fft.fftn(field.data)
    coeffs[mode_radius(field.geometry) > radius] = 0.0
    return Field(field.geometry, np.fft.ifftn(coeffs))
