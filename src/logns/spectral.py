"""Fourier machinery: frequency grids, exact free propagator, multiplier H^s norm,
resampling between grids.

The transforms of a step (`propagate`) and of a record (`power_spectrum`) call
numpy's pocketfft gufuncs directly; one-time transforms use the public np.fft.

Fourier coefficients are fftn(data) / data.size, so a plane wave of amplitude
A has a single coefficient A. For a box with side lengths L the frequency of
mode n is n / L, and norms carry the volume factor: the s = 0 multiplier norm
squared is the mass of a periodic field (see `diagnostics` for Dirichlet ones).
"""

from __future__ import annotations

import ctypes
import math
from collections.abc import Sequence
from functools import lru_cache

import numpy as np
# the kernels behind np.fft.fft and ifft (numpy >= 2.0). On small grids the
# public wrapper (argument checks, the 1/n, the dispatch) costs more than the
# transform, so the per-step and per-record transforms call them directly
from numpy.fft import _pocketfft_umath as _pocketfft

from .geometry import Field, GeometryError, GridGeometry, require_periodic

# the byte boundary `aligned_empty` starts its arrays on: a cache line, and
# the width of an AVX-512 register
_ALIGNMENT = 64

__all__ = [
    "free_propagator",
    "hs_multiplier_norm",
    "truncate_modes",
]


@lru_cache(maxsize=32)
def squared_frequency(geometry: GridGeometry) -> np.ndarray:
    """|n / L|^2 on the full mode grid, fft ordering. Cached per geometry, read-only."""
    out = sum((n / l) ** 2 for n, l in zip(geometry.mode_grids(), geometry.lengths))
    out = np.broadcast_to(out, geometry.points).copy()
    out.flags.writeable = False
    return out


@lru_cache(maxsize=32)
def mode_radius(geometry: GridGeometry) -> np.ndarray:
    """|n| (integer mode index magnitude) on the full mode grid. Cached, read-only."""
    out = np.sqrt(np.broadcast_to(sum(n**2 for n in geometry.mode_grids()), geometry.points))
    out.flags.writeable = False
    return out


def aligned_empty(*layouts: tuple[tuple[int, ...], type]) -> list[np.ndarray]:
    """Uninitialised C-contiguous arrays, one per (shape, dtype) layout, each
    starting on a 64-byte boundary: views into one uint8 buffer, offset to its
    first aligned address. One buffer for all of a march's arrays leaves the
    heap as an unaligned allocation of that size would; buffers padded one by
    one fit its free blocks worse (peak RSS +2 % on the 256^2 bench workload)."""
    starts, end = [], 0
    for shape, dtype in layouts:
        starts.append(end)
        size = math.prod(shape) * np.dtype(dtype).itemsize
        end += (size + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT
    buffer = np.empty(end + _ALIGNMENT, dtype=np.uint8)
    # the address through a ctypes view, several times cheaper than .ctypes
    # or __array_interface__, which build objects a march does not need
    offset = -ctypes.addressof(ctypes.c_char.from_buffer(buffer)) % _ALIGNMENT
    return [np.ndarray(shape, dtype, buffer, offset + start)
            for (shape, dtype), start in zip(layouts, starts)]


@lru_cache(maxsize=8)
def free_symbol(geometry: GridGeometry, dt: float) -> np.ndarray:
    """e^{-4 pi^2 |n/L|^2 i dt} on the full mode grid. Cached per (geometry, dt),
    read-only, 64-byte aligned; the exponent is formed in the symbol's array."""
    [symbol] = aligned_empty((geometry.points, complex))
    np.multiply(-4.0 * math.pi**2 * squared_frequency(geometry), 1j, out=symbol)
    symbol *= dt
    np.exp(symbol, out=symbol)
    symbol.flags.writeable = False
    return symbol


def _transform(a: np.ndarray, axes: Sequence[int], inverse: bool, out: np.ndarray) -> None:
    """out <- fftn(a, axes=axes), or ifftn, bitwise: numpy's kernel, axis order
    (reversed) and 1/n scale, one gufunc call per axis. `out` may be `a`."""
    kernel = _pocketfft.ifft if inverse else _pocketfft.fft
    for axis in reversed(axes):
        kernel(a, 1.0 / a.shape[axis] if inverse else 1.0, axes=[(axis,), (), (axis,)], out=out)
        a = out


def propagate(state: np.ndarray, symbol: np.ndarray) -> None:
    """In place state <- ifftn(fftn(state) * symbol) over its trailing symbol.ndim axes.

    One 1-d transform per axis in reversed order, as fftn does, each a direct
    pocketfft gufunc call, so a stack of fields gets bit for bit the result of
    each field alone. No check; every transform writes into `state`.
    """
    axes = range(state.ndim - symbol.ndim, state.ndim)
    _transform(state, axes, False, state)
    state *= symbol
    _transform(state, axes, True, state)


def free_propagator(field: Field, dt: float) -> Field:
    """Exact flow of i u_t + Lap u = 0: mode n picks up e^{-4 pi^2 |n/L|^2 i dt}.

    The symbol is cached per (geometry, dt), so a run builds it once.
    """
    require_periodic(field.geometry, "free_propagator")
    data = field.data.copy()
    propagate(data, free_symbol(field.geometry, dt))
    return Field(field.geometry, data)


def power_spectrum(field: Field) -> np.ndarray:
    """P(n) = V |f^(n)|^2 on the full mode grid; weight w gives sqrt(sum w P).

    One FFT into one complex buffer, normalised in real arithmetic: every axis
    length is a power of two, so |c| * (1 / size) is exactly |c / size| and P is
    bitwise V |fftn(u) / size|^2. The buffer is released before squaring, so
    the peak is one field plus P.
    """
    require_periodic(field.geometry, "power_spectrum")
    coeffs = np.empty_like(field.data)
    _transform(field.data, range(field.data.ndim), False, coeffs)
    power = np.abs(coeffs)
    del coeffs
    power *= 1.0 / field.data.size
    power **= 2
    power *= field.geometry.volume
    return power


@lru_cache(maxsize=8)
def bessel_weight(geometry: GridGeometry, s: float) -> np.ndarray:
    """(1 + 4 pi^2 |n/L|^2)^s on the full mode grid. Cached per (geometry, s), read-only."""
    weight = (1.0 + 4.0 * math.pi**2 * squared_frequency(geometry)) ** s
    weight.flags.writeable = False
    return weight


def bessel_norm(geometry: GridGeometry, power: np.ndarray, s: float) -> float:
    """sqrt(sum_n (1 + 4 pi^2 |n/L|^2)^s P(n)) for a power spectrum P on `geometry`."""
    return math.sqrt(float(np.sum(bessel_weight(geometry, s) * power)))


def hs_multiplier_norm(field: Field, s: float) -> float:
    """Bessel-potential norm: sqrt(V sum (1 + 4 pi^2 |n/L|^2)^s |f^(n)|^2).

    s = 0 reproduces the L^2 norm; any real s is accepted.
    """
    return bessel_norm(field.geometry, power_spectrum(field), s)


def resample_modes(field: Field, geometry: GridGeometry) -> Field:
    """The trigonometric interpolant of `field` sampled on `geometry`.

    `geometry` is a periodic grid of the same lengths, with at least or at most
    as many points as the field's on every axis. The modes both grids share,
    those of the coarser grid, keep their coefficients and every other mode is
    zero: refining pads the spectrum with zeros, restricting keeps the coarser
    grid's modes, and refining then restricting gives the field back.
    """
    source = field.geometry
    require_periodic(source, "resample_modes")
    require_periodic(geometry, "resample_modes")
    coarse, fine = sorted((source, geometry), key=lambda g: math.prod(g.points))
    if coarse.lengths != fine.lengths or any(
            c > f for c, f in zip(coarse.points, fine.points)):
        raise GeometryError(f"cannot resample {source.points} points over {source.lengths} "
                            f"onto {geometry.points} over {geometry.lengths}")
    shared = [n.astype(int) for n in coarse.mode_grids()]
    coeffs = np.zeros(geometry.points, dtype=complex)
    coeffs[tuple(n % m for n, m in zip(shared, geometry.points))] = np.fft.fftn(field.data)[
        tuple(n % m for n, m in zip(shared, source.points))]
    coeffs *= math.prod(geometry.points) / math.prod(source.points)  # a power of two
    return Field(geometry, np.fft.ifftn(coeffs))


def truncate_modes(field: Field, radius: float) -> Field:
    """Sharp Fourier cutoff: zero all coefficients with |n| > radius."""
    require_periodic(field.geometry, "truncate_modes")
    coeffs = np.fft.fftn(field.data)
    coeffs[mode_radius(field.geometry) > radius] = 0.0
    return Field(field.geometry, np.fft.ifftn(coeffs))
