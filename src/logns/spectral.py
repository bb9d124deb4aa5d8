"""Fourier machinery: frequency grids, exact free propagator, the spectrum of a
field and its multiplier H^s norm, resampling between grids.

`spectrum` is the one place a field becomes Fourier sums, periodic or
Dirichlet (the half spectrum of its odd extension, counted twice); the
multiplier norm and every sum of a `diagnostics` record are read off it. The
transforms of a step (`free_propagator`) and of a spectrum call numpy's
pocketfft gufuncs directly; one-time transforms use the public np.fft.

Fourier coefficients are fftn(data) / data.size, so a plane wave of amplitude
A has a single coefficient A. For a box with side lengths L the frequency of
mode n is n / L, and norms carry the volume factor: the s = 0 multiplier norm
squared is the mass of a periodic field, and twice the mass of a Dirichlet
one, whose norm covers the doubled box.
"""

from __future__ import annotations

import ctypes
import math
from collections.abc import Callable
from functools import lru_cache

import numpy as np
# the kernels behind np.fft.fft and ifft (numpy >= 2.0). On small grids the
# public wrapper (argument checks, the 1/n, the dispatch) costs more than the
# transform, so the per-step and per-record transforms call them directly
from numpy.fft import _pocketfft_umath as _pocketfft

from .geometry import Field, GeometryError, GridGeometry, odd_extension, require_periodic

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


@lru_cache(maxsize=32)
def _plan(shape: tuple[int, ...], first: int, stop: int) -> tuple[tuple[int, float], ...]:
    """fftn's 1-d transforms over axes first..stop-1 of an array of `shape`:
    (axis, 1/n) per axis, in fftn's order (last axis first). Cached per shape
    and axes, so a step looks its plan up by the state's shape; a tuple of
    tuples, immutable like every cached value."""
    return tuple((axis, 1.0 / shape[axis]) for axis in reversed(range(first, stop)))


def _transform(a: np.ndarray, plan: tuple[tuple[int, float], ...], inverse: bool,
               out: np.ndarray) -> None:
    """out <- fftn(a) over the axes of `plan` (from `_plan`), or ifftn, bitwise:
    numpy's kernel, axis order and 1/n scale, one gufunc call per axis. The
    last axis is the gufunc's default core axis and needs no `axes` list.
    `out` may be `a`."""
    kernel = _pocketfft.ifft if inverse else _pocketfft.fft
    last = a.ndim - 1
    for axis, scale in plan:
        if axis == last:
            kernel(a, scale if inverse else 1.0, out=out)
        else:
            kernel(a, scale if inverse else 1.0, axes=[(axis,), (), (axis,)], out=out)
        a = out


def free_propagator(state: np.ndarray, symbol: np.ndarray) -> None:
    """Exact flow of i u_t + Lap u = 0 with symbol `free_symbol(geometry, dt)`:
    in place state <- ifftn(fftn(state) * symbol) over its trailing symbol.ndim
    axes, so mode n picks up e^{-4 pi^2 |n/L|^2 i dt}.

    One 1-d transform per axis in reversed order, as fftn does, each a direct
    pocketfft gufunc call, so a stack of fields gets bit for bit the result of
    each field alone. The axes and 1/n scales are planned once per state
    shape (`_plan`), not per step. No check; every transform writes into
    `state`.
    """
    plan = _plan(state.shape, state.ndim - symbol.ndim, state.ndim)
    _transform(state, plan, False, state)
    state *= symbol
    _transform(state, plan, True, state)


def spectrum(field: Field) -> tuple[GridGeometry, Callable[[np.ndarray], float]]:
    """(G, total): G the periodic grid of the field's transform, total(w) the
    sum_n w(n) P(n) over G's modes for a weight w on G, with P(n) = V |f^(n)|^2.

    A periodic field takes one FFT into one complex buffer. A Dirichlet field's
    odd extension, a fresh array, is transformed in place: its spectrum is odd
    in n_d, so the modes n_d = 0 and N/2 vanish and mode -n_d has the power of
    mode n_d, and the half 1 <= n_d <= N/2 - 1 of the doubled box, counted
    twice, is the whole. Its last axis is transformed over all its planes,
    then the other axes over the kept modes only, in fftn's axis order, so each
    kept entry is bitwise the full transform's. The FFT buffer is released
    before the one product buffer that every sum shares is allocated; the
    closure holds P and that buffer, and dropping it releases both.
    """
    geometry = field.geometry.transform_grid()
    if field.geometry.is_dirichlet:
        kept, count = slice(1, field.geometry.points[-1]), 2.0
        coeffs = odd_extension(field).data
        _transform(coeffs, _plan(coeffs.shape, coeffs.ndim - 1, coeffs.ndim), False, coeffs)
        coeffs = coeffs[..., kept]
        _transform(coeffs, _plan(coeffs.shape, 0, coeffs.ndim - 1), False, coeffs)
    else:
        kept, count = slice(None), 1.0
        coeffs = np.empty_like(field.data)
        _transform(field.data, _plan(coeffs.shape, 0, coeffs.ndim), False, coeffs)
    power = _power(coeffs, geometry)
    del coeffs  # the FFT buffer, released before the product buffer
    product = np.empty_like(power)
    return geometry, lambda weight: count * float(
        np.multiply(weight[..., kept], power, out=product).sum())


def _power(coeffs: np.ndarray, geometry: GridGeometry) -> np.ndarray:
    """V |c / size|^2 for unnormalised FFT coefficients c on `geometry`, in real
    arithmetic: every axis length is a power of two, so |c| * (1 / size) is
    exactly |c / size|. Scaling before squaring keeps |c| up to about
    1e154 size finite; a unit volume, whose product is exact, is not applied."""
    power = np.abs(coeffs)
    power *= 1.0 / math.prod(geometry.points)
    power **= 2
    if geometry.volume != 1.0:
        power *= geometry.volume
    return power


@lru_cache(maxsize=8)
def bessel_weight(geometry: GridGeometry, s: float) -> np.ndarray:
    """(1 + 4 pi^2 |n/L|^2)^s on the full mode grid. Cached per (geometry, s), read-only."""
    weight = (1.0 + 4.0 * math.pi**2 * squared_frequency(geometry)) ** s
    weight.flags.writeable = False
    return weight


def hs_multiplier_norm(geometry: GridGeometry, total: Callable[[np.ndarray], float],
                       s: float) -> float:
    """Bessel-potential norm sqrt(V sum (1 + 4 pi^2 |n/L|^2)^s |f^(n)|^2) of the
    field whose `spectrum` is (geometry, total).

    s = 0 reproduces the L^2 norm; any real s is accepted. A Dirichlet field
    is measured via its odd extension over the doubled box, not halved: its
    norm at s = 0 squared is 2 mass(f).
    """
    return math.sqrt(total(bessel_weight(geometry, s)))


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
