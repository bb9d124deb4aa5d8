"""Conserved quantities and Sobolev-norm diagnostics.

`_spectrum` is the one place a field becomes Fourier data: a Dirichlet field is
odd-extended to the doubled periodic box, then one FFT gives the power spectrum
P = V |c_n|^2; the kinetic energy and both H^s norms are weighted sums of P,
so a record with any number of either norm costs one extension and one FFT.
A record whose mass, energy or a norm overflows or turns nan raises
`NonFiniteRecordError` instead of numpy's warnings.
Dirichlet H^s norms cover the doubled box (hs_norm(f, 0)^2 == 2 mass(f)); the
kinetic energy is halved; mass and the potential are sums over the half grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache

import numpy as np

from .geometry import Field, GridGeometry, odd_extension, require_same_geometry
from .nonlinearity import check_eps
from .spectral import bessel_norm, power_spectrum, squared_frequency

__all__ = [
    "DiagnosticsRecord",
    "NonFiniteRecordError",
    "measure",
    "mass",
    "energy",
    "l2_distance",
    "hs_norm",
    "hs_gagliardo_norm",
]


@dataclass
class DiagnosticsRecord:
    """Per-time-sample measurements of a trajectory."""

    time: float
    mass: float
    energy: float
    hs_norms: dict[float, float] = dataclass_field(default_factory=dict)
    gagliardo_norms: dict[float, float] = dataclass_field(default_factory=dict)


class NonFiniteRecordError(ValueError):
    """Raised by `measure` when a quantity of the record is inf or nan.

    `quantities` names each such quantity with its value, as in "mass inf".
    """

    def __init__(self, t: float, quantities: str):
        super().__init__(f"non-finite record at t={t:g}: {quantities}")
        self.quantities = quantities


def mass(field: Field) -> float:
    """Cell-volume-weighted sum of |u|^2 (the squared L^2 norm)."""
    return squared_l2(field.geometry, np.abs(field.data))


def squared_l2(geometry: GridGeometry, modulus: np.ndarray) -> float:
    """Cell-volume-weighted sum of modulus^2: every squared L^2 norm of the package."""
    return geometry.cell_volume * float(np.sum(modulus**2))


def _log_potential_density(r: np.ndarray, eps: float) -> np.ndarray:
    """F(r) = integral_0^r 2 s ln(s + eps) ds in closed form.

    At eps = 0 this is r^2 ln r - r^2 / 2, so -2 lam F(|u|) reduces to the
    unregularized potential -lam |u|^2 (ln |u|^2 - 1).
    """
    # (r r - eps eps) ln(r + eps) - 0.5 r r + eps r + eps eps ln(eps) through
    # two buffers, term by term in the expression's order, so the result is
    # bitwise that of evaluating it with temporaries. At eps = 0 the log is
    # masked where r = 0, so 0 ln 0 = 0, and the vanishing eps terms, whose
    # ln(eps) would raise, are skipped
    out = np.multiply(r, r)
    out -= eps * eps
    tmp = np.add(r, eps)
    np.log(tmp, out=tmp, where=True if eps else tmp > 0.0)
    out *= tmp
    np.multiply(0.5, r, out=tmp)
    tmp *= r
    out -= tmp
    if eps:
        np.multiply(eps, r, out=tmp)
        out += tmp
        out += eps * eps * math.log(eps)
    return out


def _spectrum(field: Field) -> tuple[GridGeometry, np.ndarray]:
    """(periodic geometry, P = V |c_n|^2), via the odd extension if Dirichlet."""
    if field.geometry.is_dirichlet:
        field = odd_extension(field)
    return field.geometry, power_spectrum(field)


def energy(field: Field, lam: float, eps: float = 0.0) -> float:
    """Conserved energy: |grad u|_{L^2}^2 - 2 lam int F(|u|).

    F is the antiderivative matching the 2 u ln(|u| + eps) nonlinearity; at
    eps = 0 the potential reduces to -lam |u|^2 (ln |u|^2 - 1).
    """
    return measure(field, 0.0, lam, eps, ()).energy


def measure(
    field: Field, t: float, lam: float, eps: float, hs_values: tuple[float, ...],
    gagliardo_values: tuple[float, ...] = (),
) -> DiagnosticsRecord:
    """The record of mass(field), energy(field, lam, eps), hs_norm(field, s) for
    each s in hs_values and hs_gagliardo_norm(field, s) for each s in
    gagliardo_values, from one spectrum: one extension, one FFT.

    Raises NonFiniteRecordError, and no numpy warning, when any of them
    overflows or is nan."""
    check_eps(eps)
    with np.errstate(over="ignore", invalid="ignore"):
        geometry, power = _spectrum(field)
        kinetic = 4.0 * math.pi**2 * float(np.sum(squared_frequency(geometry) * power))
        if field.geometry.is_dirichlet:
            kinetic /= 2.0  # the extension's integral covers the domain twice
        modulus = np.abs(field.data)
        density = _log_potential_density(modulus, eps)
        potential = field.geometry.cell_volume * float(np.sum(density))
        record = DiagnosticsRecord(
            t, squared_l2(field.geometry, modulus), kinetic - 2.0 * lam * potential,
            {s: bessel_norm(geometry, power, s) for s in hs_values},
            {s: _gagliardo_norm(geometry, power, s) for s in gagliardo_values})
    bad = [f"{name} {v:g}" for name, v in (
        ("mass", record.mass), ("energy", record.energy),
        *((f"H^{s:g}", v) for s, v in record.hs_norms.items()),
        *((f"gagliardo H^{s:g}", v) for s, v in record.gagliardo_norms.items()),
    ) if not math.isfinite(v)]
    if bad:
        raise NonFiniteRecordError(t, ", ".join(bad))
    return record


def l2_distance(f: Field, g: Field) -> float:
    """Cell-volume-weighted L^2 distance between two fields on the same grid."""
    require_same_geometry(f, g)
    return math.sqrt(squared_l2(f.geometry, np.abs(f.data - g.data)))


def hs_norm(field: Field, s: float) -> float:
    """Multiplier H^s norm (`spectral.hs_multiplier_norm`). A Dirichlet field is
    measured via its odd extension over the doubled box, not halved:
    hs_norm(f, 0)^2 == 2 mass(f)."""
    return bessel_norm(*_spectrum(field), s)


@lru_cache(maxsize=8)
def _gagliardo_symbol(geometry: GridGeometry, s: float) -> np.ndarray:
    """sigma_s(n) = 1 + cell * M(n), the lattice double sum as a multiplier.

    Parseval turns sum_k w(k) sum_x |f(x+k) - f(x)|^2 into
    (1/N) sum_n |F_n|^2 M(n) with M(n) = 2 (W(0) - Re W(n)), W = fftn(w) and
    w(k) = |y_k|^{-(d+2s)} over the signed shifts y_k, w(0) = 0 (the discrete
    form of Di Nezza, Palatucci & Valdinoci, Prop. 3.4). Cached per
    (geometry, s), read-only.
    """
    origin = (0,) * geometry.dim
    spacings = (l / p for l, p in zip(geometry.lengths, geometry.points))
    y2 = sum((n * h) ** 2 for n, h in zip(geometry.mode_grids(), spacings))
    y2 = np.broadcast_to(y2, geometry.points).copy()
    y2[origin] = np.inf  # drops the k = 0 term
    w = np.fft.fftn(y2 ** (-(geometry.dim + 2.0 * s) / 2.0)).real
    symbol = 1.0 + 2.0 * geometry.cell_volume * (w[origin] - w)
    symbol[origin] = 1.0
    symbol.flags.writeable = False
    return symbol


def hs_gagliardo_norm(field: Field, s: float) -> float:
    """Double-sum fractional Sobolev norm (torus form), computed as a multiplier.

    sqrt(mass + sum over grid pairs (x, x+y) of |f(x+y) - f(x)|^2 / |y|^{d+2s}
    weighted by both cell volumes), y ranging over the signed shifts of the
    fundamental cell with y = 0 omitted. The double sum equals
    V sum_n (sigma_s(n) - 1) |f^(n)|^2, so the norm costs one FFT once the
    symbol is cached. The symbol's W(0) - W(n) cancels, which costs a few
    digits on smooth data: within 1e-10 relative of the literal sum on a
    Gaussian at N = 4096, s = 0.75. Dirichlet fields are measured via odd
    extension.
    """
    return _gagliardo_norm(*_spectrum(field), s)


def _gagliardo_norm(geometry: GridGeometry, power: np.ndarray, s: float) -> float:
    """sqrt(sum_n sigma_s(n) P(n)) for a power spectrum P on `geometry`."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    return math.sqrt(float(np.sum(_gagliardo_symbol(geometry, s) * power)))

