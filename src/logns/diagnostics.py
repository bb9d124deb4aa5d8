"""Conserved quantities and Sobolev-norm diagnostics.

The kinetic energy and both H^s norms are weighted sums of the power spectrum
P = V |c_n|^2 (`spectral.spectrum`, which reads a Dirichlet field off the half
spectrum of its odd extension), so a record with any number of either norm
costs one FFT. A record takes every spectral sum first and releases the
spectrum before it forms |u|; the mass and the log potential are then three
sums over r = |u| and q = r r (`_modulus_sums`). A record whose mass, energy
or a norm overflows or turns nan raises `NonFiniteRecordError` instead of
numpy's warnings.
Dirichlet H^s norms cover the doubled box (hs_norm(f, 0)^2 == 2 mass(f)); the
kinetic energy is halved; mass and the potential are sums over the half grid.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache

import numpy as np

from .geometry import Field, GridGeometry, require_same_geometry
from .nonlinearity import check_eps
from .spectral import hs_multiplier_norm, spectrum, squared_frequency

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
    """Cell-volume-weighted sum of modulus^2: every squared L^2 norm of the package.
    The sum is np.sum's (pairwise), called as the ufunc's reduce, without the
    wrapper's cost on small grids."""
    return geometry.cell_volume * float(np.add.reduce(modulus * modulus, axis=None))


def _modulus_sums(field: Field, eps: float) -> tuple[float, float]:
    """(mass, potential) of a field: cell sum r^2 and cell sum F(r), r = |u|, with
    F(r) = integral_0^r 2 s ln(s + eps) ds
         = (r^2 - eps^2) ln(r + eps) - r^2 / 2 + eps r + eps^2 ln(eps).

    With q = r r, the potential is cell [sum (q - eps^2) ln(r + eps) - sum q / 2
    + eps sum r + N eps^2 ln(eps)]: six passes and three sums, of which sum q
    is also the mass (bitwise `squared_l2` of r). q - eps^2 is formed in place
    on q and the log in place on r, once sum r is taken. At eps = 0 the log is
    masked where r = 0, so 0 ln 0 = 0, and the eps terms, whose ln(eps) would
    raise, are dropped: -2 lam F(|u|) is then the unregularized
    -lam |u|^2 (ln |u|^2 - 1).
    """
    r = np.abs(field.data)
    q = np.multiply(r, r)
    squares = float(np.add.reduce(q, axis=None))
    if eps:
        moduli = float(np.add.reduce(r, axis=None))
        q -= eps * eps
        r += eps
    np.log(r, out=r, where=True if eps else r > 0.0)
    q *= r
    potential = float(np.add.reduce(q, axis=None)) - 0.5 * squares
    if eps:
        potential = potential + eps * moduli + r.size * (eps * eps * math.log(eps))
    cell = field.geometry.cell_volume
    return cell * squares, cell * potential


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
    gagliardo_values, from one spectrum (`spectral.spectrum`).

    The spectral sums (the kinetic energy and every norm) are taken first and
    the spectrum is released before |u| is formed, so the two phases never
    hold their arrays at once; the mass and the potential follow from
    `_modulus_sums`. Raises NonFiniteRecordError, and no numpy warning, when
    any of them overflows or is nan."""
    check_eps(eps)
    with np.errstate(over="ignore", invalid="ignore"):
        geometry, total = spectrum(field)
        kinetic = 4.0 * math.pi**2 * total(squared_frequency(geometry))
        if field.geometry.is_dirichlet:
            kinetic /= 2.0  # the extension's integral covers the domain twice
        hs_norms = {s: hs_multiplier_norm(geometry, total, s) for s in hs_values}
        gagliardo_norms = {s: _gagliardo_norm(geometry, total, s) for s in gagliardo_values}
        del total  # releases the spectrum before |u| is formed
        field_mass, potential = _modulus_sums(field, eps)
        record = DiagnosticsRecord(t, field_mass, kinetic - 2.0 * lam * potential,
                                   hs_norms, gagliardo_norms)
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
    """The multiplier H^s norm, `spectral.hs_multiplier_norm` of the field's
    spectrum: a Dirichlet field's covers the doubled box,
    hs_norm(f, 0)^2 == 2 mass(f)."""
    return hs_multiplier_norm(*spectrum(field), s)


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
    return _gagliardo_norm(*spectrum(field), s)


def _gagliardo_norm(geometry: GridGeometry, total: Callable[[np.ndarray], float],
                    s: float) -> float:
    """sqrt(sum_n sigma_s(n) P(n)) for the spectrum `total` sums on `geometry`."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    return math.sqrt(total(_gagliardo_symbol(geometry, s)))

