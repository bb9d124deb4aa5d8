"""Conserved quantities and Sobolev-norm diagnostics.

Dirichlet fields are measured through their odd extension: gradient and H^s
quantities are computed on the doubled periodic grid (integrals over the half
domain are half of the extension's), while mass and the potential term are
plain sums over the half grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .geometry import Field, GeometryError, odd_extension, require_same_geometry
from .spectral import hs_multiplier_norm, mode_grids, squared_frequency

__all__ = [
    "DiagnosticsRecord",
    "mass",
    "energy",
    "l2_distance",
    "hs_norm",
    "hs_gagliardo_norm",
    "hs_growth_ratio",
]


@dataclass
class DiagnosticsRecord:
    """Per-time-sample measurements of a trajectory."""

    time: float
    mass: float
    energy: float
    hs_norms: dict[float, float] = dataclass_field(default_factory=dict)


def mass(field: Field) -> float:
    """Cell-volume-weighted sum of |u|^2 (the squared L^2 norm)."""
    return field.geometry.cell_volume * float(np.sum(np.abs(field.data) ** 2))


def _log_potential_density(r: np.ndarray, eps: float) -> np.ndarray:
    """F(r) = integral_0^r 2 s ln(s + eps) ds in closed form.

    At eps = 0 this is r^2 ln r - r^2 / 2, so -2 lam F(|u|) reduces to the
    unregularized potential -lam |u|^2 (ln |u|^2 - 1).
    """
    out = np.zeros_like(r)
    if eps == 0.0:
        pos = r > 0.0
        rp = r[pos]
        out[pos] = rp * rp * (np.log(rp) - 0.5)
        return out
    return (r * r - eps * eps) * np.log(r + eps) - 0.5 * r * r + eps * r + eps * eps * math.log(eps)


def energy(field: Field, lam: float, eps: float = 0.0) -> float:
    """Conserved energy: |grad u|_{L^2}^2 - 2 lam int F(|u|).

    F is the antiderivative matching the 2 u ln(|u| + eps) nonlinearity; at
    eps = 0 the potential reduces to -lam |u|^2 (ln |u|^2 - 1).
    """
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    geom = field.geometry
    if geom.is_dirichlet:
        ext = odd_extension(field)
        kinetic = _kinetic(ext) / 2.0
    else:
        kinetic = _kinetic(field)
    potential = geom.cell_volume * float(np.sum(_log_potential_density(np.abs(field.data), eps)))
    return kinetic - 2.0 * lam * potential


def _kinetic(field: Field) -> float:
    coeffs = np.fft.fftn(field.data) / field.data.size
    xi2 = squared_frequency(field.geometry)
    return field.geometry.volume * 4.0 * math.pi**2 * float(np.sum(xi2 * np.abs(coeffs) ** 2))


def l2_distance(f: Field, g: Field) -> float:
    """Cell-volume-weighted L^2 distance between two fields on the same grid."""
    require_same_geometry(f, g)
    return math.sqrt(f.geometry.cell_volume * float(np.sum(np.abs(f.data - g.data) ** 2)))


def hs_norm(field: Field, s: float) -> float:
    """Multiplier H^s norm; Dirichlet fields are measured via odd extension."""
    if field.geometry.is_dirichlet:
        return hs_multiplier_norm(odd_extension(field), s)
    return hs_multiplier_norm(field, s)


_GAGLIARDO_MAX_POINTS = 8192  # O(N^2) kernel; keep desk-scale


def _difference_energy_1d(data: np.ndarray, block: int = 256) -> np.ndarray:
    """D(k) = sum_x |f(x+k) - f(x)|^2 for every shift k.

    Shift blocks keep the working set at block x N samples.
    """
    n = data.shape[0]
    out = np.empty(n)
    base = np.arange(n)
    for start in range(0, n, block):
        ks = np.arange(start, min(start + block, n))
        idx = (base[None, :] + ks[:, None]) % n
        diff = data[idx] - data[None, :]
        out[ks] = np.sum(np.abs(diff) ** 2, axis=1)
    return out


def hs_gagliardo_norm(field: Field, s: float) -> float:
    """Double-sum fractional Sobolev norm (torus form).

    sqrt(mass + sum over grid pairs (x, x+y) of |f(x+y) - f(x)|^2 / |y|^{d+2s}
    weighted by both cell volumes), y ranging over the half-open fundamental
    cell with y = 0 omitted. O(N^2) in the grid size; the y <-> -y symmetry
    halves the work. Dirichlet fields are measured via odd extension.
    """
    if not 0.0 < s < 1.0:
        raise ValueError(f"s must lie in (0, 1), got {s}")
    if field.geometry.is_dirichlet:
        field = odd_extension(field)
    geom = field.geometry
    if field.data.size > _GAGLIARDO_MAX_POINTS:
        raise GeometryError(
            f"Gagliardo kernel is O(N^2); grid of {field.data.size} points exceeds "
            f"the {_GAGLIARDO_MAX_POINTS}-point cap"
        )
    d = geom.dim
    spacings = [l / n for l, n in zip(geom.lengths, geom.points)]

    if d == 1:
        profile = _difference_energy_1d(field.data)
        signed = mode_grids(geom)[0]
        y_abs = np.abs(signed) * spacings[0]
        mask = signed != 0
        weighted = profile[mask] / y_abs[mask] ** (1.0 + 2.0 * s)
        double_sum = float(np.sum(weighted))
    else:
        double_sum = 0.0
        exponent = d + 2.0 * s
        signed_modes = [k.ravel().tolist() for k in mode_grids(geom)]
        for shift in np.ndindex(*geom.points):
            if all(c == 0 for c in shift):
                continue
            signed = tuple(modes[c] for modes, c in zip(signed_modes, shift))
            neg = tuple((-c) % n for c, n in zip(shift, geom.points))
            if shift > neg:
                continue  # y <-> -y pair already counted
            pair_weight = 1.0 if shift == neg else 2.0
            y = math.sqrt(sum((c * h) ** 2 for c, h in zip(signed, spacings)))
            rolled = np.roll(field.data, [-c for c in shift], axis=tuple(range(d)))
            energy_y = float(np.sum(np.abs(rolled - field.data) ** 2))
            double_sum += pair_weight * energy_y / y**exponent

    cell = geom.cell_volume
    return math.sqrt(mass(field) + cell * cell * double_sum)


def hs_growth_ratio(
    record_t: DiagnosticsRecord, record_0: DiagnosticsRecord, s: float, lam: float
) -> float:
    """|u(t)|_{H^s}^2 / (e^{4 |lam| t} |u(0)|_{H^s}^2); the growth bound says <= 1."""
    for rec in (record_t, record_0):
        if s not in rec.hs_norms:
            raise KeyError(f"record at t={rec.time} does not track s={s}")
    envelope = math.exp(4.0 * abs(lam) * abs(record_t.time))
    return record_t.hs_norms[s] ** 2 / (envelope * record_0.hs_norms[s] ** 2)
