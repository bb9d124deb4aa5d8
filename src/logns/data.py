"""Initial-datum generators.

Dirichlet data are built on the doubled periodic grid, antisymmetrized along
the last axis, and restricted, so boundary zeros and odd symmetry are exact.
A datum that vanishes to roundoff is rejected: no bound is tested on u = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import Field, GridGeometry, restrict_to_half
from .spectral import mode_radius

__all__ = ["DatumSpec", "make_datum"]

_KINDS = ("plane_wave", "gaussian_bump", "random_band_limited", "random_rough")
# a datum whose L^2 norm is at most this fraction of its samples' norm before
# antisymmetrization is zero up to roundoff (about 450 ulps)
_ZERO_NORM_RATIO = 1e-13


@dataclass(frozen=True)
class DatumSpec:
    """Named family of initial data; `seed` fixes the randomized kinds."""

    kind: str
    seed: int = 0
    modes: tuple[int, ...] | None = None       # plane_wave
    amplitude: complex = 1.0                   # plane_wave, gaussian_bump
    center: tuple[float, ...] | None = None    # gaussian_bump
    width: float = 0.08                        # gaussian_bump
    cutoff: float | None = None                # random_band_limited
    target_s: float | None = None              # random_rough

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown datum kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == "plane_wave" and self.modes is None:
            raise ValueError("plane_wave requires mode indices")
        if self.kind == "random_band_limited" and self.cutoff is None:
            raise ValueError("random_band_limited requires a cutoff radius")
        if self.kind == "random_rough" and self.target_s is None:
            raise ValueError("random_rough requires a target Sobolev exponent")
        if not 0.0 < self.width < math.inf:
            raise ValueError(f"width must be positive finite, got {self.width}")
        if self.cutoff is not None and not 0.0 <= self.cutoff < math.inf:
            raise ValueError(f"cutoff must be finite and >= 0, got {self.cutoff}")
        if self.target_s is not None and not 0.0 < self.target_s < math.inf:
            raise ValueError(f"target_s must be positive finite, got {self.target_s}")
        if self.modes is not None:
            object.__setattr__(self, "modes", tuple(int(m) for m in self.modes))
        if self.center is not None:
            object.__setattr__(self, "center", tuple(float(c) for c in self.center))
            if not all(math.isfinite(c) for c in self.center):
                raise ValueError(f"center must be finite, got {self.center}")
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        if not (math.isfinite(self.amplitude.real) and math.isfinite(self.amplitude.imag)):
            raise ValueError(f"amplitude must be finite, got {self.amplitude}")


def _plane_wave(spec: DatumSpec, geom: GridGeometry) -> np.ndarray:
    if len(spec.modes) != geom.dim:
        raise ValueError(f"plane wave needs {geom.dim} mode indices, got {len(spec.modes)}")
    grids = geom.coordinate_grids()
    phase = sum(
        2.0 * math.pi * m * x / l for m, x, l in zip(spec.modes, grids, geom.lengths)
    )
    return spec.amplitude * np.exp(1j * phase)


def _gaussian_bump(spec: DatumSpec, geom: GridGeometry) -> np.ndarray:
    center = spec.center
    if len(center) != geom.dim:
        raise ValueError(f"gaussian center needs {geom.dim} coordinates")
    grids = geom.coordinate_grids()
    # periodized sum of images keeps the bump smooth across the wrap
    total = np.zeros(geom.points, dtype=float)
    for image in np.ndindex(*([5] * geom.dim)):
        r2 = sum(
            (x - c + (k - 2) * l) ** 2
            for x, c, l, k in zip(grids, center, geom.lengths, image)
        )
        total = total + np.exp(-r2 / (2.0 * spec.width**2))
    return spec.amplitude * total


def _random_band_limited(spec: DatumSpec, geom: GridGeometry) -> np.ndarray:
    rng = np.random.default_rng(spec.seed)
    shape = geom.points
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs[mode_radius(geom) > spec.cutoff] = 0.0
    return _unit_mass(np.fft.ifftn(coeffs) * coeffs.size, geom)


def _random_rough(spec: DatumSpec, geom: GridGeometry) -> np.ndarray:
    rng = np.random.default_rng(spec.seed)
    radius = mode_radius(geom)
    # decay exponent s + d/2 + 0.05 puts the datum just inside H^s
    decay = (1.0 + radius) ** -(spec.target_s + geom.dim / 2.0 + 0.05)
    phases = np.exp(2j * math.pi * rng.random(geom.points))
    return _unit_mass(np.fft.ifftn(decay * phases) * decay.size, geom)


def _unit_mass(data: np.ndarray, geom: GridGeometry) -> np.ndarray:
    norm = math.sqrt(geom.cell_volume * float(np.sum(np.abs(data) ** 2)))
    return data / norm


def make_datum(spec: DatumSpec, geometry: GridGeometry) -> Field:
    """Concrete initial datum for a geometry.

    Plane waves are periodic-only; the other kinds support Dirichlet grids via
    odd antisymmetrization on the doubled box. A Gaussian's default center is
    the middle of `geometry`, not of the doubled box, whose middle is a node of
    every odd extension. Raises ValueError on a datum that is zero to roundoff.
    """
    if geometry.is_dirichlet and spec.kind == "plane_wave":
        raise ValueError("plane waves are incompatible with Dirichlet boundaries")
    if spec.kind == "gaussian_bump" and spec.center is None:
        spec = replace(spec, center=tuple(l / 2 for l in geometry.lengths))
    grid = geometry.doubled() if geometry.is_dirichlet else geometry
    samples = data = _generate(spec, grid)
    if geometry.is_dirichlet:
        m = grid.points[-1]
        data = 0.5 * (samples - samples[..., (-np.arange(m)) % m])
    norm, scale = np.linalg.norm(data), np.linalg.norm(samples)
    if norm <= _ZERO_NORM_RATIO * scale:
        raise ValueError(f"datum: {spec.kind} vanishes on this {geometry.kind.value} grid "
                         f"(norm {norm:.3g} against a sample scale of {scale:.3g})")
    field = Field(grid, data)
    return restrict_to_half(field) if geometry.is_dirichlet else field


def _generate(spec: DatumSpec, geom: GridGeometry) -> np.ndarray:
    if spec.kind == "plane_wave":
        return _plane_wave(spec, geom)
    if spec.kind == "gaussian_bump":
        return _gaussian_bump(spec, geom)
    if spec.kind == "random_band_limited":
        return _random_band_limited(spec, geom)
    return _random_rough(spec, geom)
