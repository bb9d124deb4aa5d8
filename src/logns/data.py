"""Initial-datum generators.

Dirichlet data are built on the doubled periodic grid, antisymmetrized along
the last axis, and restricted, so boundary zeros and odd symmetry are exact.
A datum that vanishes to roundoff is rejected: no bound is tested on u = 0.
So is one whose mass is not a positive finite float: every verdict divides
by the datum's norm or by a quantity that vanishes or overflows with it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import squared_l2
from .geometry import Field, GridGeometry, restrict_to_half
from .schema import Key, check, choice, complex_number, integer, list_of, number
from .spectral import mode_radius

__all__ = ["DatumSpec", "make_datum"]

# an array whose L^2 norm is at most this fraction of that of the samples it was
# made from is zero up to roundoff (about 450 ulps): `check_nonzero`
_ZERO_NORM_RATIO = 1e-13
# the range of a datum's sum of |u|^2 over its samples: at most a quarter of the
# float range, so the sum of |u - v|^2 <= 2 sum |u|^2 + 2 sum |v|^2 between two
# data is finite; at least tiny / u_r^2 (u_r = 2^-53, the unit roundoff), so the
# sum of squares of a difference of relative size u_r is a normal float
_SQUARES_RANGE = (math.ldexp(sys.float_info.min, 106), sys.float_info.max / 4.0)

_AMPLITUDE = Key(False, complex_number())
_SEED = Key(False, integer(lo=0))


def _width(v) -> float:
    """A Gaussian width w > 0 whose variance 2 w^2 is a positive finite float,
    so the bump's exponent -r^2 / (2 w^2) has a finite, nonzero scale."""
    w = number(lo=0.0, open_lo=True)(v)
    if not 0.0 < 2.0 * w * w < math.inf:
        raise ValueError(f"2 width^2 is out of the float range, got {w!r}")
    return w


# the keys of a config's datum section, which build a DatumSpec: datum kind ->
# its keys other than `kind`
DATUM_KEYS = {
    "plane_wave": {"modes": Key(True, list_of(integer())), "amplitude": _AMPLITUDE},
    "gaussian_bump": {
        "amplitude": _AMPLITUDE,
        "center": Key(False, list_of(number())),
        "width": Key(False, _width),
    },
    "random_band_limited": {"cutoff": Key(True, number(lo=0.0)), "seed": _SEED},
    "random_rough": {"target_s": Key(True, number(lo=0.0, open_lo=True)), "seed": _SEED},
}
DATUM_KIND = Key(True, choice(*DATUM_KEYS))


@dataclass(frozen=True)
class DatumSpec:
    """Named family of initial data, as DATUM_KEYS[kind] accepts it; `seed`
    fixes the randomized kinds."""

    kind: str
    seed: int = 0
    modes: tuple[int, ...] | None = None       # plane_wave
    amplitude: complex = 1.0 + 0.0j            # plane_wave, gaussian_bump
    center: tuple[float, ...] | None = None    # gaussian_bump
    width: float = 0.08                        # gaussian_bump
    cutoff: float | None = None                # random_band_limited
    target_s: float | None = None              # random_rough

    def __post_init__(self):
        keys = DATUM_KEYS.get(self.kind, {}) if isinstance(self.kind, str) else {}
        check(self, {"kind": DATUM_KIND, **keys})


def grid_errors(kind: str, fields: dict, dirichlet: bool, dim: int | None) -> list[str]:
    """Why a datum of `kind` with the keys `fields` cannot be built on a grid of
    dimension `dim` (None: not known), one "key: message" per fault: a plane
    wave on a Dirichlet grid, or `modes` or `center` without one entry per axis."""
    errors = []
    if kind == "plane_wave" and dirichlet:
        errors.append("kind: plane_wave is incompatible with Dirichlet boundaries")
    for key, entry in (("center", "coordinate"), ("modes", "integer")):
        values = fields.get(key)
        if dim is not None and values is not None and len(values) != dim:
            errors.append(f"{key}: expected one {entry} per axis ({dim}), got {len(values)}")
    return errors


def check_nonzero(data: np.ndarray, samples: np.ndarray, what: str, scale_name: str) -> None:
    """Raise ValueError "<what> (norm ...)" if `data` is zero to roundoff against `samples`.

    Both norms are taken of the arrays' real and imaginary parts scaled by
    2^-e, with 2^e the power of two just above the largest of them, so no
    square overflows; the scaling is exact, so the test is that of the
    unscaled norms."""
    parts = [_parts(a) for a in (data, samples)]
    _, e = math.frexp(max(max(float(np.maximum.reduce(p, axis=None, initial=0.0)),
                              -float(np.minimum.reduce(p, axis=None, initial=0.0)))
                          for p in parts))
    norm, scale = (_norm(p, e) for p in parts)
    if norm <= _ZERO_NORM_RATIO * scale:
        with np.errstate(over="ignore"):  # a scale above the float range prints as inf
            norm, scale = (float(np.ldexp(v, e)) for v in (norm, scale))
        raise ValueError(f"{what} (norm {norm:.3g} against {scale_name} of {scale:.3g})")


def _parts(a: np.ndarray) -> np.ndarray:
    """The real and imaginary parts of `a` as one float array, a view of a
    C-contiguous complex array: unlike |a|, no part overflows."""
    return np.ascontiguousarray(a, dtype=complex).view(float)


def _norm(parts: np.ndarray, e: int) -> float:
    """sqrt(sum_j (p_j 2^-e)^2) over an array's `parts`, by numpy's pairwise
    sum: np.linalg.norm 2^-e to roundoff, without its BLAS dot, which on a
    complex array runs on the strided real and imaginary views and, with the
    BLAS's default threads, costs several times the whole datum."""
    scaled = np.ldexp(parts, -e)
    scaled *= scaled
    return math.sqrt(float(np.add.reduce(scaled, axis=None)))


def _plane_wave(spec: DatumSpec, geom: GridGeometry) -> np.ndarray:
    grids = geom.coordinate_grids()
    phase = sum(
        2.0 * math.pi * m * x / l for m, x, l in zip(spec.modes, grids, geom.lengths)
    )
    return spec.amplitude * np.exp(1j * phase)


def _gaussian_bump(spec: DatumSpec, geom: GridGeometry) -> np.ndarray:
    # the periodized sum of images keeps the bump smooth across the wrap; it
    # factors over the axes, so each axis sums its own five images
    var = 2.0 * spec.width * spec.width  # as `_width` checks it
    total = 1.0
    for x, c, l in zip(geom.coordinate_grids(), spec.center, geom.lengths):
        total = total * sum(np.exp(-(x - c + k * l) ** 2 / var) for k in range(-2, 3))
    return spec.amplitude * total


def _random_band_limited(spec: DatumSpec, geom: GridGeometry) -> np.ndarray:
    rng = np.random.default_rng(spec.seed)
    shape = geom.points
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs[mode_radius(geom) > spec.cutoff] = 0.0
    return _unit_mass(np.fft.ifftn(coeffs), geom)


def _random_rough(spec: DatumSpec, geom: GridGeometry) -> np.ndarray:
    rng = np.random.default_rng(spec.seed)
    radius = mode_radius(geom)
    # decay exponent s + d/2 + 0.05 puts the datum just inside H^s
    decay = (1.0 + radius) ** -(spec.target_s + geom.dim / 2.0 + 0.05)
    phases = np.exp(2j * math.pi * rng.random(geom.points))
    return _unit_mass(np.fft.ifftn(decay * phases), geom)


def _unit_mass(data: np.ndarray, geom: GridGeometry) -> np.ndarray:
    return data / math.sqrt(squared_l2(geom, np.abs(data)))


def make_datum(spec: DatumSpec, geometry: GridGeometry, section: str = "datum") -> Field:
    """Concrete initial datum for a geometry.

    Plane waves are periodic-only (`grid_errors`); the other kinds support
    Dirichlet grids via odd antisymmetrization on the doubled box. A Gaussian's
    default center is the middle of `geometry`, not of the doubled box, whose
    middle is a node of every odd extension. Raises ValueError, naming the
    config `section` the spec came from, on a datum that is zero to roundoff,
    has a sample that is not finite, has a mass that underflows to 0 or
    overflows, or has a sum of |u|^2 over its samples outside _SQUARES_RANGE.
    """
    errors = grid_errors(spec.kind, vars(spec), geometry.is_dirichlet, geometry.dim)
    if errors:
        raise ValueError("; ".join(errors))
    if spec.kind == "gaussian_bump" and spec.center is None:
        spec = replace(spec, center=tuple(l / 2 for l in geometry.lengths))
    grid = geometry.transform_grid()
    # an overflow of a generator or of the antisymmetrization surfaces as the
    # non-finite datum it makes; an overflowing exponent, as in a Gaussian's far
    # tail, gives exp(-inf) = 0, a finite sample
    with np.errstate(over="ignore", invalid="ignore"):
        samples = data = _generate(spec, grid)
        if geometry.is_dirichlet:
            m = grid.points[-1]
            data = 0.5 * (samples - samples[..., (-np.arange(m)) % m])
    if not np.isfinite(data).all():
        raise ValueError(f"{section}: {spec.kind} overflows on this {geometry.kind.value} "
                         "grid (a sample is not finite)")
    check_nonzero(data, samples, f"{section}: {spec.kind} vanishes on this "
                  f"{geometry.kind.value} grid", "a sample scale")
    field = Field(grid, data)
    field = restrict_to_half(field) if geometry.is_dirichlet else field
    with np.errstate(over="ignore"):  # an overflow leaves the sum inf, rejected below
        modulus = np.abs(field.data)
        squares = float(np.add.reduce(modulus * modulus, axis=None))
    datum_mass = geometry.cell_volume * squares  # bitwise `squared_l2`
    if not 0.0 < datum_mass < math.inf:
        raise ValueError(f"{section}: {spec.kind} has mass {datum_mass:g} on this "
                         f"{geometry.kind.value} grid, not a positive finite float")
    lo, hi = _SQUARES_RANGE
    if not lo <= squares <= hi:
        raise ValueError(f"{section}: {spec.kind} has a sum of |u|^2 of {squares:.3g} over the "
                         f"samples of this {geometry.kind.value} grid, outside [{lo:.3g}, "
                         f"{hi:.3g}], where the verdicts' squared L^2 distances neither "
                         "underflow nor overflow")
    return field


def _generate(spec: DatumSpec, geom: GridGeometry) -> np.ndarray:
    if spec.kind == "plane_wave":
        return _plane_wave(spec, geom)
    if spec.kind == "gaussian_bump":
        return _gaussian_bump(spec, geom)
    if spec.kind == "random_band_limited":
        return _random_band_limited(spec, geom)
    return _random_rough(spec, geom)
