"""Pointwise kernels for the logarithmic nonlinearity.

Everything here acts on complex scalars or numpy arrays of any shape and is
pure: no state, no side effects. The singular point z = 0 always uses the
continuous extension 0 * ln 0 = 0.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["phase_flow", "monotonicity_gap", "monotonicity_bound"]


# |ln x| <= _LOG_RANGE for every positive finite double x: ln of the smallest
# subnormal, about 744.44
_LOG_RANGE = float(-np.log(np.finfo(float).smallest_subnormal))
# below this many points per run, the two extra passes of the sin/sqrt phase
# cost more than the cos they save
_SIN_SQRT_MIN_POINTS = 1024


def check_eps(eps) -> None:
    """Raise ValueError unless eps, a number or a list, is finite and >= 0. The
    gap and bound kernels pass each eps array's min and max, which carry any nan."""
    if not all(0.0 <= e < math.inf for e in (eps if isinstance(eps, list) else [eps])):
        raise ValueError(f"eps must be >= 0 and finite, got {eps}")


def rotation_phase(modulus, coeff, eps, phase, run_points, mask_zeros=True):
    """phase <- exp(i coeff ln(|u| + eps)), the factor by which the phase flow
    with coeff = 2 lam dt multiplies u, from `modulus` = |u| (real,
    overwritten with the angle).

    `phase` is a complex array of the modulus's shape and eps is a scalar or
    broadcasts against it. No check, no allocation beyond the log's mask:
    where |u| + eps = 0 the angle is 0 (the factor 1): the continuous
    extension 0 * ln 0 = 0 of the module docstring.
    With every eps > 0 no |u| + eps vanishes, so mask_zeros=False skips the
    mask and gives the same result.

    When |coeff| * _LOG_RANGE <= pi/2, every angle of a finite |u| lies in
    [-pi/2, pi/2], where cos = sqrt(1 - sin^2): the phase then costs one sin
    and a square root, within 2 ulp of cos and sin. This holds for all of u
    or for none of it, and it is taken only on runs of at least
    _SIN_SQRT_MIN_POINTS points, `run_points` being the points of one run
    (not of a batch), so a run's result does not depend on its batch-mates.
    """
    modulus += eps
    np.log(modulus, out=modulus, where=modulus > 0.0 if mask_zeros else True)  # masked 0 stays
    modulus *= coeff
    np.sin(modulus, out=phase.imag)
    if run_points >= _SIN_SQRT_MIN_POINTS and abs(coeff) * _LOG_RANGE <= math.pi / 2:
        np.multiply(phase.imag, phase.imag, out=modulus)
        np.subtract(1.0, modulus, out=modulus)
        np.sqrt(modulus, out=phase.real)
    else:
        np.cos(modulus, out=phase.real)


def phase_flow(z, lam, eps, dt):
    """Exact flow of the pointwise ODE i u' + 2 lam u ln(|u| + eps) = 0.

    The coefficient is real, so the modulus is conserved:
    z -> z * exp(2i lam dt ln(|z| + eps)). This is the step's rotation, the
    kernel `rotation_phase`, with all of z as one run.
    """
    check_eps(eps)
    u = np.array(z, dtype=complex)
    phase = np.empty_like(u)
    rotation_phase(np.abs(u, out=np.empty(u.shape)), 2.0 * lam * dt, eps, phase, u.size, eps == 0)
    u *= phase
    return u


def monotonicity_gap(z1, z2, eps1=0.0, eps2=0.0):
    """Im[conj(z1 - z2) * (z1 ln(|z1|+eps1) - z2 ln(|z2|+eps2))].

    The magnitude is bounded by |z1-z2|^2 + |eps1-eps2| |z1-z2|; with
    eps1 = eps2 = 0 by |z1-z2|^2 alone.

    Evaluated through the identity with L_i = ln(|z_i| + eps_i)
        gap = (L1 - L2) * Im[conj(z1 - z2) * z2],
    which avoids the catastrophic cancellation of the literal expression for
    near-equal pairs. It is computed on real arrays, with no masked copies:
    - L1 - L2 is the difference of the two dense logs, except where
      x = (|z1| - |z2| + eps1 - eps2) / (|z2| + eps2) has |x| < 0.5: there
      it is log1p(x), evaluated on that subset only;
    - Im[conj(z1 - z2) * z2] is (x1 - x2) y2 - (y1 - y2) x2 from the real
      and imaginary parts, with no complex temporary;
    - where that factor is exactly 0, the gap is 0. This covers the origin
      (z_i = 0 with eps_i = 0), whose log is -inf: 0 * ln 0 = 0.
    Scalar inputs give a scalar. Every eps must pass `check_eps`.
    """
    e1, e2 = np.asarray(eps1, dtype=float), np.asarray(eps2, dtype=float)
    check_eps([float(x) for e in (e1, e2) if e.size for x in (e.min(), e.max())])
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    shape = np.broadcast_shapes(z1.shape, z2.shape, e1.shape, e2.shape)
    # 1-d so that the in-place and masked steps below also take scalars
    z1, z2, e1, e2 = np.atleast_1d(z1, z2, e1, e2)
    r1, r2 = np.abs(z1), np.abs(z2)
    # ln 0, 0/0 and a huge ratio leave inf or nan only where the factor is 0
    # or the far branch is taken
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a2 = r2 + e2
        ldiff = np.log(r1 + e1) - np.log(a2)
        x = (r1 - r2) + (e1 - e2)
        x /= a2
        near = np.abs(x) < 0.5
        ldiff[near] = np.log1p(x[near])
        im = z1.real - z2.real
        im *= z2.imag
        t = z1.imag - z2.imag
        t *= z2.real
        im -= t
        ldiff *= im
    np.copyto(ldiff, 0.0, where=im == 0.0)
    return ldiff.reshape(shape)[()]


def monotonicity_bound(z1, z2, eps1=0.0, eps2=0.0):
    """Right-hand side |z1-z2|^2 + |eps1-eps2| |z1-z2| of the gap inequality."""
    e1, e2 = np.asarray(eps1, dtype=float), np.asarray(eps2, dtype=float)
    check_eps([float(x) for e in (e1, e2) if e.size for x in (e.min(), e.max())])
    d = np.abs(np.asarray(z1, dtype=complex) - np.asarray(z2, dtype=complex))
    return d * d + np.abs(e1 - e2) * d
