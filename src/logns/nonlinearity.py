"""Pointwise kernels for the logarithmic nonlinearity.

Everything here acts on complex scalars or numpy arrays of any shape and is
pure: no state, no side effects. The singular point z = 0 always uses the
continuous extension 0 * ln 0 = 0.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "g",
    "phase_flow",
    "monotonicity_gap",
    "monotonicity_bound",
    "pointwise_growth_ratio",
    "radial_cutoff",
    "g_small",
    "g_large",
    "difference_ratios",
]


def _safe_log(r):
    """log(r) with log(0) replaced by 0 (callers multiply by a vanishing factor)."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    np.log(r, out=out, where=r > 0.0)
    return out


def g(z):
    """z * ln(|z|^2), extended by 0 at the origin."""
    z = np.asarray(z, dtype=complex)
    return z * (2.0 * _safe_log(np.abs(z)))


# |ln x| <= _LOG_RANGE for every positive finite double x: ln of the smallest
# subnormal, about 744.44
_LOG_RANGE = float(-np.log(np.finfo(float).smallest_subnormal))
# below this many points per run, the two extra passes of the sin/sqrt phase
# cost more than the cos they save
_SIN_SQRT_MIN_POINTS = 1024


def rotation_phase(modulus, coeff, eps, phase, run_points, mask_zeros=True):
    """phase <- exp(i coeff ln(|u| + eps)), the phase factor of `rotate`, from
    `modulus` = |u| (real, overwritten with the angle).

    `phase` is a complex array of the modulus's shape and eps is a scalar or
    broadcasts against it. No check, no allocation beyond the log's mask:
    where |u| + eps = 0 the angle is 0 (the factor 1), as with _safe_log.
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


def rotate(u, coeff, eps, modulus, phase, run_points, mask_zeros=True):
    """In place u *= exp(i coeff ln(|u| + eps)), the phase flow with coeff = 2 lam dt.

    `modulus` (real) and `phase` (complex) are scratch arrays of u's shape;
    the other arguments are as for `rotation_phase`.
    """
    np.abs(u, out=modulus)
    rotation_phase(modulus, coeff, eps, phase, run_points, mask_zeros)
    u *= phase


def phase_flow(z, lam, eps, dt):
    """Exact flow of the pointwise ODE i u' + 2 lam u ln(|u| + eps) = 0.

    The coefficient is real, so the modulus is conserved:
    z -> z * exp(2i lam dt ln(|z| + eps)). This is `rotate` with all of z
    as one run.
    """
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    u = np.array(z, dtype=complex)
    rotate(u, 2.0 * lam * dt, eps, np.empty(u.shape), np.empty_like(u), u.size, eps == 0)
    return u


def monotonicity_gap(z1, z2, eps1=0.0, eps2=0.0):
    """Im[conj(z1 - z2) * (z1 ln(|z1|+eps1) - z2 ln(|z2|+eps2))].

    The magnitude is bounded by |z1-z2|^2 + |eps1-eps2| |z1-z2|; with
    eps1 = eps2 = 0 by |z1-z2|^2 alone.

    Evaluated through the identity with L_i = ln(|z_i| + eps_i)
        gap = (L1 - L2) * Im[conj(z1 - z2) * z2],
    which avoids the catastrophic cancellation of the literal expression for
    near-equal pairs; L1 - L2 itself goes through log1p of the radius gap.
    """
    if np.any(np.asarray(eps1) < 0) or np.any(np.asarray(eps2) < 0):
        raise ValueError("eps values must be >= 0")
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    e1 = np.asarray(eps1, dtype=float)
    e2 = np.asarray(eps2, dtype=float)
    r1 = np.abs(z1)
    r2 = np.abs(z2)
    a1 = r1 + e1
    a2 = r2 + e2
    # both log arguments positive; otherwise one point is 0 and the gap vanishes
    valid = (a1 > 0.0) & (a2 > 0.0)
    with np.errstate(over="ignore"):  # extreme magnitude ratios take the far branch
        x = ((r1 - r2) + (e1 - e2)) / np.where(valid, a2, 1.0)
    near = valid & (np.abs(x) < 0.5)
    ldiff = np.zeros(np.shape(x))
    np.log1p(x, out=ldiff, where=near)
    # far-apart arguments: the plain log difference has no cancellation issue
    far = valid & ~near
    np.subtract(
        np.log(np.where(far, a1, 1.0)), np.log(np.where(far, a2, 1.0)),
        out=ldiff, where=far,
    )
    return ldiff * np.imag(np.conj(z1 - z2) * z2)


def monotonicity_bound(z1, z2, eps1=0.0, eps2=0.0):
    """Right-hand side |z1-z2|^2 + |eps1-eps2| |z1-z2| of the gap inequality."""
    d = np.abs(np.asarray(z1, dtype=complex) - np.asarray(z2, dtype=complex))
    return d * d + np.abs(np.asarray(eps1) - np.asarray(eps2)) * d


def pointwise_growth_ratio(z, delta):
    """|g(z)| / (|z|^(1-delta) + |z|^(1+delta)), 0 at the origin.

    The ratio is bounded by 2/(e*delta); the observed supremum is pinned as a
    regression constant in `constants`.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    r = np.abs(np.asarray(z, dtype=complex))
    num = 2.0 * r * np.abs(_safe_log(r))
    den = r ** (1.0 - delta) + r ** (1.0 + delta)
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=r > 0.0)
    return out


def radial_cutoff(z):
    """Piecewise-linear radial ramp: 1 for |z| <= 1, 0 for |z| >= 2."""
    return np.clip(2.0 - np.abs(np.asarray(z, dtype=complex)), 0.0, 1.0)


def g_small(z):
    """Small-modulus part of g: supported on |z| < 2, Hoelder continuous."""
    return radial_cutoff(z) * g(z)


def g_large(z):
    """Large-modulus part of g: supported on |z| > 1, log-Lipschitz."""
    return (1.0 - radial_cutoff(z)) * g(z)


def difference_ratios(z, w, alpha):
    """Hoelder and log-Lipschitz difference quotients of the g split.

    Returns the pair
        |g_small(z) - g_small(w)| / |z - w|^alpha,
        |g_large(z) - g_large(w)| / ((ln+|z| + ln+|w| + 1) |z - w|),
    with both ratios 0 where z == w. Their suprema over random samples are
    pinned in `constants`.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    d = np.abs(z - w)
    nonzero = d > 0.0

    r1 = np.zeros_like(d)
    np.divide(np.abs(g_small(z) - g_small(w)), d**alpha, out=r1, where=nonzero)

    logplus = np.maximum(_safe_log(np.abs(z)), 0.0) + np.maximum(_safe_log(np.abs(w)), 0.0)
    r2 = np.zeros_like(d)
    np.divide(np.abs(g_large(z) - g_large(w)), (logplus + 1.0) * d, out=r2, where=nonzero)
    return r1, r2
