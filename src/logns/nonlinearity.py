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
# below this many points per run the rotation keeps cos and sin: the half-angle
# phase breaks even near 512 points, and a run below 1024 keeps its bits
_HALF_ANGLE_MIN_POINTS = 1024


def check_eps(eps, other=None) -> None:
    """Raise ValueError unless eps, a number, a list or an array, is finite and
    >= 0. An array is judged by its min and max, which carry any nan. With
    `other`, an array, each of the two is judged alone, so nothing is joined
    unless one fails; the message then names them joined, np.append(eps, other)."""
    for e in (eps,) if other is None else (eps, other):
        if isinstance(e, np.ndarray):
            # at most one value is read as a float: a 0-d array's reductions
            # and comparisons cost microseconds each
            values = e.ravel().tolist() if e.size < 2 else [e.min(), e.max()]
        else:
            values = e if isinstance(e, list) else [e]
        if not all(0.0 <= v < math.inf for v in values):
            got = eps if other is None else np.append(eps, other)
            raise ValueError(f"eps must be >= 0 and finite, got {got}")


def rotation_phase(modulus, coeff, eps, phase, run_points, mask_zeros=True):
    """phase <- exp(i coeff ln(|u| + eps)), the factor by which the phase flow
    with coeff = 2 lam dt multiplies u, from `modulus` = |u| (real,
    overwritten).

    `phase` is a complex array of the modulus's shape and eps is a scalar or
    broadcasts against it. No check, no allocation beyond the log's mask:
    where |u| + eps = 0 the angle is 0 (the factor 1): the continuous
    extension 0 * ln 0 = 0 of the module docstring.
    With every eps > 0 no |u| + eps vanishes, so mask_zeros=False skips the
    mask and gives the same result.

    When |coeff| * _LOG_RANGE <= pi/2, every angle theta of a finite |u| lies
    in [-pi/2, pi/2], so t = tan(theta/2) lies in [-1, 1] and q = 2/(1 + t^2)
    in [1, 2]: the phase is then cos = q - 1 (exact) and sin = t q, one SIMD
    tan and five arithmetic passes, within 4 * 2^-52 of cos and sin. This
    holds for all of u or for none of it, and it is taken only on runs of at
    least _HALF_ANGLE_MIN_POINTS points, `run_points` being the points of one
    run (not of a batch), so a run's result does not depend on its
    batch-mates. Otherwise the phase is cos and sin of the angle.
    """
    modulus += eps
    np.log(modulus, out=modulus, where=modulus > 0.0 if mask_zeros else True)  # masked 0 stays
    if run_points >= _HALF_ANGLE_MIN_POINTS and abs(coeff) * _LOG_RANGE <= math.pi / 2:
        modulus *= coeff / 2.0
        t = phase.imag
        np.tan(modulus, out=t)
        np.multiply(t, t, out=modulus)
        modulus += 1.0
        np.divide(2.0, modulus, out=modulus)
        np.subtract(modulus, 1.0, out=phase.real)
        t *= modulus
    else:
        modulus *= coeff
        np.sin(modulus, out=phase.imag)
        np.cos(modulus, out=phase.real)


def phase_flow(z, lam, eps, dt):
    """Exact flow of the pointwise ODE i u' + 2 lam u ln(|u| + eps) = 0.

    The coefficient is real, so the modulus is conserved:
    z -> z * exp(2i lam dt ln(|z| + eps)). This is the step's rotation, the
    kernel `rotation_phase`, z being one run. eps is a number or an array-like
    broadcasting to z's shape; where |z| + eps = 0 the factor is 1.
    """
    eps = np.asarray(eps, dtype=float)
    check_eps(eps)
    u = np.array(z, dtype=complex)
    phase = np.empty_like(u)
    rotation_phase(np.abs(u, out=np.empty(u.shape)), 2.0 * lam * dt, eps, phase, u.size)
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
    A real z1 is taken as it is, with y1 = 0 and |z1| a real abs: bitwise the
    result for z1 + 0j, without the complex copy. When both eps are scalar
    zeros their additions are skipped: adding 0 to a modulus (never -0) or to
    |z1| - |z2| leaves its bits. Scalar inputs give a scalar. Every eps must
    pass `check_eps`.
    """
    e1, e2 = np.asarray(eps1, dtype=float), np.asarray(eps2, dtype=float)
    check_eps(e1, e2)
    no_eps = e1.ndim == e2.ndim == 0 and float(e1) == float(e2) == 0.0
    z1 = _real_or_complex(z1)
    z2 = np.asarray(z2, dtype=complex)
    shape = np.broadcast_shapes(z1.shape, z2.shape, e1.shape, e2.shape)
    # 1-d so that the in-place and masked steps below also take scalars
    z1, z2, e1, e2 = np.atleast_1d(z1, z2, e1, e2)
    r1, r2 = np.abs(z1), np.abs(z2)
    # ln 0, 0/0 and a huge ratio leave inf or nan only where the factor is 0
    # or the far branch is taken
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if no_eps:
            a1, a2, x = r1, r2, r1 - r2
        else:
            a1, a2, x = r1 + e1, r2 + e2, (r1 - r2) + (e1 - e2)
        x /= a2
        # r1, r2 and their sums are this call's own arrays, free once x is formed
        ldiff = np.log(a1, out=a1) - np.log(a2, out=a2)
        near = np.abs(x) < 0.5
        ldiff[near] = np.log1p(x[near])
        x1, y1 = (z1.real, z1.imag) if np.iscomplexobj(z1) else (z1, 0.0)
        im = x1 - z2.real
        im *= z2.imag
        t = y1 - z2.imag
        t *= z2.real
        im -= t
        ldiff *= im
    np.copyto(ldiff, 0.0, where=im == 0.0)
    return ldiff.reshape(shape)[()]


def monotonicity_bound(z1, z2, eps1=0.0, eps2=0.0):
    """Right-hand side |z1-z2|^2 + |eps1-eps2| |z1-z2| of the gap inequality.

    A real z1 is subtracted as it is (numpy casts it in the loop: bitwise
    z1 + 0j), and the sum is formed in the eps term's array. At
    |z1 - z2| = inf that term is 0 * inf, so the bound is nan.
    """
    e1, e2 = np.asarray(eps1, dtype=float), np.asarray(eps2, dtype=float)
    check_eps(e1, e2)
    d = np.abs(_real_or_complex(z1) - np.asarray(z2, dtype=complex))
    bound = np.abs(e1 - e2) * d
    d *= d
    bound += d
    return bound


def _real_or_complex(z) -> np.ndarray:
    """z as a float array, or as a complex one if it holds complex numbers."""
    z = np.asarray(z)
    return z.astype(complex if np.iscomplexobj(z) else float, copy=False)
