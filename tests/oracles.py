"""Independent numeric oracles shared by the test modules.

Most integrate the defining radial form of the mixed Levy measure directly
in r-space, staying independent of the incomplete-gamma closed forms they
are used to check; ``hyp1f1_moments`` gives the moments of a beta model from
its characteristic function, independent of any quadrature.
"""

import warnings

import mpmath
import numpy as np
from scipy import integrate

INSIDE = "inside_unit_ball"
OUTSIDE = "outside_unit_ball"


def _quad(fn, lo, hi):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(fn, lo, hi, epsabs=1e-12, epsrel=1e-13,
                                limit=500)
    return val


def tail_mass_quadrature(points, weights, alpha, eps):
    """M_alpha({|x| > eps}) by adaptive quadrature of the defining integral."""
    total = 0.0
    for y, w in zip(points, weights):
        radius = float(np.linalg.norm(y))
        if radius == 0.0:
            continue
        lo = min(1.0, eps / radius)
        if lo >= 1.0:
            continue
        total += w * _quad(
            lambda r: (-np.log(r)) ** (alpha - 1.0) / r, lo, 1.0)
    return total


def radial_moment_quadrature(points, weights, alpha, p, region):
    """Region-restricted integral of |x|^p against M_alpha, per atom."""
    total = 0.0
    for y, w in zip(points, weights):
        radius = float(np.linalg.norm(y))
        if radius == 0.0:
            continue
        if region == INSIDE:
            lo, hi = 0.0, min(1.0, 1.0 / radius)
        else:
            lo, hi = min(1.0, 1.0 / radius), 1.0
        if hi <= lo:
            continue
        total += w * _quad(
            lambda r: (radius * r) ** p * (-np.log(r)) ** (alpha - 1.0) / r,
            lo, hi)
    return total


def hyp1f1_moments(a, b, mass):
    """Mean and covariance of MD(mass * Beta(a, b) angle) from the
    characteristic function E exp(i m phi) = 1F1(a; a + b; 2 pi i m), m = 1, 2,
    evaluated by mpmath at 40 digits; independent of any quadrature."""
    with mpmath.workdps(40):
        p1, p2 = (mass * mpmath.hyp1f1(a, a + b, 2j * m * mpmath.pi) for m in (1, 2))
        c, s = float(p1.real), float(p1.imag)
        c2, s2 = float((mass + p2.real) / 2), float((mass - p2.real) / 2)
        cs = float(p2.imag / 2)
    return np.array([c, s]), 0.5 * np.array([[c2, cs], [cs, s2]])
