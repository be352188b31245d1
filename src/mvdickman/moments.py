"""Analytic and quadrature-based moment computations.

Covers means/covariances of L*_alpha(nu, gamma) laws and of multivariate
Dickman distributions, the bivariate angular integrals, and numeric oracles
for the radially-mixed Levy measure M_alpha generated by a BDLM nu:

    M_alpha(B) = int int_0^1 1_B(y r) (-log r)^(alpha-1) r^(-1) dr nu(dy).

For sphere-supported nu the tail mass and radial moments of M_alpha reduce to
closed forms in theta alone; for general finite-support nu they are exact
finite sums over incomplete-gamma inner integrals.

The moment formulas are the first two derivatives of the cumulant generating
function i<gamma, z> + int int_0^1 (e^{i r <z, y>} - 1)(-log r)^(alpha-1)
r^(-1) dr nu(dy); the cgf itself is not exposed as an operation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import gamma as gamma_fn
from scipy.special import gammainc, gammaincc

from .errors import QuadratureError, UnsupportedMeasureError, ValidationError
from .measures import (_MASS_CHECK_TOL, ANGULAR, FINITE, TWO_PI, BDLM,
                       LStarParams, SpectralMeasure, _lock)

_SYM_TOL = 1e-12
_QUAD_TOL = 1e-10

INSIDE = "inside_unit_ball"
OUTSIDE = "outside_unit_ball"


@dataclass(frozen=True)
class MomentSummary:
    """Mean vector and covariance matrix, with d=2 scalar aliases."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.cov, dtype=float)
        d = len(mean)
        if cov.shape != (d, d):
            raise ValidationError(f"cov must be {d}x{d}, got {cov.shape}")
        if not np.all(np.abs(cov - cov.T) <= _SYM_TOL):
            raise ValidationError("covariance matrix must be symmetric to 1e-12")
        if np.any(np.diag(cov) < -_SYM_TOL):
            raise ValidationError("covariance diagonal must be >= -1e-12")
        object.__setattr__(self, "mean", _lock(mean))
        object.__setattr__(self, "cov", _lock(cov))

    @property
    def dim(self) -> int:
        return len(self.mean)

    def _d2(self):
        if self.dim != 2:
            raise ValidationError("scalar aliases are defined for d=2 only")

    @property
    def m1(self) -> float:
        self._d2()
        return float(self.mean[0])

    @property
    def m2(self) -> float:
        self._d2()
        return float(self.mean[1])

    @property
    def var1(self) -> float:
        self._d2()
        return float(self.cov[0, 0])

    @property
    def var2(self) -> float:
        self._d2()
        return float(self.cov[1, 1])

    @property
    def cov12(self) -> float:
        self._d2()
        return float(self.cov[0, 1])

    def swapped(self) -> "MomentSummary":
        """Summary with the two components exchanged (d=2 only)."""
        self._d2()
        p = [1, 0]
        return MomentSummary(self.mean[p], self.cov[np.ix_(p, p)])


# --------------------------------------------------------------------------
# quadrature against an angular density
# --------------------------------------------------------------------------

def integrate_angular(g, density, tol: float = _QUAD_TOL) -> float:
    """Integrate g(phi) * density(phi) over [0, 2*pi) to absolute tolerance.

    Adaptive Gauss-Kronrod on the panels [0, pi] and [pi, 2*pi]. It copes
    with a bounded density or a mild endpoint singularity but has no rule
    for a strong one: on the beta(0.05, 0.05) density its error estimate
    misses the tolerance. ``md_moments`` therefore takes beta shapes with
    min(a, b) < 1 by QUADPACK's algebraic-weight rule instead (see
    ``_beta_functionals``). Raises QuadratureError with the achieved error
    estimate if the tolerance is not met.
    """
    total = 0.0
    err = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for lo, hi in ((0.0, math.pi), (math.pi, TWO_PI)):
            v, e = integrate.quad(lambda x: g(x) * density(x), lo, hi,
                                  epsabs=tol / 4, epsrel=1e-12, limit=400)
            total += v
            err += e
    if not err <= tol:  # a NaN estimate fails too
        raise QuadratureError(
            f"angular quadrature reached abs error {err:.3e} > {tol:.1e}",
            achieved=err)
    return total


#: the integrands (cos, sin, cos^2, sin^2, cos*sin) of the angular moments
_ANGULAR_FNS = (np.cos, np.sin,
                lambda x: np.cos(x) ** 2,
                lambda x: np.sin(x) ** 2,
                lambda x: np.cos(x) * np.sin(x))


def _beta_functionals(a: float, b: float, mass: float, tol: float = _QUAD_TOL):
    """The five angular integrals of mass * Beta(a, b) on phi = 2*pi*x.

    In x the measure is mass / Z * w(x) dx with w(x) = x^(a-1) (1-x)^(b-1).
    QUADPACK's QAWS rule integrates against w exactly, so only the smooth
    g(2*pi*x) is sampled and the density is never evaluated. Z = B(a, b) is
    integrated by the same rule rather than taken from ``scipy.special.beta``,
    which is off by 2.4e-14 relative at (0.05, 200) and 7.7e-13 at
    (0.5, 1000). Each scaled error estimate must be <= tol, or
    QuadratureError is raised.
    """
    def integral(g, epsabs, epsrel):
        return integrate.quad(g, 0.0, 1.0, weight="alg", wvar=(a - 1.0, b - 1.0),
                              epsabs=epsabs, epsrel=epsrel, limit=400)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        z, e = integral(np.ones_like, 0.0, 1e-13)
        scale = mass / z
        values, errs = [], [scale * e]
        for g in _ANGULAR_FNS:
            v, e = integral(lambda x: g(TWO_PI * x), tol / (4.0 * scale), 1e-12)
            values.append(scale * v)
            errs.append(scale * e)
    err = float(np.max(errs))  # NaN, if any, propagates and fails the check
    if not err <= tol:
        raise QuadratureError(
            f"beta({a:g}, {b:g}) moment quadrature reached abs error "
            f"{err:.3e} > {tol:.1e}", achieved=err)
    return tuple(values)


def _atom_sums(points, weights):
    """(sum_i w_i y_i, sum_i w_i y_i y_i^T) over the atoms y_i."""
    return points.T @ weights, (points * weights[:, None]).T @ points


def _integrals(sigma: SpectralMeasure):
    """(integral of s dsigma, integral of s s^T dsigma), the one place a
    spectral measure's representation decides how its moments are computed.

    Exact sums for finite support. For an angular measure, QAWS on beta shapes
    with min(a, b) < 1, where the density is singular at an end, and
    Gauss-Kronrod on the density otherwise; QAWS is no substitute on smooth
    shapes (at (50, 50) its error estimate is 3e-8, over the 1e-10 budget).
    The cos^2 and sin^2 integrals must add up to the mass within 1e-8, which
    catches a density that underflowed to 0. Attached ``moment_data`` for a
    sampler-backed measure.
    """
    if sigma.variant == FINITE:
        return _atom_sums(sigma.directions, sigma.masses)
    if sigma.variant == ANGULAR:
        if sigma.beta_params is not None and min(sigma.beta_params) < 1.0:
            c, s, c2, s2, cs = _beta_functionals(*sigma.beta_params, sigma.mass)
        else:
            c, s, c2, s2, cs = (integrate_angular(g, sigma.density) for g in _ANGULAR_FNS)
        gap = abs(c2 + s2 - sigma.mass)
        if not gap <= _MASS_CHECK_TOL:
            raise QuadratureError(
                f"angular moment integrals carry mass {c2 + s2!r}, not the "
                f"declared {sigma.mass!r}", achieved=gap)
        return np.array([c, s]), np.array([[c2, cs], [cs, s2]])
    if sigma.moment_data is not None:
        return sigma.moment_data
    raise UnsupportedMeasureError(
        "sampler-backed spectral measure without moment data; supply "
        "moment_data or use a finite/angular representation")


# --------------------------------------------------------------------------
# BDLM integrals and L* / MD moments
# --------------------------------------------------------------------------

def bdlm_integrals(bdlm: BDLM):
    """Return (integral of y dnu, integral of y y^T dnu) for a BDLM.

    Exact sums for finite support, caller-supplied ``moment_data``, or the
    spectral measure's own integrals for a sphere-supported nu.
    """
    if bdlm.points is not None:
        return _atom_sums(bdlm.points, bdlm.weights)
    if bdlm.moment_data is not None:
        return bdlm.moment_data
    if bdlm.spectral is not None:
        return _integrals(bdlm.spectral)
    raise UnsupportedMeasureError(
        "BDLM carries no finite support, spectral measure, or moment data; "
        "cannot evaluate its moments")


def lstar_moments(params: LStarParams) -> MomentSummary:
    """Mean and covariance of X ~ L*_alpha(nu, gamma):

        E[X]   = gamma + Gamma(alpha) * integral of y dnu
        cov(X) = Gamma(alpha) / 2^alpha * integral of y y^T dnu
    """
    first, second = bdlm_integrals(params.bdlm)
    g = gamma_fn(params.alpha)
    mean = params.gamma + g * first
    cov = (g / 2.0 ** params.alpha) * second
    return MomentSummary(mean, cov)


def md_moments(sigma: SpectralMeasure) -> MomentSummary:
    """Mean and covariance of X ~ MD(sigma), the L*_1(sigma, 0) case:

        E[X] = integral of s dsigma,  cov(X) = 1/2 integral of s s^T dsigma.

    Exact sums for finite support; for bivariate densities, quadrature to an
    absolute 1e-10 per integral: by the algebraic-weight rule on beta shapes
    with min(a, b) < 1, by Gauss-Kronrod on the density otherwise.
    Sampler-backed measures need attached moment data.
    """
    sigma.validate()
    first, second = _integrals(sigma)
    return MomentSummary(first, 0.5 * second)


# --------------------------------------------------------------------------
# M_alpha tail masses and radial moments (finite / sphere-supported BDLMs)
# --------------------------------------------------------------------------

def _atom_radii_weights(bdlm: BDLM):
    if bdlm.points is not None:
        radii = np.linalg.norm(bdlm.points, axis=1)
        # collapse float fuzz so sphere-supported measures use radius 1 exactly
        radii = np.where(np.abs(radii - 1.0) <= 1e-12, 1.0, radii)
        return radii, np.asarray(bdlm.weights)
    if bdlm.spectral is not None:
        # sphere support: a single radius 1 carrying the whole mass
        return np.array([1.0]), np.array([bdlm.theta])
    raise UnsupportedMeasureError(
        "M_alpha functionals need a finite-support or sphere-supported BDLM")


def malpha_tail_mass(params: LStarParams, eps: float) -> float:
    """M_alpha({|x| > eps}) for eps in (0, 1).

    Per atom at radius |y| this is w * max(0, log(|y|/eps))^alpha / alpha;
    for sphere-supported nu it collapses to theta * (-log eps)^alpha / alpha.
    """
    if not 0.0 < eps < 1.0:
        raise ValidationError("eps must lie in (0, 1)")
    radii, w = _atom_radii_weights(params.bdlm)
    a = params.alpha
    with np.errstate(divide="ignore"):
        t = np.log(radii / eps)
    t = np.maximum(t, 0.0)
    return float(np.sum(w * t ** a) / a)


def malpha_radial_moment(params: LStarParams, p: float, region: str) -> float:
    """integral over the region of |x|^p M_alpha(dx), region inside or outside
    the unit ball. Returns math.inf if the underlying nu-moment diverges.

    Uses the incomplete-gamma inner integrals
        inside:  w |y|^p p^-alpha GammaUpper(alpha, p*max(0, log|y|))
        outside: w |y|^p p^-alpha GammaLower(alpha, p*log|y|)   for |y| > 1.
    """
    if p <= 0 or not math.isfinite(p):
        raise ValidationError("p must be finite and > 0")
    if region not in (INSIDE, OUTSIDE):
        raise ValidationError(f"region must be {INSIDE!r} or {OUTSIDE!r}")
    a = params.alpha
    radii, w = _atom_radii_weights(params.bdlm)
    scale = gamma_fn(a) / p ** a
    log_r = np.log(np.maximum(radii, np.finfo(float).tiny))
    if region == INSIDE:
        val = np.sum(w * radii ** p * scale * gammaincc(a, p * np.maximum(log_r, 0.0)))
    else:
        outside = radii > 1.0
        val = np.sum(w[outside] * radii[outside] ** p * scale
                     * gammainc(a, p * log_r[outside]))
    val = float(val)
    return math.inf if not math.isfinite(val) else val


__all__ = [
    "MomentSummary", "INSIDE", "OUTSIDE",
    "integrate_angular", "bdlm_integrals",
    "lstar_moments", "md_moments",
    "malpha_tail_mass", "malpha_radial_moment",
]
