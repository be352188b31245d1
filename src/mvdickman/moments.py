"""Analytic and quadrature-based moment computations.

Covers means/covariances of L*_alpha(nu, gamma) laws and of multivariate
Dickman distributions, the bivariate angular integrals, and numeric oracles
for the radially-mixed Levy measure M_alpha generated by a BDLM nu:

    M_alpha(B) = int int_0^1 1_B(y r) (-log r)^(alpha-1) r^(-1) dr nu(dy).

For sphere-supported nu the tail mass and radial moments of M_alpha reduce to
closed forms in theta alone; for general finite-support nu they are exact
finite sums over incomplete-gamma inner integrals.

The angular integrals of a beta model come from Gauss rules that NumPy builds
(Golub & Welsch): the Gauss-Jacobi rule of the shape when it is singular at an
end, adaptive Gauss-Legendre on the density otherwise. Only a density with no
known form goes to QUADPACK, through ``integrate_angular``.

The moment formulas are the first two derivatives of the cumulant generating
function i<gamma, z> + int int_0^1 (e^{i r <z, y>} - 1)(-log r)^(alpha-1)
r^(-1) dr nu(dy); the cgf itself is not exposed as an operation.
"""

from __future__ import annotations

import functools
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError, UnsupportedMeasureError, ValidationError
from .measures import (_MASS_CHECK_TOL, FINITE, TWO_PI, BDLM, LStarParams,
                       SpectralMeasure, _check_real, _lock)

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

@contextmanager
def _quadpack():
    """Yield ``scipy.integrate.quad`` with its IntegrationWarning silenced.

    Every QUADPACK call of the package imports ``scipy.integrate`` here, on
    first use, so that importing the package, running a finite model or
    taking a beta model's moments never loads it. Callers check QUADPACK's
    error estimates themselves. One block should cover all of a function's
    ``quad`` calls, since each warnings filter costs a few microseconds.
    """
    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        yield integrate.quad


def integrate_angular(g, density, tol: float = _QUAD_TOL) -> float:
    """Integrate g(phi) * density(phi) over [0, 2*pi) to absolute tolerance.

    Adaptive Gauss-Kronrod (QUADPACK's QAGS) on the panels [0, pi] and
    [pi, 2*pi], for densities with no known form. Its extrapolation copes
    with a bounded density or a mild endpoint singularity, but on a strong
    one, such as the beta(0.05, 0.05) density, its error estimate misses the
    tolerance. Beta models do not come here: ``md_moments`` takes them by
    Gauss rules (``_gauss_legendre_integrals``, ``_gauss_jacobi_integrals``).
    Raises QuadratureError with the achieved error estimate if the tolerance
    is not met.
    """
    total = 0.0
    err = 0.0
    with _quadpack() as quad:
        for lo, hi in ((0.0, math.pi), (math.pi, TWO_PI)):
            v, e = quad(lambda x: g(x) * density(x), lo, hi,
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

#: orders of the two Gauss rules whose difference is the error estimate
_GAUSS_ORDERS = (12, 24)
#: Gauss-Legendre pieces are refined until their estimates sum to about this
#: share of the budget: an estimate is the lower order's error, which far
#: overstates the higher order's, but stopping at the budget itself left
#: (1.5, 3) and (3, 1.2) 1e-11 off where QUADPACK had been within 1e-14
_GOAL_SHARE = 1e-4
#: a piece whose estimate is below this share of its mass is as good as the
#: rounding of the density values lets it be: at (1000, 1000) they are up to
#: 2200 ulps off, from their log-space form, and no estimate meets the goal
_ROUNDING_FLOOR = 1e3 * np.finfo(float).eps
#: bisection rounds; by then a piece is narrower than the float spacing at pi
_MAX_ROUNDS = 60


def _gauss_beta(a: float, b: float, n: int):
    """Nodes on [0, 1] and weights (summing to 1) of the n-point Gauss rule
    for the Beta(a, b) law, by Golub & Welsch (Math. Comp. 23, 1969): the
    nodes are the eigenvalues of the Jacobi matrix of the three-term
    recurrence, the weights the squared first components of its eigenvectors.

    The first diagonal entry (the mean a/s) and the first off-diagonal one
    (the variance) are written out, since the generic terms are 0/0 at
    s = a + b = 2 and s = 1.
    """
    s = a + b
    k = np.arange(1.0, n)
    t = 2.0 * k + s - 2.0
    diag = np.empty(n)
    diag[0] = a / s
    diag[1:] = 0.5 + 0.5 * (a - b) * (s - 2.0) / (t * (t + 2.0))
    off2 = np.empty(n - 1)
    off2[0] = a * b / (s * s * (s + 1.0))
    k, t = k[1:], t[1:]
    off2[1:] = (k * (k + a - 1.0) * (k + b - 1.0) * (k + s - 2.0)
                / (t * t * (t + 1.0) * (t - 1.0)))
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(np.sqrt(off2), -1))
    return nodes, vectors[0] ** 2


@functools.cache
def _legendre_pair():
    """The Gauss-Legendre rules of ``_GAUSS_ORDERS`` on [0, 1], nodes side by
    side and each order's weights padded with zeros over the other's nodes;
    read-only, since every call shares them."""
    rules = [_gauss_beta(1.0, 1.0, n) for n in _GAUSS_ORDERS]
    nodes = np.concatenate([x for x, _ in rules])
    weights = np.zeros((len(nodes), 2))
    weights[:_GAUSS_ORDERS[0], 0] = rules[0][1]
    weights[_GAUSS_ORDERS[0]:, 1] = rules[1][1]
    return _lock(nodes), _lock(weights)


def _moment_integrands(phi):
    """cos, sin, cos^2, sin^2 and cos*sin of phi, stacked on a new first axis."""
    c, s = np.cos(phi), np.sin(phi)
    return np.stack((c, s, c * c, s * s, c * s))


def _gauss_legendre_integrals(density, tol: float = _QUAD_TOL) -> np.ndarray:
    """The five angular integrals of a bounded density on [0, 2*pi).

    Adaptive bisection of [0, pi] and [pi, 2*pi] with the Gauss-Legendre
    pair of ``_legendre_pair`` on each piece. Each round evaluates
    ``density`` once, on the nodes of all the pieces still open, and the
    five integrands share those values and one cos and sin. A piece's error
    estimate is the largest difference between its two orders. A piece is
    closed once its estimate is at most goal / (number of pieces), with goal
    = ``_GOAL_SHARE`` * tol, or at most ``_ROUNDING_FLOOR`` times its mass;
    the others are halved. The summed estimate of the closed pieces must be
    <= tol, or QuadratureError is raised.
    """
    nodes, weights = _legendre_pair()
    goal = _GOAL_SHARE * tol
    lo = np.array([0.0, math.pi])
    width = np.array([math.pi, math.pi])
    total = np.zeros(5)
    err, n_closed = 0.0, 0
    for _ in range(_MAX_ROUNDS):
        phi = lo[:, None] + width[:, None] * nodes
        f = density(phi)
        pair = (_moment_integrands(phi) * f) @ weights * width[:, None]
        est = np.abs(pair[..., 1] - pair[..., 0]).max(axis=0)
        # the floor scales the piece's mass, its cos^2 plus sin^2 integral;
        # a NaN estimate closes its piece, so that err is NaN
        floor = _ROUNDING_FLOOR * (pair[2, :, 1] + pair[3, :, 1])
        close = ~((est > goal / (n_closed + len(est))) & (est > floor))
        total += pair[:, close, 1].sum(axis=1)
        err += est[close].sum()
        n_closed += int(close.sum())
        if close.all():
            break
        lo, width = lo[~close], 0.5 * width[~close]
        lo, width = np.concatenate((lo, lo + width)), np.concatenate((width, width))
    else:
        err = math.inf  # pieces were left open
    if not err <= tol:  # a NaN estimate fails too
        raise QuadratureError(
            f"Gauss-Legendre moment quadrature reached abs error {err:.3e} > {tol:.1e}",
            achieved=err)
    return total


def _gauss_jacobi_integrals(a: float, b: float, tol: float = _QUAD_TOL) -> np.ndarray:
    """The five angular integrals of the Beta(a, b) law of phi / (2*pi).

    The Gauss rule of Beta(a, b) itself (``_gauss_beta``) integrates against
    x^(a-1) (1-x)^(b-1) exactly, so it carries endpoint singularities of any
    strength and samples only the smooth cos and sin; the density is never
    evaluated. Its weights sum to 1, so no B(a, b) or 2*pi power is formed
    and none can overflow or underflow. The estimate is the largest
    difference between the two orders of ``_GAUSS_ORDERS``; it must be
    <= tol, or QuadratureError is raised.
    """
    low, high = (_moment_integrands(TWO_PI * x) @ w
                 for x, w in (_gauss_beta(a, b, n) for n in _GAUSS_ORDERS))
    err = float(np.abs(high - low).max())
    if not err <= tol:
        raise QuadratureError(
            f"beta({a:g}, {b:g}) Gauss-Jacobi moment quadrature reached abs error "
            f"{err:.3e} > {tol:.1e}", achieved=err)
    return high


def _atom_sums(points, weights):
    """(sum_i w_i y_i, sum_i w_i y_i y_i^T) over the atoms y_i."""
    return points.T @ weights, (points * weights[:, None]).T @ points


def _integrals(sigma: SpectralMeasure):
    """(integral of s dsigma, integral of s s^T dsigma), the one place a
    spectral measure's representation decides how its moments are computed.

    Exact sums for finite support. For an angular measure: on beta shapes
    with min(a, b) < 1, where the density is singular at an end, the
    Gauss-Jacobi rule of the shape; on other beta shapes, adaptive
    Gauss-Legendre on the density; on any other density, Gauss-Kronrod.
    The cos^2 and sin^2 integrals must add up to the mass within 1e-8, which
    catches a density that underflowed to 0. A beta model's integrals are
    then scaled by mass / (that sum), so that the rule normalizes the
    density itself: ``scipy.special``'s B(a, b) behind the density is off by
    up to 1e-12 relative near a + b = 1000.
    """
    if sigma.variant == FINITE:
        return _atom_sums(sigma.directions, sigma.masses)
    if sigma.beta_params is None:
        values = np.array([integrate_angular(g, sigma.density) for g in _ANGULAR_FNS])
    elif min(sigma.beta_params) < 1.0:
        values = sigma.mass * _gauss_jacobi_integrals(*sigma.beta_params)
    else:
        values = _gauss_legendre_integrals(sigma.density)
    mass = values[2] + values[3]
    gap = abs(mass - sigma.mass)
    if not gap <= _MASS_CHECK_TOL:
        raise QuadratureError(
            f"angular moment integrals carry mass {mass!r}, not the "
            f"declared {sigma.mass!r}", achieved=gap)
    if sigma.beta_params is not None:
        values *= sigma.mass / mass
    c, s, c2, s2, cs = values
    return np.array([c, s]), np.array([[c2, cs], [cs, s2]])


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
    from scipy.special import gamma as gamma_fn

    first, second = bdlm_integrals(params.bdlm)
    g = gamma_fn(params.alpha)
    mean = params.gamma + g * first
    cov = (g / 2.0 ** params.alpha) * second
    return MomentSummary(mean, cov)


def md_moments(sigma: SpectralMeasure) -> MomentSummary:
    """Mean and covariance of X ~ MD(sigma), the L*_1(sigma, 0) case:

        E[X] = integral of s dsigma,  cov(X) = 1/2 integral of s s^T dsigma.

    Exact sums for finite support; for bivariate densities, quadrature to an
    absolute 1e-10 per integral: by Gauss rules on beta shapes (see
    ``_integrals``), by Gauss-Kronrod on any other density. For a sigma
    known only through a sampler, use ``lstar_moments`` on
    ``BDLM.from_sampler`` with its moment data.
    """
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
    eps = _check_real("eps", eps, 0.0, 1.0)
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
    from scipy.special import gamma as gamma_fn
    from scipy.special import gammainc, gammaincc

    p = _check_real("p", p)
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
