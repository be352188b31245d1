"""Analytic and quadrature-based moment computations.

Covers means/covariances of L*_alpha(nu, gamma) laws and of multivariate
Dickman distributions, the bivariate angular integrals, and numeric oracles
for the radially-mixed Levy measure M_alpha generated by a BDLM nu:

    M_alpha(B) = int int_0^1 1_B(y r) (-log r)^(alpha-1) r^(-1) dr nu(dy).

For sphere-supported nu the tail mass and radial moments of M_alpha reduce to
closed forms in theta alone; for general finite-support nu they are exact
finite sums over incomplete-gamma inner integrals.

The angular integrals come from Gauss rules that NumPy builds (Golub &
Welsch): the Gauss-Jacobi rule of a beta shape singular at an end, and one
adaptive Gauss-Legendre engine for every other density, which also serves
``SpectralMeasure.angular`` and ``discretize_angular``.

The moment formulas are the first two derivatives of the cumulant generating
function i<gamma, z> + int int_0^1 (e^{i r <z, y>} - 1)(-log r)^(alpha-1)
r^(-1) dr nu(dy); the cgf itself is not exposed as an operation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError, UnsupportedMeasureError, ValidationError
from .measures import (_MASS_CHECK_TOL, FINITE, TWO_PI, BDLM, LStarParams,
                       SpectralMeasure, _check_real, _lock, _real_array, _rebuilt)

_SYM_TOL = 1e-12
_QUAD_TOL = 1e-10

INSIDE = "inside_unit_ball"
OUTSIDE = "outside_unit_ball"


@dataclass(frozen=True)
class MomentSummary:
    """Mean vector and covariance matrix, with d=2 scalar aliases. Their
    entries are finite reals, and the covariance is d x d and symmetric."""

    mean: np.ndarray
    cov: np.ndarray

    __reduce__ = _rebuilt

    def __post_init__(self):
        mean = _real_array("mean", self.mean).reshape(-1)
        cov = _real_array("cov", self.cov)
        d = len(mean)
        if cov.shape != (d, d):
            raise ValidationError(f"cov must be {d}x{d}, got {cov.shape}")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValidationError("mean and cov must be finite")
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
#: caps on the rounds and on the pieces open beyond the first ones, past
#: which a density raises rather than loops or fills memory
_MAX_ROUNDS = 64
_MAX_OPEN = 1 << 12
#: an end may close once its estimate is within this share of the budget
_END_SHARE = 0.25


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


def _wynn_epsilon(sums: np.ndarray):
    """Wynn's epsilon algorithm (Wynn 1956) on the partial sums ``sums``, a
    row each: per column, the limit and its estimate. As in QUADPACK's QELG,
    each even column's newest entry is scored by its distance to the two
    above it, and the lowest score wins."""
    best = sums[-1]
    best_err = np.abs(best - sums[-2]) + np.abs(best - sums[-3])
    prev, cur = np.zeros((len(sums) + 1, sums.shape[1])), sums
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for col in range(1, len(sums) - 2):
            prev, cur = cur, prev[1:-1] + 1.0 / np.diff(cur, axis=0)
            err = np.abs(cur[-1] - cur[-2]) + np.abs(cur[-1] - cur[-3])
            better = (col % 2 == 0) & (err < best_err)  # never an inf or NaN
            best, best_err = np.where(better, cur[-1], best), np.where(better, err, best_err)
    return best, best_err


def _end_tail(sums: list, noise: list, limits: list, errs: list, goal: float, tol: float):
    """(the integral over an end piece less its rings, its estimate) once the
    end may close, else None; ``limits`` and ``errs`` gain this round's. The
    estimate adds to Wynn's the jitter of the last three limits, the rings'
    node noise, the last ring's times the gain (1 + rho) / (1 - rho)^2 and
    8 ulps. The best limit so far closes the end once it meets the goal, or
    is within ``_END_SHARE`` * tol and two rounds have not bettered it."""
    s = np.array(sums)
    limit, limit_err = _wynn_epsilon(s)
    ring = np.diff(s[-4:, 2] + s[-4:, 3])  # the masses of the last three rings
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = max(ring[1] / ring[0], ring[2] / ring[1])
    err = math.inf
    if len(limits) >= 2 and 0.0 < rho < 1.0:
        jitter = np.abs(limit - limits[-1]) + np.abs(limit - limits[-2])
        gain = (1.0 + rho) / (1.0 - rho) ** 2
        err = (np.maximum(limit_err, jitter).max() + sum(noise) + gain * noise[-1]
               + 8 * np.finfo(float).eps * np.abs(limit).max())
    limits.append(limit)
    errs.append(err)
    best = int(np.argmin(errs))
    if errs[best] <= goal or (errs[best] <= _END_SHARE * tol and len(errs) - best > 2):
        return limits[best] - s[-1], errs[best]
    return None


def _gauss_legendre_integrals(density, cuts=(0.0, TWO_PI),
                              tol: float = _QUAD_TOL) -> np.ndarray:
    """The five angular integrals of ``density`` on each cell [cuts[i],
    cuts[i+1]), as a (5, k) array; the end cuts count as exactly 0 and 2*pi.

    Adaptive bisection with the Gauss-Legendre pair of ``_legendre_pair``
    from the cells, split at pi. Each round evaluates ``density`` once, on
    the nodes of all the pieces still open, and the five integrands share
    those values and one cos and sin. A piece's estimate is the largest
    difference between its two orders; it closes at most goal / (number of
    pieces), with goal = ``_GOAL_SHARE`` * tol, or at most ``_ROUNDING_FLOOR``
    times its mass plus its node noise, ulp(x) / (2 width) times its mass,
    as a density singular next to it moves so when its nodes x round. The
    others are halved, an end piece at 0 or 2*pi into the end and a ring (a
    graded mesh: Schwab, p- and hp-FEM, 1998, ch. 3); at a singularity like
    d^(s-1) the rings shrink by a factor rho, and ``_end_tail`` extrapolates
    their sums. The end at 2*pi closes as it is once its outer half would
    have a node on 2*pi, where a density may be infinite, so its estimate
    stays finite. The summed estimate of the closed pieces must be <= tol,
    or QuadratureError is raised; so it is past ``_MAX_ROUNDS`` rounds or
    ``_MAX_OPEN`` open pieces beyond the first ones.
    """
    nodes, weights = _legendre_pair()
    goal = _GOAL_SHARE * tol
    cuts = np.array(cuts, dtype=float)
    cuts[0], cuts[-1] = 0.0, TWO_PI
    k = len(cuts) - 1
    edges = np.union1d(cuts, math.pi)  # the cells, the one holding pi split there
    lo, width = edges[:-1], edges[1:] - edges[:-1]
    cell = np.searchsorted(cuts, lo, "right") - 1
    # pieces stay in order: an open end is the first or last, its ring next
    ends = {(0, 1): ([np.zeros(5)], [], [], []), (-1, -2): ([np.zeros(5)], [], [], [])}
    total = np.zeros((k, 5))
    err, n_closed = 0.0, 0
    for rounds in range(_MAX_ROUNDS):
        phi = lo[:, None] + width[:, None] * nodes
        f = density(phi)
        with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 weight
            pair = (_moment_integrands(phi) * f) @ weights * width[:, None]
            est = np.abs(pair[..., 1] - pair[..., 0]).max(axis=0)
        value = pair[..., 1]
        # a NaN estimate closes its piece, so that err is NaN
        close = ~(est > goal / (n_closed + len(est)))
        if not close.all():
            mass = value[2] + value[3]  # the cos^2 plus sin^2 integral
            node_noise = 0.5 * np.spacing(lo + width) / width * np.abs(mass)
            close |= ~(est > _ROUNDING_FLOOR * mass + node_noise)
            for (end, ring), (sums, noise, *history) in list(ends.items()):
                if rounds:
                    sums.append(sums[-1] + value[:, ring])
                    noise.append(node_noise[ring])
                if not close[end] and len(sums) > 3:  # three rings give rho
                    tail = _end_tail(sums, noise, *history, goal, tol)
                    if tail is not None:
                        value[:, end], est[end] = tail
                        close[end] = True
                # the outer half's nodes would round onto 2 pi, where a density
                # may be infinite: the end closes on its last finite estimate
                h = 0.5 * width[end]
                close[end] |= end == -1 and lo[end] + h + h * nodes.max() >= TWO_PI
                if close[end]:
                    del ends[end, ring]
        closed = np.flatnonzero(close)
        np.add.at(total, cell[closed], value[:, closed].T)
        err += est[closed].sum()
        n_closed += len(closed)
        if len(closed) == len(est) or 2 * (len(est) - len(closed)) > k + 1 + _MAX_OPEN:
            break
        lo, width, cell = lo[~close], 0.5 * width[~close], cell[~close]
        lo = np.column_stack((lo, lo + width)).ravel()  # halves stay in order
        width, cell = np.repeat(width, 2), np.repeat(cell, 2)
    if len(closed) < len(est):
        err = math.inf  # pieces were left open
    if not err <= tol:  # a NaN estimate fails too
        raise QuadratureError(
            f"Gauss-Legendre moment quadrature reached abs error {err:.3e} > {tol:.1e}",
            achieved=err)
    return total.T


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
    Gauss-Jacobi rule of the shape; on any other density, beta or not,
    ``_gauss_legendre_integrals``, or those that ``SpectralMeasure.angular`` kept.
    The cos^2 and sin^2 integrals must add up to the mass within 1e-8, which
    catches a density that underflowed to 0. A beta model's integrals are
    then scaled by mass / (that sum), so that the rule normalizes the
    density itself: ``scipy.special``'s B(a, b) behind the density is off by
    up to 1e-12 relative near a + b = 1000.
    """
    if sigma.variant == FINITE:
        return _atom_sums(sigma.directions, sigma.masses)
    if sigma.beta_params is not None and min(sigma.beta_params) < 1.0:
        values = sigma.mass * _gauss_jacobi_integrals(*sigma.beta_params)
    elif sigma._density_integrals is not None:
        values = sigma._density_integrals
    else:
        values = _gauss_legendre_integrals(sigma.density)[:, 0]
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
    absolute 1e-10 per integral by Gauss rules (see ``_integrals``). For a
    sigma known only through a sampler, use ``lstar_moments`` on
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
    "bdlm_integrals",
    "lstar_moments", "md_moments",
    "malpha_tail_mass", "malpha_radial_moment",
]
