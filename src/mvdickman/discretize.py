"""Finite-support approximation of bivariate angular spectral measures.

A measure with angular density f is replaced by atoms a_i * delta_{s_i},
where a_i is the cell mass over [d_{i-1}, d_i) and s_i the direction of a
representative angle phi_i inside the cell. Beta models get their cell masses
in closed form from the regularized incomplete beta function; any other
density is integrated cell by cell. Total mass is preserved, and the
approximating MD laws converge weakly to the target as the grid refines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError, ValidationError
from .measures import ANGULAR, TWO_PI, SpectralMeasure, _check_count, _lock
from .moments import _quadpack

_MASS_TOL = 1e-9


@dataclass(frozen=True)
class DiscretizationGrid:
    """Cut points 0 = d_0 < d_1 < ... < d_k = 2*pi with one representative
    angle phi_i in each cell [d_{i-1}, d_i)."""

    cuts: np.ndarray
    angles: np.ndarray

    def __post_init__(self):
        cuts = np.asarray(self.cuts, dtype=float).reshape(-1)
        angles = np.asarray(self.angles, dtype=float).reshape(-1)
        if len(cuts) < 2 or len(angles) != len(cuts) - 1:
            raise ValidationError("grid needs k+1 cut points and k representative angles")
        if abs(cuts[0]) > 1e-15 or abs(cuts[-1] - TWO_PI) > 1e-12:
            raise ValidationError("cut points must start at 0 and end at 2*pi")
        if not np.all(np.diff(cuts) > 0):
            raise ValidationError("cut points must be strictly increasing")
        if np.any(angles < cuts[:-1]) or np.any(angles >= cuts[1:]):
            raise ValidationError("each representative must satisfy d_{i-1} <= phi_i < d_i")
        for name, value in (("cuts", cuts), ("angles", angles)):
            object.__setattr__(self, name, _lock(value))

    @property
    def k(self) -> int:
        return len(self.angles)


def default_grid(k: int, representatives: str = "left") -> DiscretizationGrid:
    """Evenly spaced grid d_i = 2*pi*i/k.

    ``representatives='left'`` places phi_i = d_{i-1} (the default);
    ``'midpoint'`` uses cell midpoints, which roughly halves the leading
    discretization bias at the same k.
    """
    _check_count("k", k, 1)
    cuts = TWO_PI * np.arange(k + 1) / k
    if representatives == "left":
        angles = cuts[:-1]
    elif representatives == "midpoint":
        angles = 0.5 * (cuts[:-1] + cuts[1:])
    else:
        raise ValidationError("representatives must be 'left' or 'midpoint'")
    return DiscretizationGrid(cuts=cuts, angles=angles)


def discretize_angular(sigma: SpectralMeasure,
                       grid: DiscretizationGrid) -> SpectralMeasure:
    """Finite-support approximation of an angular-density measure.

    Atom masses are the cell masses a_i = integral of f over [d_{i-1}, d_i);
    directions are (cos phi_i, sin phi_i). A beta model (``sigma.beta_params``
    set) gets a_i = theta * (I_{d_i/2pi}(a, b) - I_{d_{i-1}/2pi}(a, b)) from the
    regularized incomplete beta function, without evaluating the density; any
    other density is integrated per cell by adaptive quadrature (epsabs 1e-12
    per cell, and the summed error estimates must stay within
    1e-10 * max(1, k/4)). Cells with zero mass are dropped so downstream GD
    samplers never see a zero rate. Raises if the summed atom mass drifts
    from the total mass by more than 1e-9.

    A cell with pi strictly inside it is integrated as two panels split at
    pi, as ``integrate_angular`` does, so no single QUADPACK call holds both
    ends of [0, 2*pi] (where a wrapped beta density is singular). Known
    limit: the per-cell quadrature has no rule for an integrable endpoint
    singularity, so a strong one (the beta(0.05, 0.05) density wrapped as a
    plain angular density) misses the error budget and raises
    QuadratureError.
    """
    if sigma.variant != ANGULAR:
        raise ValidationError("discretize_angular needs an angular-density measure")
    if sigma.beta_params is not None:
        masses = _beta_cell_masses(*sigma.beta_params, sigma.mass, grid.cuts)
    else:
        masses = _quadrature_cell_masses(sigma.density, grid)
    total = masses.sum()
    if abs(total - sigma.mass) > _MASS_TOL:
        raise QuadratureError(
            f"discretization lost mass: sum a_i = {total!r} vs theta = {sigma.mass!r}",
            achieved=abs(total - sigma.mass))
    keep = masses > 0.0
    if not keep.any():
        raise ValidationError("all cells have zero mass; refine the grid")
    angles = grid.angles[keep]
    return SpectralMeasure.from_angles(angles, masses[keep])


def _beta_cell_masses(a: float, b: float, theta: float,
                      cuts: np.ndarray) -> np.ndarray:
    """theta times the Beta(a, b) probability of each cell [x_{i-1}, x_i),
    x = cuts / 2pi. Cells that start at or above the median difference the
    upper tail 1 - I_x(a, b) = I_{1-x}(b, a) instead, so the small cells next
    to 2pi do not lose digits to a difference of two values near 1. The upper
    tail takes 1 - x = (2pi - d)/2pi as computed, not 1 - fl(x), whose
    rounding would cost a 1e-9 cell next to 2pi seven of its digits."""
    from scipy.special import betainc

    x = cuts / TWO_PI
    x_up = (TWO_PI - cuts) / TWO_PI
    x[0], x[-1] = 0.0, 1.0
    x_up[0], x_up[-1] = 1.0, 0.0
    lower = betainc(a, b, x)
    upper = betainc(b, a, x_up)
    return theta * np.where(lower[:-1] < 0.5, np.diff(lower), -np.diff(upper))


def _quadrature_cell_masses(density, grid: DiscretizationGrid) -> np.ndarray:
    masses = np.empty(grid.k)
    err_total = 0.0
    with _quadpack() as quad:
        for i, (lo, hi) in enumerate(zip(grid.cuts[:-1], grid.cuts[1:])):
            panels = ((lo, np.pi), (np.pi, hi)) if lo < np.pi < hi else ((lo, hi),)
            masses[i] = 0.0
            for a, b in panels:
                v, e = quad(density, a, b, epsabs=1e-12, epsrel=1e-12, limit=200)
                masses[i] += v
                err_total += e
    if err_total > 1e-10 * max(1.0, grid.k / 4):
        raise QuadratureError(
            f"cell-mass quadrature reached abs error {err_total:.3e}",
            achieved=err_total)
    return masses


def discretized_moment_error(sigma: SpectralMeasure, k: int,
                             representatives: str = "left") -> float:
    """Max componentwise moment error of the level-k discretization.

    Convenience diagnostic: there is no closed-form rule for choosing k, so
    callers inspect how the five MD moments move as k grows.
    """
    from .moments import md_moments

    exact = md_moments(sigma)
    approx = md_moments(discretize_angular(sigma, default_grid(k, representatives)))
    return float(max(np.max(np.abs(exact.mean - approx.mean)),
                     np.max(np.abs(exact.cov - approx.cov))))
