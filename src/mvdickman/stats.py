"""Empirical moment estimation, the five-moment error metric, and the
distributional fixed-point check for MD laws."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .measures import (FINITE, SpectralMeasure, _check_count, _check_real, _is_real, _lock,
                       _real_array)
from .moments import MomentSummary
from .samplers import SampleBatch, fixed_point_map, sample_ds_batch


def _observations(batch) -> np.ndarray:
    """The (n, d) data of a SampleBatch, or ``batch`` itself read by
    ``_real_array``, an (n,) array as d = 1; ValidationError unless it has
    n >= 2 rows and d >= 1 columns of finite entries."""
    # not getattr(batch, "data"): an ndarray's .data is its buffer
    data = _real_array("observations", batch.data if isinstance(batch, SampleBatch) else batch)
    if data.ndim == 1:
        data = data[:, None]
    if data.ndim != 2 or data.shape[0] < 2 or data.shape[1] < 1:
        raise ValidationError(f"observations must be an (n, d) array with n >= 2 and "
                              f"d >= 1, got shape {data.shape}")
    if not np.isfinite(data).all():
        raise ValidationError("observations must be finite")
    return data


def _check_size(name: str, value) -> float:
    """``value`` as a float; ValidationError naming ``name`` unless it is a
    finite real >= 0, not a bool."""
    if not (_is_real(value) and 0.0 <= value < math.inf):
        raise ValidationError(f"{name} must be a finite real >= 0, got {value!r}")
    return float(value)


def empirical_moments(batch) -> MomentSummary:
    """Sample mean vector and unbiased (N-1 denominator) covariance matrix.

    Accepts a SampleBatch or a raw (n, d) array of finite reals; n >= 2
    required.
    """
    data = _observations(batch)
    n = data.shape[0]
    mean = data.mean(axis=0)
    xc = data - mean
    cov = xc.T @ xc / (n - 1)
    cov = 0.5 * (cov + cov.T)
    return MomentSummary(mean, cov)


@dataclass(frozen=True)
class ErrorReport:
    """Five-moment root-sum-of-squares error with its squared components.

    ``components`` holds the squared deviations (mean1, mean2, var1, var2,
    cov12) in that order; ``mc_floor`` is the estimated Monte Carlo noise
    level of the metric at the batch size, when available. Each is a
    finite real >= 0.
    """

    e_k: float
    components: np.ndarray
    mc_floor: float | None = None

    def __post_init__(self):
        e_k = _check_size("e_k", self.e_k)
        comp = _real_array("components", self.components).reshape(-1)
        if len(comp) != 5:
            raise ValidationError("components must hold the five squared deviations")
        if not (np.isfinite(comp).all() and (comp >= 0.0).all()):
            raise ValidationError(f"components must be finite and >= 0, got {comp}")
        if abs(e_k ** 2 - comp.sum()) > 1e-12 * max(1.0, comp.sum()):
            raise ValidationError("e_k^2 must equal the sum of the components")
        if self.mc_floor is not None:
            object.__setattr__(self, "mc_floor", _check_size("mc_floor", self.mc_floor))
        object.__setattr__(self, "components", _lock(comp))


def error_metric(emp: MomentSummary, truth: MomentSummary,
                 mc_floor: float | None = None) -> ErrorReport:
    """E_k = sqrt((xbar1-m1)^2 + (xbar2-m2)^2 + (s1^2-var1)^2
                  + (s2^2-var2)^2 + (s12-cov12)^2), bivariate only.

    ``mc_floor`` (see :func:`estimate_mc_floor`), None or a finite real
    >= 0, is carried through for reporting; it does not enter the metric.
    """
    if emp.dim != 2 or truth.dim != 2:
        raise ValidationError("error metric is defined for d=2 summaries")
    comp = np.array([
        (emp.m1 - truth.m1) ** 2,
        (emp.m2 - truth.m2) ** 2,
        (emp.var1 - truth.var1) ** 2,
        (emp.var2 - truth.var2) ** 2,
        (emp.cov12 - truth.cov12) ** 2,
    ])
    return ErrorReport(e_k=float(np.sqrt(comp.sum())), components=comp,
                       mc_floor=mc_floor)


def estimate_mc_floor(batch) -> float:
    """Delta-method estimate of the Monte Carlo noise level of E_k.

    Root of the summed estimator variances: var(xbar_j) = s_j^2/N,
    var(s_j^2) ~= (m4_j - s_j^4)/N, var(s12) ~= (m22 - s12^2)/N, all from
    empirical central moments. Reported for context, never asserted.
    """
    data = _observations(batch)
    if data.shape[1] != 2:
        raise ValidationError("mc floor estimate is defined for d=2 batches")
    return math.sqrt(sum(_moment_se_pieces(data).values()))


# --------------------------------------------------------------------------
# fixed-point law check
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPointReport:
    """Outcome of the distributional fixed-point comparison."""

    passed: bool
    max_z: float
    tol_sigmas: float
    n_reps: int
    theta_used: float
    diffs: dict
    ses: dict


def _moment_se_pieces(data):
    """Per-estimator variances used to combine standard errors."""
    n = data.shape[0]
    xc = data - data.mean(axis=0)
    s2 = (xc ** 2).sum(axis=0) / (n - 1)
    m4 = (xc ** 4).mean(axis=0)
    pieces = {}
    d = data.shape[1]
    for j in range(d):
        pieces[f"mean{j + 1}"] = s2[j] / n
        pieces[f"var{j + 1}"] = max(m4[j] - s2[j] ** 2, 1e-300) / n
    for i in range(d):
        for j in range(i + 1, d):
            cij = (xc[:, i] * xc[:, j]).sum() / (n - 1)
            m22 = (xc[:, i] ** 2 * xc[:, j] ** 2).mean()
            pieces[f"cov{i + 1}{j + 1}"] = max(m22 - cij ** 2, 1e-300) / n
    return pieces


def fixed_point_test(sigma: SpectralMeasure, n_reps: int, seed: int,
                     tol_sigmas: float = 4.0, gd_tol: float = 1e-12,
                     map_theta: float | None = None) -> FixedPointReport:
    """Check that U^(1/theta) (X + W) reproduces the law of X in its first
    two moments, with X ~ MD(sigma) drawn by the exact DS route, W ~ sigma_1,
    and U uniform, all independent.

    Each compared moment (means, variances, covariances) must agree within
    ``tol_sigmas`` combined standard errors. Passing ``map_theta`` applies
    the map with a deliberately wrong exponent, which should make the check
    fail; the default uses sigma's own total mass.
    """
    if sigma.variant != FINITE:
        raise ValidationError("the fixed-point test draws X exactly via DS; "
                              "sigma must have finite support")
    _check_count("n_reps", n_reps, 2)
    _check_count("seed", seed, 0, 2 ** 64)
    tol_sigmas = _check_real("tol_sigmas", tol_sigmas)
    theta = sigma.mass if map_theta is None else _check_real("map_theta", map_theta)
    rng = np.random.default_rng(seed)
    x = sample_ds_batch(sigma, gd_tol, n_reps, rng)
    w = sigma.sample_directions(rng, n_reps)
    u = rng.random(n_reps)
    u = np.clip(u, np.finfo(float).tiny, 1.0 - 1e-16)
    y = fixed_point_map(x, w, u, theta)

    mx, my = empirical_moments(x), empirical_moments(y)
    px, py = _moment_se_pieces(x), _moment_se_pieces(y)
    d = x.shape[1]
    diffs, ses = {}, {}
    for j in range(d):
        diffs[f"mean{j + 1}"] = float(my.mean[j] - mx.mean[j])
        diffs[f"var{j + 1}"] = float(my.cov[j, j] - mx.cov[j, j])
    for i in range(d):
        for j in range(i + 1, d):
            diffs[f"cov{i + 1}{j + 1}"] = float(my.cov[i, j] - mx.cov[i, j])
    max_z = 0.0
    for key, delta in diffs.items():
        se = math.sqrt(px[key] + py[key])
        ses[key] = se
        if se == 0.0:
            # a degenerate coordinate matches iff its difference vanishes too
            z = 0.0 if delta == 0.0 else math.inf
        else:
            z = abs(delta) / se
        max_z = max(max_z, z)
    return FixedPointReport(passed=max_z <= tol_sigmas, max_z=float(max_z),
                            tol_sigmas=tol_sigmas, n_reps=n_reps,
                            theta_used=theta, diffs=diffs, ses=ses)
