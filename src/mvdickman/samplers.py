"""Simulation methods for L*_alpha laws and multivariate Dickman variables.

Three routes are implemented:

* SN -- truncation of the shot-noise series over Poisson arrival epochs,
* TA -- a triangular-array sum of high powers with regularly varying factors,
* DS -- exact sums of generalized-Dickman draws along the fixed directions of
  a finite-support spectral measure (discretize-and-simulate).

Every sampler is pure given a ``numpy.random.Generator``; batch variants
vectorize over replications with O(n_reps * d) working memory.

``generate_batch`` splits its ``n_reps`` rows into chunks of ``_CHUNK`` =
8192 rows (the last one shorter) and runs one ``sample_*_batch`` call per
chunk. Chunk 0 draws from ``default_rng(seed)`` and chunk c >= 1 from
``default_rng(SeedSequence(seed, spawn_key=(c,)))``, so a batch of at most
8192 rows is the unchunked batch, and the first 8192 rows of any batch are
the 8192-row batch. Work that needs no random draws (discretization, the
L*_1 parameters, the finite guide table) is done once per batch. Chunks of a
multi-chunk batch run on one per-process thread pool with a thread per usable
CPU, since NumPy's generator fills and ufuncs release the GIL; the rows are
joined in chunk order, so the output does not depend on the thread count.

SN, TA and the generalized Dickman (GD) draws behind DS sum one weighted
series sum_i w_i Y_i in the private kernel ``_series``; only the weights
(``_sn_weights``, ``_ta_weights``) and the summands Y_i differ.

Normalization note: the shot-noise weights used here are
``exp(-(alpha * Gamma_i / (T * theta))^(1/alpha))`` with unit-rate arrival
epochs Gamma_i. This normalization makes the series marginal carry the Levy
measure M_alpha of L*_alpha(nu, gamma) for every alpha. At alpha = 1 they
are drawn as running products of uniforms raised to 1/(T*theta): the same
law without exponentials, and faster. Likewise the TA term count is
``floor(c * n^alpha / alpha)`` so that the array converges to
L*_alpha(c * nu0, 0).

There is no separate sampler for the stochastic-integral representation of
these laws: with a finite BDLM the driving process is compound Poisson plus
drift, so the integral evaluates to exactly the shot-noise series above (the
epochs are the driving process's unit-rate jump times and the deterministic
drift part contributes gamma).
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedMeasureError, ValidationError
from .measures import FINITE, BDLM, LStarParams, SpectralMeasure, _lock

_DEFAULT_GD_TOL = 1e-12

#: rows per chunk of a generated batch; each chunk has its own RNG substream.
#: At 8192 rows one term's temporaries (64-128 KiB) stay in L2, and a NumPy
#: call is long enough that threads do not spend it handing over the GIL.
_CHUNK = 8192


@dataclass(frozen=True)
class SampleBatch:
    """N approximate draws with the method, k, n_reps and seed that made them."""

    data: np.ndarray
    method: str
    k: int
    n_reps: int
    seed: int

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim == 1:
            data = data[:, None]
        if self.method not in ("SN", "TA", "DS"):
            raise ValidationError(f"method must be SN, TA or DS, got {self.method!r}")
        if data.shape[0] != self.n_reps:
            raise ValidationError(
                f"data has {data.shape[0]} rows, expected n_reps={self.n_reps}")
        if not np.isfinite(data).all():
            raise ValidationError("sample data contains non-finite values")
        object.__setattr__(self, "data", _lock(data))

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class LevyPathSkeleton:
    """Jump-time/jump-size skeleton of a finite-activity Levy path on [0, T].

    The marginal at time t is ``t * drift + sum of jumps with time <= t``.
    """

    horizon: float
    drift: np.ndarray
    times: np.ndarray
    jumps: np.ndarray

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValidationError("horizon T must be > 0")
        drift = np.asarray(self.drift, dtype=float).reshape(-1)
        times = np.asarray(self.times, dtype=float).reshape(-1)
        jumps = np.atleast_2d(np.asarray(self.jumps, dtype=float))
        if jumps.shape[0] != len(times):
            raise ValidationError("times and jumps must have equal length")
        if len(times) and (times.min() < 0.0 or times.max() > self.horizon):
            raise ValidationError("event times must lie in [0, T]")
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise ValidationError("event times must be strictly increasing")
        if not np.isfinite(np.linalg.norm(jumps, axis=1).sum()):
            raise ValidationError("jump norms must have a finite sum")
        for name, value in (("drift", drift), ("times", times), ("jumps", jumps)):
            object.__setattr__(self, name, _lock(value))

    @property
    def events(self):
        """List of (time, jump vector) pairs sorted by time."""
        return list(zip(self.times.tolist(), [j for j in self.jumps]))

    def value_at(self, t: float) -> np.ndarray:
        if not 0.0 <= t <= self.horizon:
            raise ValidationError("t must lie in [0, T]")
        x = t * self.drift
        if len(self.times):
            x = x + self.jumps[self.times <= t].sum(axis=0)
        return x


# --------------------------------------------------------------------------
# generalized Dickman draws
# --------------------------------------------------------------------------

def gd_truncation_terms(theta: float, tol: float) -> int:
    """Smallest k with expected truncated tail (theta+1)*(theta/(theta+1))^(k+1) <= tol.

    The tail bound is the mean of the discarded series remainder: each term
    has expectation (theta/(theta+1))^i, so the remainder after k terms sums
    to (theta+1) * (theta/(theta+1))^(k+1).
    """
    if theta <= 0 or tol <= 0:
        raise ValidationError("theta and tol must be > 0")
    if theta + 1.0 <= tol:
        return 0
    q = theta / (theta + 1.0)
    # log q; from log1p where q rounds to 1 (theta above about 2^53)
    log_q = math.log(q) if q < 1.0 else math.log1p(-1.0 / (theta + 1.0))
    k = math.log(tol / (theta + 1.0)) / log_q
    if not math.isfinite(k):
        raise ValidationError(f"the GD series for theta={theta!r} needs over 1e308 terms")
    return max(math.ceil(k) - 1, 0)


def sample_gd_batch(theta: float, tol: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws from GD(theta) via the truncated product-of-uniforms series.

    Returns sum_{i=1..k} (U_1 ... U_i)^(1/theta) with k from
    ``gd_truncation_terms``, so the expected absolute truncation error is at
    most ``tol``: the alpha = 1 shot-noise series of a unit point mass.
    """
    return _series(_sn_weights(1.0, theta, n, rng), gd_truncation_terms(theta, tol),
                   None, rng, np.zeros(n))


# --------------------------------------------------------------------------
# the weighted series shared by SN, TA and GD
# --------------------------------------------------------------------------

def _series(weights, terms, draw, rng, out):
    """Add the first ``terms`` terms w_i * Y_i to ``out`` and return it: w_i
    from the ``weights`` generator, then Y_i = ``draw(rng, n)``, or 1 with
    ``draw`` None. Y_i is only read, as a sampler may return a shared array."""
    buf = None if draw is None else np.empty_like(out)
    for w in itertools.islice(weights, terms):
        if draw is None:
            out += w
        else:
            out += np.multiply(w[:, None], draw(rng, len(w)), out=buf)
    return out


def _epoch_weights(g, alpha, t_theta, out):
    """Shot-noise weights exp(-(alpha * g / t_theta)^(1/alpha)) at epochs g."""
    np.multiply(g, alpha / t_theta, out=out)
    out **= 1.0 / alpha
    return np.exp(np.negative(out, out=out), out=out)


def _sn_weights(alpha, t_theta, n, rng):
    """Yield the shot-noise weights of terms 1, 2, ..., in one (n,) buffer.
    At alpha = 1, exp(-Gamma_i / t_theta) is drawn as a running product of
    U^(1/t_theta), the same law without exponentials."""
    w, u = np.ones(n), np.empty(n)
    if alpha == 1.0:
        while True:
            rng.random(out=u)
            u **= 1.0 / t_theta
            w *= u
            yield w
    g = np.zeros(n)
    while True:
        g += rng.standard_exponential(out=u)
        yield _epoch_weights(g, alpha, t_theta, w)


def _ta_weights(alpha, npow, n, rng):
    """Yield the triangular-array weights (1 - V^(1/alpha))^npow, V uniform,
    of each term in one (n,) buffer."""
    w = np.empty(n)
    while True:
        rng.random(out=w)
        w **= 1.0 / alpha
        np.subtract(1.0, w, out=w)
        w **= npow
        yield w


# --------------------------------------------------------------------------
# SN: truncated shot-noise series
# --------------------------------------------------------------------------

def sample_sn_batch(params: LStarParams, k: int, n: int,
                    rng: np.random.Generator, T: float = 1.0) -> np.ndarray:
    """n draws of the k-term shot-noise partial sum for L*_alpha(T*nu, T*gamma).

    gamma*T + sum_{i=1..k} w_i Y_i with Y_i ~ nu_1 and weights
    w_i = exp(-(alpha*Gamma_i/(T*theta))^(1/alpha)).

    k = 0 returns the drift alone (degenerate but convenient for sweeps).
    """
    if k < 0:
        raise ValidationError("k must be >= 0")
    if T <= 0:
        raise ValidationError("T must be > 0")
    weights = _sn_weights(params.alpha, T * params.bdlm.theta, n, rng)
    return _series(weights, k, params.bdlm.base_sampler, rng,
                   np.tile(T * params.gamma, (n, 1)))


def sample_levy_path(params: LStarParams, T: float, k: int,
                     rng: np.random.Generator) -> LevyPathSkeleton:
    """Skeleton of the Levy process {X_t} with X_t ~ L*_alpha(t*nu, t*gamma),
    truncated at k shot-noise terms.

    Each term contributes the jump w_i Y_i at the uniformly placed time T*V_i;
    the marginal at t is the partial series restricted to times <= t.
    """
    if T <= 0:
        raise ValidationError("T must be > 0")
    if k < 0:
        raise ValidationError("k must be >= 0")
    bdlm = params.bdlm
    if k == 0:
        return LevyPathSkeleton(T, params.gamma, np.empty(0), np.empty((0, bdlm.dim)))
    g = np.cumsum(rng.standard_exponential(k))
    w = _epoch_weights(g, params.alpha, T * bdlm.theta, g)
    y = bdlm.base_sampler(rng, k)
    times = T * rng.random(k)
    order = np.argsort(times, kind="stable")
    return LevyPathSkeleton(T, params.gamma, times[order], w[order, None] * y[order])


# --------------------------------------------------------------------------
# TA: triangular-array approximation
# --------------------------------------------------------------------------

def ta_term_count(alpha: float, c: float, n: int) -> int:
    """Number of array terms, floor(c * n^alpha / alpha)."""
    if n <= 0:
        raise ValidationError("n must be >= 1")
    if alpha <= 0 or c <= 0:
        raise ValidationError("alpha and c must be > 0")
    return int(math.floor(c * float(n) ** alpha / alpha))


def sample_ta_batch(alpha: float, nu0_sampler, c: float, n: int, n_reps: int,
                    rng: np.random.Generator) -> np.ndarray:
    """n_reps draws of the triangular array A_n = sum_{i<=N_n} T_i X_i^n.

    X_i = 1 - V_i^(1/alpha) with V_i uniform, so P(X_i > x) = (1-x)^alpha
    (slowly varying factor fixed to 1), T_i ~ nu0, and
    N_n = floor(c * n^alpha / alpha). As n grows the law approaches
    L*_alpha(c * nu0, 0) with an O(1/n) moment bias at finite n.

    Parameters
    ----------
    nu0_sampler : callable(rng, size) -> (size, d) array
    n : sharpness of the power weights (the tuning parameter)
    """
    terms = ta_term_count(alpha, c, n)
    d = np.atleast_2d(np.asarray(nu0_sampler(rng, 1), dtype=float)).shape[1]  # probe draw

    def draw(rng, m):
        return np.asarray(nu0_sampler(rng, m), dtype=float).reshape(m, d)

    return _series(_ta_weights(alpha, float(n), n_reps, rng), terms, draw, rng,
                   np.zeros((n_reps, d)))


# --------------------------------------------------------------------------
# DS: sums of Dickman draws along fixed directions
# --------------------------------------------------------------------------

def sample_ds_batch(sigma_k: SpectralMeasure, gd_tol: float, n_reps: int,
                    rng: np.random.Generator) -> np.ndarray:
    """n_reps draws from MD(sigma_k) for finite-support sigma_k.

    Sum over atoms of s_i * Y_i with independent Y_i ~ GD(a_i); exact apart
    from the GD series truncation controlled by ``gd_tol``.
    """
    if sigma_k.variant != FINITE:
        raise UnsupportedMeasureError(
            "the DS sampler needs a finite-support spectral measure; "
            "discretize the measure first")
    out = np.zeros((n_reps, sigma_k.dim))
    for s_i, a_i in zip(sigma_k.directions, sigma_k.masses):
        y = sample_gd_batch(float(a_i), gd_tol, n_reps, rng)
        out += y[:, None] * s_i
    return out


# --------------------------------------------------------------------------
# distributional fixed point
# --------------------------------------------------------------------------

def fixed_point_map(x, w, u, theta: float):
    """The map (x, w, u) -> u^(1/theta) * (x + w) whose fixed point in law
    characterizes MD / Vervaat-perpetuity distributions.

    Accepts vectors or (n, d) batches for x and w; u may be scalar or (n,).
    """
    if theta <= 0:
        raise ValidationError("theta must be > 0")
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValidationError("u must lie in (0, 1)")
    if not (np.isfinite(x).all() and np.isfinite(w).all()):
        raise ValidationError("x and w must be finite")
    scale = u ** (1.0 / theta)
    if x.ndim == 2:
        scale = np.asarray(scale).reshape(-1, 1)
    return scale * (x + w)


# --------------------------------------------------------------------------
# batch generation
# --------------------------------------------------------------------------

def _chunk_rng(seed: int, c: int) -> np.random.Generator:
    """Generator of chunk c of a batch: chunk 0 draws from ``default_rng(seed)``
    as an unchunked batch does, chunk c >= 1 from spawn key (c,) of ``seed``."""
    if c == 0:
        return np.random.default_rng(seed)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(c,)))


_pool = None
_pool_pid = None
_pool_lock = threading.Lock()


def _thread_pool() -> ThreadPoolExecutor:
    """This process's chunk pool, created on first use. A forked child
    inherits the object but not its threads, so it makes its own."""
    global _pool, _pool_pid
    with _pool_lock:
        if _pool_pid != os.getpid():
            cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
            _pool = ThreadPoolExecutor(max_workers=cpus,
                                       thread_name_prefix="mvdickman-chunk")
            _pool_pid = os.getpid()
        return _pool


def _run_chunks(draw, n_reps: int, seed: int) -> np.ndarray:
    """``draw(m, rng)`` on each chunk of the ``n_reps`` rows, joined in chunk
    order. One chunk runs inline; more go to the thread pool."""
    if n_reps <= _CHUNK:
        return draw(n_reps, _chunk_rng(seed, 0))
    starts = range(0, n_reps, _CHUNK)
    parts = _thread_pool().map(
        lambda c: draw(min(_CHUNK, n_reps - starts[c]), _chunk_rng(seed, c)),
        range(len(starts)))
    return np.concatenate(list(parts))


def generate_batch(method: str, sigma: SpectralMeasure, k: int, n_reps: int,
                   seed: int, gd_tol: float = _DEFAULT_GD_TOL) -> SampleBatch:
    """Generate a SampleBatch from MD(sigma) by the named method.

    SN and TA use ``k`` as their tuning parameter. DS on a finite-support
    sigma is exact and records k = 0; on an angular-density sigma it first
    discretizes at level k with the default evenly spaced grid. Sampler-backed
    measures cannot be run through DS.

    The rows are drawn in chunks of ``_CHUNK`` rows, each from its own
    substream of ``seed`` (see the module docstring).
    """
    from .measures import md_from_spectral
    from .discretize import default_grid, discretize_angular

    if method == "SN":
        params = md_from_spectral(sigma)
        draw = lambda m, rng: sample_sn_batch(params, k, m, rng)
    elif method == "TA":
        draw = lambda m, rng: sample_ta_batch(1.0, sigma.sample_directions,
                                              sigma.mass, k, m, rng)
    elif method == "DS":
        if sigma.variant == FINITE:
            k = 0
        elif sigma.density is not None:
            sigma = discretize_angular(sigma, default_grid(k))
        else:
            raise UnsupportedMeasureError(
                "DS needs a finite-support or angular-density measure; run "
                "the discretize step first")
        draw = lambda m, rng: sample_ds_batch(sigma, gd_tol, m, rng)
    else:
        raise ValidationError(f"unknown method {method!r}")
    if method != "DS" and sigma.variant == FINITE:
        sigma._atom_sampler  # build the guide table once, not in each chunk
    data = _run_chunks(draw, n_reps, seed)
    return SampleBatch(data=data, method=method, k=k, n_reps=n_reps, seed=seed)
