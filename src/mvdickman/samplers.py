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

SN and TA sum one weighted series sum_i w_i Y_i; the generalized Dickman
(GD) draws behind DS are the same series for a unit point mass, Y_i = 1,
with SN's alpha = 1 weights. Each weight scheme is a weigher: it turns an
(m, n) block of weight variates, in place, into the next m weights in term
order, and carries its state across blocks. ``_unit_sn_weigher`` takes
uniforms (SN at alpha = 1, GD), ``_epoch_weigher`` exponentials (SN at
alpha != 1) and ``_ta_weigh`` uniforms (TA).

The kernels make few, long NumPy calls per term, each bit for bit the
per-term arithmetic. ``_uniform_blocks`` draws the uniforms of b terms in
one call into a block of at most ``_BLOCK`` elements, the stream of b
per-term calls, and a weigher powers a block in one call; GD takes (b, n)
blocks. Directions and sums are coordinate-major: the package's direction
samplers return the (n, d) transpose of a C-ordered (d, n) array, and SN,
TA and DS add each term into a (d, n) buffer with one multiply and one add
whose inner loops run over the n rows; only the returned (n, d) batch is
C-ordered. And the end cells of a discretized beta model have masses down
to about 1e-11, so U^(1/theta) underflows on most lanes, and pow spends
about 135 ns on each to return +0; ``_uniform_powers`` keeps such lanes off
pow's slow path.

On a finite measure a term's weight and direction are both plain uniforms,
so SN at alpha = 1 and TA take (b, 2, n) blocks (``_atom_series``): row
[t, 0] holds term t's weight uniforms and row [t, 1] its direction
uniforms. A block takes one pass for its weights and one guide-table lookup
(``_AtomSampler.indices``) for its directions; then each term gathers its
atoms into the (d, n) buffer and is added in term order. This is chosen
when the direction sampler is a finite SpectralMeasure's
``sample_directions`` or a ``BDLM.from_atoms`` sampler. Every other case
runs ``_series``, one term at a time: beta angles, as ``rng.beta`` takes a
variable number of stream values; SN at alpha != 1, whose exponentials are
drawn by ziggurat; and ``BDLM.from_sampler`` samplers, whose draws are
unknown. DS sums one GD series per atom.

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

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedMeasureError, ValidationError
from .measures import (FINITE, LStarParams, SpectralMeasure, _AtomSampler, _check_count,
                       _is_int, _lock, md_from_spectral)

_DEFAULT_GD_TOL = 1e-12

#: share of lanes whose power underflows above which ``_uniform_powers`` masks
#: them. On a 2-vCPU AVX-512 Xeon with NumPy 2.4, pow spent about 135 ns on
#: each such lane and the three mask calls about 1.4 ns a lane, so the two
#: cost the same near 1%.
_UNDERFLOW_SWITCH = 1e-2

#: rows per chunk of a generated batch; each chunk has its own RNG substream.
#: At 8192 rows one term's temporaries (64-128 KiB) stay in L2, and a NumPy
#: call is long enough that threads do not spend it handing over the GIL.
_CHUNK = 8192

#: most replication-terms (series terms x max(n_reps, _CHUNK)) one cell may
#: need: under half an hour at the 30-170 ns a replication-term takes on a
#: 2-core x86 VM
MAX_CELL_WORK = 10 ** 10

#: most uniforms a series draws in one block, 512 KiB: 8 GD terms of a chunk,
#: or 4 terms of a finite SN or TA series. At 2^18 a GD chunk ran no faster
#: and a sweep's peak RSS rose by 5%. With its lookup's index and scratch
#: arrays, a finite SN or TA chunk of 8192 rows then peaks under 2 MiB of
#: traced memory, against about 0.6 MiB drawn one term at a time.
_BLOCK = 1 << 16


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
    if not (0 < theta < math.inf and tol > 0):  # NaN fails too
        raise ValidationError(f"theta must be finite and > 0 and tol > 0, got "
                              f"theta={theta!r}, tol={tol!r}")
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
    most ``tol``: the alpha = 1 shot-noise series of a unit point mass, its
    uniforms drawn in (b, n) blocks by ``_uniform_blocks`` and weighed by
    ``_unit_sn_weigher``.
    """
    _check_count("n", n)
    weigh, out = _unit_sn_weigher(theta, n), np.zeros(n)
    for block in _uniform_blocks(gd_truncation_terms(theta, tol), (n,), rng):
        for w in weigh(block):
            out += w
    return out


# --------------------------------------------------------------------------
# the weighted series shared by SN, TA and GD
# --------------------------------------------------------------------------

def _uniform_blocks(terms, shape, rng):
    """Yield the uniforms of ``terms`` terms of ``shape`` each as blocks of at
    most ``_BLOCK`` elements (one term if a term is larger) in one reused
    buffer, the stream of one ``random(shape)`` call per term."""
    rows = max(min(terms, _BLOCK // max(math.prod(shape), 1)), 1)
    block = np.empty((rows, *shape))
    for start in range(0, terms, rows):
        yield rng.random(out=block[:terms - start])


def _series(weigh, variates, terms, draw, rng, out):
    """Add the first ``terms`` terms w_i * Y_i to the (d, n) array ``out`` and
    return it. Per term, the weigher ``weigh`` turns the variates
    ``variates(out=<(1, n) buffer>)`` into w_i; then the (n, d) array
    Y_i = ``draw(rng, n)`` is read through its (d, n) transpose, which is
    C-ordered for the package's direction samplers. Y_i is only read, as a
    sampler may return a shared array."""
    buf, v = np.empty_like(out), np.empty((1, out.shape[1]))
    for _ in range(terms):
        for w in weigh(variates(out=v)):
            out += np.multiply(draw(rng, len(w)).T, w, out=buf)
    return out


def _atom_series(weigh, terms, atoms, rng, out):
    """``_series`` for uniform weight variates and directions from the
    ``_AtomSampler`` ``atoms``, a (b, 2, n) block of terms at a time: row
    [t, 0] holds term t's weight uniforms, row [t, 1] its direction uniforms.
    One lookup maps a block's direction uniforms to atoms, and each term
    gathers its atoms into one (d, n) buffer."""
    y = np.empty_like(out)
    for u in _uniform_blocks(terms, (2, out.shape[1]), rng):
        for w, i in zip(weigh(u[:, 0]), atoms.indices(u[:, 1])):
            # the indices are in range; "clip" lets take write y unbuffered
            atoms.columns.take(i, axis=1, out=y, mode="clip")
            out += np.multiply(y, w, out=y)
    return out


def _atoms_behind(draw):
    """The ``_AtomSampler`` that the direction sampler ``draw`` runs, or None:
    ``draw`` itself (``BDLM.from_atoms``), or the guide table of a finite
    SpectralMeasure's ``sample_directions``."""
    if isinstance(draw, _AtomSampler):
        return draw
    sigma = getattr(draw, "__self__", None)
    if (isinstance(sigma, SpectralMeasure) and sigma.variant == FINITE
            and getattr(draw, "__name__", None) == "sample_directions"):
        return sigma._atom_sampler
    return None


def _epoch_weights(g, alpha, t_theta, out):
    """Shot-noise weights exp(-(alpha * g / t_theta)^(1/alpha)) at epochs g."""
    np.multiply(g, alpha / t_theta, out=out)
    out **= 1.0 / alpha
    return np.exp(np.negative(out, out=out), out=out)


def _uniform_powers(u, t_theta, low):
    """Raise the uniforms ``u`` to 1/t_theta in place and return them; ``low``
    is a bool scratch array of u's shape.

    For U < cut = exp(-750 * t_theta) the exact U^(1/t_theta) is below
    e^-750 < 2^-1082, under half the smallest subnormal, so pow rounds it to
    +0 (a test checks that the installed pow does). Once cut, the share of
    such lanes, passes ``_UNDERFLOW_SWITCH``, they are set to 1 before the
    power and to 1 - 1 = +0 after it: the same bits, on pow's fast path."""
    cut = math.exp(-750.0 * t_theta)
    if cut > _UNDERFLOW_SWITCH:
        np.less(u, cut, out=low)
        np.maximum(u, low, out=u)
        u **= 1.0 / t_theta
        np.subtract(u, low, out=u)
    else:
        u **= 1.0 / t_theta
    return u


def _unit_sn_weigher(t_theta, n):
    """The weigher that turns an (m, n) block of uniforms U, in place, into
    the alpha = 1 shot-noise weights of the next m terms, yielded in one (n,)
    buffer: the running product of U^(1/t_theta), carried across calls. It
    has the law of exp(-Gamma_i / t_theta) without exponentials."""
    w = np.ones(n)

    def weigh(u):
        # row by row: np.multiply.accumulate and np.add.accumulate along
        # axis 0 of a (6, 8192) block took ten times as long
        for row in _uniform_powers(u, t_theta, np.empty(u.shape, dtype=bool)):
            yield np.multiply(w, row, out=w)
    return weigh


def _epoch_weigher(alpha, t_theta, n):
    """The weigher that turns an (m, n) block of exponentials E, in place,
    into the shot-noise weights of the next m terms at the epochs
    Gamma_i = E_1 + ... + E_i, whose running sum it carries across calls."""
    g = np.zeros(n)

    def weigh(e):
        for row in e:
            np.add(g, row, out=g)
            yield _epoch_weights(g, alpha, t_theta, row)
    return weigh


def _ta_weigh(u, alpha, npow):
    """Turn the uniforms ``u`` (V), in place, into the triangular-array
    weights (1 - V^(1/alpha))^npow, and return them."""
    u **= 1.0 / alpha
    np.subtract(1.0, u, out=u)
    u **= npow
    return u


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
    _check_count("k", k)
    _check_count("n", n)
    if not 0 < T < math.inf:
        raise ValidationError(f"T must be finite and > 0, got {T!r}")
    t_theta, draw = T * params.bdlm.theta, params.bdlm.base_sampler
    out = np.empty((params.dim, n))
    out[...] = (T * params.gamma)[:, None]
    atoms = _atoms_behind(draw)
    if params.alpha != 1.0:
        weigh = _epoch_weigher(params.alpha, t_theta, n)
        out = _series(weigh, rng.standard_exponential, k, draw, rng, out)
    elif atoms is not None:
        out = _atom_series(_unit_sn_weigher(t_theta, n), k, atoms, rng, out)
    else:
        out = _series(_unit_sn_weigher(t_theta, n), rng.random, k, draw, rng, out)
    return np.ascontiguousarray(out.T)


def sample_levy_path(params: LStarParams, T: float, k: int,
                     rng: np.random.Generator) -> LevyPathSkeleton:
    """Skeleton of the Levy process {X_t} with X_t ~ L*_alpha(t*nu, t*gamma),
    truncated at k shot-noise terms.

    Each term contributes the jump w_i Y_i at the uniformly placed time T*V_i;
    the marginal at t is the partial series restricted to times <= t.
    """
    if not 0 < T < math.inf:
        raise ValidationError(f"T must be finite and > 0, got {T!r}")
    _check_count("k", k)
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
    if not (0 < alpha < math.inf and 0 < c < math.inf):
        raise ValidationError(f"alpha and c must be finite and > 0, got "
                              f"alpha={alpha!r}, c={c!r}")
    try:
        return int(math.floor(c * float(n) ** alpha / alpha))
    except OverflowError:
        raise ValidationError(
            f"the TA array for c={c!r}, n={n!r} needs over 1e308 terms") from None


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
    _check_count("n_reps", n_reps)
    terms = ta_term_count(alpha, c, n)
    d = np.atleast_2d(np.asarray(nu0_sampler(rng, 1), dtype=float)).shape[1]  # probe draw
    out, atoms = np.zeros((d, n_reps)), _atoms_behind(nu0_sampler)
    weigh = lambda u: _ta_weigh(u, alpha, float(n))
    if atoms is not None:
        out = _atom_series(weigh, terms, atoms, rng, out)
    else:
        def draw(rng, m):
            return np.asarray(nu0_sampler(rng, m), dtype=float).reshape(m, d)

        out = _series(weigh, rng.random, terms, draw, rng, out)
    return np.ascontiguousarray(out.T)


# --------------------------------------------------------------------------
# DS: sums of Dickman draws along fixed directions
# --------------------------------------------------------------------------

def sample_ds_batch(sigma_k: SpectralMeasure, gd_tol: float, n_reps: int,
                    rng: np.random.Generator) -> np.ndarray:
    """n_reps draws from MD(sigma_k) for finite-support sigma_k.

    Sum over atoms of s_i * Y_i with independent Y_i ~ GD(a_i); exact apart
    from the GD series truncation controlled by ``gd_tol``.
    """
    _check_count("n_reps", n_reps)
    if sigma_k.variant != FINITE:
        raise UnsupportedMeasureError(
            "the DS sampler needs a finite-support spectral measure; "
            "discretize the measure first")
    out, tmp = np.zeros((sigma_k.dim, n_reps)), np.empty((sigma_k.dim, n_reps))
    for s_i, a_i in zip(sigma_k.directions, sigma_k.masses):
        y = sample_gd_batch(float(a_i), gd_tol, n_reps, rng)
        out += np.multiply(s_i[:, None], y, out=tmp)
    return np.ascontiguousarray(out.T)


# --------------------------------------------------------------------------
# distributional fixed point
# --------------------------------------------------------------------------

def fixed_point_map(x, w, u, theta: float):
    """The map (x, w, u) -> u^(1/theta) * (x + w) whose fixed point in law
    characterizes MD / Vervaat-perpetuity distributions.

    Accepts vectors or (n, d) batches for x and w; u may be scalar or (n,).
    """
    if not 0 < theta < math.inf:  # NaN fails too
        raise ValidationError(f"theta must be finite and > 0, got {theta!r}")
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


def series_terms(method: str, sigma: SpectralMeasure, k: int, gd_tol: float) -> int:
    """Series terms per replication of the ``generate_batch(method, sigma, k)``
    cell: k for SN, floor(mass * k) for TA, and for DS the GD terms summed
    over sigma's atoms. For DS on a measure that is not finite it is an upper
    bound, as the k atoms of its discretization have mass <= sigma.mass each
    and the GD term count grows with the mass."""
    if method == "SN":
        return k
    if method == "TA":
        return ta_term_count(1.0, sigma.mass, k)
    if sigma.variant == FINITE:
        return sum(gd_truncation_terms(float(a), gd_tol) for a in sigma.masses)
    return k * gd_truncation_terms(sigma.mass, gd_tol)


def check_cell_work(terms: int, n_reps: int) -> None:
    """Raise ValidationError when ``terms`` series terms on ``n_reps`` rows are
    over ``MAX_CELL_WORK``. A term costs a chunk's worth of interpreter time
    however few rows it runs, so at least ``_CHUNK`` rows are charged."""
    reps = max(n_reps, _CHUNK)
    if terms * reps > MAX_CELL_WORK:
        raise ValidationError(
            f"a cell of {terms} series terms x {reps} replications (at least "
            f"{_CHUNK} are charged) is over the budget of {MAX_CELL_WORK:.0e}")


def _cell_draw(method: str, sigma: SpectralMeasure, k: int, gd_tol: float):
    """``draw(m, rng)``, which returns m rows of the (method, sigma, k) cell of
    ``generate_batch`` drawn from ``rng``. The work that needs no draws is
    done here, once: the L*_1 parameters, DS's level-k discretization of a
    sigma that is not finite, and a finite sigma's guide table."""
    from .discretize import default_grid, discretize_angular

    if method == "SN":
        params = md_from_spectral(sigma)
        draw = lambda m, rng: sample_sn_batch(params, k, m, rng)
    elif method == "TA":
        draw = lambda m, rng: sample_ta_batch(1.0, sigma.sample_directions,
                                              sigma.mass, k, m, rng)
    else:
        if sigma.variant != FINITE:
            sigma = discretize_angular(sigma, default_grid(k))
        return lambda m, rng: sample_ds_batch(sigma, gd_tol, m, rng)
    if sigma.variant == FINITE:
        sigma._atom_sampler  # build the guide table once, not in each chunk
    return draw


def generate_batch(method: str, sigma: SpectralMeasure, k: int, n_reps: int,
                   seed: int, gd_tol: float = _DEFAULT_GD_TOL) -> SampleBatch:
    """Generate a SampleBatch from MD(sigma) by the named method.

    SN and TA use ``k`` as their tuning parameter. DS on a finite-support
    sigma is exact and records k = 0; on an angular-density sigma it first
    discretizes at level k with the default evenly spaced grid.

    The rows are drawn in chunks of ``_CHUNK`` rows, each from its own
    substream of ``seed`` (see the module docstring). ``k`` and ``n_reps``
    must be integers >= 0 (``k`` >= 1 for TA, its sharpness) and ``seed``
    one in [0, 2^64); a cell over ``MAX_CELL_WORK`` (see
    ``check_cell_work``) raises ValidationError before any work is done.
    """
    if method not in ("SN", "TA", "DS"):
        raise ValidationError(f"unknown method {method!r}")
    _check_count("k", k, 1 if method == "TA" else 0)
    _check_count("n_reps", n_reps)
    if not (_is_int(seed) and 0 <= seed < 2 ** 64):
        raise ValidationError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    check_cell_work(series_terms(method, sigma, k, gd_tol), n_reps)
    data = _run_chunks(_cell_draw(method, sigma, k, gd_tol), n_reps, seed)
    if method == "DS" and sigma.variant == FINITE:
        k = 0
    return SampleBatch(data=data, method=method, k=k, n_reps=n_reps, seed=seed)
