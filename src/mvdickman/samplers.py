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
about 135 ns on each to return +0. ``_powers``, the one power kernel of
GD, SN at alpha = 1 and TA's (1 - V)^n, writes +0 for the lanes below a cut
without pow, and GD's screen below goes through it too.

On a finite measure a term's weight and direction are both plain uniforms,
so SN at alpha = 1 and TA take (b, 2, n) blocks (``_atom_series``): row
[t, 0] holds term t's weight uniforms and row [t, 1] its direction
uniforms. A block takes one pass for its weights and one guide-table lookup
(``_AtomSampler.indices``) for its directions; then each term gathers its
atoms into the (d, n) buffer and is added in term order. ``_directions``,
which reads every sampler, picks this for a finite SpectralMeasure's
``sample_directions`` or a ``BDLM.from_atoms`` sampler. SN's weights there
never rise and fall geometrically (E log w_i = -i / (T*theta)), so from
about term 38 * T*theta on, ``_atom_series`` retires the rows whose sum no
later term can change by a bit: their uniforms are still drawn, but not
weighed, looked up or added, and the live rows are gathered into a smaller
sum once half have retired. TA keeps a whole block per lookup: checking it
one term at a time, as angles are below, ran 1.08x slower at k = 200 and
1.4x slower at k = 100 on 200 unequal atoms (2-vCPU Xeon, NumPy 2.4), as
its lookups then take a term each. Every other case runs ``_series``, one
term at a time: beta angles, as ``rng.beta`` takes a variable number of
stream values; SN at alpha != 1, whose exponentials are drawn by ziggurat;
and ``BDLM.from_sampler`` samplers, whose draws ``_directions`` checks.

DS sums one GD series per atom, and each atom keeps its few long (b, n)
block calls. Where the atom's mass theta is under about 0.0069, as on most
atoms of a 200-atom model and on about half of a beta(2,5) discretization
at k = 100 to 200, most of its terms after the first are too small for the
sum to see, and
``sample_gd_batch`` screens them: one compare over a block finds the
uniforms whose power can still change a sum, only those are raised, and
the rest weigh 0 (the proof is in its docstring). Above that mass the
screen costs more than the powers it saves: it doubled a beta(2,5) DS
chunk at k = 20.

On an angular measure (beta angles) the directions lie on the unit circle,
and ``_series`` skips the summands that cannot change a bit of their row's
sum, one term at a time, which needs no weight order: each checked term
still draws all n angles, so the stream is kept, but asks
``sample_directions(rng, n, rows=live)`` for the cos and sin of the live
rows only, and multiplies and adds only those. A check costs about five
passes over the rows and a scatter-add, so it runs only where most rows are
absorbed: SN at alpha = 1 checks from term ceil(55 log 2 * T*theta) on, as
``_atom_series`` does, and TA checks every term once its sharpness n is at
least 2 * 55 log 2 = 76.2, where a weight (1 - V)^n is absorbed unless V is
below about 55 log 2 / n. At k = 200 on beta(2,5) about a fifth of the rows
are mapped. SN at alpha != 1 keeps every term.

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
                       _check_real, _is_real, _lock, _real_array, md_from_spectral)

_DEFAULT_GD_TOL = 1e-12

#: share of lanes below its cut above which ``_powers`` masks them. On a
#: 2-vCPU AVX-512 Xeon with NumPy 2.4, pow spent about 135 ns on each lane
#: whose power underflows and the three mask calls about 1.4 ns a lane, so
#: the two cost the same near 1%.
_UNDERFLOW_SWITCH = 1e-2

#: cut above which ``_powers`` gathers the lanes it raises, and the GD
#: screen's cut above which ``sample_gd_batch`` screens its terms: under a
#: quarter of the lanes are then raised to the power. Screening
#: every atom of a beta(2,5) DS chunk at k = 20, where most masses are above
#: this, more than doubled its time (8.4 to 19.4 ms, one thread).
_SCREEN_SWITCH = 0.75

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

#: 55 log 2: the alpha = 1 SN weight w_i has E log w_i = -i / t_theta, so
#: from about term 55 log 2 * t_theta on a lane's w_i * max|Y| falls under
#: 2^-55 |sum| and ``_atom_series`` may retire it, or ``_series`` skip its
#: summand; before then, checking would cost more than it saves. TA's weight
#: (1 - V)^n is absorbed unless V is below about 55 log 2 / n, so TA checks
#: from sharpness 2 * 55 log 2 on, where under about half the lanes are live.
_SETTLE_TERMS = 55.0 * math.log(2.0)


@dataclass(frozen=True)
class SampleBatch:
    """N approximate draws with the method, k, n_reps and seed that made them.
    ``data`` is an (n_reps, d) array of finite reals, or an (n_reps,) one,
    read as d = 1."""

    data: np.ndarray
    method: str
    k: int
    n_reps: int
    seed: int

    def __post_init__(self):
        data = _real_array("sample data", self.data)
        if data.ndim not in (1, 2):
            raise ValidationError(f"sample data must be a 1-D or 2-D array, got shape "
                                  f"{data.shape}")
        if data.ndim == 1:
            data = data[:, None]
        if self.method not in ("SN", "TA", "DS"):
            raise ValidationError(f"method must be SN, TA or DS, got {self.method!r}")
        _check_count("k", self.k)
        _check_count("n_reps", self.n_reps)
        _check_count("seed", self.seed, 0, 2 ** 64)
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
        object.__setattr__(self, "horizon", _check_real("horizon T", self.horizon))
        drift = _real_array("drift", self.drift).reshape(-1)
        times = _real_array("times", self.times).reshape(-1)
        jumps = np.atleast_2d(_real_array("jumps", self.jumps))
        if jumps.shape != (len(times), len(drift)):
            raise ValidationError("jumps must hold one drift-sized vector per event time")
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
        """The marginal at time t, a real number in the closed range [0, T]."""
        if not (_is_real(t) and 0.0 <= t <= self.horizon):
            raise ValidationError(f"t must be a real number in [0, T] = "
                                  f"[0, {self.horizon!r}], got {t!r}")
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
    theta, tol = _check_real("theta", theta), _check_real("tol", tol)
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

    Where theta is small the weigher screens the terms after the first: with
    e = 1 / theta the exponent pow uses and cut = ``_screen_cut(e)``, at or
    below 2^(-60 / e), a lane whose U_i < cut gets the weight 0 instead of
    w_(i-1) * fl(U_i^e), and U_i^e is computed only for U_i >= cut. The sum
    keeps every bit. Proof: U_i^e < 2^-60 exactly, so p = fl(U_i^e) <= 2^-55
    with room for pow's error (a test checks the installed pow at the
    float just below the cut). Every summand is >= 0, so the lane's sum S
    before term i is a float >= w_(i-1), and the old weight
    w_i = fl(w_(i-1) * p) <= fl(2^-55 * S) by monotone rounding; the later
    weights never rise, and S never falls, so each later summand d has
    d <= fl(2^-55 * S) as well. With 2^E <= S < 2^(E+1): if 2^(E-54) is a
    float, d <= 2^(E-54), under half the gap 2^(E-52) above S, so S + d
    rounds to S; if it is not, 2^-55 * S is under half the least subnormal,
    so d = +0 and S + d = S. A zero sum has w_(i-1) = 0, hence w_i = +0 both
    ways. The weight 0 leaves S as it is too, and stays 0, so the two sums
    agree to the last bit. This needs summands >= 0 and holds for GD alone:
    an SN sum over several atoms can cancel across terms, and its sum need
    not exceed its weight.

    The screen costs a compare over the block, and pays where the expected
    share of lanes raised, 1 - cut, is under 1/4 (``_SCREEN_SWITCH``), that
    is theta below about 0.0069: the small masses of a finite or
    discretized measure.
    """
    _check_count("n", n)
    terms = gd_truncation_terms(theta, tol)
    weigh, out = _unit_sn_weigher(theta, n, screen=True), np.zeros(n)
    for block in _uniform_blocks(terms, (n,), rng):
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


def _series(weigh, variates, terms, draw, rng, out, bound=None, settle=1):
    """Add the first ``terms`` terms w_i * Y_i to the (d, n) array ``out`` and
    return it. Per term, the weigher ``weigh`` turns the variates
    ``variates(out=<(1, n) buffer>)`` into w_i; then the (n, d) array
    Y_i = ``draw(rng, n)`` is read through its (d, n) transpose, which is
    C-ordered for the package's direction samplers. Y_i is only read, as a
    sampler may return a shared array.

    A ``draw`` that takes ``rows`` (an angular SpectralMeasure's
    ``sample_directions``, whose draws have |Y_c| <= 1) may pass its
    ``bound`` from ``_directions``, 2^56: from term ``settle`` (counted from
    1) on, each term first finds the lanes (columns o of the sum) with
    fl(bound * w) < |o_c| in every coordinate c. Those lanes absorb the
    term: its summand d = fl(w * Y_c) has |d| <= 2 w < 2^-55 |o_c| (a
    margin of 2 over |Y_c| <= 1, whatever libm returns for cos and sin), so
    o_c + d rounds to o_c, by the proof in ``_atom_series`` applied to this
    one term, which needs no weight order. The term is drawn with
    ``draw(rng, n, rows=live)`` for the other lanes, so the stream is kept
    but only the live rows are mapped to directions, multiplied and added.
    ``rows`` goes by keyword, as a wrapped sampler may take
    ``(sigma, rng, n)`` positionally."""
    buf, v = np.empty_like(out), np.empty((1, out.shape[1]))
    if bound is not None:
        reach, absorbed = np.empty(out.shape[1]), np.empty(out.shape, dtype=bool)
        live = np.empty(out.shape[1], dtype=bool)
    for i in range(1, terms + 1):
        for w in weigh(variates(out=v)):
            if bound is None or i < settle:
                out += np.multiply(draw(rng, len(w)).T, w, out=buf)
                continue
            np.less(np.multiply(w, bound, out=reach), np.abs(out, out=buf),
                    out=absorbed)
            rows = np.flatnonzero(np.logical_not(absorbed.all(axis=0, out=live), out=live))
            y = np.multiply(draw(rng, len(w), rows=rows).T, w.take(rows))
            for o_c, y_c in zip(out, y):  # a row at a time: 2-3x faster than out[:, rows]
                o_c[rows] += y_c
    return out


def _atom_series(weigh, terms, atoms, rng, out, bound=None, settle=1):
    """``_series`` for uniform weight variates and directions from the
    ``_AtomSampler`` ``atoms``, a (b, 2, n) block of terms at a time: row
    [t, 0] holds term t's weight uniforms, row [t, 1] its direction uniforms.
    One lookup maps a block's direction uniforms to atoms, and each term
    gathers its atoms into one (d, n) buffer.

    Weights that never rise pass the atoms' ``bound`` B from
    ``_directions``: from term ``settle`` on, lanes are checked at each
    block end but the last. A lane (a column o of the sum) whose last weight
    w has fl(B_c * w) < |o_c| in every coordinate c is retired: its
    uniforms are still drawn, so the stream is kept, but they are no longer
    weighed, looked up or added, as no later term could change a bit of it.
    Proof: rounding is monotone and |o_c| is a float, so B_c * w < |o_c|
    exactly and B_c = 2^55 M_c is finite, M_c = max |y_c|.
    A later summand d = fl(w' * y_c) has w' <= w, so
    |w' * y_c| <= w * M_c < 2^-55 |o_c| < 2^(e-54), with
    2^e <= |o_c| < 2^(e+1). If 2^(e-54) is a float, |d| <= 2^(e-54): under
    half the gap from o_c to either neighbour, or at |o_c| = 2^e half the
    gap below, where the tie goes to the even o_c; so o_c + d rounds to o_c.
    If it is not, it is at most half the least subnormal, so d = +-0, and
    o_c + d = o_c as o_c != 0. An infinite o_c stays, as d is finite. A zero
    o_c, a NaN and an infinite B_c * w fail the test: they keep a lane live.

    Once at least half of the live lanes have retired, the rest are gathered
    into a smaller sum, and their weights are moved to the front of the
    buffer the weigher yields: the weigher must weigh the first len(row)
    lanes of its state, as ``_unit_sn_weigher`` does. The retired sums go
    back into ``out`` then, and the rest at the end."""
    lanes, o = None, out  # the columns of ``out`` still live, and their sum
    y, done = np.empty_like(out), 0
    for u in _uniform_blocks(terms, (2, out.shape[1]), rng):
        done += len(u)
        if lanes is not None:
            if not lanes.size:
                continue
            u = u.take(lanes, axis=2)
        for w, i in zip(weigh(u[:, 0]), atoms.indices(u[:, 1])):
            # the indices are in range; "clip" lets take write y unbuffered
            atoms.columns.take(i, axis=1, out=y, mode="clip")
            o += np.multiply(y, w, out=y)
        if bound is None or not settle <= done < terms:
            continue
        with np.errstate(invalid="ignore"):  # inf * 0 is NaN, which stays live
            settled = np.less(np.multiply(bound, w, out=y), np.abs(o)).all(axis=0)
        if 2 * np.count_nonzero(settled) >= len(settled):
            keep = np.flatnonzero(~settled)
            if lanes is not None:
                out[:, lanes] = o
            lanes = keep if lanes is None else lanes[keep]
            o, w[:len(keep)] = o.take(keep, axis=1), w[keep]
            y = np.empty_like(o)
    if lanes is not None:
        out[:, lanes] = o
    return out


def _directions(sampler, d):
    """(atoms, draw, bound) for ``sampler(rng, m)``, a sampler of m
    d-vectors. ``atoms`` is the ``_AtomSampler`` of a ``BDLM.from_atoms``
    sampler or of a finite SpectralMeasure's ``sample_directions``, else
    None. ``draw`` is the package's sampler itself, so its stream and spans
    are kept; any other is wrapped to read its draws by ``_real_array`` as
    m rows of d values, and has no ``bound``. ``bound`` is the absorption
    bound of the draws (see ``_atom_series`` and ``_series``): for atoms
    the (d, 1) column 2^55 * max_j |y_jc|, +inf where that overflows; for
    an angular measure's ``sample_directions``, the one sampler that takes
    ``rows``, 2^55 * 2, as its draws lie on the unit circle."""
    sigma = getattr(sampler, "__self__", None)
    if (isinstance(sigma, SpectralMeasure)
            and getattr(sampler, "__name__", None) == "sample_directions"):
        finite = sigma.variant == FINITE
        atoms, dim = (sigma._atom_sampler if finite else None), sigma.dim
    elif isinstance(sampler, _AtomSampler):
        atoms, dim, finite = sampler, len(sampler.columns), True
    else:
        def draw(rng, m):
            y = _real_array("direction draws", sampler(rng, m))
            if y.shape[:1] != (m,) or y.size != m * d:
                raise ValidationError(f"direction draws must be {m} vectors of "
                                      f"dimension {d}, got shape {y.shape}")
            return y.reshape(m, d)
        return None, draw, None
    if dim != d:
        raise ValidationError(f"direction draws have dimension {dim}, expected {d}")
    if not finite:
        return None, sampler, 2.0 ** 56
    with np.errstate(over="ignore"):
        return atoms, sampler, np.ldexp(np.abs(atoms.columns).max(axis=1, keepdims=True), 55)


def _epoch_weights(g, alpha, t_theta, out):
    """Shot-noise weights exp(-(alpha * g / t_theta)^(1/alpha)) at epochs g."""
    np.multiply(g, alpha / t_theta, out=out)
    out **= 1.0 / alpha
    return np.exp(np.negative(out, out=out), out=out)


def _powers(u, power, cut):
    """Raise the uniforms ``u`` to ``power`` in place, write +0 wherever
    U < ``cut``, and return them.

    The underflow cut exp(-750 / power) keeps the bits of ``u ** power``:
    below it the exact U^power is below e^-750 < 2^-1082, under half the
    smallest subnormal, so pow rounds it to +0 (a test checks that the
    installed pow does). A higher cut is GD's screen (see
    ``sample_gd_batch``) and must pass ``_SCREEN_SWITCH``. The cut, the
    share of uniform lanes below it, picks the method, and all three give
    the same bits: above ``_SCREEN_SWITCH`` only the lanes at or above cut
    are gathered, raised and put back; above ``_UNDERFLOW_SWITCH`` the low
    lanes are set to 1 before the power and to 1 - 1 = +0 after it, on
    pow's fast path; otherwise every lane is raised."""
    if cut > _SCREEN_SWITCH:
        live = np.flatnonzero(u >= cut)
        p = u.take(live)
        p **= power
        u.fill(0.0)
        u.put(live, p)
    elif cut > _UNDERFLOW_SWITCH:
        low = u < cut
        np.maximum(u, low, out=u)
        u **= power
        np.subtract(u, low, out=u)
    elif power != 1.0:  # u **= 1.0 would copy u onto itself
        u **= power
    return u


def _screen_cut(power):
    """The GD screen's cut for uniforms raised to ``power``: a float at or
    below 2^(-60 / power), so that U < cut has U^power < 2^-60 exactly.
    2^-50 is 8 units in the last place of a cut in (1/2, 1], more than the
    division and the power can round it up."""
    return 2.0 ** (-60.0 / power) - 2.0 ** -50


def _unit_sn_weigher(t_theta, n, screen=False):
    """The weigher that turns an (m, n) block of uniforms U, in place, into
    the alpha = 1 shot-noise weights of the next m terms, yielded in one (n,)
    buffer: the running product of U^(1/t_theta), carried across calls. It
    has the law of exp(-Gamma_i / t_theta) without exponentials, and never
    rises. A block of m < n lanes is weighed on the first m lanes of the
    state (see ``_atom_series``).

    ``_powers`` raises each term at the underflow cut. ``screen`` is for GD
    alone (see ``sample_gd_batch``): where the cut ``_screen_cut`` passes
    ``_SCREEN_SWITCH``, it is the cut of every term after the first, whose
    zeros then stand for weights that no later sum can see."""
    w, power = np.ones(n), 1.0 / t_theta
    cut = math.exp(-750.0 / power) if power else 0.0  # an infinite T * theta underflows nowhere
    later = _screen_cut(power) if screen else 0.0
    later = later if later > _SCREEN_SWITCH else cut

    def weigh(u):
        # row by row: np.multiply.accumulate and np.add.accumulate along
        # axis 0 of a (6, 8192) block took ten times as long
        nonlocal cut
        rest, live = u, w[:u.shape[1]]
        if cut != later:  # the first term has a cut of its own
            _powers(u[:1], power, cut)
            rest, cut = u[1:], later
        _powers(rest, power, cut)
        for row in u:
            yield np.multiply(live, row, out=live)
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
    weights (1 - V^(1/alpha))^npow, and return them. The last power goes
    through ``_powers`` at the underflow cut e^(-750 / npow), which keeps
    the lanes below it off pow's slow path from sharpness 163 on, where
    they are over 1%."""
    if alpha != 1.0:  # u **= 1.0 would copy u onto itself
        u **= 1.0 / alpha
    np.subtract(1.0, u, out=u)
    return _powers(u, npow, math.exp(-750.0 / npow))


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
    T = _check_real("T", T)
    t_theta = T * params.bdlm.theta
    atoms, draw, bound = _directions(params.bdlm.base_sampler, params.dim)
    out, settle = np.empty((params.dim, n)), math.ceil(_SETTLE_TERMS * t_theta)
    out[...] = (T * params.gamma)[:, None]
    if params.alpha != 1.0:
        weigh = _epoch_weigher(params.alpha, t_theta, n)
        out = _series(weigh, rng.standard_exponential, k, draw, rng, out)
    elif atoms is not None:
        out = _atom_series(_unit_sn_weigher(t_theta, n), k, atoms, rng, out, bound, settle)
    else:  # an angular measure's draws skip absorbed summands
        out = _series(_unit_sn_weigher(t_theta, n), rng.random, k, draw, rng, out,
                      bound, settle)
    return np.ascontiguousarray(out.T)


def sample_levy_path(params: LStarParams, T: float, k: int,
                     rng: np.random.Generator) -> LevyPathSkeleton:
    """Skeleton of the Levy process {X_t} with X_t ~ L*_alpha(t*nu, t*gamma),
    truncated at k shot-noise terms.

    Each term contributes the jump w_i Y_i at the uniformly placed time T*V_i;
    the marginal at t is the partial series restricted to times <= t.
    """
    T = _check_real("T", T)
    _check_count("k", k)
    bdlm = params.bdlm
    _, draw, _ = _directions(bdlm.base_sampler, bdlm.dim)
    if k == 0:
        return LevyPathSkeleton(T, params.gamma, np.empty(0), np.empty((0, bdlm.dim)))
    g = np.cumsum(rng.standard_exponential(k))
    w = _epoch_weights(g, params.alpha, T * bdlm.theta, g)
    y = draw(rng, k)
    times = T * rng.random(k)
    order = np.argsort(times, kind="stable")
    return LevyPathSkeleton(T, params.gamma, times[order], w[order, None] * y[order])


# --------------------------------------------------------------------------
# TA: triangular-array approximation
# --------------------------------------------------------------------------

def ta_term_count(alpha: float, c: float, n: int) -> int:
    """Number of array terms, floor(c * n^alpha / alpha)."""
    _check_count("n", n, 1)
    alpha, c = _check_real("alpha", alpha), _check_real("c", c)
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
    nu0_sampler : callable(rng, size) -> size real d-vectors, as a (size, d)
        array or nested lists; a first draw of size 1 gives d
    n : sharpness of the power weights (the tuning parameter)
    """
    _check_count("n_reps", n_reps)
    terms = ta_term_count(alpha, c, n)
    d = np.atleast_2d(_real_array("direction draws", nu0_sampler(rng, 1))).shape[1]  # probe draw
    atoms, draw, bound = _directions(nu0_sampler, d)
    out, weigh = np.zeros((d, n_reps)), lambda u: _ta_weigh(u, alpha, float(n))
    if atoms is not None:
        out = _atom_series(weigh, terms, atoms, rng, out)
    else:
        # angular directions: from sharpness 2 * 55 log 2 on, under about half
        # of a term's lanes are live, and checking every term pays
        out = _series(weigh, rng.random, terms, draw, rng, out,
                      bound if n >= 2.0 * _SETTLE_TERMS else None)
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
    _check_real("gd_tol", gd_tol)
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

    Accepts vectors or (n, d) batches of reals for x and w, of one shape; u
    may be a scalar, or (n,) for a batch.
    """
    theta = _check_real("theta", theta)
    x, w, u = _real_array("x", x), _real_array("w", w), _real_array("u", u)
    if not (x.ndim in (1, 2) and w.shape == x.shape and u.shape in ((), x.shape[:-1])):
        raise ValidationError(f"x and w must be vectors or (n, d) batches of one shape, "
                              f"and u a scalar or (n,); got shapes {x.shape}, {w.shape} "
                              f"and {u.shape}")
    if not ((u > 0.0) & (u < 1.0)).all():  # NaN fails too
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
    must be integers >= 0 (``k`` >= 1 for TA, its sharpness), ``seed``
    one in [0, 2^64) and ``gd_tol`` a finite real > 0, whatever the method;
    a cell over ``MAX_CELL_WORK`` (see
    ``check_cell_work``) raises ValidationError before any work is done.
    """
    if method not in ("SN", "TA", "DS"):
        raise ValidationError(f"unknown method {method!r}")
    _check_count("k", k, 1 if method == "TA" else 0)
    _check_count("n_reps", n_reps)
    _check_count("seed", seed, 0, 2 ** 64)
    _check_real("gd_tol", gd_tol)
    check_cell_work(series_terms(method, sigma, k, gd_tol), n_reps)
    data = _run_chunks(_cell_draw(method, sigma, k, gd_tol), n_reps, seed)
    if method == "DS" and sigma.variant == FINITE:
        k = 0
    return SampleBatch(data=data, method=method, k=k, n_reps=n_reps, seed=seed)
