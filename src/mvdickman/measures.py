"""Domain types: spectral measures on the unit sphere, background driving
Levy measures (BDLMs), and parameter bundles for the L*_alpha family.

A spectral measure sigma is a finite Borel measure on S^{d-1}. It doubles as
the parameter of the multivariate Dickman distribution MD(sigma) and, via
``md_from_spectral``, as a sphere-supported BDLM. Two representations are
supported: finite support (atoms) and a 2-d angular density on [0, 2*pi). A
sigma known only through a direction sampler is the BDLM nu = sigma of
MD(sigma) = L*_1(sigma, 0), built by ``BDLM.from_sampler``.

All types are immutable after construction; samplers receive an explicit
``numpy.random.Generator`` and keep no hidden state.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .errors import UnsupportedMeasureError, ValidationError

TWO_PI = 2.0 * math.pi

#: spectral-measure variant tags
FINITE = "finite"
ANGULAR = "angular"

_UNIT_NORM_TOL = 1e-12
_MASS_CHECK_TOL = 1e-8
#: how far atom probabilities may sum from 1, and atom masses from the total
#: mass (relatively); Generator.choice's tolerance
_PROB_SUM_TOL = math.sqrt(np.finfo(float).eps)


def angle_to_direction(phi):
    """Map an angle to the unit vector (cos(phi), sin(phi)) in R^2.

    Angles outside [0, 2*pi) are reduced modulo 2*pi rather than rejected;
    NaN and +-inf raise ValidationError. Accepts a scalar or an array;
    returns shape (2,) or (n, 2).
    """
    phi = _reduce_angles(phi)
    return np.stack([np.cos(phi), np.sin(phi)], axis=-1)


def _reduce_angles(phi):
    """``phi`` as a float array of finite angles reduced modulo 2*pi."""
    phi = _real_array("angles", phi)
    # the reduction returns every angle in (0, 2*pi) unchanged, so skip its
    # copy then; zeros (-0.0 becomes +0.0) and the rest still take it, after
    # a check for NaN and +-inf, on which it warns
    if not (phi.size and 0.0 < phi.min() and phi.max() < TWO_PI):
        if not np.isfinite(phi).all():
            raise ValidationError("angles must be finite")
        phi = phi % TWO_PI
    return phi


def _as_unit_directions(directions, dim):
    """``directions`` as a (k, dim) float array of finite unit vectors."""
    s = np.atleast_2d(_real_array("directions", directions))
    if s.ndim != 2:
        raise ValidationError("directions must form a (k, d) array")
    if s.shape[1] != dim:
        raise ValidationError(f"directions have dim {s.shape[1]}, expected {dim}")
    # a coordinate beyond 1, NaN or +-inf rules a unit vector out; it is
    # refused before the squares, which overflow on a huge coordinate
    if not np.abs(s).max(initial=0.0) <= 1.0 + _UNIT_NORM_TOL:
        i = int(np.argmin((np.abs(s) <= 1.0 + _UNIT_NORM_TOL).all(axis=1)))
        raise ValidationError(f"direction {i} is {s[i]!r}, which cannot have unit norm: "
                              f"a coordinate is not finite or is beyond 1")
    norms = np.sqrt(np.einsum("ij,ij->i", s, s))
    good = np.abs(norms - 1.0) <= _UNIT_NORM_TOL
    if not good.all():
        i = int(np.argmin(good))
        raise ValidationError(
            f"direction {i} has |s|={norms[i]!r}; unit norm required within {_UNIT_NORM_TOL}"
        )
    return s


def _lock(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


# a plain int or float passes on its type alone, which is several times faster
# than the ``numbers`` ABC check; bools, NumPy scalars and the rest take that
# check, and bools fail it

def _is_int(value) -> bool:
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def _is_real(value) -> bool:
    return type(value) is float or type(value) is int or (
        isinstance(value, numbers.Real) and not isinstance(value, bool))


def _check_count(name: str, value, least: int = 0, below: int | None = None) -> int:
    """``value`` as an int; ValidationError naming ``name`` unless it is an
    integer, not a bool, >= ``least`` (and < ``below`` when given)."""
    if not (_is_int(value) and least <= value and (below is None or value < below)):
        span = f">= {least}" if below is None else f"in [{least}, {below})"
        raise ValidationError(f"{name} must be an integer {span}, got {value!r}")
    return int(value)


def _check_real(name: str, value, low: float = 0.0, high: float = math.inf) -> float:
    """``value`` as a float; ValidationError naming ``name`` unless it is a
    real number, not a bool, with ``low < value < high`` (NaN fails)."""
    if not (_is_real(value) and low < value < high):
        span = f"> {low:g}" if high == math.inf else f"in ({low:g}, {high:g})"
        raise ValidationError(f"{name} must be finite and {span}, got {value!r}")
    return float(value)


def _check_rows(rows, n: int) -> np.ndarray:
    """``rows`` as an index array; ValidationError unless it is a 1-D array
    of integers (not bools) in [0, n)."""
    rows = np.asarray(rows)
    if not (rows.ndim == 1 and rows.dtype.kind in "iu"
            and (not rows.size or 0 <= rows.min() and rows.max() < n)):
        raise ValidationError(f"rows must be a 1-D integer array with values in "
                              f"[0, {n}), got {rows!r}")
    return rows


def _real_array(name: str, values) -> np.ndarray:
    """``values`` as a float array; ValidationError naming ``name`` unless
    each entry is a real number, so bools, strings and other objects fail.
    An ndarray takes one dtype test, and an array of floats passes uncopied.
    Anything else (a list, nested lists, a scalar) takes one pass over its
    entries before NumPy converts them, which would turn a bool or a numeric
    string among floats into a float."""
    if not isinstance(values, np.ndarray):
        entries = np.asarray(values, dtype=object)
        for x in entries.flat:
            if not _is_real(x):
                raise ValidationError(f"{name} must be real numbers, got {x!r}")
        return entries.astype(float)
    if values.dtype.kind not in "iuf":
        raise ValidationError(f"{name} must be real numbers, got dtype {values.dtype}")
    return values.astype(float, copy=False)


class _AtomSampler:
    """Draws of ``points[i]`` with probability ``weights[i] / total``, for
    atoms that their SpectralMeasure or BDLM checked at construction.

    Inverse-CDF sampling with a guide table, the cutpoint method of Chen &
    Asau (1974; Devroye 1986, section III.2.4). ``p`` and its ``cdf`` are
    computed as ``Generator.choice`` computes them, and a draw consumes the
    same ``rng.random(n)``; the index returned is ``cdf.searchsorted(u,
    "right")`` bit for bit, so the stream equals that of
    ``points[rng.choice(len(p), size=n, p=p)]``. The table replaces the binary
    search by one lookup: with M a power of two, ``floor(u * M)`` and
    ``b / M`` are exact, and bucket b holds ``lo[b]``, the count of cut
    points <= b / M. ``open[b]`` is true when a cut point lies strictly
    inside bucket b, in (b / M, (b + 1) / M); a draw in any other bucket is
    ``lo[b]`` with no compare, and only draws in open buckets step past the
    cut points below them. M is the power of two at or above 64 r for r
    atoms, so that at most r of the M buckets are open and under 1/64 of
    the draws (1.2% on 200 atoms) take the compare; but it is at most 2^16
    (512 KiB of ``lo``) unless 4 r is more. The
    draws are gathered from a (d, r) copy of the points and returned as the
    (n, d) transpose of a C-ordered (d, n) array. ``indices`` is the lookup
    alone, for uniforms the caller drew. A call with ``rows`` draws all n
    uniforms and looks up only those rows.

    ``bound`` is the (d, 1) column 2^55 * max_j |points[j, c]|, +inf where
    that overflows: a sum that a weight w times it cannot reach in any
    coordinate absorbs every later draw weighted by at most w (see
    ``samplers._atom_series``).
    """

    def __init__(self, points, weights, total):
        cdf = (weights / total).cumsum()
        cdf /= cdf[-1]
        self.columns = np.ascontiguousarray(np.transpose(points))
        with np.errstate(over="ignore"):
            self.bound = np.ldexp(np.abs(self.columns).max(axis=1, keepdims=True), 55)
        self.cdf = cdf
        r = len(cdf)
        m = self.buckets = 1 << (max(4 * r, min(64 * r, 1 << 16)) - 1).bit_length()
        # from each cut point's bucket, in O(m + r) (a search per edge took
        # 0.3 ms at m = 2^14, and a table is built per cell): cdf * m is
        # exact, a cut point is <= b / m when ceil(cdf * m) <= b, and it lies
        # inside bucket floor(cdf * m) when cdf * m is not an integer
        scaled = cdf * m
        self.lo = np.bincount(np.ceil(scaled).astype(np.intp), minlength=m + 1).cumsum()[:m]
        below = np.floor(scaled)
        self.open = np.zeros(m, dtype=bool)
        self.open[below[below != scaled].astype(np.intp)] = True

    def indices(self, u: np.ndarray) -> np.ndarray:
        """Atom indices ``cdf.searchsorted(u, "right")`` of the uniforms ``u``,
        an array of any shape, bit for bit."""
        cdf, b = self.cdf, (u * self.buckets).astype(np.intp)
        idx = self.lo.take(b)
        # step on only the draws in open buckets: one pass over all draws,
        # and the rest over few, however dense the atoms. u may be a strided
        # view, so its few values are gathered once.
        flat = idx.reshape(-1)
        i = np.flatnonzero(self.open.take(b))
        ui = u[np.unravel_index(i, u.shape)]
        while i.size:
            step = cdf.take(flat[i]) <= ui
            i, ui = i[step], ui[step]
            flat[i] += 1
        return idx

    def __call__(self, rng: np.random.Generator, n: int, rows=None) -> np.ndarray:
        u = rng.random(n)
        return self.columns.take(self.indices(u if rows is None else u.take(rows)),
                                 axis=1).T


@dataclass(frozen=True)
class SpectralMeasure:
    """A finite measure sigma on the unit sphere S^{d-1}.

    Construction checks every invariant and locks the atom arrays, so no
    constructor or ``dataclasses.replace`` yields an invalid measure. The
    classmethods (``finite``, ``from_angles``, ``angular``, ``beta``) turn
    their inputs into these fields.
    """

    variant: str
    dim: int
    mass: float
    directions: np.ndarray | None = None
    masses: np.ndarray | None = None
    density: Callable[[np.ndarray], np.ndarray] | None = None
    angle_sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None
    #: shapes (a, b) asserting that ``density`` is the Beta(a, b) density of
    #: ``beta``; discretization takes its cell masses from them in closed form
    beta_params: tuple[float, float] | None = field(default=None, compare=False)

    def __post_init__(self):
        _set = partial(object.__setattr__, self)
        if self.variant not in (FINITE, ANGULAR):
            raise ValidationError(f"unknown variant {self.variant!r}")
        _set("dim", _check_count("dim", self.dim, 1))
        if self.variant == FINITE:
            s = _as_unit_directions(self.directions, self.dim)
            a = _real_array("masses", self.masses).reshape(-1)
            if len(a) != len(s):
                raise ValidationError("directions and masses must have equal length")
            if len(a) == 0:
                raise ValidationError("a finite spectral measure needs at least one atom")
            if not (a > 0).all():
                raise ValidationError("every atom mass a_i must be > 0")
            _set("directions", _lock(s))
            _set("masses", _lock(a))
        elif self.dim != 2:
            raise ValidationError("angular-density measures are bivariate only")
        elif not callable(self.density):
            raise ValidationError("an angular-density measure needs a callable density")
        mass = _check_real("total mass", self.mass)
        _set("mass", mass)
        if self.variant == FINITE and not abs(a.sum() - mass) <= _PROB_SUM_TOL * mass:
            raise ValidationError(f"total mass {mass!r} is not the sum of "
                                  f"the atom masses within {_PROB_SUM_TOL:.2g}")
        if self.beta_params is not None:
            if self.variant != ANGULAR:
                raise ValidationError("beta_params needs an angular-density measure")
            if np.shape(self.beta_params) != (2,):
                raise ValidationError(f"beta parameters must be a pair, got "
                                      f"{self.beta_params!r}")
            _set("beta_params", tuple(_check_real("beta parameters", x)
                                      for x in self.beta_params))

    # -- constructors ------------------------------------------------------

    @classmethod
    def finite(cls, directions, masses) -> "SpectralMeasure":
        """Finite-support measure sum_i a_i * delta_{s_i} with unit vectors s_i."""
        s = np.atleast_2d(_real_array("directions", directions))
        a = _real_array("masses", masses).reshape(-1)
        return cls(variant=FINITE, dim=s.shape[1], mass=float(a.sum()),
                   directions=s, masses=a)

    @classmethod
    def from_angles(cls, angles, masses) -> "SpectralMeasure":
        """Finite-support bivariate measure with atoms given by angles."""
        return cls.finite(angle_to_direction(angles), masses)

    @classmethod
    def angular(cls, density, mass=None, angle_sampler=None) -> "SpectralMeasure":
        """Bivariate measure with angular density f on [0, 2*pi).

        The total mass is integral of f, computed by quadrature; if ``mass``
        is supplied it is cross-checked against the quadrature value to 1e-8.
        ``angle_sampler(rng, n)`` draws angles from the normalized density and
        is required by the simulation methods (not by moment computations).
        """
        from .moments import _gauss_legendre_integrals  # deferred: avoids import cycle

        quad_mass = float(_gauss_legendre_integrals(density)[2:4, 0].sum())
        sigma = cls(variant=ANGULAR, dim=2, mass=quad_mass if mass is None else mass,
                    density=density, angle_sampler=angle_sampler)
        if not abs(quad_mass - sigma.mass) <= _MASS_CHECK_TOL:
            raise ValidationError(
                f"declared mass {mass} differs from quadrature mass {quad_mass}"
                f" by more than {_MASS_CHECK_TOL}"
            )
        return sigma

    @classmethod
    def beta(cls, a, b, mass=1.0) -> "SpectralMeasure":
        """Angular measure whose angle is 2*pi times a Beta(a, b) variable.

        Density on [0, 2*pi): mass * (2*pi)^(1-a-b) / B(a,b) * x^(a-1) (2*pi-x)^(b-1),
        uniform when a == b == 1.

        Above a + b = 386.4, (2*pi)^(1-a-b) is below the smallest normal
        float, so it keeps a few bits or none (B(a, b) follows, from
        a + b = 1020 at a = b). When either is, the density is taken in log
        space instead, as
        mass / (2*pi) * exp((a-1) log u + (b-1) log(1-u) - log B(a, b))
        with u = x / (2*pi); ``xlogy`` keeps 0 * log 0 = 0 at a = 1 or
        b = 1. Every other shape uses the first form, bit for bit.

        Either way the density carries the relative error of SciPy's
        ``beta`` and ``betaln``, up to 1e-12 on large shapes (``betaln(1,
        1000)`` is off by -9.9e-13 against mpmath); ``md_moments`` rescales
        its integrals by their own mass, which takes that error away, but any
        other user of ``density`` sees it.
        """
        from scipy.special import beta as beta_fn
        from scipy.special import betaln, xlog1py, xlogy

        # the density is built from these, so they are checked here, first
        a, b = _check_real("beta parameters", a), _check_real("beta parameters", b)
        mass = _check_real("total mass", mass)
        power, beta_ab = TWO_PI ** (1.0 - a - b), beta_fn(a, b)

        if min(power, beta_ab) >= sys.float_info.min:
            def density(x, _n=mass * power / beta_ab, _a=a, _b=b):
                x = np.asarray(x, dtype=float)
                with np.errstate(divide="ignore", over="ignore"):
                    out = _n * x ** (_a - 1.0) * (TWO_PI - x) ** (_b - 1.0)
                return out
        else:
            def density(x, _n=mass / TWO_PI, _log_b=betaln(a, b), _a=a, _b=b):
                u = np.asarray(x, dtype=float) / TWO_PI
                with np.errstate(divide="ignore", over="ignore"):
                    out = _n * np.exp(xlogy(_a - 1.0, u) + xlog1py(_b - 1.0, -u)
                                      - _log_b)
                return out

        if a == 1.0 and b == 1.0:
            def angle_sampler(rng, n):
                return TWO_PI * rng.random(n)
        else:
            def angle_sampler(rng, n, _a=a, _b=b):
                return TWO_PI * rng.beta(_a, _b, n)

        return cls(variant=ANGULAR, dim=2, mass=mass, density=density,
                   angle_sampler=angle_sampler, beta_params=(a, b))

    # -- behaviour ---------------------------------------------------------

    @cached_property
    def _atom_sampler(self) -> _AtomSampler:
        return _AtomSampler(self.directions, self.masses, self.mass)

    def sample_directions(self, rng: np.random.Generator, n: int,
                          rows=None) -> np.ndarray:
        """Draw n unit vectors from the normalized measure sigma/theta.

        Finite measures draw by inverse CDF with a guide table built on the
        first draw, once per measure; the draws and the generator stream are
        exactly those of ``directions[rng.choice(len(p), size=n, p=masses /
        mass)]``. ``n`` must be an integer >= 0.

        ``rows``, a 1-D integer array of values in [0, n), returns only those
        draws: ``sample_directions(rng, n)[rows]`` bit for bit, leaving the
        generator in the same state. All n are still drawn, as the stream
        requires, but only the rows asked for are mapped to directions (cos
        and sin of their angles, or their atoms). Anything else as ``rows``
        raises ValidationError. The series kernels pass the rows whose sum a
        term can still change.

        Draws are returned as the (n, d) transpose of a C-ordered (d, n)
        array (or (len(rows), d) of a (d, len(rows)) one), so that the series
        kernels read and multiply each coordinate as one contiguous row.
        """
        _check_count("n", n)
        if rows is not None:
            rows = _check_rows(rows, n)
        if self.variant == FINITE:
            return self._atom_sampler(rng, n, rows)
        if self.angle_sampler is None:
            raise UnsupportedMeasureError(
                "this angular measure carries no angle sampler; attach one "
                "to construct draws"
            )
        phi = _reduce_angles(self.angle_sampler(rng, n))
        if phi.shape != (n,):
            raise ValidationError(f"the angle sampler returned shape {phi.shape} "
                                  f"for n={n}, expected ({n},)")
        if rows is not None:
            phi = phi.take(rows)
        s = np.empty((2, len(phi)))
        np.cos(phi, out=s[0])
        np.sin(phi, out=s[1])
        return s.T

    def angles(self) -> np.ndarray:
        """Atom angles in [0, 2*pi) (finite bivariate measures only)."""
        if self.variant != FINITE or self.dim != 2:
            raise UnsupportedMeasureError("angles are defined for finite bivariate measures")
        return np.arctan2(self.directions[:, 1], self.directions[:, 0]) % TWO_PI


def evenly_spaced_spectral(r: int, mass: float = 1.0) -> SpectralMeasure:
    """Finite bivariate measure with r evenly spaced directions of equal mass."""
    _check_count("r", r, 1)
    mass = _check_real("total mass", mass)
    angles = TWO_PI * np.arange(r) / r
    return SpectralMeasure.from_angles(angles, np.full(r, mass / r))


# --------------------------------------------------------------------------
# JSON wire format
# --------------------------------------------------------------------------

def spectral_to_json(sigma: SpectralMeasure) -> dict:
    """Serialize a spectral measure to its JSON document.

    Finite bivariate measures become ``{"variant": "finite", "dim": 2,
    "atoms": [{"angle": ..., "mass": ...}, ...]}``; beta-density measures
    become ``{"variant": "beta", "alpha": ..., "beta": ..., "mass": ...}``.
    Other variants have no wire representation.
    """
    if sigma.variant == FINITE and sigma.dim == 2:
        ang = sigma.angles()
        atoms = [{"angle": float(a), "mass": float(m)}
                 for a, m in zip(ang, sigma.masses)]
        return {"variant": "finite", "dim": 2, "atoms": atoms}
    if sigma.variant == ANGULAR and sigma.beta_params is not None:
        a, b = sigma.beta_params
        return {"variant": "beta", "alpha": a, "beta": b, "mass": sigma.mass}
    raise UnsupportedMeasureError(
        f"no JSON representation for variant {sigma.variant!r} (dim={sigma.dim})"
    )


def _number(obj, key, where, default=None) -> float:
    """``obj[key]`` (or ``default`` when absent) as a float; ValidationError
    naming the field when it is missing or not a number."""
    try:
        value = obj[key] if default is None else obj.get(key, default)
    except (TypeError, KeyError):
        raise ValidationError(f"{where} needs a numeric {key!r} field") from None
    if not _is_real(value):
        raise ValidationError(f"{where} field {key!r} must be a number, got {value!r}")
    return float(value)


def spectral_from_json(doc: dict) -> SpectralMeasure:
    """Build a spectral measure from its JSON document."""
    try:
        variant = doc["variant"]
    except (TypeError, KeyError):
        raise ValidationError("spectral-measure document needs a 'variant' key") from None
    if variant == "finite":
        atoms = doc.get("atoms")
        if not isinstance(atoms, (list, tuple)) or not atoms:
            raise ValidationError("finite spectral measure needs a nonempty 'atoms' list")
        angles = [_number(a, "angle", f"atom {i}") for i, a in enumerate(atoms)]
        masses = [_number(a, "mass", f"atom {i}") for i, a in enumerate(atoms)]
        if _number(doc, "dim", "finite spectral measure", 2) != 2:
            raise ValidationError("JSON finite measures are bivariate (angles)")
        return SpectralMeasure.from_angles(angles, masses)
    if variant == "beta":
        where = "beta spectral measure"
        return SpectralMeasure.beta(_number(doc, "alpha", where),
                                    _number(doc, "beta", where),
                                    _number(doc, "mass", where, 1.0))
    raise ValidationError(f"unknown spectral-measure variant {variant!r}")


def model_label(doc: dict) -> str:
    """Short comma-free label for a model document, used in CSV output."""
    if doc.get("variant") == "beta":
        a, b, m = doc["alpha"], doc["beta"], doc.get("mass", 1.0)
        base = f"beta({a:g};{b:g})"
        return base if m == 1.0 else f"beta({a:g};{b:g};mass={m:g})"
    if doc.get("variant") == "finite":
        return f"finite(r={len(doc.get('atoms', []))})"
    return str(doc.get("variant", "model"))


# --------------------------------------------------------------------------
# BDLM and L*_alpha parameters
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BDLM:
    """A finite background driving Levy measure nu, described by its total
    mass theta and a sampler for the normalized measure nu_1 = nu/theta.

    Optional exact descriptions enable analytic moments: ``points``/``weights``
    for finite support, ``spectral`` for sphere-supported measures, or
    ``moment_data`` = (integral of y dnu, integral of y y^T dnu) supplied by
    the caller. Construction checks them and locks their arrays; a
    ``base_sampler`` of None on atoms draws from the atoms.

    The log-moment condition integral_{|x|>2} (log|x|)^alpha nu(dx) < infinity
    holds trivially for finite and sphere support; for a sampler-backed nu it
    cannot be checked from the sampler and is the caller's responsibility.
    Atoms at the origin are tolerated; the simulated law then corresponds to
    nu with the origin mass removed (uniform thinning), so moment formulas,
    which the origin cannot contribute to, remain valid.
    """

    theta: float
    dim: int
    base_sampler: Callable[[np.random.Generator, int], np.ndarray]
    points: np.ndarray | None = None
    weights: np.ndarray | None = None
    spectral: SpectralMeasure | None = None
    moment_data: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        _set = partial(object.__setattr__, self)
        theta = _check_real("theta", self.theta)
        _set("theta", theta)
        _set("dim", _check_count("dim", self.dim, 1))
        if self.points is not None or self.weights is not None:
            y = np.atleast_2d(_real_array("points", self.points))
            w = _real_array("weights", self.weights).reshape(-1)
            if y.ndim != 2 or y.shape[1] != self.dim or len(w) != len(y):
                raise ValidationError(f"points must form a (k, {self.dim}) array "
                                      f"with one weight per point")
            if not (np.isfinite(y).all() and (w > 0).all()):
                raise ValidationError("atom points must be finite and every weight > 0")
            if not abs(w.sum() - theta) <= _PROB_SUM_TOL * theta:
                raise ValidationError(f"theta {theta!r} is not the sum of the weights "
                                      f"within {_PROB_SUM_TOL:.2g}")
            y, w = _lock(y), _lock(w)
            _set("points", y)
            _set("weights", w)
            if self.base_sampler is None:
                _set("base_sampler", _AtomSampler(y, w, theta))
        if not callable(self.base_sampler):
            raise ValidationError("a BDLM needs a callable base_sampler")
        if self.moment_data is not None:
            try:
                first, second = (_lock(m) for m in self.moment_data)
            except (TypeError, ValueError):
                raise ValidationError("moment_data must be a pair of arrays") from None
            d = self.dim
            if not (first.shape == (d,) and second.shape == (d, d)
                    and np.isfinite(first).all() and np.isfinite(second).all()):
                raise ValidationError(f"moment_data must be finite arrays of shapes ({d},) "
                                      f"and ({d}, {d}), got {first.shape} and {second.shape}")
            _set("moment_data", (first, second))

    @classmethod
    def from_atoms(cls, points, weights) -> "BDLM":
        """Finite-support nu = sum_j w_j * delta_{y_j} (y_j need not be unit)."""
        y = np.atleast_2d(_real_array("points", points))
        w = _real_array("weights", weights).reshape(-1)
        return cls(theta=float(w.sum()), dim=y.shape[1], base_sampler=None,
                   points=y, weights=w)

    @classmethod
    def from_spectral(cls, sigma: SpectralMeasure) -> "BDLM":
        """Sphere-supported nu equal to the spectral measure sigma."""
        return cls(theta=sigma.mass, dim=sigma.dim, base_sampler=sigma.sample_directions,
                   points=sigma.directions, weights=sigma.masses, spectral=sigma)

    @classmethod
    def from_sampler(cls, theta, dim, base_sampler, moment_data=None) -> "BDLM":
        """nu known only through total mass and a sampler for nu_1.

        ``moment_data``, when given, is the pair (integral of y dnu, integral
        of y y^T dnu) of finite arrays with shapes (dim,) and (dim, dim).
        """
        return cls(theta=theta, dim=dim, base_sampler=base_sampler,
                   moment_data=moment_data)


@dataclass(frozen=True)
class LStarParams:
    """Parameters (alpha, nu, gamma) of an L*_alpha(nu, gamma) distribution."""

    alpha: float
    bdlm: BDLM
    gamma: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_real("alpha", self.alpha))
        g = self.gamma
        g = np.zeros(self.bdlm.dim) if g is None else _real_array("gamma", g).reshape(-1)
        if len(g) != self.bdlm.dim:
            raise ValidationError(
                f"gamma has dim {len(g)}, BDLM has dim {self.bdlm.dim}")
        if not np.isfinite(g).all():
            raise ValidationError(f"gamma must be finite, got {g!r}")
        object.__setattr__(self, "gamma", _lock(g))

    @property
    def dim(self) -> int:
        return self.bdlm.dim


def md_from_spectral(sigma: SpectralMeasure) -> LStarParams:
    """Parameters of MD(sigma) viewed as L*_1(sigma, 0).

    The multivariate Dickman distribution with spectral measure sigma is the
    alpha=1, zero-drift member of the L* family whose BDLM is sigma itself.
    """
    return LStarParams(alpha=1.0, bdlm=BDLM.from_spectral(sigma),
                       gamma=np.zeros(sigma.dim))


def gd_params(theta: float) -> LStarParams:
    """Parameters of the univariate generalized Dickman law GD(theta)."""
    theta = _check_real("theta", theta)
    return LStarParams(alpha=1.0, bdlm=BDLM.from_atoms([[1.0]], [theta]),
                       gamma=np.zeros(1))
