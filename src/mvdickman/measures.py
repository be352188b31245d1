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
from functools import cached_property
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

    Angles outside [0, 2*pi) are reduced modulo 2*pi rather than rejected.
    Accepts a scalar or an array; returns shape (2,) or (n, 2).
    """
    phi = _reduce_angles(phi)
    return np.stack([np.cos(phi), np.sin(phi)], axis=-1)


def _reduce_angles(phi):
    """``phi`` as a float array reduced modulo 2*pi."""
    phi = np.asarray(phi, dtype=float)
    # the reduction returns every angle in (0, 2*pi) unchanged, so skip its
    # copy then; zeros (-0.0 becomes +0.0), NaN and the rest still take it
    if not (phi.size and 0.0 < phi.min() and phi.max() < TWO_PI):
        phi = phi % TWO_PI
    return phi


def _as_unit_directions(directions, dim=None):
    s = np.atleast_2d(np.asarray(directions, dtype=float))
    if s.ndim != 2:
        raise ValidationError("directions must form a (k, d) array")
    if dim is not None and s.shape[1] != dim:
        raise ValidationError(f"directions have dim {s.shape[1]}, expected {dim}")
    if not np.isfinite(s).all():
        raise ValidationError("directions must be finite")
    norms = np.linalg.norm(s, axis=1)
    bad = np.abs(norms - 1.0) > _UNIT_NORM_TOL
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(
            f"direction {i} has |s|={norms[i]!r}; unit norm required within {_UNIT_NORM_TOL}"
        )
    return s


def _lock(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_count(name: str, value, least: int = 0) -> None:
    """Raise ValidationError naming ``name`` unless ``value`` is an integer
    >= ``least``."""
    if not (_is_int(value) and value >= least):
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")


class _AtomSampler:
    """Draws of ``points[i]`` with probability ``weights[i] / total``.

    Inverse-CDF sampling with a guide table, the cutpoint method of Chen &
    Asau (1974; Devroye 1986, section III.2.4). ``p`` and its ``cdf`` are
    computed as ``Generator.choice`` computes them, and a draw consumes the
    same ``rng.random(n)``; the index returned is ``cdf.searchsorted(u,
    "right")`` bit for bit, so the stream equals that of
    ``points[rng.choice(len(p), size=n, p=p)]``. The table replaces the binary
    search by one lookup: with M a power of two, ``floor(u * M)`` and
    ``b / M`` are exact, and bucket b starts the search at the first cut
    point above ``b / M``. The draws are gathered from a (d, r) copy of the
    points and returned as the (n, d) transpose of a C-ordered (d, n) array.
    ``indices`` is the lookup alone, for uniforms the caller drew.
    """

    def __init__(self, points, weights, total):
        p = np.asarray(weights, dtype=float) / total
        if len(p) != len(points):
            raise ValidationError("points and weights must have equal length")
        if not np.isfinite(points).all():
            raise ValidationError("atom points must be finite")
        if not (np.isfinite(p).all() and (p >= 0).all()
                and abs(math.fsum(p) - 1.0) <= _PROB_SUM_TOL):
            raise ValidationError(
                f"atom weights must be finite, >= 0 and sum to the total mass "
                f"{total!r} within a relative {_PROB_SUM_TOL:.2g}")
        cdf = p.cumsum()
        cdf /= cdf[-1]
        self.columns = np.ascontiguousarray(np.transpose(points))
        self.cdf = cdf
        self.buckets = 1 << (4 * len(p) - 1).bit_length()
        self.lo = cdf.searchsorted(np.arange(self.buckets) / self.buckets, "right")

    def indices(self, u: np.ndarray) -> np.ndarray:
        """Atom indices ``cdf.searchsorted(u, "right")`` of the uniforms ``u``,
        an array of any shape, bit for bit."""
        cdf = self.cdf
        idx = self.lo.take((u * self.buckets).astype(np.intp))
        # step on only the draws whose bucket holds cut points below u: one
        # pass over all draws, and the rest over few, however dense the atoms.
        # u may be a strided view, so its few values are gathered once.
        flat = idx.reshape(-1)
        i = np.flatnonzero(cdf.take(idx) <= u)
        ui = u[np.unravel_index(i, u.shape)]
        while i.size:
            flat[i] += 1
            step = cdf.take(flat[i]) <= ui
            i, ui = i[step], ui[step]
        return idx

    def __call__(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.columns.take(self.indices(rng.random(n)), axis=1).T


@dataclass(frozen=True)
class SpectralMeasure:
    """A finite measure sigma on the unit sphere S^{d-1}.

    Use the classmethod constructors (``finite``, ``from_angles``,
    ``angular``, ``beta``) rather than the raw dataclass constructor; they
    validate the invariants and fill the derived fields.
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

    # -- constructors ------------------------------------------------------

    @classmethod
    def finite(cls, directions, masses) -> "SpectralMeasure":
        """Finite-support measure sum_i a_i * delta_{s_i} with unit vectors s_i."""
        s = _as_unit_directions(directions)
        a = np.asarray(masses, dtype=float).reshape(-1)
        if len(a) != len(s):
            raise ValidationError("directions and masses must have equal length")
        if len(a) == 0:
            raise ValidationError("a finite spectral measure needs at least one atom")
        if not np.all(a > 0):
            raise ValidationError("every atom mass a_i must be > 0")
        theta = float(a.sum())
        if not math.isfinite(theta) or theta <= 0:
            raise ValidationError("total mass must be finite and > 0")
        return cls(variant=FINITE, dim=s.shape[1], mass=theta,
                   directions=_lock(s), masses=_lock(a))

    @classmethod
    def from_angles(cls, angles, masses) -> "SpectralMeasure":
        """Finite-support bivariate measure with atoms given by angles."""
        angles = np.asarray(angles, dtype=float)
        if not np.isfinite(angles).all():
            raise ValidationError("atom angles must be finite")
        return cls.finite(angle_to_direction(angles), masses)

    @classmethod
    def angular(cls, density, mass=None, angle_sampler=None) -> "SpectralMeasure":
        """Bivariate measure with angular density f on [0, 2*pi).

        The total mass is integral of f, computed by quadrature; if ``mass``
        is supplied it is cross-checked against the quadrature value to 1e-8.
        ``angle_sampler(rng, n)`` draws angles from the normalized density and
        is required by the simulation methods (not by moment computations).
        """
        from .moments import integrate_angular  # deferred: avoids import cycle

        quad_mass = integrate_angular(lambda x: np.ones_like(x), density)
        if not math.isfinite(quad_mass) or quad_mass <= 0:
            raise ValidationError("total mass (integral of density) must be finite and > 0")
        if mass is not None and abs(quad_mass - mass) > _MASS_CHECK_TOL:
            raise ValidationError(
                f"declared mass {mass} differs from quadrature mass {quad_mass}"
                f" by more than {_MASS_CHECK_TOL}"
            )
        theta = float(mass if mass is not None else quad_mass)
        return cls(variant=ANGULAR, dim=2, mass=theta, density=density,
                   angle_sampler=angle_sampler)

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
        """
        from scipy.special import beta as beta_fn
        from scipy.special import betaln, xlog1py, xlogy

        if not (0 < a < math.inf and 0 < b < math.inf):
            raise ValidationError("beta parameters must be finite and > 0")
        if mass <= 0 or not math.isfinite(mass):
            raise ValidationError("total mass must be finite and > 0")
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

        sigma = cls(variant=ANGULAR, dim=2, mass=float(mass), density=density,
                    angle_sampler=angle_sampler, beta_params=(float(a), float(b)))
        return sigma

    # -- behaviour ---------------------------------------------------------

    def validate(self) -> None:
        """Re-check the construction invariants, raising ValidationError."""
        if self.variant not in (FINITE, ANGULAR):
            raise ValidationError(f"unknown variant {self.variant!r}")
        if not math.isfinite(self.mass) or self.mass <= 0:
            raise ValidationError("total mass must be finite and > 0")
        if self.variant == FINITE:
            _as_unit_directions(self.directions, self.dim)
            if not np.all(self.masses > 0):
                raise ValidationError("every atom mass a_i must be > 0")
            if not abs(math.fsum(self.masses) - self.mass) <= _PROB_SUM_TOL * self.mass:
                raise ValidationError(f"total mass {self.mass!r} is not the sum of "
                                      f"the atom masses within {_PROB_SUM_TOL:.2g}")
        if self.variant == ANGULAR and self.dim != 2:
            raise ValidationError("angular-density measures are bivariate only")
        if self.variant == ANGULAR and not callable(self.density):
            raise ValidationError("an angular-density measure needs a callable density")
        if self.beta_params is not None:
            if self.variant != ANGULAR:
                raise ValidationError("beta_params needs an angular-density measure")
            shapes = np.asarray(self.beta_params, dtype=float)
            if shapes.shape != (2,) or not np.all((shapes > 0) & (shapes < math.inf)):
                raise ValidationError("beta parameters must be two finite numbers > 0")

    @cached_property
    def _atom_sampler(self) -> _AtomSampler:
        return _AtomSampler(self.directions, self.masses, self.mass)

    def sample_directions(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n unit vectors from the normalized measure sigma/theta.

        Finite measures draw by inverse CDF with a guide table built once per
        measure; the draws and the generator stream are exactly those of
        ``directions[rng.choice(len(p), size=n, p=masses / mass)]``. The first
        draw checks the atoms and raises ValidationError on non-finite
        directions or masses that do not sum to ``mass``.

        Draws are returned as the (n, d) transpose of a C-ordered (d, n)
        array, so that the series kernels read and multiply each coordinate
        as one contiguous row.
        """
        if self.variant == FINITE:
            return self._atom_sampler(rng, n)
        if self.angle_sampler is None:
            raise UnsupportedMeasureError(
                "this angular measure carries no angle sampler; attach one "
                "to construct draws"
            )
        phi = _reduce_angles(self.angle_sampler(rng, n))
        s = np.empty((2, n))
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
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
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
    the caller.

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
        if not math.isfinite(self.theta) or self.theta <= 0:
            raise ValidationError("theta = nu(R^d) must be finite and > 0")
        if self.dim < 1:
            raise ValidationError("dim must be >= 1")

    @classmethod
    def from_atoms(cls, points, weights) -> "BDLM":
        """Finite-support nu = sum_j w_j * delta_{y_j} (y_j need not be unit)."""
        y = np.atleast_2d(np.asarray(points, dtype=float))
        w = np.asarray(weights, dtype=float).reshape(-1)
        if not np.all(w > 0):
            raise ValidationError("every weight must be > 0")
        theta = float(w.sum())
        y = _lock(y)
        w = _lock(w)
        return cls(theta=theta, dim=y.shape[1],
                   base_sampler=_AtomSampler(y, w, theta), points=y, weights=w)

    @classmethod
    def from_spectral(cls, sigma: SpectralMeasure) -> "BDLM":
        """Sphere-supported nu equal to the spectral measure sigma."""
        sigma.validate()
        points = sigma.directions if sigma.variant == FINITE else None
        weights = sigma.masses if sigma.variant == FINITE else None
        return cls(theta=sigma.mass, dim=sigma.dim,
                   base_sampler=sigma.sample_directions,
                   points=points, weights=weights, spectral=sigma)

    @classmethod
    def from_sampler(cls, theta, dim, base_sampler, moment_data=None) -> "BDLM":
        """nu known only through total mass and a sampler for nu_1.

        ``moment_data``, when given, is the pair (integral of y dnu, integral
        of y y^T dnu) of finite arrays with shapes (dim,) and (dim, dim).
        """
        if moment_data is not None:
            try:
                first, second = (_lock(m) for m in moment_data)
            except (TypeError, ValueError):
                raise ValidationError("moment_data must be a pair of arrays") from None
            if first.shape != (dim,) or second.shape != (dim, dim):
                raise ValidationError(
                    f"moment_data needs shapes ({dim},) and ({dim}, {dim}), got "
                    f"{first.shape} and {second.shape}")
            if not (np.isfinite(first).all() and np.isfinite(second).all()):
                raise ValidationError("moment_data must be finite")
            moment_data = first, second
        return cls(theta=float(theta), dim=int(dim), base_sampler=base_sampler,
                   moment_data=moment_data)


@dataclass(frozen=True)
class LStarParams:
    """Parameters (alpha, nu, gamma) of an L*_alpha(nu, gamma) distribution."""

    alpha: float
    bdlm: BDLM
    gamma: np.ndarray = None

    def __post_init__(self):
        if not math.isfinite(self.alpha) or self.alpha <= 0:
            raise ValidationError("alpha must be finite and > 0")
        g = self.gamma
        g = np.zeros(self.bdlm.dim) if g is None else np.asarray(g, dtype=float).reshape(-1)
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
    sigma.validate()
    return LStarParams(alpha=1.0, bdlm=BDLM.from_spectral(sigma),
                       gamma=np.zeros(sigma.dim))


def gd_params(theta: float) -> LStarParams:
    """Parameters of the univariate generalized Dickman law GD(theta)."""
    if theta <= 0:
        raise ValidationError("theta must be > 0")
    return LStarParams(alpha=1.0, bdlm=BDLM.from_atoms([[1.0]], [theta]),
                       gamma=np.zeros(1))
