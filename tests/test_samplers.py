import functools
import math
import os
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import mvdickman as mv
from mvdickman.errors import UnsupportedMeasureError, ValidationError


def se_mean(var, n):
    return math.sqrt(var / n)


class TestGdTruncation:
    def test_bound_is_tight(self):
        for theta, tol in ((1.0, 1e-12), (0.02, 1e-12), (2.0, 1e-10), (5.0, 1e-8)):
            k = mv.gd_truncation_terms(theta, tol)
            q = theta / (theta + 1.0)
            assert (theta + 1.0) * q ** (k + 1) <= tol
            if k > 0:
                assert (theta + 1.0) * q ** k > tol  # k is the smallest such

    def test_theta_one_needs_forty_terms(self):
        assert mv.gd_truncation_terms(1.0, 1e-12) == 40

    def test_validation(self):
        with pytest.raises(ValidationError):
            mv.gd_truncation_terms(0.0, 1e-12)
        with pytest.raises(ValidationError):
            mv.gd_truncation_terms(1.0, 0.0)

    @pytest.mark.parametrize("theta, tol", [(math.inf, 1e-12), (math.nan, 1e-12),
                                            (1.0, math.nan)])
    def test_non_finite_inputs_rejected(self, theta, tol):
        # theta = inf once ended in "math domain error" inside sample_gd_batch
        with pytest.raises(ValidationError, match="finite"):
            mv.sample_gd_batch(theta, tol, 4, np.random.default_rng(0))


class TestSampleGd:
    def test_theta_one_moments(self):
        rng = np.random.default_rng(100)
        x = mv.sample_gd_batch(1.0, 1e-12, 200_000, rng)
        # GD(1): mean 1 (var 1/2), var 1/2 (4th central moment 1)
        assert abs(x.mean() - 1.0) <= 5 * se_mean(0.5, len(x))
        assert abs(x.var(ddof=1) - 0.5) <= 5 * se_mean(0.75, len(x))

    def test_theta_two_moments(self):
        rng = np.random.default_rng(101)
        x = mv.sample_gd_batch(2.0, 1e-12, 200_000, rng)
        # GD(2): mean 2, var 1; central mu4 = kappa4 + 3 kappa2^2 = 3.5
        assert abs(x.mean() - 2.0) <= 5 * se_mean(1.0, len(x))
        assert abs(x.var(ddof=1) - 1.0) <= 5 * se_mean(2.5, len(x))

    def test_draws_nonnegative(self):
        rng = np.random.default_rng(102)
        assert np.all(mv.sample_gd_batch(0.5, 1e-10, 10_000, rng) >= 0.0)

    def test_scalar_draw(self):
        x = mv.sample_gd_batch(1.0, 1e-12, 1, np.random.default_rng(0))
        assert x.shape == (1,) and x.dtype == float


class TestSampleSn:
    def test_point_mass_direction(self):
        sigma = mv.SpectralMeasure.finite([[1.0, 0.0]], [1.0])
        params = mv.md_from_spectral(sigma)
        rng = np.random.default_rng(200)
        x = mv.sample_sn_batch(params, 60, 100_000, rng)
        assert np.all(x[:, 1] == 0.0)
        assert abs(x[:, 0].mean() - 1.0) <= 5 * se_mean(0.5, len(x))

    def test_k_zero_returns_drift(self):
        bd = mv.BDLM.from_atoms([[1.0, 0.0]], [1.0])
        params = mv.LStarParams(alpha=1.0, bdlm=bd, gamma=[0.25, -0.5])
        x = mv.sample_sn_batch(params, 0, 7, np.random.default_rng(0))
        np.testing.assert_array_equal(x, np.tile([0.25, -0.5], (7, 1)))

    def test_general_alpha_point_mass(self):
        # alpha=2, nu=delta_1: mean Gamma(2)=1, var Gamma(2)/4
        params = mv.LStarParams(alpha=2.0, bdlm=mv.BDLM.from_atoms([[1.0]], [1.0]))
        rng = np.random.default_rng(201)
        x = mv.sample_sn_batch(params, 400, 200_000, rng)[:, 0]
        assert abs(x.mean() - 1.0) <= 5 * se_mean(0.25, len(x))
        assert abs(x.var(ddof=1) - 0.25) <= 0.01

    def test_truncation_bias_bound(self):
        # |empirical mean - theta| <= (theta+1) q^{k+1} + 4 SE for alpha=1
        sigma = mv.SpectralMeasure.finite([[1.0, 0.0]], [1.0])
        params = mv.md_from_spectral(sigma)
        rng = np.random.default_rng(202)
        for k in (10, 20):
            x = mv.sample_sn_batch(params, k, 1_000_000, rng)[:, 0]
            bound = 2.0 * 0.5 ** (k + 1)
            assert abs(x.mean() - 1.0) <= bound + 4 * se_mean(0.5, len(x))

    def test_atom_at_zero_rescaling(self):
        # nu_1' with mass 1/2 at 0 behaves as L*_1(nu', 0), nu' = delta_1/2
        bd = mv.BDLM.from_atoms([[0.0], [1.0]], [0.5, 0.5])
        params = mv.LStarParams(alpha=1.0, bdlm=bd)
        rng = np.random.default_rng(203)
        x = mv.sample_sn_batch(params, 60, 200_000, rng)[:, 0]
        assert abs(x.mean() - 0.5) <= 5 * se_mean(0.25, len(x))
        assert abs(x.var(ddof=1) - 0.25) <= 5 * math.sqrt(0.25 / len(x))

    def test_single_draw_shape(self):
        params = mv.md_from_spectral(mv.evenly_spaced_spectral(3))
        assert mv.sample_sn_batch(params, 10, 1, np.random.default_rng(1)).shape == (1, 2)

    def test_negative_k_rejected(self):
        params = mv.gd_params(1.0)
        with pytest.raises(ValidationError):
            mv.sample_sn_batch(params, -1, 10, np.random.default_rng(0))

    @pytest.mark.parametrize("T", [math.nan, math.inf, 0.0])
    def test_horizon_must_be_finite_and_positive(self, T):
        # T = nan once returned rows of NaN
        params = mv.gd_params(1.0)
        with pytest.raises(ValidationError, match="T must be finite"):
            mv.sample_sn_batch(params, 3, 10, np.random.default_rng(0), T=T)
        with pytest.raises(ValidationError, match="T must be finite"):
            mv.sample_levy_path(params, T, 3, np.random.default_rng(0))


class TestSampleTa:
    def test_term_count(self):
        assert mv.ta_term_count(1.0, 1.0, 200) == 200
        assert mv.ta_term_count(1.0, 0.5, 201) == 100
        assert mv.ta_term_count(2.0, 1.0, 100) == 5000
        with pytest.raises(ValidationError):
            mv.ta_term_count(1.0, 1.0, 0)
        with pytest.raises(ValidationError, match="1e308 terms"):
            mv.ta_term_count(1.0, 1e308, 5)

    @pytest.mark.parametrize("alpha, c", [(math.nan, 1.0), (math.inf, 1.0),
                                          (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_alpha_or_c_rejected(self, alpha, c):
        # alpha = nan once escaped ta_term_count as a ValueError from floor
        with pytest.raises(ValidationError, match="finite"):
            mv.sample_ta_batch(alpha, lambda rng, m: np.ones((m, 1)), c, 5, 4,
                               np.random.default_rng(0))

    def test_sampler_called_once_per_term(self):
        calls = []

        def counting_sampler(rng, n):
            calls.append(n)
            return np.ones((n, 1))

        mv.sample_ta_batch(1.0, counting_sampler, 1.0, 7, 13,
                           np.random.default_rng(0))
        assert calls[0] == 1          # dimension probe
        assert calls[1:] == [13] * 7  # one draw block per term

    def test_gd1_limit(self):
        # alpha=1, nu0=delta_1, c=1, n=200: mean -> 1, var -> 1/2 + O(1/n)
        rng = np.random.default_rng(300)
        n_reps = 160_000
        x = mv.sample_ta_batch(1.0, lambda r, m: np.ones((m, 1)), 1.0, 200,
                               n_reps, rng)[:, 0]
        assert abs(x.mean() - 1.0) <= 1.0 / 201 + 5 * se_mean(0.5, n_reps)
        assert abs(x.var(ddof=1) - 0.5) <= 0.007 + 5 * se_mean(1.0, n_reps)

    def test_uniform_angular_limit(self):
        sigma = mv.SpectralMeasure.beta(1.0, 1.0)
        rng = np.random.default_rng(301)
        x = mv.sample_ta_batch(1.0, sigma.sample_directions, 1.0, 200,
                               100_000, rng)
        s = mv.empirical_moments(x)
        truth = mv.md_moments(sigma)
        np.testing.assert_allclose(s.mean, truth.mean, atol=0.01)
        np.testing.assert_allclose(s.cov, truth.cov, atol=0.01)

    def test_general_alpha_mean(self):
        # alpha=2, c=1, n=100: mean within bias + MC noise of Gamma(2) = 1
        rngb = np.random.default_rng(303)
        xb = mv.sample_ta_batch(2.0, lambda r, m: np.ones((m, 1)), 1.0, 100,
                                20_000, rngb)[:, 0]
        assert abs(xb.mean() - 1.0) <= 0.05


class TestSampleDs:
    def test_single_direction_exact_zero_coordinate(self):
        sigma = mv.SpectralMeasure.finite([[0.0, 1.0]], [1.0])
        x = mv.sample_ds_batch(sigma, 1e-12, 1000, np.random.default_rng(400))
        assert np.all(x[:, 0] == 0.0)
        assert np.all(x[:, 1] >= 0.0)

    def test_r2_symmetric_moments(self):
        sigma = mv.evenly_spaced_spectral(2)  # directions (1,0), (-1,0), a_i=1/2
        rng = np.random.default_rng(401)
        x = mv.sample_ds_batch(sigma, 1e-12, 200_000, rng)
        s = mv.empirical_moments(x)
        assert abs(s.m1) <= 5 * se_mean(0.5, len(x))
        assert abs(s.m2) <= 1e-12  # fuzz from sin(pi) in the direction grid
        assert abs(s.var1 - 0.5) <= 0.01
        assert abs(s.var2) <= 1e-12

    def test_requires_finite_support(self):
        with pytest.raises(UnsupportedMeasureError, match="discretize"):
            mv.sample_ds_batch(mv.SpectralMeasure.beta(2.0, 2.0), 1e-12, 10,
                               np.random.default_rng(0))


def _sphere_sampler(rng, n):
    z = rng.standard_normal((n, 3))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


class TestSampledSphereMeasure:
    """MD(sigma) for sigma = 1.5 x uniform on S^2, known only through its
    direction sampler: the BDLM nu = sigma of L*_1(sigma, 0). Its moments are
    mean 0 and covariance 1/2 * integral of s s^T dsigma = theta/6 * I."""

    theta = 1.5
    n = 200_000

    def _params(self):
        bdlm = mv.BDLM.from_sampler(self.theta, 3, _sphere_sampler,
                                    moment_data=(np.zeros(3), self.theta / 3 * np.eye(3)))
        return mv.LStarParams(alpha=1.0, bdlm=bdlm)

    def test_moments(self):
        s = mv.lstar_moments(self._params())
        np.testing.assert_array_equal(s.mean, np.zeros(3))
        np.testing.assert_allclose(s.cov, self.theta / 6 * np.eye(3), rtol=1e-15)

    def test_sn(self):
        x = mv.sample_sn_batch(self._params(), 60, self.n, np.random.default_rng(2601))
        se = x.std(axis=0, ddof=1) / math.sqrt(self.n)
        assert np.all(np.abs(x.mean(axis=0)) <= 5 * se)
        dev2 = (x - x.mean(axis=0)) ** 2
        se_var = dev2.std(axis=0, ddof=1) / math.sqrt(self.n)
        assert np.all(np.abs(x.var(axis=0, ddof=1) - self.theta / 6) <= 5 * se_var)

    def test_ta(self):
        x = mv.sample_ta_batch(1.0, _sphere_sampler, self.theta, 200, self.n,
                               np.random.default_rng(2602))
        se = x.std(axis=0, ddof=1) / math.sqrt(self.n)
        assert np.all(np.abs(x.mean(axis=0)) <= 5 * se)


def _plain(sigma):
    """A plain function around ``sigma.sample_directions``: a sampler the
    package does not know, so its series take the checked per-term loop."""
    return lambda rng, n: sigma.sample_directions(rng, n)


def _listed(rng, n):
    return _sphere_sampler(rng, n).tolist()


#: samplers meant for 2-vectors that do not return n real 2-vectors: wider
#: after the first draw (TA takes d from its probe draw of size 1); a row
#: too many; transposed; numeric strings and bools, as lists and as arrays
_BAD_SAMPLERS = {
    "wide": lambda rng, n: np.ones((n, 2 if n == 1 else 3)),
    "extra-row": lambda rng, n: np.ones((n + 1, 2)),
    "transposed": lambda rng, n: np.ones((2, n)),
    "strings": lambda rng, n: [["0.5", "0.5"]] * n,
    "string-array": lambda rng, n: np.full((n, 2), "0.5"),
    "bools": lambda rng, n: np.ones((n, 2), dtype=bool),
    "bool-lists": lambda rng, n: [[True, False]] * n,
}


class TestSamplerDraws:
    """SN, TA and the Levy path read a sampler's draws the same way: n real
    d-vectors, as an (n, d) array or as nested lists; anything else raises
    ValidationError in all three."""

    @staticmethod
    def _params(sampler, dim):
        return mv.LStarParams(alpha=1.0, bdlm=mv.BDLM.from_sampler(1.5, dim, sampler))

    @pytest.mark.parametrize("run", ["SN", "TA", "path"])
    def test_lists_are_read_as_arrays(self, run):
        def draw(sampler, rng):
            if run == "SN":
                return mv.sample_sn_batch(self._params(sampler, 3), 20, 50, rng)
            if run == "TA":
                return mv.sample_ta_batch(1.0, sampler, 1.5, 20, 50, rng)
            path = mv.sample_levy_path(self._params(sampler, 3), 2.0, 20, rng)
            return np.column_stack((path.times, path.jumps))

        a, b = np.random.default_rng(31), np.random.default_rng(31)
        np.testing.assert_array_equal(draw(_listed, a), draw(_sphere_sampler, b))
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("run", ["SN", "SN-alpha2", "TA", "path"])
    @pytest.mark.parametrize("bad", sorted(_BAD_SAMPLERS))
    def test_bad_draws_raise(self, run, bad):
        sampler, rng = _BAD_SAMPLERS[bad], np.random.default_rng(32)
        with pytest.raises(ValidationError, match="^direction draws"):
            if run == "TA":
                mv.sample_ta_batch(1.0, sampler, 1.5, 20, 5, rng)
            elif run == "path":
                mv.sample_levy_path(self._params(sampler, 2), 1.0, 5, rng)
            else:
                params = mv.LStarParams(alpha=2.0 if run == "SN-alpha2" else 1.0,
                                        bdlm=mv.BDLM.from_sampler(1.5, 2, sampler))
                mv.sample_sn_batch(params, 20, 5, rng)

    @pytest.mark.parametrize("run", ["SN", "path"])
    @pytest.mark.parametrize("model", ["beta", "finite", "atoms"])
    def test_package_sampler_of_another_dimension_raises(self, run, model):
        sampler = {"beta": mv.SpectralMeasure.beta(2.0, 5.0).sample_directions,
                   "finite": mv.evenly_spaced_spectral(5).sample_directions,
                   "atoms": _ATOM_MODELS["finite"].base_sampler}[model]
        params, rng = self._params(sampler, 3), np.random.default_rng(33)
        with pytest.raises(ValidationError, match="dimension 2, expected 3"):
            if run == "SN":
                mv.sample_sn_batch(params, 20, 5, rng)
            else:
                mv.sample_levy_path(params, 1.0, 5, rng)


# Per-term loops of the samplers before they shared one series kernel; the
# kernel must reproduce their draws, their order and their arithmetic.

def _loop_sn(params, k, n, rng, T=1.0):
    bdlm, alpha = params.bdlm, params.alpha
    t_theta = T * bdlm.theta
    out = np.tile(T * params.gamma, (n, 1))
    w, g = np.ones(n), np.zeros(n)
    for _ in range(k):
        if alpha == 1.0:
            w = w * rng.random(n) ** (1.0 / t_theta)
        else:
            g += rng.standard_exponential(n)
            w = np.exp(-((alpha / t_theta) * g) ** (1.0 / alpha))
        out += w[:, None] * bdlm.base_sampler(rng, n)
    return out


def _loop_ta(alpha, nu0_sampler, c, n, n_reps, rng):
    d = np.atleast_2d(np.asarray(nu0_sampler(rng, 1), dtype=float)).shape[1]
    out = np.zeros((n_reps, d))
    for _ in range(mv.ta_term_count(alpha, c, n)):
        w = (1.0 - rng.random(n_reps) ** (1.0 / alpha)) ** float(n)
        out += w[:, None] * np.asarray(nu0_sampler(rng, n_reps)).reshape(n_reps, d)
    return out


def _loop_gd(theta, tol, n, rng):
    out, w = np.zeros(n), np.ones(n)
    for _ in range(mv.gd_truncation_terms(theta, tol)):
        w = w * rng.random(n) ** (1.0 / theta)
        out += w
    return out


#: the GD theta at which ``_uniform_powers`` starts to mask underflowing lanes
_SWITCH_THETA = -math.log(mv.samplers._UNDERFLOW_SWITCH) / 750.0

_GD_THETAS = {"1.0": 1.0, "0.005": 0.005, "3.7": 3.7, "2.0": 2.0, "0.5": 0.5,
              "1e-12": 1e-12, "1e-06": 1e-6, "0.001": 1e-3,
              "masked-side-of-switch": 0.9 * _SWITCH_THETA,
              "unmasked-side-of-switch": 1.1 * _SWITCH_THETA}

#: GD thetas around the screen of ``sample_gd_batch``, which raises only the
#: uniforms at or above its cut from term 2 on where the cut passes 3/4
#: (theta below about 0.0069): far below it, on either side of it, and above
#: it. Below 1e-6 a tol of 1e-12 leaves one or two terms, so the tiny thetas
#: also run at 1e-300, and at 1e-18 the cut rounds to within a few units of
#: 1 in the last place.
_SCREEN_THETAS = {"1e-11": (1e-11, 1e-12), "1e-3": (1e-3, 1e-12),
                  "below-switch": (0.0069 - 1e-4, 1e-12),
                  "above-switch": (0.0069 + 1e-4, 1e-12), "0.05": (0.05, 1e-12),
                  "1": (1.0, 1e-12), "7": (7.0, 1e-12), "1e-11-tol1e-300": (1e-11, 1e-300),
                  "1e-3-tol1e-300": (1e-3, 1e-300), "1e-18-tol1e-300": (1e-18, 1e-300)}
_SCREEN_SIZES = [7, 8192, 10_000]

#: the GD block holds one row per term up to ``_BLOCK`` elements: 1, a chunk
#: tail, a chunk, 6 rows that do not divide theta = 1's 40 terms, and one row
#: per block
_GD_SIZES = [1, 7808, 8192, 10_000, mv.samplers._BLOCK + 7]


def _sized(cases, n0):
    """``cases`` at the size n0 under their own ids, then at each of
    ``_GD_SIZES`` under ids that name the size."""
    return ([pytest.param(v, n0, id=k) for k, v in cases.items()]
            + [pytest.param(v, n, id=f"{k}-n{n}") for k, v in cases.items()
               for n in _GD_SIZES])


def _unequal_atoms(seed, r=200):
    """r atoms at uniform angles: the finite benchmark model's recipe, with
    masses spread over three decades so that guide-table buckets hold
    several cut points and a lookup steps more than once."""
    rng = random.Random(f"finite-{seed}")
    angles = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(r))
    weights = np.array([10.0 ** rng.uniform(-3.0, 0.0) for _ in range(r)])
    return mv.SpectralMeasure.from_angles(angles, weights / weights.sum())


#: the measures whose SN (alpha = 1) and TA series draw a block of terms at a
#: time: seven equal atoms, 200 unequal ones, and atoms in d = 3
_ATOM_MODELS = {
    "finite": mv.md_from_spectral(mv.evenly_spaced_spectral(7)).bdlm,
    "r200": mv.md_from_spectral(_unequal_atoms(13)).bdlm,
    "atoms-d3": mv.BDLM.from_atoms(
        np.random.default_rng(19).standard_normal((5, 3)), [0.5, 2.0, 0.1, 1.0, 0.7]),
}

#: a block holds ``_BLOCK // (2 n)`` terms: one block at n = 1 and 7, four
#: terms at a chunk and a chunk tail, three at 10 000 and one past _BLOCK / 2
_ATOM_SIZES = [1, 7, 7808, 8192, 10_000, mv.samplers._BLOCK // 2 + 7]

#: SN term counts, and TA (alpha, sharpness) pairs giving 1, 5, 6 and 39
#: terms at c = 1.3: one term, and counts that most block sizes above leave
#: a short last block of
_SN_TERMS = [1, 3, 5, 37]
_TA_ARRAYS = [(1.0, 1), (2.0, 3), (0.5, 7), (1.0, 30)]

#: SN term counts past the first settled-lane check (term 58 at
#: T * theta = 1.5, term 2 at 0.05): at 1.5, some lanes are still live at
#: the end of 80 terms, and all have retired by 120. They run on
#: ``_ATOM_MODELS`` with the drift of ``test_sn``, and on three more: atoms
#: on the first axis, without drift in the second coordinate (which then
#: stays exactly 0 and keeps every lane live) and with it (which then is
#: settled from the start), and a coordinate of 1e300, whose bound
#: 2^55 * 1e300 overflows
_SETTLED_TERMS = [80, 120, 400]
_AXIS_ATOMS = mv.BDLM.from_atoms([[1.0, 0.0], [-0.5, 0.0], [2.0, 0.0]], [0.5, 0.3, 0.2])
_SETTLED_MODELS = {
    **{model: (bdlm, [0.1, -0.2, 0.3][:bdlm.dim], _ATOM_SIZES)
       for model, bdlm in _ATOM_MODELS.items()},
    "axis-zero": (_AXIS_ATOMS, [0.1, 0.0], [7, 8192]),
    "axis": (_AXIS_ATOMS, [0.1, -0.2], [7, 8192]),
    "bound-overflows": (mv.BDLM.from_atoms([[1e300, 0.0], [0.0, -1.0], [-1e-300, 3.0]],
                                           [0.3, 0.5, 0.2]), [0.1, -0.0], [7, 8192]),
}


#: angular measures whose SN (alpha = 1) and TA series skip absorbed
#: summands: beta(2,5), the sweeps' model, and the uniform beta(1,1), whose
#: angles take ``random`` instead of ``rng.beta``
_ANGLE_MODELS = {"beta25": mv.SpectralMeasure.beta(2.0, 5.0),
                 "uniform": mv.SpectralMeasure.beta(1.0, 1.0)}

#: SN term counts past the first absorption check (term 58 at T = 1.5, term
#: 2 at T = 0.05), row counts of a few rows, a chunk, and a chunk and a
#: tail, and TA sharpnesses on either side of the check's threshold
#: 2 * 55 log 2 = 76.2
_ANGLE_TERMS = [60, 200, 400]
_ANGLE_SIZES = [7, 8192, 10_000]
_ANGLE_SHARPNESS = [76, 77, 200, 400]


class TestStreamsPinned:
    MODELS = {"finite": mv.evenly_spaced_spectral(7),
              "beta": mv.SpectralMeasure.beta(2.0, 5.0)}
    # end-cell masses down to 1.9e-11: nearly every GD lane underflows
    DS_MODELS = {"finite": MODELS["finite"],
                 "beta-k200": mv.discretize_angular(MODELS["beta"],
                                                    mv.default_grid(200)),
                 # atoms on either side of the GD screen's switch
                 "screen-masses": mv.SpectralMeasure.from_angles(
                     np.arange(7.0), [1e-11, 1e-3, 0.0068, 0.007, 0.05, 1.0, 7.0])}

    @staticmethod
    def _same(run, ref, seed):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        x = run(a)
        np.testing.assert_array_equal(x, ref(b))
        assert x.flags.c_contiguous
        assert a.bit_generator.state == b.bit_generator.state

    # the first cases under their original ids; then the finite models, whose
    # SN at alpha = 1 and TA take the block path, at sizes and term counts
    # that leave a short last block; then the two models behind ``_plain``
    @pytest.mark.parametrize("bdlm, alpha, T, k, n", [
        pytest.param(mv.md_from_spectral(sigma).bdlm, alpha, T, 37, 1001,
                     id=f"{alpha}-{T}-{model}")
        for model, sigma in MODELS.items()
        for alpha, T in [(1.0, 1.0), (1.0, 1.5), (2.0, 1.0), (0.6, 0.7)]] + [
        pytest.param(bdlm, 1.0, 1.5, k, n, id=f"{model}-k{k}-n{n}")
        for model, bdlm in _ATOM_MODELS.items() for n in _ATOM_SIZES
        for k in _SN_TERMS] + [
        pytest.param(mv.BDLM.from_sampler(sigma.mass, 2, _plain(sigma)), alpha, 1.5, 200,
                     1001, id=f"plain-{alpha}-{model}")
        for model, sigma in MODELS.items() for alpha in (1.0, 0.6)])
    def test_sn(self, bdlm, alpha, T, k, n):
        gamma = [0.1, -0.2, 0.3][:bdlm.dim]
        params = mv.LStarParams(alpha=alpha, bdlm=bdlm, gamma=gamma)
        self._same(lambda r: mv.sample_sn_batch(params, k, n, r, T=T),
                   lambda r: _loop_sn(params, k, n, r, T=T), 11)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bdlm, gamma, T, k, n", [
        pytest.param(bdlm, gamma, T, k, n, id=f"{model}-k{k}-n{n}-T{T}")
        for model, (bdlm, gamma, sizes) in _SETTLED_MODELS.items() for n in sizes
        for k in _SETTLED_TERMS for T in (1.5, 0.05)])
    def test_sn_past_settling(self, bdlm, gamma, T, k, n):
        params = mv.LStarParams(alpha=1.0, bdlm=bdlm, gamma=gamma)
        self._same(lambda r: mv.sample_sn_batch(params, k, n, r, T=T),
                   lambda r: _loop_sn(params, k, n, r, T=T), 11)

    def test_sn_retires_settled_lanes(self, monkeypatch):
        # the r200 benchmark chunk at k = 200 looks up under half of its
        # k * n direction uniforms: the settled lanes' are skipped
        looked_up = []
        lookup = mv.measures._AtomSampler.indices

        def count(atoms, u):
            looked_up.append(u.size)
            return lookup(atoms, u)

        monkeypatch.setattr(mv.measures._AtomSampler, "indices", count)
        k, n = 200, mv.samplers._CHUNK
        mv.sample_sn_batch(mv.md_from_spectral(_unequal_atoms(13)), k, n,
                           np.random.default_rng(21))
        assert sum(looked_up) < k * n / 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma, gamma, T, k, n", [
        pytest.param(sigma, [0.0, 0.0], T, k, n, id=f"{model}-k{k}-n{n}-T{T}")
        for model, sigma in _ANGLE_MODELS.items()
        for k in _ANGLE_TERMS for n in _ANGLE_SIZES for T in (1.5, 0.05)] + [
        pytest.param(_ANGLE_MODELS["beta25"], [0.1, -0.0], T, 200, 8192,
                     id=f"beta25-drift-T{T}") for T in (1.5, 0.05)])
    def test_sn_on_angles(self, sigma, gamma, T, k, n):
        params = mv.LStarParams(alpha=1.0, bdlm=mv.BDLM.from_spectral(sigma), gamma=gamma)
        self._same(lambda r: mv.sample_sn_batch(params, k, n, r, T=T),
                   lambda r: _loop_sn(params, k, n, r, T=T), 11)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma, alpha, sharpness, n", [
        pytest.param(sigma, 1.0, sharpness, n, id=f"{model}-{sharpness}-n{n}")
        for model, sigma in _ANGLE_MODELS.items() for sharpness in _ANGLE_SHARPNESS
        for n in _ANGLE_SIZES[:2]] + [
        pytest.param(_ANGLE_MODELS["beta25"], alpha, sharpness, 1001,
                     id=f"beta25-alpha{alpha}-{sharpness}")
        for alpha, sharpness in [(0.5, 400), (2.0, 77)]])
    def test_ta_on_angles(self, sigma, alpha, sharpness, n):
        draw = sigma.sample_directions
        self._same(lambda r: mv.sample_ta_batch(alpha, draw, 1.3, sharpness, n, r),
                   lambda r: _loop_ta(alpha, draw, 1.3, sharpness, n, r), 12)

    @pytest.mark.parametrize("method", ["SN", "TA"])
    def test_skips_absorbed_summands(self, monkeypatch, method):
        # the beta(2,5) benchmark chunk at k = 200 maps under half of its
        # k * n angles to directions: the absorbed summands' are skipped
        mapped = []
        draw = mv.SpectralMeasure.sample_directions

        @functools.wraps(draw)
        def count(sigma, rng, n, rows=None):
            mapped.append(n if rows is None else len(rows))
            return draw(sigma, rng, n, rows=rows)

        monkeypatch.setattr(mv.SpectralMeasure, "sample_directions", count)
        k, n, sigma = 200, mv.samplers._CHUNK, _ANGLE_MODELS["beta25"]
        if method == "SN":
            mv.sample_sn_batch(mv.md_from_spectral(sigma), k, n, np.random.default_rng(21))
        else:
            mv.sample_ta_batch(1.0, sigma.sample_directions, sigma.mass, k, n,
                               np.random.default_rng(21))
            mapped.pop(0)  # the dimension probe
        assert len(mapped) == k
        assert sum(mapped) < k * n / 2

    @pytest.mark.parametrize("model", ["beta25", "uniform", "finite"])
    def test_rows_pick_draws_of_the_full_stream(self, model):
        sigma = {**_ANGLE_MODELS, "finite": _unequal_atoms(13)}[model]
        n = 1001
        subset = np.flatnonzero(np.random.default_rng(25).random(n) < 0.3)
        for rows in (np.empty(0, dtype=np.intp), np.arange(n), subset,
                     np.array([5, 5, 0], dtype=np.int32)):
            a, b = np.random.default_rng(26), np.random.default_rng(26)
            y = sigma.sample_directions(a, n, rows=rows)
            np.testing.assert_array_equal(y, sigma.sample_directions(b, n)[rows])
            assert y.shape == (len(rows), sigma.dim) and y.T.flags.c_contiguous
            assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("model", ["beta25", "uniform", "finite"])
    @pytest.mark.parametrize("rows", [
        np.array([0.0, 1.0]), np.array([True, False]), np.array([0, 10]),
        np.array([-1, 2]), np.array([[0, 1]]), np.int64(3), [0.5], "0"],
        ids=["float", "bool", "past-n", "negative", "2-d", "scalar", "list-float", "str"])
    def test_bad_rows_raise(self, model, rows):
        sigma = {**_ANGLE_MODELS, "finite": _unequal_atoms(13)}[model]
        with pytest.raises(ValidationError):
            sigma.sample_directions(np.random.default_rng(27), 10, rows=rows)

    @pytest.mark.parametrize("rows", [None, np.arange(3)], ids=["all", "rows"])
    def test_angle_sampler_of_wrong_length_raises(self, rows):
        sigma = mv.SpectralMeasure.angular(
            lambda x: np.full_like(x, 1.0 / (2.0 * np.pi)),
            angle_sampler=lambda rng, n: 2.0 * np.pi * rng.random(n + 1))
        with pytest.raises(ValidationError):
            sigma.sample_directions(np.random.default_rng(28), 10, rows=rows)

    @pytest.mark.parametrize("draw, alpha, sharpness, n", [
        pytest.param(sigma.sample_directions, alpha, sharpness, 1001,
                     id=f"{alpha}-{sharpness}-{model}")
        for model, sigma in MODELS.items()
        for alpha, sharpness in [(1.0, 200), (2.0, 30), (0.5, 7)]] + [
        pytest.param(bdlm.base_sampler, alpha, sharpness, n,
                     id=f"{model}-{alpha}-{sharpness}-n{n}")
        for model, bdlm in _ATOM_MODELS.items() for n in _ATOM_SIZES
        for alpha, sharpness in _TA_ARRAYS] + [
        # (1 - V)^n is masked from sharpness 163 on, where e^(-750 / n) > 1%
        pytest.param(_ATOM_MODELS["r200"].base_sampler, alpha, sharpness, 8192,
                     id=f"r200-{alpha}-{sharpness}-n8192")
        for alpha, sharpness in [(1.0, 162), (1.0, 163), (1.0, 400), (0.5, 400)]] + [
        pytest.param(_plain(sigma), 1.0, 200, 1001, id=f"plain-{model}")
        for model, sigma in MODELS.items()])
    def test_ta(self, draw, alpha, sharpness, n):
        self._same(lambda r: mv.sample_ta_batch(alpha, draw, 1.3, sharpness, n, r),
                   lambda r: _loop_ta(alpha, draw, 1.3, sharpness, n, r), 12)

    def test_unequal_atoms_crowd_buckets(self):
        # the r200 lookups step more than once: some bucket holds two cut points
        atoms = _ATOM_MODELS["r200"].spectral._atom_sampler
        crowded = np.diff(np.append(atoms.lo, len(atoms.cdf)))
        assert crowded.max() >= 2

    @pytest.mark.parametrize("theta, n", _sized(_GD_THETAS, 2003))
    def test_gd(self, theta, n):
        self._same(lambda r: mv.sample_gd_batch(theta, 1e-12, n, r),
                   lambda r: _loop_gd(theta, 1e-12, n, r), 13)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("theta, tol, n", [
        pytest.param(theta, tol, n, id=f"{key}-n{n}")
        for key, (theta, tol) in _SCREEN_THETAS.items() for n in _SCREEN_SIZES])
    def test_gd_screen(self, theta, tol, n):
        self._same(lambda r: mv.sample_gd_batch(theta, tol, n, r),
                   lambda r: _loop_gd(theta, tol, n, r), 29)

    def test_gd_screens_small_masses(self, monkeypatch):
        # a guard: on the 200 equal atoms of mass 0.005 each atom's GD series
        # has 5 terms, and every term after the first must go through the
        # screen, which raises under a quarter of its uniforms
        screened, raised = [], []
        screen = mv.samplers._screened_powers

        def count(u, power, cut):
            screened.append(u.size)
            raised.append(np.count_nonzero(u >= cut))
            return screen(u, power, cut)

        monkeypatch.setattr(mv.samplers, "_screened_powers", count)
        sigma, n = mv.evenly_spaced_spectral(200), mv.samplers._CHUNK
        mv.sample_ds_batch(sigma, 1e-12, n, np.random.default_rng(30))
        terms = mv.samplers.series_terms("DS", sigma, 0, 1e-12)
        assert terms == 200 * 5
        assert sum(screened) == (terms - 200) * n
        assert sum(raised) < sum(screened) / 4

    @pytest.mark.parametrize("sigma, n", _sized(DS_MODELS, 500))
    def test_ds_is_gd_per_atom(self, sigma, n):
        def ref(r):
            return sum(_loop_gd(a, 1e-12, n, r)[:, None] * s
                       for s, a in zip(sigma.directions, sigma.masses))
        self._same(lambda r: mv.sample_ds_batch(sigma, 1e-12, n, r), ref, 14)

    def test_summands_are_not_written(self):
        shared = np.ones((50, 1))
        x = mv.sample_ta_batch(1.0, lambda r, m: shared[:m], 1.0, 20, 50,
                               np.random.default_rng(15))
        np.testing.assert_array_equal(shared, 1.0)
        assert x.min() > 0.0


class TestFiniteChunkMemory:
    """A finite SN or TA chunk draws a block of terms at a time, and
    ``_BLOCK``'s comment budgets its peak at 2 MiB of traced memory (about
    0.6 MiB one term at a time). A larger block would raise a sweep's peak
    RSS toward the benchmark's bound; this fails first."""

    BUDGET = 2 << 20

    @pytest.mark.parametrize("method", ["SN", "TA"])
    def test_chunk_at_k200_peaks_within_budget(self, method):
        sigma = _unequal_atoms(13)
        params = mv.md_from_spectral(sigma)

        def chunk():
            rng, n = np.random.default_rng(20), mv.samplers._CHUNK
            if method == "SN":
                return mv.sample_sn_batch(params, 200, n, rng)
            return mv.sample_ta_batch(1.0, sigma.sample_directions, sigma.mass, 200, n, rng)

        chunk()  # the guide table is built once per batch, not per chunk
        tracemalloc.start()
        try:
            chunk()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.BUDGET


class TestPowUnderflowPremise:
    """``_uniform_powers`` replaces U^p by +0 for U < exp(-750 / p) without
    computing it, for GD's p = 1 / theta and TA's sharpness p. That keeps
    the streams only if pow itself returns +0 there (not -0, not a
    subnormal); a NumPy or libm that did otherwise must fail here, not move
    a stream unseen."""

    def test_power_below_cut_is_plus_zero(self):
        rng = np.random.default_rng(16)
        for theta in np.geomspace(1e-12, 1.0, 400):
            cut = math.exp(-750.0 * theta)
            # an array, so the power runs NumPy's vector loop as the sampler's does
            x = np.concatenate([[0.0, 5e-324, np.nextafter(cut, 0.0)],
                                cut * rng.random(253)])
            x = x[(x < cut) | (x == 0.0)]
            y = x ** (1.0 / theta)
            assert np.all(y == 0.0) and not np.signbit(y).any(), theta

    @pytest.mark.parametrize("sharpness", np.geomspace(163.0, 1e4, 60).tolist() + [163.0])
    def test_ta_power_below_cut_is_plus_zero(self, sharpness):
        # TA raises 1 - V^(1/alpha) to its sharpness through the same mask
        cut = math.exp(-750.0 / sharpness)
        x = np.concatenate([[0.0, 5e-324, np.nextafter(cut, 0.0)],
                            cut * np.random.default_rng(31).random(253)])
        y = x[x < cut] ** sharpness
        assert np.all(y == 0.0) and not np.signbit(y).any(), sharpness


class TestGdScreenPremise:
    """``sample_gd_batch`` writes 0 for the powers U^e, e = 1 / theta, of the
    uniforms U below its cut, from the second term on. That keeps the streams
    only if pow returns at most 2^-55 there (the exact value is under
    2^-60), so that the proof of ``sample_gd_batch`` holds; a pow that was
    off by more, or a cut rounded above 2^(-60 / e), must fail here."""

    @pytest.mark.parametrize("theta", np.geomspace(1e-12, 0.0069, 300).tolist()
                             + [1e-300, 1e-100, 1e-30, 1e-18, 3e-18, 1e-17, 1e-16, 1e-15])
    def test_power_below_cut_is_tiny(self, theta):
        power = 1.0 / theta
        cut = mv.samplers._screen_cut(power)
        assert cut > mv.samplers._SCREEN_SWITCH
        x = np.concatenate([[np.nextafter(cut, 0.0)],
                            cut * np.random.default_rng(32).random(255)])
        assert (x ** power <= 2.0 ** -55).all(), theta

    def test_switch_is_near_theta_0_0069(self):
        # the screen runs below theta = log2(4/3) / 60 = 0.0069 and not above
        edge = math.log2(4.0 / 3.0) / 60.0
        assert mv.samplers._screen_cut(1.0 / (0.999 * edge)) > mv.samplers._SCREEN_SWITCH
        assert mv.samplers._screen_cut(1.0 / (1.001 * edge)) < mv.samplers._SCREEN_SWITCH


class TestSettledLanePremise:
    """``_atom_series`` retires a lane of the SN sum once each later summand
    d has |d| <= 2^(e-54), where 2^e <= |o| < 2^(e+1) for each coordinate o
    of the sum, and d = +-0 where o is subnormal. That keeps the streams only
    if o + d rounds to o, and if a weight, a running product of powers of
    uniforms, never rises."""

    def test_sum_absorbs_a_summand_under_its_bound(self):
        e = np.arange(-1022, 1024)
        rng = np.random.default_rng(22)
        # the bottom (a tie with the gap below), a random point and the top
        # of each binade; d = 2^(e-54) rounds to +0 at 2^-1075 and below
        d = np.ldexp(1.0, e - 54)
        for o in (np.ldexp(1.0, e), np.ldexp(1.0 + rng.random(e.size), e),
                  np.ldexp(2.0 - 2.0 ** -52, e)):
            for x in (o, -o):
                np.testing.assert_array_equal(x + d, x)
                np.testing.assert_array_equal(x - d, x)

    def test_subnormal_sum_takes_only_zero_summands(self):
        o = np.ldexp(1.0 + np.random.default_rng(23).random(52), np.arange(-1074, -1022))
        d = np.ldexp(o, -55)  # over every |w y| that leaves o settled
        assert not d.any()
        np.testing.assert_array_equal(o + d, o)
        np.testing.assert_array_equal(-o - d, -o)

    @pytest.mark.parametrize("t_theta", [1.0, 1.5, 0.05, 1e-3, 0.9 * _SWITCH_THETA, 40.0])
    def test_weights_never_rise(self, t_theta):
        u = np.concatenate([[np.nextafter(1.0, 0.0), 0.0, 5e-324],
                            np.random.default_rng(24).random(2000)])
        p = mv.samplers._uniform_powers(u.copy(), 1.0 / t_theta,
                                        np.empty(u.shape, dtype=bool))
        assert (p <= 1.0).all() and (p >= 0.0).all()


class TestBlockKernelPremise:
    """``sample_gd_batch`` raises a (b, n) block of uniforms to a power in one
    call, and the direction draws write cos and sin into the rows of one
    (2, n) buffer. That keeps the streams only if NumPy's loops give the same
    bits as the per-row calls: the scalar-power fast paths (sqrt, positive,
    square) included, whatever n is modulo the vector width."""

    @pytest.mark.parametrize("n", [1, 7, 2003])
    @pytest.mark.parametrize("e", [0.5, 1.0, 2.0, 1.0 / 3.7])
    def test_block_power_equals_row_powers(self, e, n):
        block = np.random.default_rng(17).random((6, n))
        rows = [row ** e for row in block]
        block **= e
        np.testing.assert_array_equal(block, rows)

    @pytest.mark.parametrize("n", [1, 7, 2003])
    def test_cos_sin_into_buffer_rows(self, n):
        phi = 2.0 * np.pi * np.random.default_rng(18).random(n)
        buf = np.empty((2, n))
        np.cos(phi, out=buf[0])
        np.sin(phi, out=buf[1])
        np.testing.assert_array_equal(buf[0], np.cos(phi))
        np.testing.assert_array_equal(buf[1], np.sin(phi))


class TestFixedPointMap:
    def test_boundary_limit(self):
        y = mv.fixed_point_map([0.0, 0.0], [1.0, 0.0], 1.0 - 1e-15, 1.0)
        np.testing.assert_allclose(y, [1.0, 0.0], atol=1e-14)

    def test_arithmetic(self):
        y = mv.fixed_point_map([1.0, 1.0], [1.0, 0.0], math.exp(-1.0), 1.0)
        np.testing.assert_allclose(y, np.exp(-1.0) * np.array([2.0, 1.0]))

    def test_theta_scaling(self):
        y = mv.fixed_point_map([0.0, 0.0], [0.0, 1.0], 0.25, 2.0)
        np.testing.assert_allclose(y, [0.0, 0.5])

    def test_batched(self):
        x = np.zeros((3, 2))
        w = np.tile([1.0, 0.0], (3, 1))
        u = np.array([0.25, 0.25, 0.25])
        y = mv.fixed_point_map(x, w, u, 2.0)
        np.testing.assert_allclose(y, np.tile([0.5, 0.0], (3, 1)))

    def test_u_domain(self):
        for u in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValidationError):
                mv.fixed_point_map([0.0], [1.0], u, 1.0)

    @pytest.mark.parametrize("u", [math.nan, [0.5, math.nan]])
    def test_u_nan_rejected(self, u):
        # nan once passed the (0, 1) check and came back as the map's value
        with pytest.raises(ValidationError, match="u must lie in"):
            mv.fixed_point_map([[0.0], [0.0]], [[1.0], [1.0]], u, 1.0)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, 0.0, -1.0])
    def test_theta_must_be_finite_and_positive(self, theta):
        # theta = nan once returned [nan, nan], and theta = inf x + w
        with pytest.raises(ValidationError, match="theta must be finite"):
            mv.fixed_point_map([0.0, 0.0], [1.0, 0.0], 0.5, theta)


class TestLevyPath:
    def _params(self, d1=False):
        if d1:
            return mv.LStarParams(alpha=1.0, bdlm=mv.BDLM.from_atoms([[1.0]], [1.0]))
        return mv.md_from_spectral(mv.evenly_spaced_spectral(4))

    def test_structure(self):
        path = mv.sample_levy_path(self._params(), 2.0, 50,
                                   np.random.default_rng(500))
        assert len(path.times) == 50
        assert np.all(np.diff(path.times) > 0)
        assert path.times.min() >= 0.0 and path.times.max() <= 2.0
        assert len(path.events) == 50

    def test_value_at_zero_is_zero(self):
        path = mv.sample_levy_path(self._params(), 1.0, 30,
                                   np.random.default_rng(501))
        np.testing.assert_array_equal(path.value_at(0.0), [0.0, 0.0])

    def test_value_at_horizon_sums_all_jumps(self):
        path = mv.sample_levy_path(self._params(), 1.0, 30,
                                   np.random.default_rng(502))
        np.testing.assert_allclose(path.value_at(1.0), path.jumps.sum(axis=0),
                                   atol=1e-12)

    def test_terminal_mean_scales_with_horizon(self):
        # X_T ~ L*_1(T nu, 0): mean T*theta for the d=1 point mass
        params = self._params(d1=True)
        rng = np.random.default_rng(503)
        n_paths = 30_000
        ends = np.empty(n_paths)
        mids = np.empty(n_paths)
        for i in range(n_paths):
            path = mv.sample_levy_path(params, 2.0, 200, rng)
            ends[i] = path.value_at(2.0)[0]
            mids[i] = path.value_at(1.0)[0]
        assert abs(ends.mean() - 2.0) <= 5 * se_mean(1.0, n_paths)
        assert abs(mids.mean() - 1.0) <= 5 * se_mean(0.5, n_paths)

    def test_disjoint_increments_uncorrelated(self):
        params = self._params(d1=True)
        rng = np.random.default_rng(504)
        n_paths = 20_000
        inc1 = np.empty(n_paths)
        inc2 = np.empty(n_paths)
        for i in range(n_paths):
            path = mv.sample_levy_path(params, 1.0, 150, rng)
            half = path.value_at(0.5)[0]
            inc1[i] = half
            inc2[i] = path.value_at(1.0)[0] - half
        corr = np.corrcoef(inc1, inc2)[0, 1]
        assert abs(corr) <= 4.0 / math.sqrt(n_paths)

    def test_general_alpha_marginals(self):
        # X_t ~ L*_2(t nu, t gamma) for nu = delta_1, gamma = 0.3, at t = 1 and T = 2
        bdlm = mv.BDLM.from_atoms([[1.0]], [1.0])
        params = mv.LStarParams(alpha=2.0, bdlm=bdlm, gamma=[0.3])
        rng = np.random.default_rng(505)
        n_paths = 20_000
        ends, mids = np.empty(n_paths), np.empty(n_paths)
        for i in range(n_paths):
            path = mv.sample_levy_path(params, 2.0, 150, rng)
            ends[i] = path.value_at(2.0)[0]
            mids[i] = path.value_at(1.0)[0]
        for t, x in ((2.0, ends), (1.0, mids)):
            truth = mv.lstar_moments(mv.LStarParams(
                alpha=2.0, bdlm=mv.BDLM.from_atoms([[1.0]], [t]), gamma=[0.3 * t]))
            se = math.sqrt(truth.cov[0, 0] / n_paths)
            assert abs(x.mean() - truth.mean[0]) <= 5 * se

    def test_validation(self):
        with pytest.raises(ValidationError):
            mv.sample_levy_path(self._params(), 0.0, 10, np.random.default_rng(0))
        path = mv.sample_levy_path(self._params(), 1.0, 10, np.random.default_rng(1))
        with pytest.raises(ValidationError):
            path.value_at(1.5)

    @pytest.mark.parametrize("t", ["2", "0.5", None, [0.5], True, math.nan, math.inf,
                                   -math.inf, -0.1, np.nextafter(2.0, 3.0)])
    def test_value_at_takes_a_real_t_in_the_closed_range(self, t):
        path = mv.sample_levy_path(self._params(), 2.0, 10, np.random.default_rng(2))
        with pytest.raises(ValidationError, match="^t must be"):
            path.value_at(t)
        for t in (0, 0.0, 1, np.float64(1.5), np.int64(2), 2.0):
            assert path.value_at(t).shape == (2,)


class TestSampleBatch:
    def test_rejects_nan(self):
        data = np.zeros((3, 2))
        data[1, 0] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            mv.SampleBatch(data=data, method="SN", k=1, n_reps=3, seed=0)

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValidationError, match="rows"):
            mv.SampleBatch(data=np.zeros((3, 2)), method="SN", k=1, n_reps=4, seed=0)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValidationError):
            mv.SampleBatch(data=np.zeros((2, 2)), method="XX", k=1, n_reps=2, seed=0)

    def test_generate_batch_provenance(self):
        sigma = mv.evenly_spaced_spectral(4)
        batch = mv.generate_batch("SN", sigma, 20, 500, seed=9)
        assert (batch.method, batch.k, batch.n_reps, batch.seed) == ("SN", 20, 500, 9)
        assert batch.data.shape == (500, 2)

    def test_generate_batch_ds_on_angular_discretizes(self):
        sigma = mv.SpectralMeasure.beta(2.0, 2.0)
        batch = mv.generate_batch("DS", sigma, 16, 400, seed=1)
        assert batch.k == 16

    def test_generate_batch_ds_on_finite_records_zero(self):
        batch = mv.generate_batch("DS", mv.evenly_spaced_spectral(3), 16, 400, seed=1)
        assert batch.k == 0

    @pytest.mark.parametrize("n_reps", [-5, True, 2.0, "10"])
    def test_generate_batch_rejects_bad_n_reps(self, n_reps):
        with pytest.raises(ValidationError, match="n_reps"):
            mv.generate_batch("SN", mv.evenly_spaced_spectral(3), 2, n_reps, seed=0)

    @pytest.mark.parametrize("method", ["SN", "TA", "DS"])
    @pytest.mark.parametrize("k", [2.5, -1, True])
    def test_generate_batch_rejects_bad_k(self, method, k):
        with pytest.raises(ValidationError, match="k must be an integer"):
            mv.generate_batch(method, mv.SpectralMeasure.beta(2.0, 5.0), k, 10, seed=0)

    def test_generate_batch_ta_names_k(self):
        with pytest.raises(ValidationError, match="k must be an integer >= 1"):
            mv.generate_batch("TA", mv.evenly_spaced_spectral(3), 0, 10, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, False, 1.0])
    def test_generate_batch_rejects_bad_seed(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            mv.generate_batch("SN", mv.evenly_spaced_spectral(3), 2, 10, seed=seed)

    def test_generate_batch_takes_no_rows_and_the_largest_seed(self):
        batch = mv.generate_batch("DS", mv.SpectralMeasure.beta(2.0, 5.0), 3, 0,
                                  seed=2 ** 64 - 1)
        assert batch.data.shape == (0, 2)

    @pytest.mark.parametrize("method", ["SN", "TA", "DS"])
    def test_generate_batch_work_budget(self, method, monkeypatch):
        def no_grid(k, *rest):  # DS must refuse before it discretizes 10^9 cells
            raise AssertionError("discretized before the budget check")
        monkeypatch.setattr(sys.modules["mvdickman.discretize"], "default_grid", no_grid)
        sigma = mv.SpectralMeasure.beta(2.0, 5.0)
        with pytest.raises(ValidationError, match="budget"):
            mv.generate_batch(method, sigma, 10 ** 9, 10, seed=0)
        # at least a chunk of replications is charged
        with pytest.raises(ValidationError, match="budget"):
            mv.generate_batch(method, sigma, 2 * 10 ** 6, 1, seed=0)

    def test_series_terms(self):
        beta = mv.SpectralMeasure.beta(2.0, 5.0, mass=1.5)
        finite = mv.evenly_spaced_spectral(4)
        assert mv.samplers.series_terms("SN", beta, 7, 1e-12) == 7
        assert mv.samplers.series_terms("TA", beta, 7, 1e-12) == 10
        assert (mv.samplers.series_terms("DS", beta, 7, 1e-12)
                == 7 * mv.gd_truncation_terms(1.5, 1e-12))
        assert (mv.samplers.series_terms("DS", finite, 7, 1e-12)
                == 4 * mv.gd_truncation_terms(0.25, 1e-12))


_SIGMA3 = mv.evenly_spaced_spectral(3)

#: each public batch sampler with one size argument left open, and its name
_SIZED = {
    "sn-k": ("k", lambda v, r: mv.sample_sn_batch(mv.md_from_spectral(_SIGMA3), v, 10, r)),
    "sn-n": ("n", lambda v, r: mv.sample_sn_batch(mv.md_from_spectral(_SIGMA3), 3, v, r)),
    "ta-n_reps": ("n_reps", lambda v, r: mv.sample_ta_batch(
        1.0, _SIGMA3.sample_directions, 1.0, 3, v, r)),
    "gd-n": ("n", lambda v, r: mv.sample_gd_batch(1.0, 1e-12, v, r)),
    "ds-n_reps": ("n_reps", lambda v, r: mv.sample_ds_batch(_SIGMA3, 1e-12, v, r)),
    "levy-k": ("k", lambda v, r: mv.sample_levy_path(mv.md_from_spectral(_SIGMA3), 1.0, v, r)),
}


@pytest.mark.parametrize("value", [-1, 2.5, True, "10"])
@pytest.mark.parametrize("sampler", _SIZED)
def test_batch_samplers_reject_bad_sizes(sampler, value):
    name, call = _SIZED[sampler]
    with pytest.raises(ValidationError, match=f"^{name} must be an integer >= 0"):
        call(value, np.random.default_rng(0))


class TestChunkedBatch:
    """generate_batch draws chunk c of ``_CHUNK`` rows from its own substream:
    ``default_rng(seed)`` for c = 0, spawn key (c,) of the seed after that."""

    MODELS = {"finite": mv.evenly_spaced_spectral(7),
              "beta": mv.SpectralMeasure.beta(2.0, 5.0)}
    CHUNK = mv.samplers._CHUNK

    @staticmethod
    def _direct(method, sigma, k, n, rng):
        if method == "SN":
            return mv.sample_sn_batch(mv.md_from_spectral(sigma), k, n, rng)
        if method == "TA":
            return mv.sample_ta_batch(1.0, sigma.sample_directions, sigma.mass, k, n, rng)
        if sigma.variant == "angular":
            sigma = mv.discretize_angular(sigma, mv.default_grid(k))
        return mv.sample_ds_batch(sigma, 1e-12, n, rng)

    def test_chunk_is_8192_rows(self):
        assert self.CHUNK == 8192

    @pytest.mark.parametrize("model", ["finite", "beta"])
    @pytest.mark.parametrize("method", ["SN", "TA", "DS"])
    @pytest.mark.parametrize("n", [1, 1000, 8192])
    def test_one_chunk_is_the_unchunked_batch(self, model, method, n):
        sigma = self.MODELS[model]
        batch = mv.generate_batch(method, sigma, 6, n, seed=21)
        ref = self._direct(method, sigma, 6, n, np.random.default_rng(21))
        np.testing.assert_array_equal(batch.data, ref)
        assert batch.data.flags.c_contiguous and ref.flags.c_contiguous

    @pytest.mark.parametrize("method", ["SN", "TA", "DS"])
    def test_rows_agree_with_a_serial_loop_over_chunks(self, method):
        sigma = self.MODELS["beta"]
        n = 2 * self.CHUNK + 3616
        parts = []
        for c, m in enumerate((self.CHUNK, self.CHUNK, 3616)):
            seq = 22 if c == 0 else np.random.SeedSequence(22, spawn_key=(c,))
            parts.append(self._direct(method, sigma, 4, m, np.random.default_rng(seq)))
        batch = mv.generate_batch(method, sigma, 4, n, seed=22)
        np.testing.assert_array_equal(batch.data, np.concatenate(parts))
        assert batch.data.flags.c_contiguous
        assert all(p.flags.c_contiguous for p in parts)

    @pytest.mark.parametrize("model", ["finite", "beta"])
    def test_row_prefixes_agree(self, model):
        sigma = self.MODELS[model]
        long = mv.generate_batch("SN", sigma, 5, 20_000, seed=23)
        short = mv.generate_batch("SN", sigma, 5, self.CHUNK, seed=23)
        np.testing.assert_array_equal(long.data[:self.CHUNK], short.data)
        assert long.data.shape == (20_000, 2)

    def test_concurrent_batches_share_the_pool(self):
        # more callers than cores, switching threads as often as possible
        sigma = mv.evenly_spaced_spectral(50)
        n = 3 * self.CHUNK
        want = [mv.generate_batch("SN", sigma, 3, n, seed=s).data for s in range(6)]
        got = [None] * 6

        def run(s):
            got[s] = mv.generate_batch("SN", sigma, 3, n, seed=s).data

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(s,)) for s in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)

    def test_one_chunk_starts_no_pool(self, monkeypatch):
        monkeypatch.setattr(mv.samplers, "_pool", None)
        monkeypatch.setattr(mv.samplers, "_pool_pid", None)
        mv.generate_batch("TA", self.MODELS["finite"], 3, self.CHUNK, seed=24)
        assert mv.samplers._pool is None
        mv.generate_batch("TA", self.MODELS["finite"], 3, self.CHUNK + 1, seed=24)
        pool = mv.samplers._pool
        assert pool is not None and pool._max_workers == len(os.sched_getaffinity(0))
        mv.generate_batch("TA", self.MODELS["finite"], 3, self.CHUNK + 1, seed=24)
        assert mv.samplers._pool is pool  # one pool per process, reused
        pool.shutdown()


def test_sn_ds_cross_method_agreement_small():
    """SN at deep truncation and exact DS give matching moments (r=50)."""
    sigma = mv.evenly_spaced_spectral(50)
    params = mv.md_from_spectral(sigma)
    n = 40_000
    x_sn = mv.sample_sn_batch(params, 150, n, np.random.default_rng(600))
    x_ds = mv.sample_ds_batch(sigma, 1e-12, n, np.random.default_rng(601))
    m_sn, m_ds = mv.empirical_moments(x_sn), mv.empirical_moments(x_ds)
    for j in range(2):
        se = math.sqrt(m_sn.cov[j, j] / n + m_ds.cov[j, j] / n)
        assert abs(m_sn.mean[j] - m_ds.mean[j]) <= 5 * se
    assert np.allclose(m_sn.cov, m_ds.cov, atol=0.02)
