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


class TestStreamsPinned:
    MODELS = {"finite": mv.evenly_spaced_spectral(7),
              "beta": mv.SpectralMeasure.beta(2.0, 5.0)}
    # end-cell masses down to 1.9e-11: nearly every GD lane underflows
    DS_MODELS = {"finite": MODELS["finite"],
                 "beta-k200": mv.discretize_angular(MODELS["beta"],
                                                    mv.default_grid(200))}

    @staticmethod
    def _same(run, ref, seed):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        x = run(a)
        np.testing.assert_array_equal(x, ref(b))
        assert x.flags.c_contiguous
        assert a.bit_generator.state == b.bit_generator.state

    # the first cases under their original ids; then the finite models, whose
    # SN at alpha = 1 and TA take the block path, at sizes and term counts
    # that leave a short last block
    @pytest.mark.parametrize("bdlm, alpha, T, k, n", [
        pytest.param(mv.md_from_spectral(sigma).bdlm, alpha, T, 37, 1001,
                     id=f"{alpha}-{T}-{model}")
        for model, sigma in MODELS.items()
        for alpha, T in [(1.0, 1.0), (1.0, 1.5), (2.0, 1.0), (0.6, 0.7)]] + [
        pytest.param(bdlm, 1.0, 1.5, k, n, id=f"{model}-k{k}-n{n}")
        for model, bdlm in _ATOM_MODELS.items() for n in _ATOM_SIZES
        for k in _SN_TERMS])
    def test_sn(self, bdlm, alpha, T, k, n):
        gamma = [0.1, -0.2, 0.3][:bdlm.dim]
        params = mv.LStarParams(alpha=alpha, bdlm=bdlm, gamma=gamma)
        self._same(lambda r: mv.sample_sn_batch(params, k, n, r, T=T),
                   lambda r: _loop_sn(params, k, n, r, T=T), 11)

    @pytest.mark.parametrize("draw, alpha, sharpness, n", [
        pytest.param(sigma.sample_directions, alpha, sharpness, 1001,
                     id=f"{alpha}-{sharpness}-{model}")
        for model, sigma in MODELS.items()
        for alpha, sharpness in [(1.0, 200), (2.0, 30), (0.5, 7)]] + [
        pytest.param(bdlm.base_sampler, alpha, sharpness, n,
                     id=f"{model}-{alpha}-{sharpness}-n{n}")
        for model, bdlm in _ATOM_MODELS.items() for n in _ATOM_SIZES
        for alpha, sharpness in _TA_ARRAYS])
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
    """``_uniform_powers`` replaces U^(1/theta) by +0 for U < exp(-750 theta)
    without computing it. That keeps the streams only if pow itself returns
    +0 there (not -0, not a subnormal); a NumPy or libm that did otherwise
    must fail here, not move a stream unseen."""

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
