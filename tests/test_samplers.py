import math

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


class TestSampleTa:
    def test_term_count(self):
        assert mv.ta_term_count(1.0, 1.0, 200) == 200
        assert mv.ta_term_count(1.0, 0.5, 201) == 100
        assert mv.ta_term_count(2.0, 1.0, 100) == 5000
        with pytest.raises(ValidationError):
            mv.ta_term_count(1.0, 1.0, 0)

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


class TestStreamsPinned:
    MODELS = {"finite": mv.evenly_spaced_spectral(7),
              "beta": mv.SpectralMeasure.beta(2.0, 5.0)}

    @staticmethod
    def _same(run, ref, seed):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        np.testing.assert_array_equal(run(a), ref(b))
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("model", ["finite", "beta"])
    @pytest.mark.parametrize("alpha, T", [(1.0, 1.0), (1.0, 1.5), (2.0, 1.0), (0.6, 0.7)])
    def test_sn(self, model, alpha, T):
        bdlm = mv.md_from_spectral(self.MODELS[model]).bdlm
        params = mv.LStarParams(alpha=alpha, bdlm=bdlm, gamma=[0.1, -0.2])
        self._same(lambda r: mv.sample_sn_batch(params, 37, 1001, r, T=T),
                   lambda r: _loop_sn(params, 37, 1001, r, T=T), 11)

    @pytest.mark.parametrize("model", ["finite", "beta"])
    @pytest.mark.parametrize("alpha, n", [(1.0, 200), (2.0, 30), (0.5, 7)])
    def test_ta(self, model, alpha, n):
        draw = self.MODELS[model].sample_directions
        self._same(lambda r: mv.sample_ta_batch(alpha, draw, 1.3, n, 1001, r),
                   lambda r: _loop_ta(alpha, draw, 1.3, n, 1001, r), 12)

    @pytest.mark.parametrize("theta", [1.0, 0.005, 3.7])
    def test_gd(self, theta):
        self._same(lambda r: mv.sample_gd_batch(theta, 1e-12, 2003, r),
                   lambda r: _loop_gd(theta, 1e-12, 2003, r), 13)

    def test_ds_is_gd_per_atom(self):
        sigma = self.MODELS["finite"]

        def ref(r):
            return sum(_loop_gd(a, 1e-12, 500, r)[:, None] * s
                       for s, a in zip(sigma.directions, sigma.masses))
        self._same(lambda r: mv.sample_ds_batch(sigma, 1e-12, 500, r), ref, 14)

    def test_summands_are_not_written(self):
        shared = np.ones((50, 1))
        x = mv.sample_ta_batch(1.0, lambda r, m: shared[:m], 1.0, 20, 50,
                               np.random.default_rng(15))
        np.testing.assert_array_equal(shared, 1.0)
        assert x.min() > 0.0


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

    def test_generate_batch_ds_sampler_backed_raises(self):
        sigma = mv.SpectralMeasure.from_sampler(
            1.0, 2, lambda r, n: np.tile([1.0, 0.0], (n, 1)))
        with pytest.raises(UnsupportedMeasureError, match="discretize"):
            mv.generate_batch("DS", sigma, 16, 400, seed=1)


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
