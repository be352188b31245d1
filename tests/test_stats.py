import math

import numpy as np
import pytest

import mvdickman as mv
from mvdickman.errors import ValidationError
from mvdickman.moments import MomentSummary


class TestEmpiricalMoments:
    def test_two_points(self):
        s = mv.empirical_moments(np.array([[0.0, 0.0], [2.0, 0.0]]))
        np.testing.assert_allclose(s.mean, [1.0, 0.0])
        assert s.var1 == pytest.approx(2.0)  # N-1 denominator
        assert s.var2 == 0.0
        assert s.cov12 == 0.0

    def test_constant_batch(self):
        s = mv.empirical_moments(np.tile([3.0, -1.0], (50, 1)))
        np.testing.assert_allclose(s.mean, [3.0, -1.0])
        np.testing.assert_array_equal(s.cov, np.zeros((2, 2)))

    def test_antidiagonal_pair(self):
        s = mv.empirical_moments(np.array([[1.0, 1.0], [-1.0, -1.0]]))
        assert s.cov12 == pytest.approx(2.0)

    def test_accepts_sample_batch_and_1d(self):
        batch = mv.SampleBatch(data=np.array([[0.0], [2.0]]), method="DS",
                               k=0, n_reps=2, seed=0)
        assert mv.empirical_moments(batch).mean[0] == 1.0
        assert mv.empirical_moments(np.array([0.0, 2.0])).mean[0] == 1.0

    def test_requires_two_observations(self):
        with pytest.raises(ValidationError):
            mv.empirical_moments(np.array([[1.0, 2.0]]))


def _summary(m1, m2, v1, v2, c12):
    return MomentSummary([m1, m2], [[v1, c12], [c12, v2]])


class TestErrorMetric:
    def test_identity_is_zero(self):
        s = _summary(0.3, -0.2, 0.5, 0.4, 0.1)
        report = mv.error_metric(s, s)
        assert report.e_k == 0.0
        np.testing.assert_array_equal(report.components, np.zeros(5))

    def test_three_four_five(self):
        emp = _summary(0.3, 0.4, 0.5, 0.5, 0.0)
        truth = _summary(0.0, 0.0, 0.5, 0.5, 0.0)
        assert mv.error_metric(emp, truth).e_k == pytest.approx(0.5)

    def test_component_sum_identity(self):
        rng = np.random.default_rng(8)
        emp = _summary(*rng.random(5))
        truth = _summary(*rng.random(5))
        report = mv.error_metric(emp, truth)
        assert report.e_k ** 2 == pytest.approx(report.components.sum(), rel=1e-12)

    def test_swap_symmetry(self):
        emp = _summary(0.1, -0.4, 0.6, 0.2, 0.05)
        truth = _summary(0.0, -0.5, 0.5, 0.25, 0.0)
        direct = mv.error_metric(emp, truth).e_k
        swapped = mv.error_metric(emp.swapped(), truth.swapped()).e_k
        assert direct == pytest.approx(swapped, rel=1e-14)

    def test_batch_against_own_moments_is_zero(self):
        x = np.random.default_rng(3).normal(size=(400, 2))
        s = mv.empirical_moments(x)
        assert mv.error_metric(s, s).e_k == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            mv.error_metric(MomentSummary([0.0], [[1.0]]),
                            _summary(0, 0, 1, 1, 0))

    def test_mc_floor_carried(self):
        s = _summary(0, 0, 1, 1, 0)
        assert mv.error_metric(s, s, mc_floor=0.01).mc_floor == 0.01


class TestMcFloor:
    def test_scales_like_inverse_sqrt_n(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(80_000, 2))
        f_full = mv.estimate_mc_floor(x)
        f_quarter = mv.estimate_mc_floor(x[:20_000])
        assert f_full > 0
        assert f_quarter / f_full == pytest.approx(2.0, rel=0.2)

    def test_matches_gaussian_theory(self):
        # iid standard normal: var(xbar)=1/N, var(s^2)~=2/N, var(s12)~=1/N
        rng = np.random.default_rng(13)
        n = 200_000
        x = rng.normal(size=(n, 2))
        expected = math.sqrt((1 + 1 + 2 + 2 + 1) / n)
        assert mv.estimate_mc_floor(x) == pytest.approx(expected, rel=0.05)


class TestFixedPointTest:
    def test_point_mass_passes(self):
        sigma = mv.SpectralMeasure.finite([[1.0, 0.0]], [1.0])
        report = mv.fixed_point_test(sigma, 200_000, seed=21)
        assert report.passed, report
        assert report.theta_used == 1.0

    def test_r2_model_passes(self):
        report = mv.fixed_point_test(mv.evenly_spaced_spectral(2), 200_000, seed=22)
        assert report.passed, report

    def test_wrong_theta_fails(self):
        sigma = mv.SpectralMeasure.finite([[1.0, 0.0]], [1.0])
        report = mv.fixed_point_test(sigma, 200_000, seed=23, map_theta=2.0)
        assert not report.passed
        # the mean shift is (theta'/(theta'+1))*(E X + E W) - E X = 1/3
        assert report.diffs["mean1"] == pytest.approx(1.0 / 3.0, abs=0.01)

    @pytest.mark.parametrize("tol_sigmas", [math.nan, -1.0, "4"])
    def test_tol_sigmas_must_be_a_positive_real(self, tol_sigmas):
        # nan once made a silent passed=False
        with pytest.raises(ValidationError, match="tol_sigmas"):
            mv.fixed_point_test(mv.evenly_spaced_spectral(2), 100, seed=0,
                                tol_sigmas=tol_sigmas)

    def test_requires_finite_support(self):
        with pytest.raises(ValidationError):
            mv.fixed_point_test(mv.SpectralMeasure.beta(1.0, 1.0), 100, seed=0)
