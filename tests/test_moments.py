import dataclasses
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import mvdickman as mv
from mvdickman.errors import QuadratureError, UnsupportedMeasureError, ValidationError
from mvdickman.moments import (INSIDE, OUTSIDE, MomentSummary, _gauss_jacobi_integrals,
                               _gauss_legendre_integrals, bdlm_integrals)
from oracles import hyp1f1_moments

# Brute-force Monte Carlo integration oracle, 1e8 beta-angle draws per pair
# (pre-build verification run); agreement required to 3 decimals.
MC_BETA_ORACLE = {
    (2.0, 2.0): dict(m1=-0.303910, m2=-0.000024, var1=0.231016,
                     var2=0.268984, cov12=0.000016),
    (5.0, 1.0): dict(m1=0.429642, m2=-0.553921, var1=0.280455,
                     var2=0.219545, cov12=-0.091927),
}


class TestMomentSummary:
    def test_d2_aliases(self):
        s = MomentSummary([1.0, 2.0], [[0.5, 0.1], [0.1, 0.25]])
        assert (s.m1, s.m2) == (1.0, 2.0)
        assert (s.var1, s.var2, s.cov12) == (0.5, 0.25, 0.1)

    def test_rejects_asymmetric_cov(self):
        with pytest.raises(ValidationError, match="symmetric"):
            MomentSummary([0.0, 0.0], [[1.0, 0.2], [0.1, 1.0]])

    def test_rejects_negative_diagonal(self):
        with pytest.raises(ValidationError, match="diagonal"):
            MomentSummary([0.0], [[-0.1]])

    def test_aliases_require_d2(self):
        s = MomentSummary([0.0], [[1.0]])
        with pytest.raises(ValidationError):
            s.m1


class TestLstarMoments:
    def test_gd1_point_mass(self):
        params = mv.gd_params(1.0)
        s = mv.lstar_moments(params)
        assert s.mean[0] == pytest.approx(1.0)
        assert s.cov[0, 0] == pytest.approx(0.5)

    def test_alpha2_scaled_point_mass(self):
        params = mv.LStarParams(alpha=2.0,
                                bdlm=mv.BDLM.from_atoms([[1.0]], [3.0]))
        s = mv.lstar_moments(params)
        assert s.mean[0] == pytest.approx(3.0)          # Gamma(2) * 3
        assert s.cov[0, 0] == pytest.approx(0.75)       # Gamma(2)/4 * 3

    def test_drift_shifts_mean_only(self):
        params = mv.LStarParams(alpha=1.0, bdlm=mv.BDLM.from_atoms([[1.0]], [1.0]),
                                gamma=[2.5])
        s = mv.lstar_moments(params)
        assert s.mean[0] == pytest.approx(3.5)
        assert s.cov[0, 0] == pytest.approx(0.5)

    def test_beta_model_matches_beta_spectral_moments(self):
        params = mv.md_from_spectral(mv.SpectralMeasure.beta(2.0, 5.0))
        a = mv.lstar_moments(params)
        b = mv.md_moments(mv.SpectralMeasure.beta(2.0, 5.0, 1.0))
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-10, rtol=0)
        np.testing.assert_allclose(a.cov, b.cov, atol=1e-10, rtol=0)

    def test_sampler_backed_without_moments_raises(self):
        bd = mv.BDLM.from_sampler(1.0, 2, lambda r, n: np.zeros((n, 2)))
        with pytest.raises(UnsupportedMeasureError):
            mv.lstar_moments(mv.LStarParams(alpha=1.0, bdlm=bd))

    def test_sampler_backed_with_moment_data(self):
        first = np.array([0.5, 0.0])
        second = np.array([[0.3, 0.0], [0.0, 0.7]])
        bd = mv.BDLM.from_sampler(1.0, 2, lambda r, n: np.zeros((n, 2)),
                                  moment_data=(first, second))
        s = mv.lstar_moments(mv.LStarParams(alpha=1.0, bdlm=bd))
        np.testing.assert_allclose(s.mean, first)
        np.testing.assert_allclose(s.cov, second / 2)


class TestMdMoments:
    def test_point_mass(self):
        s = mv.md_moments(mv.SpectralMeasure.finite([[1.0, 0.0]], [1.0]))
        np.testing.assert_allclose(s.mean, [1.0, 0.0])
        np.testing.assert_allclose(s.cov, [[0.5, 0.0], [0.0, 0.0]])

    def test_uniform_angular(self):
        s = mv.md_moments(mv.SpectralMeasure.beta(1.0, 1.0))
        np.testing.assert_allclose(s.mean, [0.0, 0.0], atol=1e-10)
        np.testing.assert_allclose(s.cov, [[0.25, 0.0], [0.0, 0.25]], atol=1e-10)

    def test_symmetric_two_atoms(self):
        sigma = mv.SpectralMeasure.from_angles([0.0, np.pi], [0.5, 0.5])
        s = mv.md_moments(sigma)
        np.testing.assert_allclose(s.mean, [0.0, 0.0], atol=1e-16)
        np.testing.assert_allclose(s.cov, [[0.5, 0.0], [0.0, 0.0]], atol=1e-16)

    def test_cov_trace_is_half_theta(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            r = int(rng.integers(1, 20))
            sigma = mv.SpectralMeasure.from_angles(rng.random(r) * 2 * np.pi,
                                                   rng.random(r) + 0.1)
            s = mv.md_moments(sigma)
            assert np.trace(s.cov) == pytest.approx(sigma.mass / 2, rel=1e-12)

    @pytest.mark.parametrize("make_sigma", [
        lambda: mv.SpectralMeasure.from_angles(
            np.random.default_rng(11).random(200) * 2 * np.pi,
            np.random.default_rng(12).random(200) + 0.1),
        lambda: mv.SpectralMeasure.beta(2.0, 5.0),      # Gauss-Legendre
        lambda: mv.SpectralMeasure.beta(0.2, 0.3),      # Gauss-Jacobi
    ], ids=["finite-r200", "beta(2,5)", "beta(0.2,0.3)"])
    def test_is_exactly_the_lstar_1_case(self, make_sigma):
        sigma = make_sigma()
        a = mv.md_moments(sigma)
        b = mv.lstar_moments(mv.md_from_spectral(sigma))
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.cov, b.cov)


class TestBetaSpectralMoments:
    def test_uniform_case_exact(self):
        s = mv.md_moments(mv.SpectralMeasure.beta(1.0, 1.0, 1.0))
        assert abs(s.m1) <= 1e-10 and abs(s.m2) <= 1e-10
        assert s.var1 == pytest.approx(0.25, abs=1e-10)
        assert s.var2 == pytest.approx(0.25, abs=1e-10)
        assert abs(s.cov12) <= 1e-10

    @pytest.mark.parametrize("ab", sorted(MC_BETA_ORACLE))
    def test_against_mc_oracle(self, ab):
        s = mv.md_moments(mv.SpectralMeasure.beta(*ab, 1.0))
        for key, expected in MC_BETA_ORACLE[ab].items():
            assert getattr(s, key) == pytest.approx(expected, abs=1e-3), key

    def test_parameter_swap_symmetry(self):
        # phi -> 2*pi - phi maps beta(a,b) to beta(b,a): m1 even, m2/cov12 odd
        a = mv.md_moments(mv.SpectralMeasure.beta(2.0, 5.0, 1.0))
        b = mv.md_moments(mv.SpectralMeasure.beta(5.0, 2.0, 1.0))
        assert a.m1 == pytest.approx(b.m1, abs=1e-9)
        assert a.m2 == pytest.approx(-b.m2, abs=1e-9)
        assert a.var1 == pytest.approx(b.var1, abs=1e-9)
        assert a.var2 == pytest.approx(b.var2, abs=1e-9)
        assert a.cov12 == pytest.approx(-b.cov12, abs=1e-9)

    def test_endpoint_singularity_handled(self):
        # a < 1 puts an integrable singularity at 0; trace identity must hold
        s = mv.md_moments(mv.SpectralMeasure.beta(0.5, 0.7, 1.0))
        assert s.var1 + s.var2 == pytest.approx(0.5, abs=1e-8)


def _counting_density(sigma):
    """sigma with a density that counts the nodes it is evaluated on."""
    nodes = [0]
    density = sigma.density

    def counted(x):
        nodes[0] += np.size(x)
        return density(x)

    return dataclasses.replace(sigma, density=counted), nodes


class TestBetaMomentOracle:
    """Both Gauss rules of the beta truth against 1F1 at 40 digits."""

    @pytest.mark.parametrize("ab", [(2.0, 5.0), (5.0, 1.0), (1.0, 1.0), (0.5, 0.5),
                                    (0.2, 0.3), (0.05, 0.05), (0.5, 50.0),
                                    (0.05, 200.0),
                                    # mass crowded next to phi = 0
                                    (0.05, 2000.0),
                                    # a derivative singular at an end, where
                                    # Gauss-Legendre must bisect many times
                                    (1.5, 3.0), (3.0, 1.2), (1.01, 7.0),
                                    # a + b = 1, where the generic first
                                    # recurrence term is 0/0
                                    (0.3, 0.7)])
    def test_against_hyp1f1(self, ab):
        s = mv.md_moments(mv.SpectralMeasure.beta(*ab, 1.0))
        mean, cov = hyp1f1_moments(*ab, 1.0)
        np.testing.assert_allclose(s.mean, mean, atol=1e-14, rtol=0)
        np.testing.assert_allclose(s.cov, cov, atol=1e-14, rtol=0)

    @settings(max_examples=60, deadline=None)
    @given(log_ab=st.tuples(*[st.floats(math.log(1e-3), math.log(1e3))] * 2))
    def test_log_uniform_shapes_against_hyp1f1(self, log_ab):
        ab = tuple(math.exp(x) for x in log_ab)
        s = mv.md_moments(mv.SpectralMeasure.beta(*ab, 1.0))
        mean, cov = hyp1f1_moments(*ab, 1.0)
        np.testing.assert_allclose(s.mean, mean, atol=1e-13, rtol=0)
        np.testing.assert_allclose(s.cov, cov, atol=1e-13, rtol=0)

    def test_scales_with_mass(self):
        s = mv.md_moments(mv.SpectralMeasure.beta(0.2, 0.3, 3.5))
        mean, cov = hyp1f1_moments(0.2, 0.3, 3.5)
        np.testing.assert_allclose(s.mean, mean, atol=1e-14, rtol=0)
        np.testing.assert_allclose(s.cov, cov, atol=1e-14, rtol=0)

    def test_lstar_moments_take_the_same_path(self):
        sigma = mv.SpectralMeasure.beta(0.05, 0.05, 1.0)
        a = mv.lstar_moments(mv.md_from_spectral(sigma))
        b = mv.md_moments(sigma)
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.cov, b.cov)

    @pytest.mark.parametrize("ab, density_used", [
        ((0.5, 0.5), False), ((0.05, 0.05), False), ((0.9, 3.0), False),
        ((2.0, 5.0), True), ((1.0, 1.0), True),
    ])
    def test_singular_shapes_never_evaluate_the_density(self, ab, density_used):
        sigma, nodes = _counting_density(mv.SpectralMeasure.beta(*ab, 1.0))
        mv.md_moments(sigma)
        assert (nodes[0] > 0) == density_used

    def test_over_budget_error_estimate_raises(self):
        density = mv.SpectralMeasure.beta(2.0, 5.0, 1.0).density
        for rule in (lambda: _gauss_jacobi_integrals(0.5, 0.5, tol=1e-30),
                     lambda: _gauss_legendre_integrals(density, tol=1e-30)):
            with pytest.raises(QuadratureError) as info:
                rule()
            assert info.value.achieved is not None and info.value.achieved > 1e-30

    @pytest.mark.parametrize("ab", [(50.0, 50.0), (150.0, 150.0), (198.0, 198.0),
                                    (198.5, 198.5), (300.0, 300.0), (1000.0, 1000.0)])
    def test_concentrated_shapes_pass_the_mass_check(self, ab):
        # (2 pi)^(1 - a - b) is subnormal from a + b = 386.4 on and 0 at
        # (300, 300), and B(1000, 1000) is 0: those densities are taken in
        # log space, with no 0/0 warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = mv.md_moments(mv.SpectralMeasure.beta(*ab, 1.0))
        mean, cov = hyp1f1_moments(*ab, 1.0)
        np.testing.assert_allclose(s.mean, mean, atol=1e-12, rtol=0)
        np.testing.assert_allclose(s.cov, cov, atol=1e-12, rtol=0)


def _pole_at_zero(x):
    return 1.0 / x


def _pole_at_two_pi(x):
    with np.errstate(divide="ignore"):  # nodes round onto 2*pi at last
        return 1.0 / (2 * np.pi - x)


def _all_nan(x):
    return np.full_like(x, np.nan)


class TestBoundedWork:
    """The Gauss-Legendre engine's work stays bounded on any density."""

    # a derivative unbounded at an end: plain bisection of the end pieces
    # took 1944, 2520, 2880 and 4968 nodes (27-40 rounds); the graded ends
    # with Wynn's epsilon take 1152, 1224, 1152 and 2232 (16-17 rounds)
    @pytest.mark.parametrize("ab, most", [((1.5, 3.0), 1300), ((3.0, 1.2), 1300),
                                          ((1.01, 7.0), 1300), ((1.001, 1.001), 2400)])
    def test_md_moments_stay_under_a_node_count(self, ab, most):
        sigma, nodes = _counting_density(mv.SpectralMeasure.beta(*ab, 1.0))
        mv.md_moments(sigma)
        assert 0 < nodes[0] <= most

    # a pole that is not integrable at either end, and a density that is
    # NaN everywhere: each raises, and the open pieces never pile up (a
    # wrapped beta(0.2, 0.3) had once 706 813 of them at round 50)
    @pytest.mark.parametrize("density", [_pole_at_zero, _pole_at_two_pi, _all_nan])
    def test_unresolvable_density_raises_in_bounded_memory(self, density):
        tracemalloc.start()
        try:
            with pytest.raises(QuadratureError) as info:
                _gauss_legendre_integrals(density)
            with pytest.raises(QuadratureError):
                mv.SpectralMeasure.angular(density)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not info.value.achieved <= 1e-10
        assert peak <= 2 * 2 ** 20


def _tail_mass_quadrature(radius, weight, alpha, eps):
    """Independent oracle: the defining radial integral, per atom."""
    lo = min(1.0, eps / radius)
    if lo >= 1.0:
        return 0.0
    val, _ = integrate.quad(
        lambda r: (-np.log(r)) ** (alpha - 1.0) / r, lo, 1.0,
        epsabs=1e-12, epsrel=1e-13, limit=500)
    return weight * val


class TestMalphaTailMass:
    def test_sphere_alpha1(self):
        params = mv.md_from_spectral(mv.SpectralMeasure.from_angles([0.0], [1.0]))
        assert mv.malpha_tail_mass(params, math.exp(-1.0)) == pytest.approx(1.0)

    def test_sphere_alpha2_closed_form(self):
        bd = mv.BDLM.from_spectral(mv.evenly_spaced_spectral(4, mass=3.0))
        params = mv.LStarParams(alpha=2.0, bdlm=bd)
        assert mv.malpha_tail_mass(params, math.exp(-2.0)) == pytest.approx(6.0)

    def test_off_sphere_atom_vs_quadrature(self):
        params = mv.LStarParams(alpha=1.0, bdlm=mv.BDLM.from_atoms([[2.0]], [1.0]))
        got = mv.malpha_tail_mass(params, 0.5)
        assert got == pytest.approx(_tail_mass_quadrature(2.0, 1.0, 1.0, 0.5),
                                    abs=1e-10)
        assert got == pytest.approx(math.log(4.0))

    def test_monotone_divergence_as_eps_shrinks(self):
        params = mv.gd_params(1.0)
        values = [mv.malpha_tail_mass(params, 10.0 ** -p) for p in (1, 3, 6, 30, 100)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 200.0

    def test_eps_domain(self):
        params = mv.gd_params(1.0)
        for eps in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValidationError):
                mv.malpha_tail_mass(params, eps)


def _radial_moment_quadrature(points, weights, alpha, p, region):
    """Independent oracle: integrate |y r|^p over the region against the
    radial kernel (-log r)^(alpha-1)/r for each atom."""
    import warnings

    total = 0.0
    for y, w in zip(points, weights):
        radius = float(np.linalg.norm(y))
        if radius == 0.0:
            continue
        if region == INSIDE:
            lo, hi = 0.0, min(1.0, 1.0 / radius)
        else:
            lo, hi = min(1.0, 1.0 / radius), 1.0
        if hi <= lo:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            val, _ = integrate.quad(
                lambda r: (radius * r) ** p * (-np.log(r)) ** (alpha - 1.0) / r,
                lo, hi, epsabs=1e-12, epsrel=1e-13, limit=500)
        total += w * val
    return total


class TestMalphaRadialMoment:
    def test_outside_atom_at_two(self):
        params = mv.LStarParams(alpha=1.0, bdlm=mv.BDLM.from_atoms([[2.0]], [1.0]))
        got = mv.malpha_radial_moment(params, 1.0, OUTSIDE)
        assert got == pytest.approx(1.0, abs=1e-12)  # 2 * (1 - e^{-log 2})
        oracle = _radial_moment_quadrature([[2.0]], [1.0], 1.0, 1.0, OUTSIDE)
        assert got == pytest.approx(oracle, abs=1e-8)

    def test_outside_sphere_is_zero(self):
        params = mv.md_from_spectral(mv.SpectralMeasure.from_angles([1.0], [1.0]))
        assert mv.malpha_radial_moment(params, 1.0, OUTSIDE) == 0.0

    def test_inside_sphere_full_gamma(self):
        bd = mv.BDLM.from_spectral(mv.evenly_spaced_spectral(3, mass=5.0))
        params = mv.LStarParams(alpha=2.0, bdlm=bd)
        got = mv.malpha_radial_moment(params, 2.0, INSIDE)
        assert got == pytest.approx(5.0 / 4.0, rel=1e-12)  # theta*Gamma(2)/2^2

    def test_matches_quadrature_on_mixed_atoms(self):
        points = [[0.5], [3.0], [-1.5]]
        weights = [0.7, 0.2, 1.1]
        params = mv.LStarParams(alpha=1.5,
                                bdlm=mv.BDLM.from_atoms(points, weights))
        for region in (INSIDE, OUTSIDE):
            for p in (0.5, 1.0, 2.0):
                got = mv.malpha_radial_moment(params, p, region)
                oracle = _radial_moment_quadrature(points, weights, 1.5, p, region)
                assert got == pytest.approx(oracle, abs=1e-8), (region, p)

    def test_domain_errors(self):
        params = mv.gd_params(1.0)
        with pytest.raises(ValidationError):
            mv.malpha_radial_moment(params, 0.0, INSIDE)
        with pytest.raises(ValidationError):
            mv.malpha_radial_moment(params, 1.0, "somewhere")


def test_bdlm_integrals_with_angular_spectral():
    bd = mv.BDLM.from_spectral(mv.SpectralMeasure.beta(2.0, 2.0))
    first, second = bdlm_integrals(bd)
    s = mv.md_moments(mv.SpectralMeasure.beta(2.0, 2.0, 1.0))
    np.testing.assert_allclose(first, s.mean, atol=1e-12)
    np.testing.assert_allclose(second, 2.0 * np.asarray(s.cov), atol=1e-12)
