import dataclasses
import math

import mpmath
import numpy as np
import pytest

import mvdickman as mv
from mvdickman.discretize import discretized_moment_error
from mvdickman.errors import QuadratureError, ValidationError
from oracles import hyp1f1_moments

TWO_PI = 2 * np.pi


class TestDefaultGrid:
    def test_k1_single_cell(self):
        grid = mv.default_grid(1)
        np.testing.assert_allclose(grid.cuts, [0.0, TWO_PI])
        np.testing.assert_allclose(grid.angles, [0.0])

    def test_k2(self):
        grid = mv.default_grid(2)
        np.testing.assert_allclose(grid.cuts, [0.0, np.pi, TWO_PI])
        np.testing.assert_allclose(grid.angles, [0.0, np.pi])

    def test_k4_left_representatives(self):
        grid = mv.default_grid(4)
        np.testing.assert_allclose(grid.angles,
                                   [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])

    def test_midpoint_representatives(self):
        grid = mv.default_grid(4, representatives="midpoint")
        np.testing.assert_allclose(grid.angles,
                                   [np.pi / 4, 3 * np.pi / 4, 5 * np.pi / 4,
                                    7 * np.pi / 4])
        assert np.all(grid.angles >= grid.cuts[:-1])
        assert np.all(grid.angles < grid.cuts[1:])

    def test_k_zero_rejected(self):
        with pytest.raises(ValidationError):
            mv.default_grid(0)

    def test_grid_invariants_enforced(self):
        with pytest.raises(ValidationError):
            mv.DiscretizationGrid(cuts=[0.0, 2.0, 1.0, TWO_PI], angles=[0.0, 1.0, 1.5])
        with pytest.raises(ValidationError):
            mv.DiscretizationGrid(cuts=[0.0, np.pi, TWO_PI], angles=[0.0, np.pi / 2])

    @pytest.mark.parametrize("cuts, angles", [
        ([0.0, TWO_PI], [math.nan]), ([0.0, math.nan, TWO_PI], [0.0, 1.0]),
        ([0.0, math.inf, TWO_PI], [0.0, 1.0]), ([0.0, "x", TWO_PI], [0.0, 1.0]),
        ([0.0, True, TWO_PI], [0.0, 2.0]), ([0.0, TWO_PI], [None]),
    ], ids=["nan-angle", "nan-cut", "inf-cut", "str-cut", "bool-cut", "none-angle"])
    def test_entries_must_be_finite_reals(self, cuts, angles):
        with pytest.raises(ValidationError):
            mv.DiscretizationGrid(cuts=cuts, angles=angles)


class TestDiscretizeAngular:
    def test_uniform_k4_equal_atoms(self):
        sigma = mv.SpectralMeasure.beta(1.0, 1.0)
        sig_k = mv.discretize_angular(sigma, mv.default_grid(4))
        np.testing.assert_allclose(sig_k.masses, 0.25, atol=1e-12)
        np.testing.assert_allclose(sorted(sig_k.angles()),
                                   [0.0, np.pi / 2, np.pi, 3 * np.pi / 2],
                                   atol=1e-12)

    def test_mass_conservation_beta25(self):
        sigma = mv.SpectralMeasure.beta(2.0, 5.0)
        for k in (1, 7, 50, 200):
            sig_k = mv.discretize_angular(sigma, mv.default_grid(k))
            assert abs(sig_k.mass - 1.0) <= 1e-9

    def test_mass_conservation_nonunit_theta(self):
        sigma = mv.SpectralMeasure.beta(2.0, 2.0, mass=3.5)
        sig_k = mv.discretize_angular(sigma, mv.default_grid(13))
        assert abs(sig_k.mass - 3.5) <= 1e-9

    def test_beta22_k200_moments_close(self):
        err = discretized_moment_error(mv.SpectralMeasure.beta(2.0, 2.0), 200)
        assert err <= 0.01

    def test_moment_error_decreases_with_k(self):
        sigma = mv.SpectralMeasure.beta(2.0, 2.0)
        errs = [discretized_moment_error(sigma, k) for k in (5, 10, 50, 200)]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_midpoint_bias_smaller_than_left(self):
        sigma = mv.SpectralMeasure.beta(2.0, 5.0)
        left = discretized_moment_error(sigma, 50, "left")
        mid = discretized_moment_error(sigma, 50, "midpoint")
        assert mid < left

    def test_zero_mass_cells_dropped(self):
        # density supported on [pi, 2*pi) only: the first half contributes
        # empty cells which must not reach the finite measure
        def density(x):
            x = np.asarray(x, dtype=float)
            return np.where(x >= np.pi, 1.0 / np.pi, 0.0)

        sigma = mv.SpectralMeasure.angular(density, mass=1.0)
        sig_k = mv.discretize_angular(sigma, mv.default_grid(4))
        assert len(sig_k.masses) == 2
        assert np.all(sig_k.masses > 0)
        assert abs(sig_k.mass - 1.0) <= 1e-9

    def test_requires_angular_variant(self):
        with pytest.raises(ValidationError):
            mv.discretize_angular(mv.evenly_spaced_spectral(3), mv.default_grid(4))


BETA_SHAPES = [(2.0, 5.0), (5.0, 1.0), (1.0, 1.0), (0.5, 0.5), (0.2, 0.3),
               (0.05, 0.05), (50.0, 50.0)]
# cells of width 1e-9 and 1e-3 (in units of 2*pi) at both ends, and one
# cut on each side of the middle
UNEVEN_X = [0.0, 1e-9, 1e-3, 0.3, 0.4999, 0.5001, 0.9, 1 - 1e-3, 1 - 1e-9, 1.0]
GRIDS = {
    "k1": lambda: mv.default_grid(1),
    "k7": lambda: mv.default_grid(7),
    "k200": lambda: mv.default_grid(200),
    "midpoint50": lambda: mv.default_grid(50, representatives="midpoint"),
    "uneven": lambda: mv.DiscretizationGrid(cuts=TWO_PI * np.array(UNEVEN_X),
                                            angles=TWO_PI * np.array(UNEVEN_X[:-1])),
}


def _oracle_cells(a, b, theta, cuts):
    """theta * P(x_{i-1} <= B < x_i) for B ~ Beta(a, b), x = cuts / 2pi, at 50
    digits, with 2pi the double the package's densities use; and theta times
    the smaller tail min(I_{x_i}, 1 - I_{x_{i-1}}) each cell is a difference
    of. Cells from 1/2 up integrate the mirrored law Beta(b, a) from 0 by
    I_x(a, b) = 1 - I_{1-x}(b, a): mpmath's two-limit betainc returns a
    negative mass for the last k = 200 cell of beta(50, 50)."""
    with mpmath.workdps(50):
        x = [mpmath.mpf(float(c)) / mpmath.mpf(TWO_PI) for c in cuts]
        x[0], x[-1] = mpmath.mpf(0), mpmath.mpf(1)

        def lower(t, p, q):
            return mpmath.betainc(p, q, 0, t, regularized=True)

        masses, tails = [], []
        for lo, hi in zip(x[:-1], x[1:]):
            if lo >= 0.5:
                m = lower(1 - lo, b, a) - lower(1 - hi, b, a)
            elif hi > 0.5:
                m = 1 - lower(1 - hi, b, a) - lower(lo, a, b)
            else:
                m = lower(hi, a, b) - lower(lo, a, b)
            masses.append(float(theta * m))
            tails.append(float(theta * min(1 - lower(1 - hi, b, a),
                                           lower(1 - lo, b, a))))
    return np.array(masses), np.array(tails)


class TestBetaCellMasses:
    """Beta models take their cell masses from the incomplete beta function."""

    @pytest.mark.parametrize("grid_name", list(GRIDS))
    @pytest.mark.parametrize("a,b", BETA_SHAPES)
    def test_masses_match_incomplete_beta_oracle(self, a, b, grid_name):
        grid = GRIDS[grid_name]()
        want, tails = _oracle_cells(a, b, 3.5, grid.cuts)
        sig_k = mv.discretize_angular(mv.SpectralMeasure.beta(a, b, mass=3.5), grid)
        keep = want > 0  # cells whose mass underflows a double are dropped
        # 1e-11 relative, or 8 ulps of the tail the cell is differenced from:
        # betainc itself is off by up to 6 ulps near the median, which is all
        # of the error of the 2e-4-wide middle cells of the uneven grid
        err = np.abs(sig_k.masses - want[keep])
        assert np.all(err <= 1e-11 * want[keep] + 8 * np.finfo(float).eps * tails[keep])
        np.testing.assert_allclose(sig_k.directions,
                                   mv.angle_to_direction(grid.angles[keep]),
                                   rtol=0, atol=1e-15)

    # k = 1 puts both singular ends of the wrapped density in one cell, which
    # the quadrature splits at pi
    @pytest.mark.parametrize("k", [1, 7, 200])
    @pytest.mark.parametrize("a,b", [s for s in BETA_SHAPES if s != (0.05, 0.05)])
    def test_masses_agree_with_quadrature_path(self, a, b, k):
        sigma = mv.SpectralMeasure.beta(a, b)
        by_quadrature = mv.SpectralMeasure.angular(sigma.density, mass=sigma.mass)
        assert by_quadrature.beta_params is None
        grid = mv.default_grid(k)
        np.testing.assert_allclose(mv.discretize_angular(sigma, grid).masses,
                                   mv.discretize_angular(by_quadrature, grid).masses,
                                   rtol=0, atol=1e-11)

    @pytest.mark.parametrize("ab", [s for s in BETA_SHAPES if s != (0.05, 0.05)])
    def test_generic_md_moments_match_hyp1f1(self, ab):
        sigma = mv.SpectralMeasure.angular(mv.SpectralMeasure.beta(*ab).density, mass=1.0)
        s = mv.md_moments(sigma)
        mean, cov = hyp1f1_moments(*ab, 1.0)
        np.testing.assert_allclose(s.mean, mean, rtol=0, atol=1e-11)
        np.testing.assert_allclose(s.cov, cov, rtol=0, atol=1e-11)

    # near 2*pi the nodes are 8.9e-16 apart, and beta(0.05, 0.05) holds 8% of
    # its mass within one such spacing of 2*pi: each generic path must either
    # raise or meet its budget, never understate its error
    @pytest.mark.parametrize("k", [1, 7, 10, 50, 200])
    def test_strong_endpoint_singularity_never_understated(self, k):
        beta = mv.SpectralMeasure.beta(0.05, 0.05)
        wrapped = dataclasses.replace(beta, beta_params=None)
        try:
            mass = mv.SpectralMeasure.angular(beta.density).mass
            assert abs(mass - 1.0) <= 1e-10
        except QuadratureError:
            pass
        try:
            s = mv.md_moments(wrapped)
            truth = mv.md_moments(beta)  # the Gauss-Jacobi rule
            np.testing.assert_allclose(s.mean, truth.mean, rtol=0, atol=1e-10)
            np.testing.assert_allclose(s.cov, truth.cov, rtol=0, atol=1e-10)
        except QuadratureError:
            pass
        grid = mv.default_grid(k)
        try:
            masses = mv.discretize_angular(wrapped, grid).masses
            np.testing.assert_allclose(masses, mv.discretize_angular(beta, grid).masses,
                                       rtol=0, atol=1e-10)
        except QuadratureError:
            pass

    @pytest.mark.parametrize("k", [10, 50, 200])
    def test_strong_endpoint_singularity_discretizes(self, k):
        sigma = mv.SpectralMeasure.beta(0.05, 0.05)
        grid = mv.default_grid(k)
        sig_k = mv.discretize_angular(sigma, grid)
        assert len(sig_k.masses) == k
        assert abs(math.fsum(sig_k.masses) - sigma.mass) <= 1e-12
        # the generic path misses its error budget on this shape
        with pytest.raises(QuadratureError):
            mv.discretize_angular(dataclasses.replace(sigma, beta_params=None), grid)

    # the end at 2*pi closes before its nodes round onto 2*pi, where this
    # density is infinite, so the error it reports is a number, not NaN
    @pytest.mark.parametrize("k", [7, 50])
    def test_unresolved_end_reports_a_finite_error(self, k):
        density = mv.SpectralMeasure.beta(0.05, 0.05).density
        sigma = mv.SpectralMeasure(variant="angular", dim=2, mass=1.0, density=density)
        with pytest.raises(QuadratureError) as info:
            mv.discretize_angular(sigma, mv.default_grid(k))
        assert math.isfinite(info.value.achieved) and info.value.achieved > 1e-10
        assert "nan" not in str(info.value)

    @pytest.mark.parametrize("inner", [[], [np.pi]])
    def test_end_cuts_count_as_exactly_zero_and_two_pi(self, inner):
        # the grid accepts end cuts up to 1e-15 and 1e-12 off; beta(0.05, 0.05)
        # holds about 8% of its mass within 1e-13 of either end, and the
        # beta(0.5, 0.5) density, which the generic path resolves, 2.4e-7
        cuts = np.array([9e-16, *inner, TWO_PI - 9e-13])
        grid = mv.DiscretizationGrid(cuts=cuts, angles=cuts[:-1])
        sig_k = mv.discretize_angular(mv.SpectralMeasure.beta(0.05, 0.05), grid)
        assert abs(math.fsum(sig_k.masses) - 1.0) <= 1e-12
        wrapped = dataclasses.replace(mv.SpectralMeasure.beta(0.5, 0.5), beta_params=None)
        sig_k = mv.discretize_angular(wrapped, grid)
        assert abs(math.fsum(sig_k.masses) - 1.0) <= 1e-12

    def test_density_is_never_evaluated(self):
        calls = []

        def counted(x):
            calls.append(1)
            return sigma.density(x)

        sigma = mv.SpectralMeasure.beta(2.0, 5.0)
        counting = dataclasses.replace(sigma, density=counted)
        sig_k = mv.discretize_angular(counting, mv.default_grid(200))
        assert calls == []
        np.testing.assert_array_equal(
            sig_k.masses, mv.discretize_angular(sigma, mv.default_grid(200)).masses)
        mv.discretize_angular(dataclasses.replace(counting, beta_params=None),
                              mv.default_grid(7))
        assert calls  # the same counter does see the quadrature path

    def test_revalidates_the_shapes_it_trusts(self):
        with pytest.raises(ValidationError, match="beta parameters"):
            dataclasses.replace(mv.SpectralMeasure.beta(2.0, 5.0),
                                beta_params=(math.nan, 5.0))


def test_ds_on_discretized_measure_tracks_truth():
    """Sampling the level-k discretization approaches the target moments."""
    sigma = mv.SpectralMeasure.beta(2.0, 2.0)
    truth = mv.md_moments(sigma)
    rng = np.random.default_rng(77)
    sig_k = mv.discretize_angular(sigma, mv.default_grid(100))
    x = mv.sample_ds_batch(sig_k, 1e-12, 60_000, rng)
    emp = mv.empirical_moments(x)
    np.testing.assert_allclose(emp.mean, truth.mean, atol=0.02)
    np.testing.assert_allclose(emp.cov, truth.cov, atol=0.02)
