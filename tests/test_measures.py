import dataclasses
import json
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvdickman as mv
from mvdickman.errors import UnsupportedMeasureError, ValidationError


def test_angle_to_direction_cardinal_points():
    np.testing.assert_allclose(mv.angle_to_direction(0.0), [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(mv.angle_to_direction(np.pi), [-1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(mv.angle_to_direction(np.pi / 2), [0.0, 1.0], atol=1e-15)


def test_angle_to_direction_reduces_mod_2pi():
    np.testing.assert_allclose(mv.angle_to_direction(2 * np.pi + 0.3),
                               mv.angle_to_direction(0.3), atol=1e-12)
    np.testing.assert_allclose(mv.angle_to_direction(-np.pi / 2),
                               mv.angle_to_direction(3 * np.pi / 2), atol=1e-12)


def _bits(x):
    return np.asarray(x).view(np.int64)


ANGLES = st.one_of(
    st.floats(0.0, mv.measures.TWO_PI, exclude_min=True, exclude_max=True),
    st.floats(allow_infinity=False),
    st.sampled_from([0.0, -0.0, float("nan"), mv.measures.TWO_PI,
                     np.nextafter(mv.measures.TWO_PI, 0.0), -1.0, 7.0]))


@settings(max_examples=300, deadline=None)
@given(phi=st.lists(ANGLES, max_size=20), in_range=st.booleans())
def test_angle_to_direction_skips_only_an_identity_reduction(phi, in_range):
    """Angles all in (0, 2*pi) skip ``% 2*pi``; the bits equal the reduced map's.
    A NaN is refused, before the reduction."""
    phi = np.array(phi, dtype=float)
    if in_range:
        phi = phi[(phi > 0.0) & (phi < mv.measures.TWO_PI)]
    if np.isnan(phi).any():
        with pytest.raises(ValidationError, match="angles must be finite"):
            mv.angle_to_direction(phi)
        phi = phi[~np.isnan(phi)]
    reduced = phi % mv.measures.TWO_PI
    ref = np.stack([np.cos(reduced), np.sin(reduced)], axis=-1)
    np.testing.assert_array_equal(_bits(mv.angle_to_direction(phi)), _bits(ref))
    for x in phi[:3]:
        r = x % mv.measures.TWO_PI
        np.testing.assert_array_equal(_bits(mv.angle_to_direction(x)),
                                      _bits([np.cos(r), np.sin(r)]))


def test_angle_to_direction_unit_norm():
    rng = np.random.default_rng(7)
    phis = rng.random(500) * 2 * np.pi
    s = mv.angle_to_direction(phis)
    assert np.max(np.abs(np.linalg.norm(s, axis=1) - 1.0)) <= 1e-15


class TestSpectralMeasure:
    def test_finite_total_mass_is_sum(self):
        sigma = mv.SpectralMeasure.from_angles([0.1, 2.0], [2.0, 3.0])
        assert sigma.mass == pytest.approx(5.0)

    def test_point_mass(self):
        sigma = mv.SpectralMeasure.finite([[1.0, 0.0]], [1.0])
        assert sigma.dim == 2
        assert sigma.mass == 1.0

    def test_evenly_spaced_50(self):
        sigma = mv.evenly_spaced_spectral(50)
        assert len(sigma.masses) == 50
        assert sigma.mass == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(sigma.masses, 1 / 50)

    @pytest.mark.parametrize("r", [0, -1, 2.5, math.nan, True, "2"])
    def test_evenly_spaced_rejects_bad_counts(self, r):
        # 2.5 once raised NumPy's TypeError and nan its ValueError
        with pytest.raises(ValidationError, match="^r must be an integer >= 1"):
            mv.evenly_spaced_spectral(r)

    def test_rejects_non_unit_direction(self):
        with pytest.raises(ValidationError, match="unit norm"):
            mv.SpectralMeasure.finite([[1.0, 1.0]], [1.0])

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValidationError, match="a_i"):
            mv.SpectralMeasure.from_angles([0.0, 1.0], [1.0, 0.0])
        with pytest.raises(ValidationError, match="a_i"):
            mv.SpectralMeasure.from_angles([0.0], [-2.0])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            mv.SpectralMeasure.from_angles([], [])

    def test_angular_mass_crosscheck(self):
        # declared mass must match the quadrature mass to 1e-8
        density = lambda x: np.full_like(np.asarray(x, dtype=float),
                                         1.0 / (2 * np.pi))
        sigma = mv.SpectralMeasure.angular(density, mass=1.0)
        assert sigma.mass == 1.0
        with pytest.raises(ValidationError, match="quadrature mass"):
            mv.SpectralMeasure.angular(density, mass=1.5)

    @pytest.mark.parametrize("mass", [math.nan, "1", True])
    def test_angular_mass_must_be_a_number(self, mass):
        # nan once slipped past the cross-check and "1" raised a TypeError
        density = lambda x: np.full_like(np.asarray(x, dtype=float),
                                         1.0 / (2 * np.pi))
        with pytest.raises(ValidationError, match="mass"):
            mv.SpectralMeasure.angular(density, mass=mass)

    def test_beta_invalid_params(self):
        with pytest.raises(ValidationError):
            mv.SpectralMeasure.beta(0.0, 1.0)
        with pytest.raises(ValidationError):
            mv.SpectralMeasure.beta(1.0, 1.0, mass=-1.0)

    @pytest.mark.parametrize("a, b", [(np.nan, 2.0), (2.0, np.nan), (np.inf, 2.0),
                                      (2.0, np.inf)])
    def test_beta_rejects_non_finite_params(self, a, b):
        with pytest.raises(ValidationError, match="finite"):
            mv.SpectralMeasure.beta(a, b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_atoms(self, bad):
        # angles are rejected before `% 2pi`, which warns on +-inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="angles must be finite"):
                mv.SpectralMeasure.from_angles([bad, 0.0], [1.0, 1.0])
        with pytest.raises(ValidationError, match="finite"):
            mv.SpectralMeasure.finite([[bad, 0.0], [1.0, 0.0]], [1.0, 1.0])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call", [
        lambda: mv.SpectralMeasure.finite([[1e200, 0.0]], [1.0]),
        lambda: mv.SpectralMeasure.finite([[1e-200, -1e300], [1.0, 0.0]], [1.0, 1.0]),
        lambda: mv.BDLM.from_spectral(mv.SpectralMeasure.finite([[1.0, 1e155]], [1.0])),
        lambda: mv.angle_to_direction(np.inf),
        lambda: mv.angle_to_direction([0.5, -np.inf]),
        lambda: mv.angle_to_direction(np.nan),
    ], ids=["huge", "huge-second", "square-overflows", "inf", "minus-inf-among", "nan"])
    def test_refuses_a_non_unit_direction_without_a_warning(self, call):
        # coordinates beyond 1 and non-finite angles are refused before the
        # norm or the reduction, which warn on them
        with pytest.raises(ValidationError, match="unit norm|angles must be finite"):
            call()

    @pytest.mark.parametrize("directions, mass", [([[np.nan, 0.0]], 1.0),
                                                  ([[1.0, 0.0]], 2.0)])
    def test_draw_rechecks_raw_constructed_measure(self, directions, mass):
        # masses that do not sum to `mass` are the case Generator.choice rejected
        with pytest.raises(ValidationError):
            mv.SpectralMeasure(variant="finite", dim=2, mass=mass,
                               directions=np.array(directions),
                               masses=np.array([1.0]))

    def test_sampled_directions_unit_norm(self):
        rng = np.random.default_rng(11)
        s = mv.SpectralMeasure.beta(2.0, 5.0).sample_directions(rng, 2000)
        assert np.max(np.abs(np.linalg.norm(s, axis=1) - 1.0)) <= 1e-12

    def test_finite_direction_sampling_frequencies(self):
        sigma = mv.SpectralMeasure.from_angles([0.0, np.pi], [3.0, 1.0])
        rng = np.random.default_rng(3)
        s = sigma.sample_directions(rng, 40_000)
        frac_right = np.mean(s[:, 0] > 0)
        assert frac_right == pytest.approx(0.75, abs=0.01)

    @pytest.mark.parametrize("density", [None, 1.0])
    def test_angular_needs_a_callable_density(self, density):
        with pytest.raises(ValidationError, match="callable density"):
            mv.SpectralMeasure(variant="angular", dim=2, mass=1.0, density=density)

    def test_angular_without_sampler_cannot_draw(self):
        density = lambda x: np.full_like(np.asarray(x, dtype=float),
                                         1.0 / (2 * np.pi))
        sigma = mv.SpectralMeasure.angular(density)
        with pytest.raises(UnsupportedMeasureError):
            sigma.sample_directions(np.random.default_rng(0), 10)


# Finite draws must equal Generator.choice + gather bit for bit, generator
# state included: masses span 1e-18..1, so the cdf has ties (masses below
# its ulp) and buckets crowded with cut points.
_atom_masses = st.lists(st.floats(-18.0, 0.0), min_size=1, max_size=500).map(
    lambda exps: 10.0 ** np.array(exps))
_draw_counts = st.sampled_from([0, 1, 20_000])


def _choice_draws(points, p, seed, n):
    rng = np.random.default_rng(seed)
    return points[rng.choice(len(p), size=n, p=p)], rng.bit_generator.state


@settings(deadline=None, max_examples=60)
@given(masses=_atom_masses, n=_draw_counts, seed=st.integers(0, 2 ** 32 - 1))
def test_finite_draws_equal_generator_choice(masses, n, seed):
    angles = np.random.default_rng(seed).random(len(masses)) * 2 * np.pi
    sigma = mv.SpectralMeasure.from_angles(angles, masses)
    expected, state = _choice_draws(sigma.directions, sigma.masses / sigma.mass, seed, n)
    rng = np.random.default_rng(seed)
    got = sigma.sample_directions(rng, n)
    np.testing.assert_array_equal(got, expected)
    assert rng.bit_generator.state == state


@settings(deadline=None, max_examples=60)
@given(masses=_atom_masses, n=_draw_counts, seed=st.integers(0, 2 ** 32 - 1),
       dim=st.integers(1, 3))
def test_bdlm_atom_draws_equal_generator_choice(masses, n, seed, dim):
    points = np.random.default_rng(seed).standard_normal((len(masses), dim))
    bd = mv.BDLM.from_atoms(points, masses)
    expected, state = _choice_draws(points, bd.weights / bd.theta, seed, n)
    rng = np.random.default_rng(seed)
    got = bd.base_sampler(rng, n)
    np.testing.assert_array_equal(got, expected)
    assert rng.bit_generator.state == state


class _FixedUniforms:
    """Stands in for a Generator whose ``random(n)`` returns given values."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, n):
        assert n == len(self.u)
        return self.u.copy()


@pytest.mark.parametrize("masses", [
    [0.5, 1e-17, 1e-17, 0.25, 1e-3, 0.249, 1e-9],
    [0.5, 0.25, 0.125, 0.125],  # every cut point is a bucket edge
])
def test_finite_draws_at_cut_points_and_bucket_edges(masses):
    # uniforms exactly on, and one ulp either side of, every cut point and
    # every j/m (m <= 64), where an off-by-one in the table would show
    sigma = mv.SpectralMeasure.from_angles(np.linspace(0.0, 6.0, len(masses)), masses)
    cdf = (sigma.masses / sigma.mass).cumsum()
    cdf /= cdf[-1]
    marks = np.concatenate([cdf] + [np.arange(m) / m for m in range(1, 65)])
    u = np.concatenate([marks, np.nextafter(marks, 0.0), np.nextafter(marks, 1.0)])
    u = u[(u >= 0.0) & (u < 1.0)]
    got = sigma.sample_directions(_FixedUniforms(u), len(u))
    np.testing.assert_array_equal(got, sigma.directions[cdf.searchsorted(u, "right")])
    # the same uniforms as the direction rows [:, 1] of a (b, 2, n) block, a
    # strided view, as the series kernels look them up
    block = np.zeros((len(u), 2, 1))
    block[:, 1, 0] = u
    np.testing.assert_array_equal(sigma._atom_sampler.indices(block[:, 1])[:, 0],
                                  cdf.searchsorted(u, "right"))


def _spread_atoms(r):
    """r atoms with masses spread over three decades, so that some guide-table
    buckets hold several cut points."""
    rng = np.random.default_rng(r)
    return mv.SpectralMeasure.from_angles(2 * np.pi * rng.random(r),
                                          10.0 ** rng.uniform(-3.0, 0.0, r))


@pytest.mark.parametrize("r", [1, 2, 200, 5000])
def test_lookup_is_searchsorted_at_every_cut_point_and_bucket_edge(r):
    # the lookup settles a draw in a bucket without a cut point inside it from
    # the table alone: uniforms on, and one ulp below, every cut point and
    # every bucket edge b / M, and one ulp above each edge, where a wrong
    # ``open`` flag or ``lo`` entry would show
    atoms = _spread_atoms(r)._atom_sampler
    cdf, m = atoms.cdf, atoms.buckets
    edges = np.arange(m) / m
    marks = np.concatenate([cdf, edges])
    u = np.concatenate([marks, np.nextafter(marks, 0.0), np.nextafter(edges, 1.0),
                        [1.0 - 2.0 ** -53], np.random.default_rng(r).random(1000)])
    u = u[(u >= 0.0) & (u < 1.0)]
    np.testing.assert_array_equal(atoms.indices(u), cdf.searchsorted(u, "right"))
    block = np.zeros((len(u), 2, 1))  # a strided view, as the series kernels pass
    block[:, 1, 0] = u
    np.testing.assert_array_equal(atoms.indices(block[:, 1])[:, 0],
                                  cdf.searchsorted(u, "right"))
    # the table by its definition: lo[b] counts the cut points <= b / M, and
    # open[b] flags a cut point in (b / M, (b + 1) / M); the table is at least
    # 64 r buckets up to its cap of 2^16, and never under the 4 r it had before
    edges = np.arange(m + 1) / m
    np.testing.assert_array_equal(atoms.lo, cdf.searchsorted(edges[:-1], "right"))
    np.testing.assert_array_equal(atoms.open, cdf.searchsorted(edges[1:], "left") != atoms.lo)
    assert np.count_nonzero(atoms.open) <= r
    assert m >= max(4 * r, min(64 * r, 1 << 16)) and m & (m - 1) == 0


@pytest.mark.parametrize("value, real, count", [
    (2, True, True), (2.5, True, False), (True, False, False), (False, False, False),
    (np.float64(2.5), True, False), (np.int64(2), True, True), (np.bool_(True), False, False),
    (type("F", (float,), {})(1.5), True, False), ("2", False, False), (2j, False, False),
    (None, False, False)])
def test_number_checks(value, real, count):
    # plain floats and ints pass on their type; the rest take the ABC check
    assert mv.measures._is_real(value) is real
    assert mv.measures._is_int(value) is count


class TestJson:
    def test_finite_round_trip(self):
        sigma = mv.evenly_spaced_spectral(4, mass=2.0)
        doc = mv.spectral_to_json(sigma)
        assert doc["variant"] == "finite"
        assert doc["dim"] == 2
        assert len(doc["atoms"]) == 4
        back = mv.spectral_from_json(json.loads(json.dumps(doc)))
        np.testing.assert_allclose(back.directions, sigma.directions, atol=1e-12)
        np.testing.assert_allclose(back.masses, sigma.masses)

    def test_beta_round_trip(self):
        doc = {"variant": "beta", "alpha": 2.0, "beta": 5.0, "mass": 1.0}
        sigma = mv.spectral_from_json(doc)
        assert sigma.beta_params == (2.0, 5.0)
        assert mv.spectral_to_json(sigma) == doc

    def test_unknown_variant(self):
        with pytest.raises(ValidationError):
            mv.spectral_from_json({"variant": "mystery"})

    @pytest.mark.parametrize("doc, field", [
        ({"variant": "finite", "atoms": [{"mass": 1.0}]}, "angle"),
        ({"variant": "finite", "atoms": [{"angle": 0.0}]}, "mass"),
        ({"variant": "finite", "atoms": [{"angle": 0.0, "mass": "1.0"}]}, "mass"),
        ({"variant": "finite", "atoms": ["atom"]}, "angle"),
        ({"variant": "beta", "beta": 5.0}, "alpha"),
        ({"variant": "beta", "alpha": 2.0}, "beta"),
        ({"variant": "beta", "alpha": 2.0, "beta": None}, "beta"),
        ({"variant": "beta", "alpha": 2.0, "beta": 5.0, "mass": "one"}, "mass"),
    ])
    def test_malformed_document_names_field(self, doc, field):
        with pytest.raises(ValidationError, match=f"'{field}'"):
            mv.spectral_from_json(doc)

    def test_sampler_backed_not_serializable(self):
        # the wire format has angles, so a measure in d = 3 has no document
        sigma = mv.SpectralMeasure.finite(np.eye(3), [1.0, 1.0, 1.0])
        with pytest.raises(UnsupportedMeasureError):
            mv.spectral_to_json(sigma)

    def test_model_labels_are_comma_free(self):
        beta = {"variant": "beta", "alpha": 2.0, "beta": 5.0, "mass": 1.0}
        finite = mv.spectral_to_json(mv.evenly_spaced_spectral(50))
        for doc in (beta, finite):
            assert "," not in mv.model_label(doc)
        assert mv.model_label(finite) == "finite(r=50)"
        assert mv.model_label(beta) == "beta(2;5)"

    def test_model_label_reads_fields_as_the_parser_does(self):
        doc = {"variant": "beta", "alpha": 2, "beta": 0.5, "mass": 2.5}
        assert mv.model_label(doc) == "beta(2;0.5;mass=2.5)"
        for bad in ({"variant": "beta"}, ["x"], {"variant": "beta", "alpha": "2", "beta": 5},
                    {"variant": "finite", "atoms": 5}):
            with pytest.raises(ValidationError):
                mv.model_label(bad)


#: one document per branch of ``spectral_from_json``: atoms, the beta density
#: with its beta sampler, the uniform sampler of (1, 1), and the log-space
#: density above a + b = 386.4
PICKLED_MODELS = {
    "finite": {"variant": "finite", "atoms": [{"angle": 0.3, "mass": 0.2},
                                              {"angle": 2.0, "mass": 0.5},
                                              {"angle": 5.1, "mass": 0.3}]},
    "beta-2-5": {"variant": "beta", "alpha": 2.0, "beta": 5.0},
    "uniform": {"variant": "beta", "alpha": 1.0, "beta": 1.0, "mass": 2.0},
    "log-space": {"variant": "beta", "alpha": 200.0, "beta": 190.0},
}


class TestPickle:
    """A pickled measure or moment summary is rebuilt by its constructor."""

    @pytest.mark.parametrize("name", sorted(PICKLED_MODELS))
    def test_measure_round_trip_keeps_bits_and_locks(self, name):
        sigma = mv.spectral_from_json(PICKLED_MODELS[name])
        sigma.sample_directions(np.random.default_rng(1), 10)  # a finite one caches its table
        back = pickle.loads(pickle.dumps(sigma))
        assert "_atom_sampler" not in back.__dict__
        for rows in (None, np.array([0, 5, 999])):
            assert np.array_equal(
                sigma.sample_directions(np.random.default_rng(7), 1000, rows),
                back.sample_directions(np.random.default_rng(7), 1000, rows))
        if sigma.variant == "finite":
            for a in (back.directions, back.masses):
                assert not a.flags.writeable
        else:
            x = np.linspace(0.0, 2.0 * np.pi, 257)
            with np.errstate(divide="ignore", invalid="ignore"):
                assert np.array_equal(sigma.density(x), back.density(x), equal_nan=True)
            assert (back.mass, back.beta_params) == (sigma.mass, sigma.beta_params)

    def test_pickle_leaves_the_guide_table_out(self):
        sigma = mv.evenly_spaced_spectral(200)
        bare = len(pickle.dumps(sigma))
        sigma.sample_directions(np.random.default_rng(1), 10)
        assert "_atom_sampler" in sigma.__dict__
        assert len(pickle.dumps(sigma)) == bare < 16 * 1024

    def test_moment_summary_round_trip_is_locked(self):
        truth = mv.md_moments(mv.spectral_from_json(PICKLED_MODELS["beta-2-5"]))
        back = pickle.loads(pickle.dumps(truth))
        assert np.array_equal(back.mean, truth.mean) and np.array_equal(back.cov, truth.cov)
        assert not (back.mean.flags.writeable or back.cov.flags.writeable)


class TestBDLM:
    def test_from_atoms_total_mass(self):
        bd = mv.BDLM.from_atoms([[2.0], [-1.0]], [0.5, 1.5])
        assert bd.theta == pytest.approx(2.0)
        assert bd.dim == 1

    def test_rejects_bad_weights(self):
        with pytest.raises(ValidationError):
            mv.BDLM.from_atoms([[1.0]], [0.0])

    @pytest.mark.parametrize("theta", [math.inf, math.nan, "2", True, 0.0])
    def test_gd_params_names_a_bad_theta_without_a_warning(self, theta):
        # inf once warned in a NumPy divide and then blamed the atom weights
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^theta must be finite"):
                mv.gd_params(theta)
            if isinstance(theta, float):  # weights are arrays, which take "2" and True
                with pytest.raises(ValidationError, match="theta|weight"):
                    mv.BDLM.from_atoms([[1.0]], [theta])

    def test_atom_at_origin_is_tolerated(self):
        bd = mv.BDLM.from_atoms([[0.0], [1.0]], [0.5, 0.5])
        draws = bd.base_sampler(np.random.default_rng(5), 1000)
        assert set(np.unique(draws)) <= {0.0, 1.0}

    @pytest.mark.parametrize("moment_data", [
        ([1.0, 2.0, 3.0], np.eye(2)),
        (np.zeros(2),),
        ([np.nan, 0.0], np.eye(2)),
    ], ids=["wrong-shape", "one-element", "nan"])
    def test_from_sampler_rejects_bad_moment_data(self, moment_data):
        with pytest.raises(ValidationError, match="moment_data"):
            mv.BDLM.from_sampler(1.0, 2, lambda r, n: np.zeros((n, 2)),
                                 moment_data=moment_data)


class TestMdFromSpectral:
    def test_point_mass(self):
        sigma = mv.SpectralMeasure.finite([[1.0, 0.0]], [1.0])
        params = mv.md_from_spectral(sigma)
        assert params.alpha == 1.0
        assert params.bdlm.theta == 1.0
        np.testing.assert_array_equal(params.gamma, [0.0, 0.0])

    def test_fifty_directions(self):
        params = mv.md_from_spectral(mv.evenly_spaced_spectral(50))
        assert params.bdlm.theta == pytest.approx(1.0, abs=1e-14)

    def test_mass_additivity(self):
        sigma = mv.SpectralMeasure.from_angles([0.3, 4.0], [2.0, 3.0])
        assert mv.md_from_spectral(sigma).bdlm.theta == pytest.approx(5.0)

    def test_alpha_must_be_positive(self):
        bd = mv.BDLM.from_atoms([[1.0]], [1.0])
        with pytest.raises(ValidationError):
            mv.LStarParams(alpha=0.0, bdlm=bd)

    def test_gamma_dimension_checked(self):
        bd = mv.BDLM.from_atoms([[1.0]], [1.0])
        with pytest.raises(ValidationError):
            mv.LStarParams(alpha=1.0, bdlm=bd, gamma=[0.0, 0.0])

    @pytest.mark.parametrize("gamma", [[math.nan], [math.inf], [-math.inf]])
    def test_gamma_must_be_finite(self, gamma):
        bd = mv.BDLM.from_atoms([[1.0]], [1.0])
        with pytest.raises(ValidationError, match="gamma must be finite"):
            mv.LStarParams(alpha=1.0, bdlm=bd, gamma=gamma)

    def test_rejects_mass_not_summing_atoms(self):
        # one unit atom declared with total mass 2: theta and the atoms disagree
        with pytest.raises(ValidationError, match="sum of the atom masses"):
            mv.SpectralMeasure(variant="finite", dim=2, mass=2.0,
                               directions=np.array([[1.0, 0.0]]),
                               masses=np.array([1.0]))

    def test_rejects_beta_params_on_a_finite_measure(self):
        with pytest.raises(ValidationError, match="beta_params needs an angular"):
            mv.SpectralMeasure(variant="finite", dim=2, mass=1.0,
                               directions=np.array([[1.0, 0.0]]),
                               masses=np.array([1.0]), beta_params=(2.0, 5.0))

    @pytest.mark.parametrize("params", [(math.nan, 1.0), (2.0, 0.0), (-1.0, 2.0),
                                        (2.0, math.inf), (2.0,), (1.0, 2.0, 3.0)])
    def test_rejects_beta_params_that_are_not_two_positive_shapes(self, params):
        beta = mv.SpectralMeasure.beta(2.0, 5.0)
        with pytest.raises(ValidationError, match="beta parameters"):
            dataclasses.replace(beta, beta_params=params)

    def test_revalidates_raw_constructed_measure(self):
        with pytest.raises(ValidationError, match="unit norm"):
            mv.SpectralMeasure(variant="finite", dim=2, mass=1.0,
                               directions=np.array([[2.0, 0.0]]),
                               masses=np.array([1.0]))


def test_lstar_md_moment_consistency_randomized():
    """L*_1(sigma, 0) moments coincide with MD(sigma) moments exactly."""
    rng = np.random.default_rng(42)
    for _ in range(10):
        r = int(rng.integers(1, 15))
        sigma = mv.SpectralMeasure.from_angles(rng.random(r) * 2 * np.pi,
                                               rng.random(r) + 0.01)
        a = mv.lstar_moments(mv.md_from_spectral(sigma))
        b = mv.md_moments(sigma)
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-12, rtol=0)
        np.testing.assert_allclose(a.cov, b.cov, atol=1e-12, rtol=0)
