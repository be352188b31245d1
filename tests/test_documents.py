"""Property tests: malformed model and experiment documents, and bad scalars
passed to the Python API, fail at once with a package error (ValidationError
or ConfigurationError), never with a KeyError, a TypeError, a NumPy warning
or a late error in a worker."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mvdickman as mv
from mvdickman.errors import ConfigurationError, ValidationError

PACKAGE_ERRORS = (ValidationError, ConfigurationError)
TWO_PI = 2 * math.pi

#: values of the wrong JSON type for any numeric, list or string field
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=4),
                 st.lists(st.integers(-3, 3), max_size=2),
                 st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NON_POSITIVE = st.one_of(st.floats(max_value=0.0, allow_nan=False),
                         st.integers(max_value=0))
SHAPES = st.floats(min_value=0.05, max_value=50.0)
ANGLES = st.floats(min_value=0.0, max_value=6.28)
MASSES = st.floats(min_value=0.01, max_value=10.0)
#: JSON-like values of any shape
JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=12)


def bad_number(valid_zero=False):
    """A value no numeric field accepts (0 is fine for angles)."""
    bad = st.one_of(JUNK, NON_FINITE)
    return bad if valid_zero else st.one_of(bad, NON_POSITIVE)


@st.composite
def beta_models(draw):
    return {"variant": "beta", "alpha": draw(SHAPES), "beta": draw(SHAPES),
            "mass": draw(MASSES)}


@st.composite
def finite_models(draw):
    atoms = draw(st.lists(st.fixed_dictionaries({"angle": ANGLES, "mass": MASSES}),
                          min_size=1, max_size=4))
    return {"variant": "finite", "dim": 2, "atoms": atoms}


@st.composite
def malformed_models(draw):
    """A valid beta or finite document with one corruption."""
    kind = draw(st.sampled_from(["not a dict", "variant", "beta", "finite"]))
    if kind == "not a dict":
        return draw(st.one_of(st.none(), st.integers(), st.text(max_size=6),
                              st.lists(st.integers(), max_size=2)))
    if kind == "variant":
        doc = draw(st.one_of(beta_models(), finite_models()))
        if draw(st.booleans()):
            del doc["variant"]
        else:
            doc["variant"] = draw(st.one_of(
                JUNK, st.text(max_size=8)).filter(lambda v: v not in ("beta", "finite")))
        return doc
    if kind == "beta":
        doc = draw(beta_models())
        key = draw(st.sampled_from(["alpha", "beta", "mass"]))
        if key != "mass" and draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(bad_number())
        return doc
    doc = draw(finite_models())
    where = draw(st.sampled_from(["atoms", "dim", "atom", "angle", "mass"]))
    if where == "atoms":
        doc["atoms"] = draw(st.one_of(st.just([]), JUNK.filter(
            lambda v: not (isinstance(v, list) and v))))
        if draw(st.booleans()):
            del doc["atoms"]
    elif where == "dim":
        doc["dim"] = draw(st.one_of(JUNK, NON_FINITE,
                                    st.integers().filter(lambda d: d != 2)))
    else:
        i = draw(st.integers(0, len(doc["atoms"]) - 1))
        if where == "atom":
            doc["atoms"][i] = draw(JUNK.filter(lambda v: not isinstance(v, dict)))
        elif draw(st.booleans()):
            del doc["atoms"][i][where]
        else:
            doc["atoms"][i][where] = draw(bad_number(valid_zero=where == "angle"))
    return doc


def valid_config():
    return {"model": {"variant": "beta", "alpha": 2.0, "beta": 5.0, "mass": 1.0},
            "methods": ["SN", "TA", "DS"], "k_grid": [1, 2, 5], "n_reps": 500,
            "base_seed": 1, "gd_tol": 1e-12, "out": None, "seed_replicates": 1,
            "timing": False}


#: for each config field, values it must refuse
BAD_FIELDS = {
    "model": st.one_of(malformed_models(), JUNK),
    "methods": st.one_of(
        JUNK.filter(lambda v: not (isinstance(v, list) and v
                                   and set(v) <= {"SN", "TA", "DS"})),
        st.lists(st.one_of(JUNK, st.sampled_from(["SN", "XX"])), min_size=1,
                 max_size=3).filter(lambda v: "XX" in v or any(
                     not isinstance(m, str) for m in v))),
    "k_grid": st.one_of(
        JUNK.filter(lambda v: not isinstance(v, list)), st.just([]),
        st.lists(st.one_of(JUNK, NON_FINITE, st.floats(0.5, 9.5),
                           st.integers(max_value=0)), min_size=1, max_size=3),
        st.lists(st.integers(1, 9), min_size=2, max_size=3).filter(
            lambda v: any(b <= a for a, b in zip(v, v[1:])))),
    "n_reps": st.one_of(JUNK, NON_FINITE, st.floats(2.0, 1e4),
                        st.integers(max_value=1)),
    "base_seed": st.one_of(JUNK, NON_FINITE, st.floats(0.0, 1e4),
                           st.integers(max_value=-1), st.integers(min_value=2 ** 64)),
    "gd_tol": st.one_of(JUNK, NON_FINITE, NON_POSITIVE),
    "out": st.one_of(st.booleans(), st.integers(), st.floats(),
                     st.lists(st.text(max_size=2), max_size=2)),
    "seed_replicates": st.one_of(JUNK, NON_FINITE, st.floats(1.0, 9.0),
                                 st.integers(max_value=0)),
    "timing": st.one_of(st.none(), st.integers(), st.text(max_size=4),
                        st.lists(st.booleans(), max_size=2)),
}


@st.composite
def malformed_configs(draw):
    kind = draw(st.sampled_from(["not a dict", "no model", "unknown key", "field"]))
    if kind == "not a dict":
        return draw(st.one_of(st.none(), st.integers(), st.floats(),
                              st.lists(st.integers(), max_size=2)))
    doc = valid_config()
    if kind == "no model":
        del doc["model"]
    elif kind == "unknown key":
        key = draw(st.one_of(st.text(max_size=8), st.integers()).filter(
            lambda k: k not in doc))
        doc[key] = draw(JUNK)
    else:
        field = draw(st.sampled_from(sorted(BAD_FIELDS)))
        doc[field] = draw(BAD_FIELDS[field])
    return doc


@settings(max_examples=400, deadline=None)
@given(doc=malformed_models())
def test_malformed_model_document_raises_validation_error(doc):
    with pytest.raises(ValidationError):
        mv.spectral_from_json(doc)


@settings(max_examples=200, deadline=None)
@given(doc=malformed_models())
def test_config_with_malformed_model_raises_configuration_error(doc):
    with pytest.raises(ConfigurationError):
        mv.ExperimentConfig(model=doc)


@settings(max_examples=600, deadline=None)
@given(doc=malformed_configs())
def test_malformed_config_document_raises_package_error(doc):
    with pytest.raises(PACKAGE_ERRORS):
        mv.ExperimentConfig.from_json(doc)


@settings(max_examples=300, deadline=None)
@given(doc=JSON)
def test_any_model_document_parses_or_raises_validation_error(doc):
    try:
        mv.spectral_from_json(doc)
    except ValidationError:
        pass


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # B(a, b) underflow on huge shapes
@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(), beta=st.floats(), mass=st.floats(),
       model_kind=st.sampled_from(["beta", "finite"]))
# GD term counts where theta/(theta+1) rounds to 1 and past the float range
@example(alpha=0.0, beta=0.0, mass=2.0 ** 53, model_kind="finite")
@example(alpha=0.0, beta=0.0, mass=3e305, model_kind="finite")
@example(alpha=1.0, beta=1.0, mass=1e308, model_kind="beta")
def test_any_numbers_in_a_config_parse_or_raise_package_error(alpha, beta, mass,
                                                              model_kind):
    if model_kind == "beta":
        model = {"variant": "beta", "alpha": alpha, "beta": beta, "mass": mass}
    else:
        model = {"variant": "finite", "atoms": [{"angle": alpha, "mass": mass},
                                                {"angle": beta, "mass": mass}]}
    try:
        mv.ExperimentConfig.from_json({**valid_config(), "model": model})
    except PACKAGE_ERRORS:
        pass


def test_valid_documents_are_accepted():
    config = mv.ExperimentConfig.from_json(valid_config())
    assert config.to_json() == valid_config()
    assert mv.spectral_from_json(valid_config()["model"]).beta_params == (2.0, 5.0)


# --------------------------------------------------------------------------
# scalar arguments of the Python API
# --------------------------------------------------------------------------

SIGMA3 = mv.evenly_spaced_spectral(3)
GD1 = mv.gd_params(1.0)
SN3 = mv.md_from_spectral(SIGMA3)
BETA25 = {"variant": "beta", "alpha": 2.0, "beta": 5.0}


def _uniform(x):
    return np.full_like(np.asarray(x, dtype=float), 1.0 / (2 * math.pi))


def _rng():
    return np.random.default_rng(0)


def _count(least):
    """The values a count >= ``least`` takes: integers, not bools."""
    return lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= least


def _real(high=math.inf):
    """The values a real in (0, ``high``) takes: numbers, not bools."""
    return lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and 0 < v < high


def _never(v):
    return False


def _config(**change):
    return mv.ExperimentConfig(**{"model": BETA25, "methods": ("SN",), "k_grid": (1,),
                                  "n_reps": 2, **change})


#: each public entry point that takes a count or a real, with that argument
#: left open: which values it takes, and the call, which returns numbers
SCALAR_ARGS = {
    "SpectralMeasure dim": (_never, lambda v: mv.SpectralMeasure(  # angular is 2-d
        "angular", v, 1.0, density=_uniform).mass),
    "SpectralMeasure mass": (_real(), lambda v: mv.SpectralMeasure(
        "angular", 2, v, density=_uniform).mass),
    # a declared mass must be the quadrature mass, 1
    "SpectralMeasure.angular mass": (lambda v: v is None, lambda v: mv.SpectralMeasure.angular(
        _uniform, mass=v).mass),
    "SpectralMeasure.beta a": (_real(), lambda v: mv.SpectralMeasure.beta(v, 5.0).mass),
    "SpectralMeasure.beta b": (_real(), lambda v: mv.SpectralMeasure.beta(2.0, v).mass),
    "SpectralMeasure.beta mass": (_real(), lambda v: mv.SpectralMeasure.beta(2.0, 5.0, v).mass),
    "SpectralMeasure.sample_directions n": (_count(0), lambda v: SIGMA3.sample_directions(
        _rng(), v)),
    "evenly_spaced_spectral r": (_count(1), lambda v: mv.evenly_spaced_spectral(v).masses),
    "evenly_spaced_spectral mass": (_real(), lambda v: mv.evenly_spaced_spectral(3, v).masses),
    "BDLM theta": (_real(), lambda v: mv.BDLM(v, 2, SIGMA3.sample_directions).theta),
    "BDLM dim": (_count(1), lambda v: mv.BDLM(1.0, v, SIGMA3.sample_directions).theta),
    "BDLM.from_sampler theta": (_real(), lambda v: mv.BDLM.from_sampler(
        v, 2, SIGMA3.sample_directions).theta),
    "BDLM.from_sampler dim": (_count(1), lambda v: mv.BDLM.from_sampler(
        1.0, v, SIGMA3.sample_directions).theta),
    "LStarParams alpha": (_real(), lambda v: mv.LStarParams(v, GD1.bdlm).gamma),
    "gd_params theta": (_real(), lambda v: mv.gd_params(v).bdlm.weights),
    "malpha_tail_mass eps": (_real(1.0), lambda v: mv.malpha_tail_mass(GD1, v)),
    "malpha_radial_moment p": (_real(), lambda v: mv.malpha_radial_moment(GD1, v, mv.moments.INSIDE)),
    "default_grid k": (_count(1), lambda v: mv.default_grid(v).cuts),
    "gd_truncation_terms theta": (_real(), lambda v: mv.gd_truncation_terms(v, 1e-12)),
    "gd_truncation_terms tol": (_real(), lambda v: mv.gd_truncation_terms(1.0, v)),
    "sample_gd_batch theta": (_real(), lambda v: mv.sample_gd_batch(v, 1e-12, 4, _rng())),
    "sample_gd_batch tol": (_real(), lambda v: mv.sample_gd_batch(1.0, v, 4, _rng())),
    "sample_gd_batch n": (_count(0), lambda v: mv.sample_gd_batch(1.0, 1e-12, v, _rng())),
    "sample_sn_batch k": (_count(0), lambda v: mv.sample_sn_batch(SN3, v, 4, _rng())),
    "sample_sn_batch n": (_count(0), lambda v: mv.sample_sn_batch(SN3, 3, v, _rng())),
    "sample_sn_batch T": (_real(), lambda v: mv.sample_sn_batch(SN3, 3, 4, _rng(), T=v)),
    "sample_levy_path T": (_real(), lambda v: mv.sample_levy_path(SN3, v, 3, _rng()).jumps),
    "sample_levy_path k": (_count(0), lambda v: mv.sample_levy_path(SN3, 1.0, v, _rng()).jumps),
    "LevyPathSkeleton horizon": (_real(), lambda v: mv.LevyPathSkeleton(
        v, [0.0], np.empty(0), np.empty((0, 1))).drift),
    "ta_term_count alpha": (_real(), lambda v: mv.ta_term_count(v, 1.0, 3)),
    "ta_term_count c": (_real(), lambda v: mv.ta_term_count(1.0, v, 3)),
    "ta_term_count n": (_count(1), lambda v: mv.ta_term_count(1.0, 1.0, v)),
    "sample_ta_batch alpha": (_real(), lambda v: mv.sample_ta_batch(
        v, SIGMA3.sample_directions, 1.0, 3, 4, _rng())),
    "sample_ta_batch c": (_real(), lambda v: mv.sample_ta_batch(
        1.0, SIGMA3.sample_directions, v, 3, 4, _rng())),
    "sample_ta_batch n": (_count(1), lambda v: mv.sample_ta_batch(
        1.0, SIGMA3.sample_directions, 1.0, v, 4, _rng())),
    "sample_ta_batch n_reps": (_count(0), lambda v: mv.sample_ta_batch(
        1.0, SIGMA3.sample_directions, 1.0, 3, v, _rng())),
    "sample_ds_batch gd_tol": (_real(), lambda v: mv.sample_ds_batch(SIGMA3, v, 4, _rng())),
    "sample_ds_batch n_reps": (_count(0), lambda v: mv.sample_ds_batch(
        SIGMA3, 1e-12, v, _rng())),
    "fixed_point_map theta": (_real(), lambda v: mv.fixed_point_map([0.0], [1.0], 0.5, v)),
    "SampleBatch k": (_count(0), lambda v: mv.SampleBatch(np.zeros((0, 2)), "SN", v, 0, 0).data),
    "SampleBatch n_reps": (_count(0), lambda v: mv.SampleBatch(
        np.zeros((0, 2)), "SN", 1, v, 0).data),
    "SampleBatch seed": (_count(0), lambda v: mv.SampleBatch(
        np.zeros((0, 2)), "SN", 1, 0, v).data),
    "generate_batch k": (_count(0), lambda v: mv.generate_batch("SN", SIGMA3, v, 4, 0).data),
    "generate_batch n_reps": (_count(0), lambda v: mv.generate_batch(
        "SN", SIGMA3, 3, v, 0).data),
    "generate_batch seed": (_count(0), lambda v: mv.generate_batch(
        "SN", SIGMA3, 3, 4, v).data),
    "generate_batch gd_tol": (_real(), lambda v: mv.generate_batch(
        "DS", SIGMA3, 3, 4, 0, gd_tol=v).data),
    "fixed_point_test n_reps": (_count(2), lambda v: mv.fixed_point_test(
        SIGMA3, v, 0).theta_used),
    "fixed_point_test seed": (_count(0), lambda v: mv.fixed_point_test(
        SIGMA3, 8, v).theta_used),
    "fixed_point_test tol_sigmas": (_real(), lambda v: mv.fixed_point_test(
        SIGMA3, 8, 0, tol_sigmas=v).theta_used),
    "fixed_point_test gd_tol": (_real(), lambda v: mv.fixed_point_test(
        SIGMA3, 8, 0, gd_tol=v).theta_used),
    "fixed_point_test map_theta": (lambda v: v is None or _real()(v), lambda v: mv.fixed_point_test(
        SIGMA3, 8, 0, map_theta=v).theta_used),
    "substream_seed base_seed": (_count(0), lambda v: mv.substream_seed(v, 0, 0)),
    "substream_seed cell_index": (_count(0), lambda v: mv.substream_seed(0, v, 0)),
    "substream_seed replication_index": (_count(0), lambda v: mv.substream_seed(0, 0, v)),
    "ExperimentConfig n_reps": (_count(2), lambda v: _config(n_reps=v).n_reps),
    "ExperimentConfig base_seed": (_count(0), lambda v: _config(base_seed=v).base_seed),
    "ExperimentConfig seed_replicates": (_count(1), lambda v: _config(
        seed_replicates=v).seed_replicates),
    "ExperimentConfig gd_tol": (_real(), lambda v: _config(gd_tol=v).gd_tol),
    "run_experiment workers": (_count(1), lambda v: [
        row["e_k"] for row in mv.run_experiment(_config(), workers=v)]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", sorted(SCALAR_ARGS))
@settings(max_examples=20, deadline=None)
@given(value=st.one_of(NON_FINITE, NON_POSITIVE, JUNK))
@example(value=math.nan)
@example(value=math.inf)
@example(value=-math.inf)
@example(value=0)
@example(value=0.0)
@example(value=-1)
@example(value=2.5)
@example(value=True)
@example(value="2")
def test_bad_scalar_raises_package_error(entry, value):
    takes, call = SCALAR_ARGS[entry]
    if not takes(value):
        with pytest.raises(PACKAGE_ERRORS):
            call(value)
    else:
        assert np.isfinite(np.asarray(call(value), dtype=float)).all()


#: each public entry point that takes an array of reals, with one entry of
#: the array left open: the call, which returns numbers. The "mixed" entries
#: put the open one after a float, which NumPy would convert a bool or a
#: numeric string to a float beside, so each entry is tested before that.
ARRAY_ARGS = {
    "SpectralMeasure.from_angles angles": lambda v: mv.SpectralMeasure.from_angles(
        [v], [1.0]).directions,
    "SpectralMeasure.from_angles masses": lambda v: mv.SpectralMeasure.from_angles(
        [0.0], [v]).masses,
    "SpectralMeasure.finite directions": lambda v: mv.SpectralMeasure.finite(
        [[v]], [1.0]).directions,
    "SpectralMeasure.finite masses": lambda v: mv.SpectralMeasure.finite(
        [[1.0, 0.0]], [v]).masses,
    "SpectralMeasure masses": lambda v: mv.SpectralMeasure(
        "finite", 2, 1.0, directions=[[1.0, 0.0]], masses=[v]).masses,
    "BDLM.from_atoms points": lambda v: mv.BDLM.from_atoms([[v]], [1.0]).points,
    "BDLM.from_atoms weights": lambda v: mv.BDLM.from_atoms([[1.0]], [v]).weights,
    "BDLM weights": lambda v: mv.BDLM(1.0, 1, None, points=[[1.0]], weights=[v]).weights,
    "angle_to_direction": lambda v: mv.angle_to_direction([v]),
    "DiscretizationGrid cuts": lambda v: mv.DiscretizationGrid(
        cuts=[0, v, TWO_PI], angles=[0, 2]).cuts,
    "DiscretizationGrid angles": lambda v: mv.DiscretizationGrid(
        cuts=[0, TWO_PI], angles=[v]).angles,
    "SpectralMeasure.from_angles angles, mixed": lambda v: mv.SpectralMeasure.from_angles(
        [0.0, v], [1.0, 1.0]).directions,
    "SpectralMeasure.from_angles masses, mixed": lambda v: mv.SpectralMeasure.from_angles(
        [0.0, 1.0], [1.0, v]).masses,
    "SpectralMeasure.finite directions, mixed": lambda v: mv.SpectralMeasure.finite(
        [[1.0, 0.0], [v, 0.0]], [1.0, 1.0]).directions,
    "BDLM.from_atoms points, mixed": lambda v: mv.BDLM.from_atoms(
        [[1.0], [v]], [1.0, 1.0]).points,
    "BDLM.from_atoms weights, mixed": lambda v: mv.BDLM.from_atoms(
        [[1.0], [2.0]], [1.0, v]).weights,
    "angle_to_direction, mixed": lambda v: mv.angle_to_direction([0.0, v]),
    "DiscretizationGrid cuts, mixed": lambda v: mv.DiscretizationGrid(
        cuts=[0.0, 0.5, v, TWO_PI], angles=[0.0, 0.5, 2.0]).cuts,
    "DiscretizationGrid angles, mixed": lambda v: mv.DiscretizationGrid(
        cuts=[0.0, 0.5, TWO_PI], angles=[0.0, v]).angles,
    "LStarParams gamma": lambda v: mv.LStarParams(
        1.0, mv.gd_params(1.0).bdlm, gamma=[v]).gamma,
    "LStarParams gamma, mixed": lambda v: mv.LStarParams(
        1.0, mv.md_from_spectral(mv.evenly_spaced_spectral(3)).bdlm, gamma=[0.0, v]).gamma,
    "LevyPathSkeleton drift": lambda v: mv.LevyPathSkeleton(
        1.0, [v], [0.5], [[1.0]]).drift,
    "LevyPathSkeleton times": lambda v: mv.LevyPathSkeleton(
        1.0, [0.0], [v], [[1.0]]).times,
    "LevyPathSkeleton times, mixed": lambda v: mv.LevyPathSkeleton(
        1.0, [0.0], [0.5, v], [[1.0], [1.0]]).times,
    "LevyPathSkeleton jumps": lambda v: mv.LevyPathSkeleton(
        1.0, [0.0], [0.5], [[v]]).jumps,
    "LevyPathSkeleton jumps, mixed": lambda v: mv.LevyPathSkeleton(
        1.0, [0.0, 0.0], [0.5], [[1.0, v]]).jumps,
}


#: ``LevyPathSkeleton`` arguments whose entries are all real but whose
#: shapes disagree: a 3-d jump on a 2-d drift, a 2-d jump on a 1-d drift,
#: no events with jumps of the wrong width, and a time with no jump
LEVY_SHAPES = {
    "jump wider than drift": ([0.0, 0.0], [0.5], [[1.0, 2.0, 3.0]]),
    "drift narrower than jump": ([0.0], [0.5], [[1.0, 2.0]]),
    "no events, wrong width": ([0.0, 0.0], [], np.empty((0, 3))),
    "time without jump": ([0.0], [0.5], np.empty((0, 1))),
}


@pytest.mark.parametrize("entry", sorted(LEVY_SHAPES))
def test_levy_skeleton_shapes_must_agree(entry):
    drift, times, jumps = LEVY_SHAPES[entry]
    with pytest.raises(ValidationError):
        mv.LevyPathSkeleton(1.0, drift, times, jumps)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", sorted(ARRAY_ARGS))
@pytest.mark.parametrize("value", [True, False, "1", "0.5", None, {"a": 1}, 1j],
                         ids=["True", "False", "str-1", "str-0.5", "None", "dict", "complex"])
def test_bad_array_entry_raises_package_error(entry, value):
    with pytest.raises(PACKAGE_ERRORS):
        ARRAY_ARGS[entry](value)
    # the entry's valid value, 1, builds the object
    assert np.isfinite(ARRAY_ARGS[entry](1)).all()
