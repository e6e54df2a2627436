import math
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slabdiff import (
    CosineModeProfile,
    FdConfig,
    GaussianProfile,
    Grid1D,
    InvalidParameterError,
    ResonantModeError,
    Scenario,
    ScenarioParseError,
    ScenarioValidationError,
    SurfaceCoshProfile,
    TabulatedProfile,
    UniformProfile,
    parse_scenario,
    preset,
    run_scenario,
    scenario_hash,
    serialize_scenario,
)
from slabdiff.analysis import MIN_TRACE_SAMPLES
from slabdiff.core import check_wkb_eps
from slabdiff.fd import snapshot_steps
from slabdiff.profiles import MAX_DENSITY, PROFILE_KINDS, check_truncation
from slabdiff.scenario import MODEL_ORDER, OUTPUT_KINDS, override

MINIMAL = """
[scenario]
eps = 0.13
v = 0.01
models = parabolic

[profile]
kind = gaussian
sharpness = 100
amplitude = 1
"""


def test_minimal_document_gets_defaults():
    s = parse_scenario(MINIMAL)
    assert s.name == "scenario"
    assert s.eps == 0.13
    assert s.truncation == 500
    assert s.u_points == 1001
    assert s.v_list == (0.01,)
    assert s.models == ("parabolic",)
    assert s.outputs == ("csv",)
    assert s.profile == GaussianProfile(sharpness=100.0, amplitude=1.0)
    assert s.fd_nu == 400
    assert s.fd_dv is None


def test_unknown_key_reports_line_number():
    doc = MINIMAL.replace("models = parabolic", "models = parabolic\nwibble = 3")
    with pytest.raises(ScenarioParseError, match=r"line 6: unknown key 'wibble'"):
        parse_scenario(doc)


def test_unknown_section_and_orphan_keys():
    with pytest.raises(ScenarioParseError, match=r"unknown section"):
        parse_scenario("[wrong]\nx = 1\n")
    with pytest.raises(ScenarioParseError, match=r"outside of any"):
        parse_scenario("eps = 0.13\n")
    with pytest.raises(ScenarioParseError, match=r"expected key = value"):
        parse_scenario("[scenario]\nnonsense\n")


def test_duplicate_key_rejected():
    doc = MINIMAL + "\n[scenario]\neps = 0.2\n"
    with pytest.raises(ScenarioParseError, match="duplicate"):
        parse_scenario(doc)


def test_bad_number_reports_line():
    doc = MINIMAL.replace("eps = 0.13", "eps = nope")
    with pytest.raises(ScenarioParseError, match="eps must be a number"):
        parse_scenario(doc)


def test_missing_required_keys():
    with pytest.raises(ScenarioParseError, match="'eps'"):
        parse_scenario("[scenario]\nmodels = parabolic\nv = 0.1\n[profile]\nkind = uniform\nlevel = 1\n")
    with pytest.raises(ScenarioParseError, match="'kind'"):
        parse_scenario("[scenario]\neps = 0\nv = 0.1\nmodels = parabolic\n[profile]\n")
    with pytest.raises(ScenarioParseError, match="'models'"):
        parse_scenario("[scenario]\neps = 0\nv = 0.1\n[profile]\nkind = uniform\nlevel = 1\n")


def test_profile_kind_key_mismatch():
    doc = MINIMAL.replace("kind = gaussian", "kind = uniform")
    with pytest.raises(ScenarioParseError, match="does not apply"):
        parse_scenario(doc)
    with pytest.raises(ScenarioParseError, match="requires key"):
        parse_scenario(MINIMAL.replace("sharpness = 100\n", ""))
    with pytest.raises(ScenarioParseError, match="unknown profile kind"):
        parse_scenario(MINIMAL.replace("kind = gaussian", "kind = blob"))


def test_hyperbolic_requires_positive_eps():
    doc = MINIMAL.replace("eps = 0.13", "eps = 0").replace(
        "models = parabolic", "models = hyperbolic"
    )
    with pytest.raises(ScenarioValidationError, match="hyperbolic"):
        parse_scenario(doc)


def test_time_grid_requirements():
    with pytest.raises(ScenarioValidationError, match="exactly one"):
        Scenario(name="x", eps=0.1, profile=UniformProfile(1.0), models=("parabolic",))
    with pytest.raises(ScenarioValidationError, match="exactly one"):
        Scenario(
            name="x", eps=0.1, profile=UniformProfile(1.0), models=("parabolic",),
            v_list=(0.1,), v_range=(0.0, 1.0, 300), trace_u=(0.0,),
        )
    with pytest.raises(ScenarioValidationError, match="trace_u"):
        Scenario(
            name="x", eps=0.1, profile=UniformProfile(1.0), models=("parabolic",),
            v_range=(0.0, 1.0, 300),
        )


def test_events_need_traces_and_samples():
    with pytest.raises(ScenarioValidationError, match="trace_u"):
        Scenario(
            name="x", eps=0.1, profile=UniformProfile(1.0), models=("parabolic",),
            v_list=(0.1,), outputs=("csv", "events"),
        )
    with pytest.raises(ScenarioValidationError, match="200"):
        Scenario(
            name="x", eps=0.1, profile=UniformProfile(1.0), models=("parabolic",),
            v_range=(0.0, 1.0, 100), trace_u=(0.0,), outputs=("csv", "events"),
        )


def test_model_and_output_validation():
    with pytest.raises(ScenarioValidationError, match="unknown model"):
        Scenario(name="x", eps=0.1, profile=UniformProfile(1.0),
                 models=("spectral",), v_list=(0.1,))
    with pytest.raises(ScenarioValidationError, match="unique"):
        Scenario(name="x", eps=0.1, profile=UniformProfile(1.0),
                 models=("parabolic", "parabolic"), v_list=(0.1,))
    with pytest.raises(ScenarioValidationError, match="at least one model"):
        Scenario(name="x", eps=0.1, profile=UniformProfile(1.0),
                 models=(), v_list=(0.1,))
    with pytest.raises(ScenarioValidationError, match="unknown output"):
        Scenario(name="x", eps=0.1, profile=UniformProfile(1.0),
                 models=("parabolic",), v_list=(0.1,), outputs=("png",))
    with pytest.raises(ScenarioValidationError, match="trace_u must lie"):
        Scenario(name="x", eps=0.1, profile=UniformProfile(1.0),
                 models=("parabolic",), v_list=(0.1,), trace_u=(0.7,))
    # a repeated position wrote each of its events twice; -0.0 is 0.0
    for trace_u in [(0.5, 0.5), (0.0, 0.25, -0.0)]:
        with pytest.raises(ScenarioValidationError, match="trace_u must be unique"):
            Scenario(name="x", eps=0.1, profile=UniformProfile(1.0),
                     models=("parabolic",), v_list=(0.1,), trace_u=trace_u)


def test_models_and_outputs_are_sets_stored_in_canonical_order():
    # a reordered list serialized and hashed apart from the canonical one,
    # and a repeated output kind validated
    s = Scenario(name="x", eps=0.1, profile=UniformProfile(1.0), v_list=(0.1,),
                 models=("fd", "wkb", "parabolic"), outputs=("svg", "csv"))
    assert s.models == ("parabolic", "wkb", "fd") and s.outputs == ("csv", "svg")
    canonical = replace(s, models=("parabolic", "wkb", "fd"), outputs=("csv", "svg"))
    assert serialize_scenario(s) == serialize_scenario(canonical)
    assert scenario_hash(s) == scenario_hash(canonical)
    with pytest.raises(ScenarioValidationError, match="^output kinds must be unique$"):
        replace(s, outputs=("csv", "csv", "svg"))


def test_times_and_positions_in_any_spelling_are_one_scenario(tmp_path):
    # An array v_list or trace_u validated, then serialize_scenario raised a
    # bare ValueError; a list ran, but was unhashable and did not round-trip.
    spellings = [
        dict(v_list=np.array([0.01, 0.1]), trace_u=np.array([0.5, 0.0])),
        dict(v_list=[0.01, 0.1], trace_u=[np.float64(0.5), 0]),
        dict(v_list=(0.01, 0.1), trace_u=(0.5, 0.0)),
    ]
    scenarios = [
        Scenario(name="spelt", eps=0.13, profile=GaussianProfile(100.0, 1.0), truncation=16,
                 u_points=11, models=("parabolic", "fd"), fd_nu=16, outputs=("csv", "svg"),
                 **times)
        for times in spellings
    ]
    runs = []
    for i, s in enumerate(scenarios):
        assert s.v_list == (0.01, 0.1) and s.trace_u == (0.5, 0.0)
        assert all(type(x) is float for x in s.v_list + s.trace_u)
        assert parse_scenario(serialize_scenario(s)) == s == scenarios[0]
        assert hash(s) == hash(scenarios[0])
        assert scenario_hash(s) == scenario_hash(scenarios[0])
        written = run_scenario(s, tmp_path / str(i))
        runs.append({path.name: path.read_bytes() for path in written})
    assert runs[0] == runs[1] == runs[2]
    # the times are stored from their validated grid, which refuses a scalar
    with pytest.raises(ScenarioValidationError, match="time points must be a non-empty 1D"):
        replace(scenarios[0], v_list=0.01)


def test_terms_are_integers_numpy_ones_included(tmp_path):
    # np.int64 validated, then compute_coefficients refused it in run
    s = Scenario(name="np", eps=0.13, profile=GaussianProfile(100.0, 1.0),
                 truncation=np.int64(50), v_list=(0.1,))
    assert type(s.truncation) is int and s.truncation == 50
    assert s == replace(s, truncation=50)
    run_scenario(s, tmp_path)
    # 50.0 validated too; 0 never did
    for terms, message in [(50.0, "terms must be an integer, got 50.0"),
                           (0, "terms must be >= 1, got 0")]:
        with pytest.raises(ScenarioValidationError, match=message):
            replace(s, truncation=terms)


@pytest.mark.parametrize("name", ["figure1", "figure2", "figure3", "figure4"])
def test_presets_round_trip(name):
    s = preset(name)
    assert parse_scenario(serialize_scenario(s)) == s
    assert scenario_hash(s) == scenario_hash(parse_scenario(serialize_scenario(s)))


def test_preset_parameters_match_reference_plots():
    f1 = preset("figure1")
    assert f1.profile == GaussianProfile(sharpness=100.0, amplitude=1.0)
    assert f1.eps == 0.13
    assert f1.truncation == 500
    assert f1.v_list == (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
    assert f1.models == ("parabolic", "hyperbolic")
    f2 = preset("figure2")
    assert f2.trace_u == (0.5, 0.0)
    assert "events" in f2.outputs
    f3 = preset("figure3")
    assert f3.profile == SurfaceCoshProfile(sharpness=10.0, amplitude=1.0)
    assert f3.v_list == f1.v_list
    f4 = preset("figure4")
    assert f4.profile == f3.profile
    assert f4.trace_u == (0.5, 0.0)
    with pytest.raises(ScenarioValidationError):
        preset("figure9")


def test_assorted_scenarios_round_trip():
    scenarios = [
        Scenario(
            name="tab", eps=0.0,
            profile=TabulatedProfile(
                grid=Grid1D(points=np.array([-0.5, 0.0, 0.5])),
                values=np.array([1.0, 2.0, 1.0]),
            ),
            v_list=(0.1, 0.2), models=("parabolic", "fd"), fd_nu=64, fd_dv=1e-5,
            outputs=("csv",), out_dir="results",
        ),
        Scenario(
            name="modes", eps=0.25,
            profile=UniformProfile(level=2.0),
            v_range=(0.0, 2.0, 401), trace_u=(0.25,),
            models=("parabolic", "hyperbolic", "wkb"), truncation=64, u_points=101,
        ),
    ]
    for s in scenarios:
        assert parse_scenario(serialize_scenario(s)) == s


def test_hash_distinguishes_scenarios():
    a = parse_scenario(MINIMAL)
    b = parse_scenario(MINIMAL.replace("eps = 0.13", "eps = 0.14"))
    assert scenario_hash(a) != scenario_hash(b)
    assert scenario_hash(a) == scenario_hash(parse_scenario(MINIMAL))


def test_comments_and_blank_lines_ignored():
    doc = "# header comment\n\n" + MINIMAL + "\n# trailing comment\n"
    assert parse_scenario(doc) == parse_scenario(MINIMAL)


# ---------------------------------------------------------------------------
# Pinned canonical text: the hash of a scenario is part of every output file
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, digest", [
    ("figure1", "37ac71dd1faff7b3"),
    ("figure2", "fc7ff6050fb970ab"),
    ("figure3", "8f5ea88471eebab7"),
    ("figure4", "13c987d062d55132"),
])
def test_preset_hashes_are_pinned(name, digest):
    assert scenario_hash(preset(name)) == digest


def test_canonical_text_is_pinned():
    assert serialize_scenario(preset("figure2")) == (
        "[scenario]\n"
        "name = figure2\n"
        "eps = 0.13\n"
        "terms = 500\n"
        "u_points = 1001\n"
        "v_range = 0.0, 1.2, 1201\n"
        "trace_u = 0.5, 0.0\n"
        "models = parabolic, hyperbolic\n"
        "\n"
        "[profile]\n"
        "kind = gaussian\n"
        "sharpness = 100.0\n"
        "amplitude = 1.0\n"
        "\n"
        "[fd]\n"
        "nu = 400\n"
        "\n"
        "[output]\n"
        "formats = csv, svg, events\n"
    )


@pytest.mark.parametrize("profile, tag", [
    (GaussianProfile(sharpness=100.0, amplitude=1.0), "gaussian(sharpness=100.0,amplitude=1.0)"),
    (SurfaceCoshProfile(sharpness=10.0, amplitude=2.5),
     "surface_cosh(sharpness=10.0,amplitude=2.5)"),
    (UniformProfile(level=2.0), "uniform(level=2.0)"),
    (CosineModeProfile(mode=3, offset=1.5, amplitude=-0.5),
     "cosine_mode(mode=3,offset=1.5,amplitude=-0.5)"),
    (TabulatedProfile(grid=Grid1D(points=np.array([0.0, 0.25, 0.5])),
                      values=np.array([2.0, 1.0, 1.0])), "tabulated(n=5)"),
])
def test_profile_tags_are_pinned(profile, tag):
    assert profile.tag() == tag


# ---------------------------------------------------------------------------
# Round trip: serialize -> parse gives the scenario back, and its text
# ---------------------------------------------------------------------------

finite = partial(st.floats, allow_nan=False, allow_infinity=False)
# A density scale that keeps every profile's peak within MAX_DENSITY.
scale = partial(finite, min_value=0.0, max_value=MAX_DENSITY / 1e4)


@st.composite
def cosine_profiles(draw):
    offset = draw(scale())
    return CosineModeProfile(
        mode=draw(st.integers(1, 10**6)),
        offset=offset,
        amplitude=draw(finite(min_value=-offset, max_value=offset)),
    )


@st.composite
def tabulated_profiles(draw):
    points = sorted(draw(st.lists(
        finite(min_value=-0.5, max_value=0.5), min_size=1, max_size=6, unique=True
    )))
    values = draw(st.lists(scale(), min_size=len(points), max_size=len(points)))
    try:
        return TabulatedProfile(grid=Grid1D(points=np.array(points)), values=np.array(values))
    except InvalidParameterError:  # interpolating between the values overflows
        assume(False)


positive = finite(min_value=0.0, exclude_min=True)
profiles = st.one_of(
    st.builds(GaussianProfile, finite(min_value=0.0, max_value=GaussianProfile.sharpness_limit,
                                      exclude_min=True), scale(exclude_min=True)),
    st.builds(SurfaceCoshProfile, finite(min_value=0.0,
                                         max_value=SurfaceCoshProfile.sharpness_limit,
                                         exclude_min=True), scale(exclude_min=True)),
    st.builds(UniformProfile, scale()),
    cosine_profiles(),
    tabulated_profiles(),
)


def count(low, high):
    """A count in [low, high] as an int or a numpy integer; Scenario stores either as an int."""
    return st.builds(lambda n, kind: kind(n), st.integers(low, high),
                     st.sampled_from([int, np.int64]))


@st.composite
def scenarios(draw):
    """Any valid Scenario: every field drawn, all five profile kinds, the counts
    drawn as ints or numpy integers."""
    models = tuple(draw(st.lists(st.sampled_from(MODEL_ORDER), min_size=1, unique=True)))
    # eps >= 1e-6 keeps the FD step count under its cap
    eps_values = finite(min_value=1e-6 if "fd" in models else 0.0, max_value=10.0,
                        exclude_min=True)
    if "hyperbolic" in models:
        eps_values = eps_values.filter(lambda eps: eps >= sys.float_info.min)
    else:
        eps_values |= st.just(0.0)
    eps = draw(eps_values)
    # 65536 terms are the most the coefficient quadrature reaches, and a
    # cosine mode above 43690 leaves it none
    profile = draw(profiles)
    truncation = draw(count(1, 2**16))
    try:
        check_truncation(profile, truncation)
    except InvalidParameterError:
        assume(False)
    if "wkb" in models:
        try:
            check_wkb_eps(eps, truncation)
        except ResonantModeError:
            assume(False)
    # a series family needs a cosine mode at or below terms
    if models != ("fd",):
        assume(getattr(profile, "mode", 0) <= truncation)
    trace_u = tuple(draw(st.lists(finite(min_value=-0.5, max_value=0.5), max_size=3,
                                  unique=True)))
    times = {}
    if trace_u and draw(st.booleans()):
        start = draw(finite(min_value=0.0, max_value=5.0))
        stop = start + draw(finite(min_value=1e-3, max_value=5.0))
        times["v_range"] = (start, stop, draw(count(2, 2000)))
        samples = times["v_range"][2]
    else:
        times["v_list"] = tuple(sorted(draw(st.lists(
            finite(min_value=0.0, max_value=10.0), min_size=1, max_size=5, unique=True
        ))))
        if "fd" in models and times["v_list"][-1] == 0.0:
            times["v_list"] += (1.0,)
        samples = len(times["v_list"])
    outputs = tuple(draw(st.lists(st.sampled_from(OUTPUT_KINDS), min_size=1, unique=True)))
    s = Scenario(
        name=draw(st.from_regex(r"[A-Za-z0-9_.-]+", fullmatch=True)),
        eps=eps,
        profile=profile,
        truncation=truncation,
        u_points=draw(count(2, 10**6)),
        trace_u=trace_u,
        models=models,
        fd_nu=draw(count(3, 256)),
        outputs=tuple(k for k in outputs if k != "events") or ("csv",),
        out_dir=draw(st.none() | st.from_regex(r"[A-Za-z0-9_./-]+", fullmatch=True)),
        **times,
    )
    if draw(st.booleans()):
        # with fd, a fraction of the stable step so that the FD config validates
        fd_dv = (s.fd_config().dv * draw(finite(min_value=0.5, max_value=1.0))
                 if "fd" in models else draw(positive))
        s = replace(s, fd_dv=fd_dv)
    # events need trace_u and enough samples, counting the distinct FD steps
    if "fd" in models:
        samples = min(samples, len(set(snapshot_steps(s.fd_config()))))
    if "events" in outputs and trace_u and samples >= MIN_TRACE_SAMPLES:
        s = replace(s, outputs=outputs)
    return s


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_serialize_parse_round_trip(s):
    stored = [s.truncation, s.u_points, s.fd_nu] + ([s.v_range[2]] if s.v_range else [])
    assert all(type(n) is int for n in stored)
    text = serialize_scenario(s)
    back = parse_scenario(text)
    assert back == s
    assert serialize_scenario(back) == text


@st.composite
def scaled_profiles(draw):
    """A profile of any kind, at a density scale anywhere in 1e-300..1e308
    and, for the sharp kinds, any sharpness from 5e-324 to the kind's limit."""
    level = 10.0 ** draw(finite(min_value=-300.0, max_value=308.0))
    kind = draw(st.sampled_from(sorted(PROFILE_KINDS)))
    if kind in ("gaussian", "surface_cosh"):
        cls = GaussianProfile if kind == "gaussian" else SurfaceCoshProfile
        # down to the smallest subnormal sharpness, where constants underflowed
        sharpness = draw(st.one_of(
            st.just(5e-324),
            finite(min_value=-323.0, max_value=math.log10(cls.sharpness_limit)).map(
                lambda x: 10.0**x),
        ))
        return cls(sharpness, level)
    if kind == "uniform":
        return UniformProfile(draw(st.sampled_from([0.0, level])))
    if kind == "cosine_mode":
        return CosineModeProfile(draw(st.integers(1, 80)), level,
                                 level * draw(finite(min_value=-1.0, max_value=1.0)))
    n = draw(st.integers(2, 41))
    points = draw(st.sampled_from([
        np.linspace(-0.5, 0.5, n),
        np.linspace(0.0, 0.5, n),
        np.sort(np.random.default_rng(n).uniform(-0.5, 0.5, n)),
    ]))
    values = level * np.array(draw(st.lists(
        finite(min_value=0.0, max_value=1.0), min_size=n, max_size=n)))
    try:
        return TabulatedProfile(grid=Grid1D(points=points), values=values)
    except InvalidParameterError:  # interpolating between the values overflows
        assume(False)


@st.composite
def scenario_drafts(draw):
    """Scenario keyword arguments over the ranges where validation has to decide."""
    terms = draw(st.integers(1, 64))
    eps = draw(st.one_of(
        st.just(0.0),
        st.integers(1, terms).map(lambda m: 1.0 / (2.0 * math.pi * m) ** 2),
        finite(min_value=0.0, max_value=sys.float_info.min, exclude_min=True,
               exclude_max=True),
        finite(min_value=0.0, max_value=10.0, exclude_min=True),
    ))
    trace_u = tuple(draw(st.lists(finite(min_value=-0.5, max_value=0.5), max_size=2)))
    if trace_u and draw(st.booleans()):
        start = draw(finite(min_value=0.0, max_value=1.0))
        stop = start + draw(finite(min_value=0.0, max_value=1.0))
        times = {"v_range": (start, stop, draw(st.integers(2, 400)))}
    else:
        times = {"v_list": tuple(sorted(draw(st.lists(
            finite(min_value=0.0, max_value=2.0), min_size=1, max_size=4, unique=True
        ))))}
    return dict(
        name="draft",
        eps=eps,
        profile=draw(scaled_profiles()),
        truncation=terms,
        u_points=draw(st.integers(2, 41)),
        trace_u=trace_u,
        models=tuple(draw(st.lists(st.sampled_from(MODEL_ORDER), min_size=1, unique=True))),
        fd_nu=draw(st.integers(3, 48)),
        outputs=tuple(draw(st.lists(st.sampled_from(OUTPUT_KINDS), min_size=1, unique=True))),
        **times,
    )


@settings(max_examples=300, deadline=None)
@given(scenario_drafts())
def test_validated_scenario_runs(draft):
    """A scenario either fails validation or runs to the end, for every
    profile kind at any density scale."""
    try:
        s = Scenario(**draft)
    except ScenarioValidationError:
        return
    with tempfile.TemporaryDirectory() as out:
        run_scenario(s, out)


@pytest.mark.parametrize("points, values", [
    # a node at 0 came back from the mirror as -0.0, which the text kept
    ([-0.5, 0.0, 0.5], [0.0, 0.0, 0.0]),
    # interpolating between nodes 1e-308 apart left values of -1.1e-16
    ([-0.171875, 1.1125369292536007e-308], [1.841796875, 0.0]),
])
def test_tabulated_profile_round_trips(points, values):
    p = TabulatedProfile(grid=Grid1D(points=np.array(points)), values=np.array(values))
    assert not np.any(np.signbit(p.grid.points[p.grid.points == 0.0]))
    assert np.all(p.values >= 0.0)
    s = Scenario(name="tab", eps=0.0, profile=p, v_list=(0.1,))
    text = serialize_scenario(s)
    assert parse_scenario(text) == s
    assert serialize_scenario(parse_scenario(text)) == text


def test_numpy_scalars_serialize_as_plain_numbers():
    s = Scenario(
        name="np", eps=np.float64(0.13), profile=GaussianProfile(np.float64(100.0), 1.0),
        v_list=(np.float64(0.1),), models=("parabolic", "fd"), fd_dv=np.float64(1e-6),
    )
    text = serialize_scenario(s)
    assert "np." not in text
    assert parse_scenario(text) == s


# ---------------------------------------------------------------------------
# Every config error is a ScenarioParseError or ScenarioValidationError
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("old, new, line, key", [
    ("eps = 0.13", "eps = inf", 3, "eps"),
    ("v = 0.01", "v = 0.01, nan", 4, "v"),
    ("models = parabolic", "models = parabolic\ntrace_u = -inf", 6, "trace_u"),
    ("models = parabolic", "models = parabolic\nv_range = 0, inf, 300", 6, "v_range"),
    ("sharpness = 100", "sharpness = nan", 9, "sharpness"),
    ("amplitude = 1", "amplitude = 1e999", 10, "amplitude"),
])
def test_non_finite_numbers_rejected_with_line(old, new, line, key):
    with pytest.raises(ScenarioParseError, match=rf"line {line}: {key} must be finite"):
        parse_scenario(MINIMAL.replace(old, new))


@pytest.mark.parametrize("count", ["1201.0", "1e3"])
def test_v_range_count_must_be_an_integer_with_line(count):
    # A count is an integer in the document, as terms is: no float, even a whole one.
    doc = MINIMAL.replace("v = 0.01", f"v_range = 0, 1.2, {count}\ntrace_u = 0.5")
    with pytest.raises(ScenarioParseError,
                       match=rf"line 4: v_range count must be an integer, got '{count}'"):
        parse_scenario(doc)


def test_non_finite_fd_step_rejected_with_line():
    with pytest.raises(ScenarioParseError, match=r"line 13: dv must be finite"):
        parse_scenario(MINIMAL + "\n[fd]\ndv = inf\n")


#: Python-API values that are no value of their field, or of any field:
#: strings, numpy scalars, nested lists, (n, 1) arrays, None, ints beyond the
#: floats, and sequences of two to four numbers or strings, such as a
#: v_range of two or four entries.
ODD_VALUES = st.one_of(
    st.none(),
    st.sampled_from(["abc", "", "0.5", "1e-3", "nan", "parabolic", "csv", "1201",
                     10**400, -10**400, np.float64(math.inf), np.int64(1201), np.float64(0.5)]),
    st.text(max_size=3),
    st.floats(),
    st.integers(-2**70, 2**70),
    st.floats().map(np.float64),
    st.lists(st.lists(st.floats(0.0, 1.2), max_size=2), max_size=3),
    st.lists(st.floats(0.0, 1.2), max_size=3).map(lambda v: np.array(v).reshape(-1, 1)),
    st.lists(st.floats(0.0, 1.2) | st.integers(0, 2000) | st.text(max_size=2),
             min_size=2, max_size=4).map(tuple),
)
API_FIELDS = ["name", "eps", "profile", "truncation", "u_points", "v_list", "v_range",
              "trace_u", "models", "fd_nu", "fd_dv", "outputs"]


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(API_FIELDS), ODD_VALUES, st.sampled_from(["figure1", "figure2"]))
def test_python_api_spellings_raise_only_validation_errors(field, value, name):
    # A string eps or fd dv, a str or int name, a scalar trace_u and a
    # two-entry v_range raised TypeError or ValueError, and models="parabolic"
    # was read letter by letter.
    base = preset({"v_list": "figure1", "v_range": "figure2"}.get(field, name))
    try:
        s = replace(base, **{field: value})
    except ScenarioValidationError:
        return
    text = serialize_scenario(s)  # what is accepted is written as a document that reads back
    assert serialize_scenario(parse_scenario(text)) == text


#: Python-API values that once raised TypeError or ValueError, or were split
#: letter by letter, with the ScenarioValidationError each raises now.
WRONG_TYPES = [
    ("figure1", "eps", "0.1", "eps must be finite and >= 0.0, got '0.1'"),
    ("figure1", "eps", None, "eps must be finite and >= 0.0, got None"),
    ("figure1", "fd_dv", "x", "fd dv must be finite and > 0, got 'x'"),
    ("figure2", "trace_u", "abc", "trace_u must be a 1D sequence of numbers, got 'abc'"),
    ("figure2", "trace_u", 0.5, "trace_u must be a 1D sequence of numbers, got 0.5"),
    ("figure1", "name", 5, "name must be non-empty and use only letters, digits, '_', '.' "
                           "and '-', got 5"),
    ("figure1", "outputs", 5, "output kinds must be a sequence of names, got 5"),
    ("figure1", "models", "parabolic", "models must be a sequence of names, got 'parabolic'"),
    ("figure1", "profile", None, "profile must be an InitialProfile, got None"),
    ("figure2", "v_range", (0.0, 1.2), "v_range must be (start, stop, count), got (0.0, 1.2)"),
    ("figure1", "v_list", "abc", "time points must be a non-empty 1D array"),
    ("figure2", "v_range", (0.0, "abc", 300), "time points must be finite numbers of magnitude "
                                              f"at most {sys.float_info.max / 4!r}, got ends "
                                              "0.0 and 'abc'"),
]


@pytest.mark.parametrize("name, field, value, message", WRONG_TYPES)
def test_wrong_types_are_refused_by_their_field(name, field, value, message):
    with pytest.raises(ScenarioValidationError) as refused:
        replace(preset(name), **{field: value})
    assert str(refused.value) == message


@st.composite
def kept_spellings(draw):
    """(field, value, canonical): a spelling the Python API accepted before
    each field refused wrong types, and the tuple spelling of the same value."""
    field = draw(st.sampled_from(["v_list", "v_range", "trace_u", "models", "outputs", "eps"]))
    if field == "v_list":
        times = sorted(draw(st.lists(st.integers(0, 10) | finite(min_value=0.0, max_value=10.0),
                                     min_size=1, max_size=5, unique_by=float)))
        canonical = tuple(map(float, times))
        value = draw(st.sampled_from([tuple, list, np.array,
                                      lambda v: tuple(map(np.float64, v))]))(times)
    elif field == "v_range":
        start = draw(st.integers(0, 2) | finite(min_value=0.0, max_value=2.0))
        stop = start + draw(st.integers(1, 3) | finite(min_value=1e-3, max_value=3.0))
        count = draw(st.integers(200, 3000))
        canonical = (float(start), float(stop), count)
        value = draw(st.sampled_from([
            (start, stop, count), [start, stop, count],
            (np.float64(start), np.float64(stop), np.int64(count)),
        ]))
    elif field == "trace_u":
        positions = draw(st.lists(st.sampled_from([-0.5, 0, 0.25, 0.5]) | finite(-0.5, 0.5),
                                  min_size=1, max_size=3, unique_by=float))
        canonical = tuple(map(float, positions))
        value = draw(st.sampled_from([tuple, list, np.array]))(positions)
    elif field in ("models", "outputs"):
        names = ("parabolic", "hyperbolic") if field == "models" else ("csv", "svg", "events")
        canonical = names
        value = draw(st.sampled_from([list, set, np.array, lambda v: tuple(reversed(v))]))(names)
    else:
        canonical, value = 0.13, draw(st.sampled_from([np.float64(0.13), 0.13]))
    return field, value, canonical


@settings(max_examples=300, deadline=None)
@given(kept_spellings())
def test_accepted_spellings_keep_their_stored_value_and_hash(spelling):
    field, value, canonical = spelling
    base = preset("figure1" if field == "v_list" else "figure2")
    s, t = replace(base, **{field: value}), replace(base, **{field: canonical})
    assert getattr(s, field) == getattr(t, field) == canonical
    assert s == t and scenario_hash(s) == scenario_hash(t)
    stored = getattr(s, field)
    if field == "v_range":
        assert [type(x) for x in stored] == [float, float, int]
    elif field in ("v_list", "trace_u"):
        assert all(type(x) is float for x in stored)


def test_scenario_requires_finite_eps():
    with pytest.raises(ScenarioValidationError, match="eps must be finite"):
        Scenario(name="x", eps=math.inf, profile=UniformProfile(1.0), v_list=(0.1,))


@pytest.mark.parametrize("model", ["hyperbolic", "wkb"])
def test_scenario_refuses_an_eps_whose_last_mode_overflows(model):
    # eps = 1e305 validated, and run wrote NaN for every row of the family
    wavenumber = {"hyperbolic": 4.0, "wkb": 2.0}[model] * math.pi
    bound = sys.float_info.max / (wavenumber * 500) ** 2
    base = Scenario(name="x", eps=0.13, profile=UniformProfile(1.0), truncation=500,
                    v_list=(0.1,), models=("parabolic", model))
    assert replace(base, eps=bound * (1 - 1e-9)).eps == bound * (1 - 1e-9)
    for eps in (bound * (1 + 1e-9), 1e305):
        with pytest.raises(ScenarioValidationError, match=f"^{model}: eps=.* too large for 500"):
            replace(base, eps=eps)


@pytest.mark.parametrize("name", ["../escaped", "a/b", "/abs", "my run", "", "a\\b"])
def test_scenario_name_must_be_a_file_prefix(name):
    with pytest.raises(ScenarioValidationError, match="name must"):
        Scenario(name=name, eps=0.1, profile=UniformProfile(1.0), v_list=(0.1,))


def test_profile_constructor_errors_become_validation_errors():
    for old, new in [("sharpness = 100", "sharpness = 1e7"),
                     ("sharpness = 100", "sharpness = -5")]:
        with pytest.raises(ScenarioValidationError, match="sharpness") as info:
            parse_scenario(MINIMAL.replace(old, new))
        assert isinstance(info.value.__cause__, InvalidParameterError)
    tabulated = MINIMAL.replace("kind = gaussian", "kind = tabulated").replace(
        "sharpness = 100\namplitude = 1", "grid = 0.5, 0.1\nvalues = 1, 2")
    with pytest.raises(ScenarioValidationError, match="increasing"):
        parse_scenario(tabulated)


def test_time_grid_errors_become_validation_errors():
    with pytest.raises(ScenarioValidationError, match="increasing") as info:
        Scenario(name="x", eps=0.1, profile=UniformProfile(1.0), v_list=(0.2, 0.1))
    assert isinstance(info.value.__cause__, InvalidParameterError)
    with pytest.raises(ScenarioValidationError, match="finite"):
        Scenario(name="x", eps=0.1, profile=UniformProfile(1.0), v_list=(math.nan,))
    # checked as floats or built as an array, one line with no numpy repr
    for v_list in ((-0.1, 0.05), np.array([-0.1, 0.05])):
        with pytest.raises(ScenarioValidationError) as refused:
            Scenario(name="x", eps=0.1, profile=UniformProfile(1.0), v_list=v_list)
        assert str(refused.value) == "time points must lie in [0, inf), got range [-0.1, 0.05]"


def test_a_long_time_grid_validates_without_being_built():
    # 10**7 times took 195 MiB to validate, building the grid only to count
    # it; run builds it.
    tracemalloc.start()
    try:
        s = replace(preset("figure2"), v_range=(0.0, 1.2, 10**7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.v_range == (0.0, 1.2, 10**7) and peak < 2**20
    assert replace(s, v_range=(0.0, 1.2, 1201)) == preset("figure2")


def test_resonant_wkb_is_rejected_at_validation():
    eps = 1.0 / (6.0 * math.pi) ** 2  # eps*(2*m*pi)^2 = 1 for m = 3
    s = Scenario(name="x", eps=eps, profile=UniformProfile(1.0), truncation=2,
                 v_list=(0.1,), models=("parabolic", "wkb"))
    with pytest.raises(ScenarioValidationError, match="m=3") as info:
        override(s, truncation=3)
    assert isinstance(info.value.__cause__, ResonantModeError)
    with pytest.raises(ScenarioValidationError, match="m=1"):
        override(s, eps=9.0 * eps)
    # without wkb the same eps is not checked
    replace(s, truncation=3, models=("parabolic",))


def test_cosine_mode_above_terms_is_refused_with_a_series_model():
    # mode 60 at 50 terms validated, and run wrote the flat profile k0
    base = Scenario(name="x", eps=0.13, profile=CosineModeProfile(60, 1.0, 1.0),
                    truncation=60, v_list=(0.01,), models=("parabolic",))
    for models in (("parabolic",), ("hyperbolic",), ("wkb",), ("parabolic", "fd")):
        replace(base, models=models)  # mode == terms
        with pytest.raises(ScenarioValidationError,
                           match=r"^\[profile\] cosine mode 60 lies above terms = 50"):
            replace(base, truncation=50, models=models)
    # the FD oracle alone has no truncation
    assert replace(base, truncation=50, models=("fd",)).truncation == 50


def test_fd_config_is_checked_at_validation():
    fd_doc = MINIMAL.replace("models = parabolic", "models = parabolic, fd")
    s = parse_scenario(fd_doc)
    auto = FdConfig.auto(400, 0.13, s.time_grid())
    assert s.fd_config() == auto
    assert parse_scenario(fd_doc + "\n[fd]\ndv = 1e-6\n").fd_config().dv == 1e-6
    with pytest.raises(ScenarioValidationError, match=r"\[fd\] telegraph mode requires"):
        parse_scenario(fd_doc + "\n[fd]\nnu = 64\ndv = 0.01\n")
    with pytest.raises(ScenarioValidationError, match=r"\[fd\] v_end must be > 0"):
        parse_scenario(fd_doc.replace("v = 0.01", "v = 0"))
    # without fd the same step is not checked
    parse_scenario(MINIMAL + "\n[fd]\nnu = 64\ndv = 0.01\n")
