import importlib
import math
import sys
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import slabdiff
from slabdiff import (
    FdConfig,
    GaussianProfile,
    Grid1D,
    InvalidParameterError,
    ResonantModeError,
    ScenarioValidationError,
    StabilityError,
    TimeGrid,
    compute_coefficients,
    hyperbolic_density,
    nearest_arrival,
    preset,
    wkb_density,
)
from slabdiff import core
from slabdiff.core import MAX_END, MAX_SAMPLES, MIN_STEP, check_family_eps


def test_uniform_grid_covers_slab():
    g = Grid1D.uniform_grid(11)
    assert g.points[0] == -0.5
    assert g.points[-1] == 0.5
    assert len(g) == 11


def test_grid_rejects_bad_points():
    with pytest.raises(InvalidParameterError):
        Grid1D(points=np.array([0.0, 0.0, 0.1]))
    with pytest.raises(InvalidParameterError):
        Grid1D(points=np.array([-0.6, 0.0]))
    with pytest.raises(InvalidParameterError):
        Grid1D(points=np.array([0.0, 0.7]))
    with pytest.raises(InvalidParameterError):
        Grid1D(points=np.array([[0.0, 0.1]]))


def test_time_grid_rejects_bad_points():
    with pytest.raises(InvalidParameterError):
        TimeGrid(points=np.array([-0.1, 0.2]))
    with pytest.raises(InvalidParameterError):
        TimeGrid(points=np.array([0.2, 0.1]))
    tg = TimeGrid.linspace(0.0, 1.0, 11)
    assert len(tg) == 11
    assert tg.points[0] == 0.0


@pytest.mark.parametrize("cls", [Grid1D, TimeGrid])
def test_grids_share_one_dataclass_and_declare_no_field(cls):
    # One build, in core._Points, serves both grids; each sets its bounds.
    assert "__dataclass_fields__" not in vars(cls)
    g = cls(points=[0.0, 0.25])
    assert [f.name for f in fields(g)] == ["points"]
    assert repr(g) == f"{cls.__name__}(points=array([0.  , 0.25]))"
    changed = replace(g, points=[0.0, 0.5])
    assert type(changed) is cls and changed == cls(points=np.array([0.0, 0.5])) != g
    with pytest.raises(TypeError, match="unhashable"):
        hash(g)
    with pytest.raises(FrozenInstanceError):
        g.points = np.array([0.0])


def test_grids_of_two_types_are_not_equal():
    points = np.array([0.0, 0.25])
    assert Grid1D(points) != TimeGrid(points)
    assert Grid1D(points) == Grid1D(points.copy())


#: Each refusal of the one axis check, naming its class's noun. A range
#: refusal prints its ends as floats, with no numpy repr.
AXIS_REFUSALS = [
    (Grid1D, [[0.0, 0.1]], "grid points must be a non-empty 1D array"),
    (Grid1D, [], "grid points must be a non-empty 1D array"),
    (Grid1D, [0.0, math.nan], "grid points must be finite"),
    (Grid1D, [0.0, 0.0, 0.1], "grid points must be strictly increasing"),
    (Grid1D, [-0.6, 0.0], "grid points must lie in [-1/2, 1/2], got range [-0.6, 0.0]"),
    (Grid1D, [0.0, 0.7], "grid points must lie in [-1/2, 1/2], got range [0.0, 0.7]"),
    (TimeGrid, [[0.0, 0.1]], "time points must be a non-empty 1D array"),
    (TimeGrid, [0.1, math.inf], "time points must be finite"),
    (TimeGrid, [0.2, 0.1], "time points must be strictly increasing"),
    (TimeGrid, [0.1, 0.1], "time points must be strictly increasing"),
    (TimeGrid, [-5e-324, 0.2], "time points must lie in [0, inf), got range [-5e-324, 0.2]"),
    (TimeGrid, ["abc", 0.1], "time points must be a non-empty 1D array"),
]


@pytest.mark.parametrize("cls, points, message", AXIS_REFUSALS)
def test_axis_refusals_name_their_class(cls, points, message):
    with pytest.raises(InvalidParameterError) as refused:
        cls(points=np.array(points))
    assert str(refused.value) == message


def test_axes_accept_their_whole_range():
    assert len(Grid1D(points=[-0.5, 0.5])) == 2
    assert len(TimeGrid(points=[0.0, 5e-324, 1e308])) == 3


def verdict(call):
    """("ok", the result) or the type and message of what call() raised."""
    try:
        return "ok", call()
    except Exception as exc:  # the two paths must raise alike, whatever they raise
        return type(exc).__name__, str(exc)


def forbid_builds(monkeypatch):
    def build(*args):
        raise AssertionError(f"built a grid for {args}")

    monkeypatch.setattr(core._Points, "_linspace", build)
    monkeypatch.setattr(core._Points, "__post_init__", build)
    monkeypatch.setattr(np, "linspace", build)


#: A span across 2**20, whose ulp doubles there: at 240 samples the step,
#: 0.94 ulps above 2**20, repeats a time. The step bound refuses it; without
#: that bound it validates and its grid is refused.
ACROSS_POWER = (2.0**20 - 50 * 2.0**-33, 2.0**20 + 200 * 2.0**-32, 240)

STEP_REFUSAL = ("time points must be spaced by a normal float of at least 1e-09 of their "
                "largest magnitude, got a step of {}")
END_REFUSAL = f"time points must be finite numbers of magnitude at most {MAX_END!r}, got ends {{}}"


def test_typical_spans_are_decided_without_building(monkeypatch):
    forbid_builds(monkeypatch)
    assert TimeGrid.linspace_count(0.0, 1.2, 1201) == 1201
    assert TimeGrid.linspace_count(0, 1, 10**7) == 10**7
    assert Grid1D.uniform_count(1001) == 1001
    with pytest.raises(InvalidParameterError) as refused:
        TimeGrid.linspace_count(1e6, 1e6 + 1e-9, 1201)
    assert str(refused.value) == STEP_REFUSAL.format((1e6 + 1e-9 - 1e6) / 1200)
    assert TimeGrid.checked_values([0.01, 0.1]) == (0.01, 0.1)


#: Ranges the one linspace rule refuses, checked or built, with the line it
#: refuses them with: no step below 1e-9 of the larger end or below the
#: smallest normal float, no end above MAX_END = max/4 in magnitude, and
#: ends that float() cannot read.
LINSPACE_REFUSALS = [
    ((1e6, 1e6 + 1e-4, 1201), STEP_REFUSAL.format((1e6 + 1e-4 - 1e6) / 1200)),
    (ACROSS_POWER, STEP_REFUSAL.format((ACROSS_POWER[1] - ACROSS_POWER[0]) / 239)),
    ((0.0, 1e-300, MAX_SAMPLES), STEP_REFUSAL.format(1e-300 / (MAX_SAMPLES - 1))),
    ((0.0, sys.float_info.max, 201), END_REFUSAL.format(f"0.0 and {sys.float_info.max!r}")),
    ((0.0, 2 * MAX_END, 201), END_REFUSAL.format(f"0.0 and {2 * MAX_END!r}")),
    ((0.0, math.nan, 201), END_REFUSAL.format("0.0 and nan")),
    ((0.0, "abc", 300), END_REFUSAL.format("0.0 and 'abc'")),
    ((None, 1.0, 300), END_REFUSAL.format("None and 1.0")),
    (([0.0], 1.0, 300), END_REFUSAL.format("[0.0] and 1.0")),
    ((0.0, 10**400, 300), END_REFUSAL.format(f"0.0 and {10**400!r}")),
    ((0.5, 0.5, 2), "time points must be strictly increasing"),
    ((-0.1, 1.0, 2), "time points must lie in [0, inf), got range [-0.1, 1.0]"),
]


@pytest.mark.parametrize("triple, message", LINSPACE_REFUSALS)
def test_linspace_rule_refuses_checked_and_built_alike(triple, message):
    for call in (TimeGrid.linspace_count, TimeGrid.linspace):
        with pytest.raises(InvalidParameterError) as refused:
            call(*triple)
        assert str(refused.value) == message


@pytest.mark.parametrize("stop, count", [(1.2, 2), (1e6, 1201), (2.0**20, 240), (MAX_END, 85)])
def test_the_step_bound_is_exact(stop, count):
    # The least span that meets the bound is accepted, and builds a strictly
    # increasing grid; one ulp of the stop less is refused.
    ulps = math.ceil(MIN_STEP * stop * (count - 1) / math.ulp(stop))
    while (ulps - 1) * math.ulp(stop) / (count - 1) >= MIN_STEP * stop:
        ulps -= 1
    while ulps * math.ulp(stop) / (count - 1) < MIN_STEP * stop:
        ulps += 1
    start = stop - ulps * math.ulp(stop)
    assert np.all(np.diff(TimeGrid.linspace(start, stop, count).points) > 0)
    assert TimeGrid.linspace_count(start, stop, count) == count
    with pytest.raises(InvalidParameterError, match="^time points must be spaced by a normal"):
        TimeGrid.linspace_count(start + math.ulp(stop), stop, count)


def test_ranges_from_0_are_accepted_down_to_a_normal_step():
    assert TimeGrid.linspace_count(0.0, 1.2, MAX_SAMPLES) == MAX_SAMPLES
    assert TimeGrid.linspace_count(0.0, 3e-300, MAX_SAMPLES) == MAX_SAMPLES
    assert TimeGrid.linspace_count(0.0, MAX_END, MAX_SAMPLES) == MAX_SAMPLES


def test_the_sample_cap_is_decided_without_allocating(monkeypatch):
    # 2**27 samples are accepted and 2**27 + 1 refused, on both axes, and
    # the check builds no grid. The build path refuses the same count before
    # numpy allocates; it runs last, so that a cap off by one fails the
    # check first instead of allocating 1 GiB.
    assert MAX_SAMPLES == 2**27
    refusal = "^{} {} points exceed the cap of 134217728 samples per axis$"
    with monkeypatch.context() as patched:
        forbid_builds(patched)
        assert TimeGrid.linspace_count(0.0, 1.2, MAX_SAMPLES) == MAX_SAMPLES
        assert Grid1D.uniform_count(MAX_SAMPLES) == MAX_SAMPLES
        with pytest.raises(InvalidParameterError, match=refusal.format(MAX_SAMPLES + 1, "time")):
            TimeGrid.linspace_count(0.0, 1.2, MAX_SAMPLES + 1)
        with pytest.raises(InvalidParameterError, match=refusal.format(MAX_SAMPLES + 1, "u")):
            Grid1D.uniform_count(MAX_SAMPLES + 1)
    with pytest.raises(InvalidParameterError, match=refusal.format(MAX_SAMPLES + 1, "time")):
        TimeGrid.linspace(0.0, 1.2, MAX_SAMPLES + 1)
    with pytest.raises(InvalidParameterError, match=refusal.format(MAX_SAMPLES + 1, "u")):
        Grid1D.uniform_grid(MAX_SAMPLES + 1)


def near(x: float):
    """Floats within 50 ulps of x."""
    return st.integers(-50, 50).map(lambda k: x + k * math.ulp(x))


#: Ends of any kind: non-finite, overflowing, negative, ints beyond 2**53.
ENDS = (st.floats() | st.floats(-2.0, 2.0) | st.integers(-10**6, 10**6)
        | st.integers(-2**60, 2**60))


@st.composite
def linspaces(draw):
    """(start, stop, count): any ends, or a span within 50 ulps of its stop of
    the span at the step bound, MIN_STEP*stop*(count - 1), for a stop near
    1.2, 1e6, 2**20 or MAX_END: steps on both sides of the bound."""
    count = draw(st.integers(2, 300) | st.integers(2, 10**5))
    if draw(st.booleans()):
        return draw(ENDS), draw(ENDS), count
    stop = draw(st.sampled_from([1.2, 1e6, 2.0**20, MAX_END]).flatmap(near))
    ulps = round(MIN_STEP * stop * (count - 1) / math.ulp(stop)) + draw(st.integers(-50, 50))
    return stop - ulps * math.ulp(stop), stop, count


@settings(max_examples=400, deadline=None)
@given(linspaces())
@example((1e6, 1e6 + 1e-9, 1201))
@example(ACROSS_POWER)
@example((1e6, 1e6 + 100 * math.ulp(1e6), 50))
@example((0.0, sys.float_info.max, 85))
@example((0.0, 5e-324, 3))
def test_linspace_counts_give_the_built_grids_verdict(triple):
    # Both run the one rule first, so they refuse alike; a range it accepts
    # builds a strictly increasing grid, and np.linspace warns of no overflow
    # (tier-1 fails on a RuntimeWarning).
    start, stop, count = triple
    checked = verdict(lambda: TimeGrid.linspace_count(start, stop, count))
    built = verdict(lambda: len(TimeGrid.linspace(start, stop, count)))
    assert checked == built


@settings(max_examples=100, deadline=None)
@given(st.integers(-2, 10**5) | st.sampled_from([2.5, 51.0, np.int64(7), "7", None]))
def test_uniform_counts_give_the_built_grids_verdict(n):
    assert verdict(lambda: Grid1D.uniform_count(n)) == verdict(lambda: len(Grid1D.uniform_grid(n)))


#: The spellings of a v_list a caller can pass to Scenario.
SPELLINGS = {
    "tuple": tuple,
    "list": list,
    "array": np.array,
    "scalar": lambda v: v[0] if v else 0.5,
    "string": lambda v: ", ".join(map(repr, v)),
    "2-D list": lambda v: [v],
    "(n, 1) array": lambda v: np.array(v).reshape(-1, 1),
}
TIMES = st.lists(ENDS | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.1, "abc", "0.2"]),
                 max_size=6)


@settings(max_examples=400, deadline=None)
@given(TIMES, st.sampled_from(sorted(SPELLINGS)))
@example([-0.1, 0.05], "tuple")
@example([0.2, 0.1], "list")
@example([0.1, 0.1], "tuple")
@example([0, 2**53 + 1], "list")
def test_checked_values_give_the_built_grids_verdict(times, spelling):
    values = SPELLINGS[spelling](times)
    built = verdict(lambda: tuple(TimeGrid.from_values(values).points.tolist()))
    # repr tells -0.0 from 0.0
    assert repr(verdict(lambda: TimeGrid.checked_values(values))) == repr(built)


@pytest.mark.parametrize("count", [1, 10**17, MAX_SAMPLES + 1, 2**60, 2**63 - 1, 10**20])
def test_grids_refuse_a_size_numpy_cannot_build(count):
    # The sample cap refuses each count above it before numpy sees it: numpy
    # itself raised MemoryError at 10**17, IndexError at 2**63 - 1 and
    # ValueError at 10**20, and 2**60 was one above the old cap,
    # np.iinfo(np.intp).max // 8. None of these counts allocates anything.
    with pytest.raises(InvalidParameterError):
        Grid1D.uniform_grid(count)
    with pytest.raises(InvalidParameterError):
        TimeGrid.linspace(0.0, 1.0, count)


def _coefficients():
    return compute_coefficients(GaussianProfile(100.0, 1.0), 50)


def _fd_figure2(nu):
    return replace(preset("figure2"), fd_nu=nu, models=("parabolic", "fd"))


#: Counts and eps that each entry point once let through, or refused only
#: with a bare TypeError or ZeroDivisionError, or computed with: the call,
#: the error it raises and its message. A count is an integer, numpy
#: integers included, and a float is refused even when whole; eps is finite.
REFUSALS = {
    "scenario_float_u_points": (lambda: replace(preset("figure2"), u_points=51.0),
                                ScenarioValidationError, "u points must be an integer, got 51.0"),
    "float_time_count": (lambda: TimeGrid.linspace(0.0, 1.0, 2.5),
                         InvalidParameterError, "time points must be an integer, got 2.5"),
    "float_grid_count": (lambda: Grid1D.uniform_grid(2.5),
                         InvalidParameterError, "u points must be an integer, got 2.5"),
    # a numpy integer is a count, held to the bound like an int
    "scenario_numpy_fd_nu": (lambda: _fd_figure2(np.int64(2)),
                             ScenarioValidationError, r"^\[fd\] nu must be >= 3, got 2$"),
    "fd_config_numpy_nu": (lambda: FdConfig.auto(np.int64(2), 0.13, TimeGrid.from_values([0.1])),
                           InvalidParameterError, "^nu must be >= 3, got 2$"),
    # without fd the canonical document of fd_nu = 64.5 did not parse
    "scenario_float_fd_nu": (lambda: replace(preset("figure2"), fd_nu=64.5),
                             ScenarioValidationError, r"\[fd\] nu must be an integer, got 64.5"),
    "scenario_float_v_range_count": (
        lambda: replace(preset("figure2"), v_range=(0.0, 1.2, 1201.7)),
        ScenarioValidationError, "time points must be an integer, got 1201.7"),
    "hyperbolic_infinite_eps": (lambda: hyperbolic_density(_coefficients(), math.inf, 0.5, 0.1),
                                InvalidParameterError, "eps must be finite"),
    "wkb_infinite_eps": (lambda: wkb_density(_coefficients(), math.inf, 0.5, 0.1),
                         InvalidParameterError, "eps must be finite"),
    "fd_config_infinite_eps": (
        lambda: FdConfig(nu=400, dv=1e-6, eps=math.inf, snapshot_times=TimeGrid.from_values([0.1])),
        InvalidParameterError, "eps must be finite"),
    "ladder_infinite_eps": (lambda: nearest_arrival(0.0, 0.5, math.inf, 0.1),
                            InvalidParameterError, "eps must be finite"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_counts_and_eps_are_refused_by_their_one_rule(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("family", ["hyperbolic", "wkb"])
def test_eps_is_refused_where_the_last_mode_overflows(family):
    # The telegraph discriminant 1 - (4*M*pi)^2*eps and the two-timescale
    # ratio q_M = eps*(2*M*pi)^2 overflowed, and the series wrote NaN.
    coeffs = _coefficients()
    wavenumber = {"hyperbolic": 4.0, "wkb": 2.0}[family] * math.pi
    bound = sys.float_info.max / (wavenumber * coeffs.truncation) ** 2
    density = {"hyperbolic": hyperbolic_density, "wkb": wkb_density}[family]
    u, v = np.linspace(-0.5, 0.5, 11)[None, :], np.array([[0.0], [0.1], [1.0], [1e300]])
    assert np.isfinite(density(coeffs, bound * (1 - 1e-9), u, v)).all()
    with pytest.raises(InvalidParameterError, match="too large for 50 terms"):
        density(coeffs, bound * (1 + 1e-9), u, v)


def test_check_family_eps_maps_each_family_to_its_rule():
    resonant = 1.0 / (2.0 * math.pi) ** 2  # eps*(2*m*pi)^2 = 1 for m = 1
    for eps in (0.0, resonant, 1e305):
        check_family_eps("parabolic", eps, 50)  # the parabolic family ignores eps
    check_family_eps("hyperbolic", resonant, 50)
    check_family_eps("wkb", 0.0, 50)
    with pytest.raises(InvalidParameterError, match=">= 2.2250738585072014e-308"):
        check_family_eps("hyperbolic", 0.0, 50)
    with pytest.raises(InvalidParameterError, match="too large for 50 terms"):
        check_family_eps("hyperbolic", 1e305, 50)
    with pytest.raises(ResonantModeError, match="m=1"):
        check_family_eps("wkb", resonant, 50)


def test_every_owner_refusal_is_an_invalid_parameter_error():
    # so that Scenario reports each one through a single except clause
    assert issubclass(ResonantModeError, InvalidParameterError)
    assert issubclass(StabilityError, InvalidParameterError)


def test_numpy_integer_fd_cells_are_counts():
    s = _fd_figure2(np.int64(64))
    assert type(s.fd_nu) is int and s == _fd_figure2(64)
    cfg = FdConfig.auto(np.int64(64), 0.13, s.time_grid())
    assert type(cfg.nu) is int and cfg == s.fd_config()


def test_every_public_name_resolves():
    assert len(set(slabdiff.__all__)) == len(slabdiff.__all__)
    assert [name for name in slabdiff.__all__ if not hasattr(slabdiff, name)] == []
    namespace = {}
    exec("from slabdiff import *", namespace)
    assert set(slabdiff.__all__) <= set(namespace)


#: The package's public names, in order. Exporting them lazily must keep
#: every one of them.
PUBLIC_NAMES = [
    "__version__",
    "Grid1D", "TimeGrid", "FieldSlice", "TimeTrace",
    "InitialProfile", "GaussianProfile", "SurfaceCoshProfile", "UniformProfile",
    "CosineModeProfile", "TabulatedProfile", "SpectralCoefficients",
    "evaluate_profile", "compute_coefficients",
    "parabolic_density", "hyperbolic_density",
    "wkb_density", "field_slice", "time_trace",
    "FdConfig", "cell_centers", "fd_solve_heat", "fd_solve_telegraph",
    "ExtremumEvent", "ErrorNorms", "nearest_arrival", "detect_extrema",
    "classify_monotone", "error_norms",
    "Scenario", "parse_scenario", "serialize_scenario", "scenario_hash",
    "preset", "run_scenario",
    "SlabDiffError", "InvalidParameterError", "DomainError", "QuadratureError",
    "ResonantModeError", "StabilityError", "InvalidInputError", "ScenarioParseError",
    "ScenarioValidationError",
]


def test_public_names_are_unchanged():
    assert slabdiff.__all__ == PUBLIC_NAMES


def test_each_public_name_is_its_home_modules_object():
    listed = dir(slabdiff)
    for name in PUBLIC_NAMES[1:]:
        value = getattr(slabdiff, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("slabdiff."), name
        assert value.__name__ == name and getattr(home, name) is value, name
        assert name in listed, name


def test_star_import_and_submodules_resolve():
    namespace = {}
    exec("from slabdiff import *", namespace)
    assert [name for name in PUBLIC_NAMES if name not in namespace] == []
    assert namespace["run_scenario"] is importlib.import_module("slabdiff.runner").run_scenario
    for module in ("runner", "spectral", "svgplot"):
        assert getattr(slabdiff, module) is importlib.import_module(f"slabdiff.{module}")
        assert module in dir(slabdiff)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        slabdiff.no_such_name
    assert not hasattr(slabdiff, "no_such_name")
    with pytest.raises(ImportError):
        exec("from slabdiff import no_such_name", {})
