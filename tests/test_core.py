import importlib
import math
import sys
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

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
from slabdiff.core import MAX_SAMPLES, check_family_eps


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


#: Each refusal of the one axis check, naming its class's noun. Grid1D's
#: lines are as they were before the two grids shared the check.
AXIS_REFUSALS = [
    (Grid1D, [[0.0, 0.1]], "grid points must be a non-empty 1D array"),
    (Grid1D, [], "grid points must be a non-empty 1D array"),
    (Grid1D, [0.0, math.nan], "grid points must be finite"),
    (Grid1D, [0.0, 0.0, 0.1], "grid points must be strictly increasing"),
    (Grid1D, [-0.6, 0.0],
     "grid points must lie in [-1/2, 1/2], got range [np.float64(-0.6), np.float64(0.0)]"),
    (Grid1D, [0.0, 0.7],
     "grid points must lie in [-1/2, 1/2], got range [np.float64(0.0), np.float64(0.7)]"),
    (TimeGrid, [[0.0, 0.1]], "time points must be a non-empty 1D array"),
    (TimeGrid, [0.1, math.inf], "time points must be finite"),
    (TimeGrid, [0.2, 0.1], "time points must be strictly increasing"),
    (TimeGrid, [0.1, 0.1], "time points must be strictly increasing"),
    (TimeGrid, [-5e-324, 0.2],
     "time points must lie in [0, inf), got range [np.float64(-5e-324), np.float64(0.2)]"),
]


@pytest.mark.parametrize("cls, points, message", AXIS_REFUSALS)
def test_axis_refusals_name_their_class(cls, points, message):
    with pytest.raises(InvalidParameterError) as refused:
        cls(points=np.array(points))
    assert str(refused.value) == message


def test_axes_accept_their_whole_range():
    assert len(Grid1D(points=[-0.5, 0.5])) == 2
    assert len(TimeGrid(points=[0.0, 5e-324, 1e308])) == 3


@pytest.mark.parametrize("count", [1, 10**17, MAX_SAMPLES + 1, 2**63 - 1, 10**20])
def test_grids_refuse_a_size_numpy_cannot_build(count):
    # numpy raises ValueError at 10**20 and IndexError at 2**63 - 1, and
    # MemoryError at 10**17: its 8e17 bytes exceed any address space, so
    # the allocation fails at once. None of these counts allocates anything.
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
