import importlib

import numpy as np
import pytest

import slabdiff
from slabdiff import Grid1D, InvalidParameterError, TimeGrid
from slabdiff.core import MAX_SAMPLES


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


@pytest.mark.parametrize("count", [1, MAX_SAMPLES + 1, 2**63 - 1, 10**20])
def test_grids_refuse_a_size_numpy_cannot_build(count):
    # numpy raises ValueError at 10**20 and IndexError at 2**63 - 1; none of
    # these counts allocates anything.
    with pytest.raises(InvalidParameterError):
        Grid1D.uniform_grid(count)
    with pytest.raises(InvalidParameterError):
        TimeGrid.linspace(0.0, 1.0, count)


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
    "Grid1D", "TimeGrid",
    "InitialProfile", "GaussianProfile", "SurfaceCoshProfile", "UniformProfile",
    "CosineModeProfile", "TabulatedProfile", "SpectralCoefficients",
    "evaluate_profile", "compute_coefficients",
    "FieldSlice", "TimeTrace", "parabolic_density", "hyperbolic_density",
    "wkb_density", "field_slice", "time_trace",
    "FdConfig", "cell_centers", "fd_solve_heat", "fd_solve_telegraph",
    "ExtremumEvent", "EchoLadder", "ErrorNorms", "predict_echo_ladder",
    "detect_extrema", "classify_monotone", "error_norms",
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
