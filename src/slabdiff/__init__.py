"""Slab diffusion with reflecting walls: parabolic, telegraph and WKB-type
series solutions, a finite-difference cross-validation oracle, wavefront
echo analysis, and a scenario-driven CLI."""

__version__ = "0.1.0"

from .core import Grid1D, TimeGrid
from .errors import (
    DomainError,
    InvalidInputError,
    InvalidParameterError,
    QuadratureError,
    ResonantModeError,
    ScenarioParseError,
    ScenarioValidationError,
    SlabDiffError,
    StabilityError,
)
from .profiles import (
    CosineModeProfile,
    GaussianProfile,
    InitialProfile,
    SpectralCoefficients,
    SurfaceCoshProfile,
    TabulatedProfile,
    UniformProfile,
    compute_coefficients,
    evaluate_profile,
)
from .spectral import (
    FieldSlice,
    TimeTrace,
    field_slice,
    hyperbolic_density,
    parabolic_density,
    time_trace,
    wkb_density,
)
from .fd import FdConfig, cell_centers, fd_solve_heat, fd_solve_telegraph
from .analysis import (
    EchoLadder,
    ErrorNorms,
    ExtremumEvent,
    classify_monotone,
    detect_extrema,
    error_norms,
    predict_echo_ladder,
)
from .scenario import (
    Scenario,
    parse_scenario,
    preset,
    scenario_hash,
    serialize_scenario,
)
from .runner import run_scenario

__all__ = [
    "__version__",
    # core
    "Grid1D", "TimeGrid",
    # profiles
    "InitialProfile", "GaussianProfile", "SurfaceCoshProfile", "UniformProfile",
    "CosineModeProfile", "TabulatedProfile", "SpectralCoefficients",
    "evaluate_profile", "compute_coefficients",
    # spectral
    "FieldSlice", "TimeTrace", "parabolic_density", "hyperbolic_density",
    "wkb_density", "field_slice", "time_trace",
    # fd
    "FdConfig", "cell_centers", "fd_solve_heat", "fd_solve_telegraph",
    # analysis
    "ExtremumEvent", "EchoLadder", "ErrorNorms", "predict_echo_ladder",
    "detect_extrema", "classify_monotone", "error_norms",
    # scenario / runner
    "Scenario", "parse_scenario", "serialize_scenario", "scenario_hash",
    "preset", "run_scenario",
    # errors
    "SlabDiffError", "InvalidParameterError", "DomainError", "QuadratureError",
    "ResonantModeError", "StabilityError", "InvalidInputError", "ScenarioParseError",
    "ScenarioValidationError",
]
