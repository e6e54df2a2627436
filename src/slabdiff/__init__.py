"""Slab diffusion with reflecting walls: parabolic, telegraph and WKB-type
series solutions, a finite-difference cross-validation oracle, wavefront
echo analysis, and a scenario-driven CLI.

The public names are exported lazily (PEP 562): `import slabdiff` loads no
submodule, and each name, or each submodule such as `slabdiff.runner`,
imports its home module on first access. So a command loads only the
modules it runs: `slabdiff validate` and `coeffs` never load spectral,
analysis, runner or svgplot, and load fd only for a config with FD.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each public name, listed under the module that defines it.
_EXPORTS = {
    "core": ("Grid1D", "TimeGrid", "FieldSlice", "TimeTrace"),
    "profiles": (
        "InitialProfile", "GaussianProfile", "SurfaceCoshProfile", "UniformProfile",
        "CosineModeProfile", "TabulatedProfile", "SpectralCoefficients",
        "evaluate_profile", "compute_coefficients",
    ),
    "spectral": (
        "parabolic_density", "hyperbolic_density", "wkb_density", "field_slice",
        "time_trace",
    ),
    "fd": ("FdConfig", "cell_centers", "fd_solve", "fd_solve_heat", "fd_solve_telegraph"),
    "analysis": (
        "ExtremumEvent", "ErrorNorms", "nearest_arrival", "detect_extrema",
        "classify_monotone", "error_norms",
    ),
    "scenario": ("Scenario", "parse_scenario", "serialize_scenario", "scenario_hash", "preset"),
    "runner": ("run_scenario",),
    "errors": (
        "SlabDiffError", "InvalidParameterError", "DomainError", "QuadratureError",
        "StabilityError", "InvalidInputError", "ScenarioParseError", "ScenarioValidationError",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "svgplot")

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
