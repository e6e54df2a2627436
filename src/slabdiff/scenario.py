"""Scenario configuration: a flat key=value format with [section] headers.

The format is deliberately trivial to parse and diff:

    [scenario]
    name = demo
    eps = 0.13
    v = 0.01, 0.1, 1
    models = parabolic, hyperbolic

    [profile]
    kind = gaussian
    sharpness = 100
    amplitude = 1

Sections are scenario, profile, fd and output; arrays are comma-separated.
Unknown sections or keys are hard errors, reported with their line number.
serialize_scenario produces a canonical document that parses back to an
equal Scenario, and its hash is embedded in every output file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .analysis import MIN_TRACE_SAMPLES
from .core import HALF_WIDTH, Grid1D, TimeGrid
from .errors import ScenarioParseError, ScenarioValidationError
from .profiles import (
    CosineModeProfile,
    GaussianProfile,
    InitialProfile,
    SurfaceCoshProfile,
    TabulatedProfile,
    UniformProfile,
)

MODEL_ORDER = ("parabolic", "hyperbolic", "wkb", "fd")
OUTPUT_KINDS = ("csv", "svg", "events")

DEFAULT_TRUNCATION = 500
DEFAULT_U_POINTS = 1001
DEFAULT_FD_CELLS = 400


@dataclass(frozen=True)
class Scenario:
    """A fully specified run: problem, discretization and outputs.

    Exactly one of v_list (field snapshot times) or v_range (dense trace
    time grid as start/stop/count) must be given. Field slice files are
    written for v_list times; traces are sampled on whichever grid is
    present, at each position in trace_u.
    """

    name: str
    eps: float
    profile: InitialProfile
    truncation: int = DEFAULT_TRUNCATION
    u_points: int = DEFAULT_U_POINTS
    v_list: tuple[float, ...] | None = None
    v_range: tuple[float, float, int] | None = None
    trace_u: tuple[float, ...] = ()
    models: tuple[str, ...] = ("parabolic",)
    fd_nu: int = DEFAULT_FD_CELLS
    fd_dv: float | None = None
    outputs: tuple[str, ...] = ("csv",)
    out_dir: str | None = None

    def __post_init__(self):
        if not self.name:
            raise ScenarioValidationError("name must not be empty")
        if not (self.eps >= 0):
            raise ScenarioValidationError(f"eps must be >= 0, got {self.eps!r}")
        if not (self.truncation >= 1):
            raise ScenarioValidationError(f"terms must be >= 1, got {self.truncation!r}")
        if not (self.u_points >= 2):
            raise ScenarioValidationError(f"u_points must be >= 2, got {self.u_points!r}")
        if (self.v_list is None) == (self.v_range is None):
            raise ScenarioValidationError("exactly one of v or v_range must be given")
        if self.v_range is not None and not self.trace_u:
            raise ScenarioValidationError("v_range is only useful with trace_u")
        if not self.models:
            raise ScenarioValidationError("at least one model is required")
        for m in self.models:
            if m not in MODEL_ORDER:
                raise ScenarioValidationError(f"unknown model {m!r}")
        if len(set(self.models)) != len(self.models):
            raise ScenarioValidationError("models must be unique")
        if "hyperbolic" in self.models and not (self.eps > 0):
            raise ScenarioValidationError("the hyperbolic model requires eps > 0")
        for kind in self.outputs:
            if kind not in OUTPUT_KINDS:
                raise ScenarioValidationError(f"unknown output kind {kind!r}")
        if not self.outputs:
            raise ScenarioValidationError("at least one output kind is required")
        for u in self.trace_u:
            if not (-HALF_WIDTH <= u <= HALF_WIDTH):
                raise ScenarioValidationError(f"trace_u must lie in [-1/2, 1/2], got {u!r}")
        if "events" in self.outputs:
            if not self.trace_u:
                raise ScenarioValidationError("events output requires trace_u")
            if len(self.time_grid()) < MIN_TRACE_SAMPLES:
                raise ScenarioValidationError(
                    f"events output requires a time grid of >= {MIN_TRACE_SAMPLES} samples"
                )
        if not (self.fd_nu >= 3):
            raise ScenarioValidationError(f"fd nu must be >= 3, got {self.fd_nu!r}")
        if self.fd_dv is not None and not (self.fd_dv > 0):
            raise ScenarioValidationError(f"fd dv must be > 0, got {self.fd_dv!r}")
        # Constructing the grid validates ordering/positivity of the times.
        self.time_grid()

    def time_grid(self) -> TimeGrid:
        if self.v_list is not None:
            return TimeGrid.from_values(self.v_list)
        start, stop, count = self.v_range
        return TimeGrid.linspace(start, stop, int(count))

    def spatial_grid(self) -> Grid1D:
        return Grid1D.uniform_grid(self.u_points)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_SECTIONS = ("scenario", "profile", "fd", "output")
_SCENARIO_KEYS = (
    "name", "eps", "terms", "u_points", "v", "v_range", "trace_u", "models",
)
_PROFILE_KEYS = (
    "kind", "sharpness", "amplitude", "level", "mode", "offset", "grid", "values",
)
_FD_KEYS = ("nu", "dv")
_OUTPUT_KEYS = ("formats", "dir")

_KEYS_BY_SECTION = {
    "scenario": _SCENARIO_KEYS,
    "profile": _PROFILE_KEYS,
    "fd": _FD_KEYS,
    "output": _OUTPUT_KEYS,
}


def _split_list(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


def _parse_float(raw: str, line: int, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ScenarioParseError(f"{key} must be a number, got {raw!r}", line) from None


def _parse_int(raw: str, line: int, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ScenarioParseError(f"{key} must be an integer, got {raw!r}", line) from None


def _parse_floats(raw: str, line: int, key: str) -> tuple[float, ...]:
    return tuple(_parse_float(item, line, key) for item in _split_list(raw))


def parse_scenario(text: str) -> Scenario:
    """Parse a config document into a validated Scenario.

    Raises:
        ScenarioParseError: schema violations, with the offending line.
        ScenarioValidationError: cross-field invariant violations.
    """
    sections: dict[str, dict[str, tuple[str, int]]] = {s: {} for s in _SECTIONS}
    current: str | None = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip()
            if name not in _SECTIONS:
                raise ScenarioParseError(f"unknown section [{name}]", lineno)
            current = name
            continue
        if "=" not in stripped:
            raise ScenarioParseError(f"expected key = value, got {stripped!r}", lineno)
        if current is None:
            raise ScenarioParseError("key outside of any [section]", lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS_BY_SECTION[current]:
            raise ScenarioParseError(f"unknown key {key!r} in [{current}]", lineno)
        if key in sections[current]:
            raise ScenarioParseError(f"duplicate key {key!r} in [{current}]", lineno)
        sections[current][key] = (value, lineno)

    scen = sections["scenario"]
    prof = sections["profile"]

    def require(section: dict, key: str, section_name: str) -> tuple[str, int]:
        if key not in section:
            raise ScenarioParseError(f"missing required key {key!r} in [{section_name}]")
        return section[key]

    eps_raw, eps_line = require(scen, "eps", "scenario")
    eps = _parse_float(eps_raw, eps_line, "eps")

    profile = _parse_profile(prof)

    name = scen.get("name", ("scenario", 0))[0]
    truncation = (
        _parse_int(*scen["terms"], "terms") if "terms" in scen else DEFAULT_TRUNCATION
    )
    u_points = (
        _parse_int(*scen["u_points"], "u_points") if "u_points" in scen else DEFAULT_U_POINTS
    )
    v_list = _parse_floats(*scen["v"], "v") if "v" in scen else None
    v_range = None
    if "v_range" in scen:
        raw, line = scen["v_range"]
        parts = _parse_floats(raw, line, "v_range")
        if len(parts) != 3:
            raise ScenarioParseError("v_range must be start, stop, count", line)
        if parts[2] != int(parts[2]):
            raise ScenarioParseError("v_range count must be an integer", line)
        v_range = (parts[0], parts[1], int(parts[2]))
    trace_u = _parse_floats(*scen["trace_u"], "trace_u") if "trace_u" in scen else ()
    models_raw, models_line = require(scen, "models", "scenario")
    models = tuple(_split_list(models_raw))
    if not models:
        raise ScenarioParseError("models must not be empty", models_line)

    fd = sections["fd"]
    fd_nu = _parse_int(*fd["nu"], "nu") if "nu" in fd else DEFAULT_FD_CELLS
    fd_dv = _parse_float(*fd["dv"], "dv") if "dv" in fd else None

    out = sections["output"]
    outputs = tuple(_split_list(out["formats"][0])) if "formats" in out else ("csv",)
    out_dir = out.get("dir", (None, 0))[0]

    return Scenario(
        name=name,
        eps=eps,
        profile=profile,
        truncation=truncation,
        u_points=u_points,
        v_list=v_list,
        v_range=v_range,
        trace_u=trace_u,
        models=models,
        fd_nu=fd_nu,
        fd_dv=fd_dv,
        outputs=outputs,
        out_dir=out_dir,
    )


def _parse_profile(prof: dict[str, tuple[str, int]]) -> InitialProfile:
    if "kind" not in prof:
        raise ScenarioParseError("missing required key 'kind' in [profile]")
    kind, kind_line = prof["kind"]

    def need(key: str) -> tuple[str, int]:
        if key not in prof:
            raise ScenarioParseError(
                f"profile kind {kind!r} requires key {key!r}", kind_line
            )
        return prof[key]

    def forbid_except(*allowed: str):
        for key in prof:
            if key != "kind" and key not in allowed:
                raise ScenarioParseError(
                    f"key {key!r} does not apply to profile kind {kind!r}", prof[key][1]
                )

    if kind == "gaussian":
        forbid_except("sharpness", "amplitude")
        return GaussianProfile(
            sharpness=_parse_float(*need("sharpness"), "sharpness"),
            amplitude=_parse_float(*need("amplitude"), "amplitude"),
        )
    if kind == "surface_cosh":
        forbid_except("sharpness", "amplitude")
        return SurfaceCoshProfile(
            sharpness=_parse_float(*need("sharpness"), "sharpness"),
            amplitude=_parse_float(*need("amplitude"), "amplitude"),
        )
    if kind == "uniform":
        forbid_except("level")
        return UniformProfile(level=_parse_float(*need("level"), "level"))
    if kind == "cosine_mode":
        forbid_except("mode", "offset", "amplitude")
        return CosineModeProfile(
            mode=_parse_int(*need("mode"), "mode"),
            offset=_parse_float(*need("offset"), "offset"),
            amplitude=_parse_float(*need("amplitude"), "amplitude"),
        )
    if kind == "tabulated":
        forbid_except("grid", "values")
        grid = _parse_floats(*need("grid"), "grid")
        values = _parse_floats(*need("values"), "values")
        return TabulatedProfile(
            grid=Grid1D(points=np.asarray(grid)), values=np.asarray(values)
        )
    raise ScenarioParseError(f"unknown profile kind {kind!r}", kind_line)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _format_floats(values) -> str:
    return ", ".join(repr(float(x)) for x in values)


def serialize_scenario(s: Scenario) -> str:
    """Canonical config document; parse_scenario(serialize_scenario(s)) == s."""
    lines = ["[scenario]", f"name = {s.name}", f"eps = {float(s.eps)!r}"]
    lines.append(f"terms = {s.truncation}")
    lines.append(f"u_points = {s.u_points}")
    if s.v_list is not None:
        lines.append(f"v = {_format_floats(s.v_list)}")
    if s.v_range is not None:
        lines.append(
            f"v_range = {float(s.v_range[0])!r}, {float(s.v_range[1])!r}, {s.v_range[2]}"
        )
    if s.trace_u:
        lines.append(f"trace_u = {_format_floats(s.trace_u)}")
    lines.append(f"models = {', '.join(s.models)}")

    lines.append("")
    lines.append("[profile]")
    p = s.profile
    if isinstance(p, GaussianProfile):
        lines += ["kind = gaussian", f"sharpness = {p.sharpness!r}",
                  f"amplitude = {p.amplitude!r}"]
    elif isinstance(p, SurfaceCoshProfile):
        lines += ["kind = surface_cosh", f"sharpness = {p.sharpness!r}",
                  f"amplitude = {p.amplitude!r}"]
    elif isinstance(p, UniformProfile):
        lines += ["kind = uniform", f"level = {p.level!r}"]
    elif isinstance(p, CosineModeProfile):
        lines += ["kind = cosine_mode", f"mode = {p.mode}",
                  f"offset = {p.offset!r}", f"amplitude = {p.amplitude!r}"]
    elif isinstance(p, TabulatedProfile):
        lines += ["kind = tabulated", f"grid = {_format_floats(p.grid.points)}",
                  f"values = {_format_floats(p.values)}"]
    else:  # pragma: no cover - all variants handled above
        raise ScenarioValidationError(f"cannot serialize profile {p!r}")

    lines.append("")
    lines.append("[fd]")
    lines.append(f"nu = {s.fd_nu}")
    if s.fd_dv is not None:
        lines.append(f"dv = {s.fd_dv!r}")

    lines.append("")
    lines.append("[output]")
    lines.append(f"formats = {', '.join(s.outputs)}")
    if s.out_dir is not None:
        lines.append(f"dir = {s.out_dir}")
    return "\n".join(lines) + "\n"


def scenario_hash(s: Scenario) -> str:
    """Short content hash identifying the scenario in output files."""
    return hashlib.sha256(serialize_scenario(s).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Built-in presets reproducing the four reference plots
# ---------------------------------------------------------------------------

_CENTER_PROFILE = dict(sharpness=100.0, amplitude=1.0)
_SURFACE_PROFILE = dict(sharpness=10.0, amplitude=1.0)
_SNAPSHOT_TIMES = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
_TRACE_RANGE = (0.0, 1.2, 1201)


def preset(name: str) -> Scenario:
    """Built-in scenarios figure1..figure4.

    figure1/figure3: density profiles across the slab at five times, for
    the center-Gaussian and surface-localized initial conditions.
    figure2/figure4: time traces at the wall (u = 0.5) and center (u = 0)
    with extrema detection.
    """
    if name == "figure1":
        return Scenario(
            name="figure1",
            eps=0.13,
            profile=GaussianProfile(**_CENTER_PROFILE),
            v_list=_SNAPSHOT_TIMES,
            models=("parabolic", "hyperbolic"),
            outputs=("csv", "svg"),
        )
    if name == "figure2":
        return Scenario(
            name="figure2",
            eps=0.13,
            profile=GaussianProfile(**_CENTER_PROFILE),
            v_range=_TRACE_RANGE,
            trace_u=(0.5, 0.0),
            models=("parabolic", "hyperbolic"),
            outputs=("csv", "svg", "events"),
        )
    if name == "figure3":
        return Scenario(
            name="figure3",
            eps=0.13,
            profile=SurfaceCoshProfile(**_SURFACE_PROFILE),
            v_list=_SNAPSHOT_TIMES,
            models=("parabolic", "hyperbolic"),
            outputs=("csv", "svg"),
        )
    if name == "figure4":
        return Scenario(
            name="figure4",
            eps=0.13,
            profile=SurfaceCoshProfile(**_SURFACE_PROFILE),
            v_range=_TRACE_RANGE,
            trace_u=(0.5, 0.0),
            models=("parabolic", "hyperbolic"),
            outputs=("csv", "svg", "events"),
        )
    raise ScenarioValidationError(f"unknown preset {name!r}")


def override(s: Scenario, truncation: int | None = None, eps: float | None = None) -> Scenario:
    """Apply CLI-level overrides, revalidating the result."""
    changes = {}
    if truncation is not None:
        changes["truncation"] = truncation
    if eps is not None:
        changes["eps"] = eps
    return replace(s, **changes) if changes else s
