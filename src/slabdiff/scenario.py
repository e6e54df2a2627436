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
The format is defined once, by the key table `_KEYS` and, for [profile],
by the dataclass fields of the profile class that `kind` names; parsing,
serialization and the unknown-key checks all read that definition.
Unknown sections or keys and non-finite numbers are hard errors, reported
with their line number. serialize_scenario produces a canonical document
that parses back to an equal Scenario, and its hash is embedded in every
output file.

Scenario owns the cross-field invariants only. Each parameter rule has one
owner, which Scenario calls and whose error it reports as a
ScenarioValidationError: core.check_eps (eps finite and >= 0, and the
stricter bounds of check_telegraph_eps and check_wkb_eps), core.check_count
through check_truncation (terms), the grids (u_points and the v_range count)
and FdConfig (nu, and the step). Every count is stored as an int, so a
numpy integer serializes as one.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    HALF_WIDTH,
    MIN_FD_CELLS,
    MIN_TRACE_SAMPLES,
    SPECTRAL_MODELS,
    Grid1D,
    TimeGrid,
    check_count,
    check_eps,
    check_telegraph_eps,
    check_wkb_eps,
)
from .errors import (
    InvalidParameterError,
    ResonantModeError,
    ScenarioParseError,
    ScenarioValidationError,
    StabilityError,
)
from .profiles import (
    MAX_DENSITY,
    PROFILE_KINDS,
    GaussianProfile,
    InitialProfile,
    SurfaceCoshProfile,
    check_truncation,
)

if TYPE_CHECKING:
    from .fd import FdConfig

MODEL_ORDER = (*SPECTRAL_MODELS, "fd")
OUTPUT_KINDS = ("csv", "svg", "events")

DEFAULT_TRUNCATION = 500
DEFAULT_U_POINTS = 1001
DEFAULT_FD_CELLS = 400

#: Scenario names become file name prefixes, so they may not hold a path.
_NAME = re.compile(r"[A-Za-z0-9_.-]+")


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
        if not _NAME.fullmatch(self.name):
            raise ScenarioValidationError(
                f"name must be non-empty and use only letters, digits, '_', '.' "
                f"and '-', got {self.name!r}"
            )
        peak = self.profile.peak()
        if not (peak <= MAX_DENSITY):
            raise ScenarioValidationError(
                f"[profile] peak density {peak!r} exceeds {MAX_DENSITY:g}"
            )
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
        for kind in self.outputs:
            if kind not in OUTPUT_KINDS:
                raise ScenarioValidationError(f"unknown output kind {kind!r}")
        if not self.outputs:
            raise ScenarioValidationError("at least one output kind is required")
        for u in self.trace_u:
            if not (-HALF_WIDTH <= u <= HALF_WIDTH):
                raise ScenarioValidationError(f"trace_u must lie in [-1/2, 1/2], got {u!r}")
        if len(set(self.trace_u)) != len(self.trace_u):
            raise ScenarioValidationError("trace_u must be unique")
        if self.fd_dv is not None and not (0 < self.fd_dv < math.inf):
            raise ScenarioValidationError(f"fd dv must be finite and > 0, got {self.fd_dv!r}")
        # The owners of the eps and count rules (core and check_truncation);
        # the grids also check the times and refuse a size numpy cannot build.
        try:
            check_eps(self.eps, 0.0)
            terms, _ = check_truncation(self.profile, self.truncation)
            times, grid = self.time_grid(), self.spatial_grid()
        except InvalidParameterError as exc:
            raise ScenarioValidationError(str(exc)) from exc
        # The counts are stored as ints, so a numpy integer serializes as one.
        object.__setattr__(self, "truncation", terms)
        object.__setattr__(self, "u_points", len(grid))
        if self.v_range is not None:
            object.__setattr__(self, "v_range", (*self.v_range[:2], len(times)))
        if "hyperbolic" in self.models:
            try:
                check_telegraph_eps(self.eps)
            except InvalidParameterError as exc:
                raise ScenarioValidationError(f"hyperbolic: {exc}") from exc
        if "wkb" in self.models:
            try:
                check_wkb_eps(self.eps, self.truncation)
            except ResonantModeError as exc:
                raise ScenarioValidationError(f"wkb: {exc}") from exc
        try:
            object.__setattr__(self, "fd_nu", check_count(self.fd_nu, "nu", MIN_FD_CELLS))
            if "fd" in self.models:
                fd_cfg = self.fd_config()  # checks the step's stability and the step count
        except (InvalidParameterError, StabilityError) as exc:
            raise ScenarioValidationError(f"[fd] {exc}") from exc
        if "events" in self.outputs:
            if not self.trace_u:
                raise ScenarioValidationError("events output requires trace_u")
            if len(times) < MIN_TRACE_SAMPLES:
                raise ScenarioValidationError(
                    f"events output requires a time grid of >= {MIN_TRACE_SAMPLES} samples"
                )
            # The FD trace keeps one sample per distinct step the times snap to.
            if "fd" in self.models:
                from .fd import snapshot_steps

                steps = len(set(snapshot_steps(fd_cfg)))
                if steps < MIN_TRACE_SAMPLES:
                    raise ScenarioValidationError(
                        f"[fd] events output requires >= {MIN_TRACE_SAMPLES} distinct "
                        f"FD steps, but the times snap to {steps}; lower dv or raise nu"
                    )

    def time_grid(self) -> TimeGrid:
        if self.v_list is not None:
            return TimeGrid.from_values(self.v_list)
        start, stop, count = self.v_range
        return TimeGrid.linspace(start, stop, count)

    def spatial_grid(self) -> Grid1D:
        return Grid1D.uniform_grid(self.u_points)

    def fd_config(self) -> FdConfig:
        """The FD oracle's grid and step: [fd] dv if given, else the largest stable one."""
        from .fd import FdConfig  # fd, and spectral with it, load only for FD runs

        times = self.time_grid()
        if self.fd_dv is None:
            return FdConfig.auto(self.fd_nu, self.eps, times)
        return FdConfig(nu=self.fd_nu, dv=self.fd_dv, eps=self.eps, snapshot_times=times)


# ---------------------------------------------------------------------------
# Value codecs: parse(raw, line, key) -> value and format(value) -> str
# ---------------------------------------------------------------------------

def _split_list(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


def _parse_text(raw: str, line: int, key: str) -> str:
    return raw


def _parse_float(raw: str, line: int, key: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ScenarioParseError(f"{key} must be a number, got {raw!r}", line) from None
    if not math.isfinite(value):
        raise ScenarioParseError(f"{key} must be finite, got {raw!r}", line)
    return value


def _parse_int(raw: str, line: int, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ScenarioParseError(f"{key} must be an integer, got {raw!r}", line) from None


def _parse_floats(raw: str, line: int, key: str) -> tuple[float, ...]:
    return tuple(_parse_float(item, line, key) for item in _split_list(raw))


def _parse_names(raw: str, line: int, key: str) -> tuple[str, ...]:
    names = tuple(_split_list(raw))
    if not names:
        raise ScenarioParseError(f"{key} must not be empty", line)
    return names


def _parse_v_range(raw: str, line: int, key: str) -> tuple[float, float, int]:
    parts = _parse_floats(raw, line, key)
    if len(parts) != 3:
        raise ScenarioParseError("v_range must be start, stop, count", line)
    if parts[2] != int(parts[2]):
        raise ScenarioParseError("v_range count must be an integer", line)
    return (parts[0], parts[1], int(parts[2]))


def format_float(x) -> str:
    """Shortest decimal that reads back as the same float (no numpy reprs)."""
    return repr(float(x))


def _format_floats(values) -> str:
    return ", ".join(format_float(x) for x in values)


def _format_v_range(r) -> str:
    return f"{_format_floats(r[:2])}, {r[2]}"


#: Codecs of the [profile] keys, by the type of the profile dataclass field.
_FIELD_CODECS = {
    "float": (_parse_float, format_float),
    "int": (_parse_int, str),
    "Grid1D": (
        lambda raw, line, key: Grid1D(points=np.asarray(_parse_floats(raw, line, key))),
        lambda grid: _format_floats(grid.points),
    ),
    "np.ndarray": (
        lambda raw, line, key: np.asarray(_parse_floats(raw, line, key)),
        _format_floats,
    ),
}


def _parse_profile(entries: dict[str, tuple[str, int]]) -> InitialProfile:
    """The profile class that `kind` names, built from its dataclass fields."""
    if "kind" not in entries:
        raise ScenarioParseError("missing required key 'kind' in [profile]")
    kind, kind_line = entries["kind"]
    cls = PROFILE_KINDS.get(kind)
    if cls is None:
        raise ScenarioParseError(f"unknown profile kind {kind!r}", kind_line)
    names = [f.name for f in fields(cls)]
    for key, (_, line) in entries.items():
        if key != "kind" and key not in names:
            raise ScenarioParseError(
                f"key {key!r} does not apply to profile kind {kind!r}", line
            )
    for name in names:
        if name not in entries:
            raise ScenarioParseError(f"profile kind {kind!r} requires key {name!r}", kind_line)
    try:
        return cls(**{
            f.name: _FIELD_CODECS[f.type][0](*entries[f.name], f.name) for f in fields(cls)
        })
    except InvalidParameterError as exc:
        raise ScenarioValidationError(f"[profile] {exc}") from exc


def _format_profile(p: InitialProfile) -> list[str]:
    return [f"kind = {p.kind}"] + [
        f"{f.name} = {_FIELD_CODECS[f.type][1](getattr(p, f.name))}" for f in fields(p)
    ]


# ---------------------------------------------------------------------------
# The format: one row per key, in document order
# ---------------------------------------------------------------------------

#: (section, key, Scenario field, parse, format). The [profile] row stands
#: for the whole section: it parses the section and formats to its lines.
_KEYS = (
    ("scenario", "name", "name", _parse_text, str),
    ("scenario", "eps", "eps", _parse_float, format_float),
    ("scenario", "terms", "truncation", _parse_int, str),
    ("scenario", "u_points", "u_points", _parse_int, str),
    ("scenario", "v", "v_list", _parse_floats, _format_floats),
    ("scenario", "v_range", "v_range", _parse_v_range, _format_v_range),
    ("scenario", "trace_u", "trace_u", _parse_floats, _format_floats),
    ("scenario", "models", "models", _parse_names, ", ".join),
    ("profile", "kind", "profile", _parse_profile, _format_profile),
    ("fd", "nu", "fd_nu", _parse_int, str),
    ("fd", "dv", "fd_dv", _parse_float, format_float),
    ("output", "formats", "outputs", _parse_names, ", ".join),
    ("output", "dir", "out_dir", _parse_text, str),
)
_REQUIRED = ("eps", "models")

_KNOWN_KEYS = {section: {k for s, k, *_ in _KEYS if s == section} for section, *_ in _KEYS}
_KNOWN_KEYS["profile"] |= {f.name for cls in PROFILE_KINDS.values() for f in fields(cls)}


def parse_scenario(text: str) -> Scenario:
    """Parse a config document into a validated Scenario.

    Raises:
        ScenarioParseError: schema violations, with the offending line.
        ScenarioValidationError: cross-field invariant violations.
    """
    sections: dict[str, dict[str, tuple[str, int]]] = {s: {} for s in _KNOWN_KEYS}
    current: str | None = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip()
            if name not in sections:
                raise ScenarioParseError(f"unknown section [{name}]", lineno)
            current = name
            continue
        if "=" not in stripped:
            raise ScenarioParseError(f"expected key = value, got {stripped!r}", lineno)
        if current is None:
            raise ScenarioParseError("key outside of any [section]", lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS[current]:
            raise ScenarioParseError(f"unknown key {key!r} in [{current}]", lineno)
        if key in sections[current]:
            raise ScenarioParseError(f"duplicate key {key!r} in [{current}]", lineno)
        sections[current][key] = (value.strip(), lineno)

    kwargs = {"name": "scenario"}  # Scenario.name itself has no default
    for section, key, field, parse, _ in _KEYS:
        entries = sections[section]
        if section == "profile":
            kwargs[field] = parse(entries)
        elif key in entries:
            kwargs[field] = parse(*entries[key], key)
        elif key in _REQUIRED:
            raise ScenarioParseError(f"missing required key {key!r} in [{section}]")
    return Scenario(**kwargs)


def serialize_scenario(s: Scenario) -> str:
    """Canonical config document; parse_scenario(serialize_scenario(s)) == s."""
    blocks: dict[str, list[str]] = {}
    for section, key, field, _, fmt in _KEYS:
        lines = blocks.setdefault(section, [f"[{section}]"])
        value = getattr(s, field)
        if section == "profile":
            lines += fmt(value)
        elif value is not None and (value or not isinstance(value, tuple)):
            # None and the empty tuple (no trace_u) leave the key out
            lines.append(f"{key} = {fmt(value)}")
    return "\n\n".join("\n".join(lines) for lines in blocks.values()) + "\n"


def scenario_hash(s: Scenario) -> str:
    """Short content hash identifying the scenario in output files."""
    return hashlib.sha256(serialize_scenario(s).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Built-in presets reproducing the four reference plots
# ---------------------------------------------------------------------------

_CENTER_PROFILE = GaussianProfile(sharpness=100.0, amplitude=1.0)
_SURFACE_PROFILE = SurfaceCoshProfile(sharpness=10.0, amplitude=1.0)
_SNAPSHOTS = dict(v_list=(1e-4, 1e-3, 1e-2, 1e-1, 1.0), outputs=("csv", "svg"))
_TRACES = dict(v_range=(0.0, 1.2, 1201), trace_u=(0.5, 0.0), outputs=("csv", "svg", "events"))
_PRESETS = {
    "figure1": (_CENTER_PROFILE, _SNAPSHOTS),
    "figure2": (_CENTER_PROFILE, _TRACES),
    "figure3": (_SURFACE_PROFILE, _SNAPSHOTS),
    "figure4": (_SURFACE_PROFILE, _TRACES),
}


def preset(name: str) -> Scenario:
    """Built-in scenarios figure1..figure4.

    figure1/figure3: density profiles across the slab at five times, for
    the center-Gaussian and surface-localized initial conditions.
    figure2/figure4: time traces at the wall (u = 0.5) and center (u = 0)
    with extrema detection.
    """
    if name not in _PRESETS:
        raise ScenarioValidationError(f"unknown preset {name!r}")
    profile, times = _PRESETS[name]
    return Scenario(
        name=name, eps=0.13, profile=profile, models=("parabolic", "hyperbolic"), **times
    )


def override(s: Scenario, truncation: int | None = None, eps: float | None = None) -> Scenario:
    """Apply CLI-level overrides, revalidating the result."""
    changes = {k: v for k, v in (("truncation", truncation), ("eps", eps)) if v is not None}
    return replace(s, **changes) if changes else s
