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

Scenario owns the cross-field invariants only, such as a cosine mode no
higher than the series terms. Each parameter rule has one owner, which
Scenario calls and whose InvalidParameterError it reports, in one place, as
a ScenarioValidationError: core.check_eps (eps finite and >= 0),
core.check_family_eps (each series family's stricter eps bound),
core.check_count through check_truncation (terms), the grids (u_points, the
v_range triple and v_list) and FdConfig (nu, and the step). Every count is
stored as an int, so a numpy integer serializes as one.

Validation checks the grids without building them (Grid1D.uniform_count,
TimeGrid.linspace_count and TimeGrid.checked_values), so that a scenario
with neither FD nor a tabulated profile loads no numpy: this module never
imports it, and run builds the grids through time_grid and spatial_grid.
float() reads the v_range ends and each entry of v_list and trace_u, and a
field of the wrong type (a string eps, a bare string of models, a v_range
of two entries) is refused too: the Python API raises no error but
ScenarioValidationError.
"""

from __future__ import annotations

import hashlib
import math
import re
from collections.abc import Iterable
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

from .core import (
    HALF_WIDTH,
    MIN_FD_CELLS,
    MIN_TRACE_SAMPLES,
    SPECTRAL_MODELS,
    Grid1D,
    TimeGrid,
    as_floats,
    check_count,
    check_eps,
    check_family_eps,
)
from .errors import InvalidParameterError, ScenarioParseError, ScenarioValidationError
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


def _in_order(names, order: tuple[str, ...], noun: str) -> tuple[str, ...]:
    """The names as a set, in `order`.

    Refuses a bare string or a non-iterable, an empty list, an entry that is
    not a name in `order`, and a repeat.
    """
    if isinstance(names, str) or not isinstance(names, Iterable):
        raise ScenarioValidationError(f"{noun}s must be a sequence of names, got {names!r}")
    names = tuple(names)
    if not names:
        raise ScenarioValidationError(f"at least one {noun} is required")
    for name in names:
        if not isinstance(name, str) or name not in order:
            raise ScenarioValidationError(f"unknown {noun} {name!r}")
    if len(set(names)) != len(names):
        raise ScenarioValidationError(f"{noun}s must be unique")
    return tuple(name for name in order if name in names)


@dataclass(frozen=True)
class Scenario:
    """A fully specified run: problem, discretization and outputs.

    Exactly one of v_list (field snapshot times) or v_range (dense trace
    time grid as start/stop/count) must be given. Field slice files are
    written for v_list times; traces are sampled on whichever grid is
    present, at each position in trace_u. v_list and trace_u are stored as
    tuples of floats, whether given as a tuple, a list or an array, and the
    v_range ends as floats. models and outputs are sets: each is stored in
    MODEL_ORDER or OUTPUT_KINDS order. So every spelling of one run
    serializes, hashes and writes alike.
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
        if not (isinstance(self.name, str) and _NAME.fullmatch(self.name)):
            raise ScenarioValidationError(
                f"name must be non-empty and use only letters, digits, '_', '.' "
                f"and '-', got {self.name!r}"
            )
        if not isinstance(self.profile, InitialProfile):
            raise ScenarioValidationError(
                f"profile must be an InitialProfile, got {self.profile!r}")
        peak = self.profile.peak()
        if not (peak <= MAX_DENSITY):
            raise ScenarioValidationError(
                f"[profile] peak density {peak!r} exceeds {MAX_DENSITY:g}"
            )
        # trace_u, and v_list and the v_range ends below, are stored as floats
        # that float() reads, so an array or a list spelling serializes, hashes
        # and compares as the tuple does.
        trace_u = as_floats(self.trace_u)
        if trace_u is None:
            raise ScenarioValidationError(
                f"trace_u must be a 1D sequence of numbers, got {self.trace_u!r}")
        object.__setattr__(self, "trace_u", trace_u)
        if (self.v_list is None) == (self.v_range is None):
            raise ScenarioValidationError("exactly one of v or v_range must be given")
        if self.v_range is not None and not self.trace_u:
            raise ScenarioValidationError("v_range is only useful with trace_u")
        object.__setattr__(self, "models", _in_order(self.models, MODEL_ORDER, "model"))
        object.__setattr__(self, "outputs", _in_order(self.outputs, OUTPUT_KINDS, "output kind"))
        for u in self.trace_u:
            if not (-HALF_WIDTH <= u <= HALF_WIDTH):
                raise ScenarioValidationError(f"trace_u must lie in [-1/2, 1/2], got {u!r}")
        if len(set(self.trace_u)) != len(self.trace_u):
            raise ScenarioValidationError("trace_u must be unique")
        try:
            dv_valid = self.fd_dv is None or (math.isfinite(self.fd_dv) and self.fd_dv > 0)
        except (TypeError, OverflowError):  # a string, an array or an int beyond floats
            dv_valid = False
        if not dv_valid:
            raise ScenarioValidationError(f"fd dv must be finite and > 0, got {self.fd_dv!r}")
        # Each parameter rule's owner refuses with an InvalidParameterError
        # (ResonantModeError and StabilityError included), reported under the
        # prefix of what it checks: eps and the counts (core and
        # check_truncation), the grids, checked without being built and
        # capped at MAX_SAMPLES, each model's eps rule (core.check_family_eps)
        # and the FD step.
        prefix = ""
        try:
            check_eps(self.eps, 0.0)
            terms, _ = check_truncation(self.profile, self.truncation)
            if self.v_range is not None:
                try:
                    start, stop, count = self.v_range
                except (TypeError, ValueError):
                    raise ScenarioValidationError(
                        f"v_range must be (start, stop, count), got {self.v_range!r}") from None
                samples = TimeGrid.linspace_count(start, stop, count)
                object.__setattr__(self, "v_range", (float(start), float(stop), samples))
            else:
                object.__setattr__(self, "v_list", TimeGrid.checked_values(self.v_list))
                samples = len(self.v_list)
            u_points = Grid1D.uniform_count(self.u_points)
            for model in self.models:
                prefix = f"{model}: "
                check_family_eps(model, self.eps, terms)
            prefix = "[fd] "
            object.__setattr__(self, "fd_nu", check_count(self.fd_nu, "nu", MIN_FD_CELLS))
            if "fd" in self.models:
                fd_cfg = self.fd_config()  # checks the step's stability and the step count
        except InvalidParameterError as exc:
            raise ScenarioValidationError(f"{prefix}{exc}") from exc
        # The counts are stored as ints, so a numpy integer serializes as one.
        object.__setattr__(self, "truncation", terms)
        object.__setattr__(self, "u_points", u_points)
        mode = getattr(self.profile, "mode", 0)
        if mode > terms and any(model in SPECTRAL_MODELS for model in self.models):
            raise ScenarioValidationError(
                f"[profile] cosine mode {mode} lies above terms = {terms}: the series "
                f"would drop it and run a flat profile; raise terms to at least {mode}"
            )
        if "events" in self.outputs:
            if not self.trace_u:
                raise ScenarioValidationError("events output requires trace_u")
            if samples < MIN_TRACE_SAMPLES:
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
                        f"FD steps, but the times snap to {steps} at dv = {fd_cfg.dv:.7g}; "
                        f"set a smaller [fd] dv or raise nu"
                    )

    def time_grid(self) -> TimeGrid:
        if self.v_list is not None:
            return TimeGrid.from_values(self.v_list)
        start, stop, count = self.v_range
        return TimeGrid.linspace(start, stop, count)

    def spatial_grid(self) -> Grid1D:
        return Grid1D.uniform_grid(self.u_points)

    def fd_config(self) -> FdConfig:
        """The FD oracle's grid and step: [fd] dv if given, else FdConfig.auto's."""
        from .fd import FdConfig  # fd loads only for a scenario with FD

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
    parts = _split_list(raw)
    if len(parts) != 3:
        raise ScenarioParseError("v_range must be start, stop, count", line)
    start, stop = (_parse_float(item, line, key) for item in parts[:2])
    return (start, stop, _parse_int(parts[2], line, f"{key} count"))


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
        lambda raw, line, key: Grid1D(points=_parse_floats(raw, line, key)),
        lambda grid: _format_floats(grid.points),
    ),
    "np.ndarray": (_parse_floats, _format_floats),
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
