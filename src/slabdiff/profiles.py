"""Even initial density profiles and their cosine-series coefficients.

Every admissible profile n0(u) is even on [-1/2, 1/2], so it expands in the
zero-flux eigenbasis {1, cos(2*m*pi*u)}:

    n0(u) = k0 + sum_m k_m * cos(2*m*pi*u),
    k0  = integral of n0 over the slab (the equilibrium density),
    k_m = 2 * integral of n0(u) * cos(2*m*pi*u).

Coefficients are always produced by adaptive quadrature; the closed forms
available for particular profiles are used as cross-checks in the tests,
not as the production path.

Each profile class is a frozen dataclass whose `kind` names it in the
scenario `[profile]` section; its dataclass fields are that section's keys
and, for the closed-form kinds, the arguments of its provenance tag.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from .core import HALF_WIDTH, Grid1D, slab_positions
from .errors import InvalidParameterError
from .quadrature import integrate_adaptive, min_panels_for_oscillations

logger = logging.getLogger(__name__)

COEFFICIENT_ABS_TOL = 1e-12


class InitialProfile:
    """Base class for even, non-negative initial distributions.

    Subclasses set `kind`, the name of the profile in a scenario config,
    and `echo_source`, the wavefront echo ladder the profile launches
    ("center", "surface" or None).
    """

    kind = ""
    echo_source = None

    def tag(self) -> str:
        """Provenance string: kind(field=value,...) over the dataclass fields."""
        args = ",".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self))
        return f"{self.kind}({args})"

    def _density(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def quadrature_panels_hint(self) -> int:
        """Minimum panel count that resolves the profile's sharpest feature."""
        return 2


@dataclass(frozen=True)
class _SharpProfile(InitialProfile):
    """Closed-form profile whose width `sharpness` sets, refused beyond `sharpness_limit`.

    Sharpness beyond a subclass's `sharpness_limit` is numerically
    delta-like: a 500-term cosine series cannot represent it without
    ringing, so construction is refused and a TabulatedProfile suggested.
    """

    sharpness: float
    amplitude: float

    def __post_init__(self):
        if not (self.sharpness > 0):
            raise InvalidParameterError(f"sharpness must be > 0, got {self.sharpness!r}")
        if not (0 < self.amplitude < math.inf):
            raise InvalidParameterError(
                f"amplitude must be finite and > 0, got {self.amplitude!r}"
            )
        if self.sharpness > self.sharpness_limit:
            raise InvalidParameterError(
                f"sharpness={self.sharpness!r} is delta-like (> {self.sharpness_limit:g}); "
                "a truncated cosine series cannot represent it faithfully, "
                "use a TabulatedProfile instead"
            )


@dataclass(frozen=True)
class GaussianProfile(_SharpProfile):
    """Mass concentrated at the slab center.

    n0(u) = amplitude * sqrt(sharpness/pi) * exp(-sharpness * u^2); the
    bulk of the mass sits within |u| ~ 1/sqrt(sharpness).
    """

    kind = "gaussian"
    echo_source = "center"
    sharpness_limit = 1e6

    def _density(self, u):
        return self.amplitude * math.sqrt(self.sharpness / math.pi) * np.exp(
            -self.sharpness * u**2
        )

    def quadrature_panels_hint(self) -> int:
        return max(2, math.ceil(math.sqrt(self.sharpness)))


@dataclass(frozen=True)
class SurfaceCoshProfile(_SharpProfile):
    """Mass localized near both walls.

    n0(u) = (amplitude * sharpness / 2) * cosh(sharpness*u) / sinh(sharpness/2);
    the boundary layers have width ~ 1/sharpness and the slab integral is
    exactly `amplitude`.
    """

    kind = "surface_cosh"
    echo_source = "surface"
    sharpness_limit = 1e4

    def _density(self, u):
        s = self.sharpness
        # cosh(s*u)/sinh(s/2) computed via exponentials relative to the wall
        # to stay finite for large s: cosh(s*u) ~ exp(s*|u|)/2 overflows at
        # s ~ 1400 if formed directly.
        scale = 0.5 * self.amplitude * s
        au = np.abs(u)
        num = np.exp(s * (au - HALF_WIDTH)) + np.exp(-s * (au + HALF_WIDTH))
        den = 1.0 - math.exp(-s)
        return scale * num / den

    def quadrature_panels_hint(self) -> int:
        return max(2, math.ceil(self.sharpness / 8.0))


@dataclass(frozen=True)
class UniformProfile(InitialProfile):
    """Already-equilibrated constant density."""

    level: float

    kind = "uniform"

    def __post_init__(self):
        if not (0 <= self.level < math.inf):
            raise InvalidParameterError(f"level must be finite and >= 0, got {self.level!r}")

    def _density(self, u):
        return np.full_like(np.asarray(u, dtype=float), self.level)


@dataclass(frozen=True)
class CosineModeProfile(InitialProfile):
    """Single eigenmode on a constant background: offset + amplitude*cos(2*m*pi*u).

    offset >= |amplitude| keeps the density non-negative everywhere.
    """

    mode: int
    offset: float
    amplitude: float

    kind = "cosine_mode"

    def __post_init__(self):
        if not (isinstance(self.mode, int) and self.mode >= 1):
            raise InvalidParameterError(f"mode must be a positive integer, got {self.mode!r}")
        if not (0 <= self.offset < math.inf):
            raise InvalidParameterError(f"offset must be finite and >= 0, got {self.offset!r}")
        if not (self.offset >= abs(self.amplitude)):
            raise InvalidParameterError(
                f"offset must be >= |amplitude| to keep the density non-negative, "
                f"got offset={self.offset!r}, amplitude={self.amplitude!r}"
            )

    def _density(self, u):
        return self.offset + self.amplitude * np.cos(2.0 * math.pi * self.mode * u)

    def quadrature_panels_hint(self) -> int:
        return min_panels_for_oscillations(self.mode)


#: A tabulated profile with N nodes is resolved by roughly N/4 panels.
PANEL_FRACTION = 4


@dataclass(frozen=True)
class TabulatedProfile(InitialProfile):
    """Profile given by samples on a grid, linearly interpolated.

    The stored table is symmetrized at construction onto the union of the
    grid and its mirror image, averaging n0(u) and n0(-u); evaluation also
    averages the two lookups so evenness holds exactly. Points outside the
    tabulated range take the nearest endpoint value.
    """

    grid: Grid1D
    values: np.ndarray

    kind = "tabulated"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size != len(self.grid):
            raise InvalidParameterError(
                f"values must match the grid: {vals.shape} vs {len(self.grid)} points"
            )
        if np.any(vals < 0):
            raise InvalidParameterError("values must be >= 0")
        pts = self.grid.points
        # + 0.0 stores a node at 0 as 0.0, not the -0.0 of -pts; the clamp
        # drops the rounding below 0 that interpolating across nearly
        # coincident nodes can leave.
        mirrored = np.union1d(pts, -pts) + 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            direct = np.interp(mirrored, pts, vals)
            sym = np.maximum(0.5 * (direct + np.interp(-mirrored, pts, vals)), 0.0)
        if not np.all(np.isfinite(sym)):
            raise InvalidParameterError(
                "values must be finite, and interpolating between them must not overflow"
            )
        if not np.allclose(direct, sym, rtol=0, atol=1e-12):
            logger.info(
                "tabulated profile was not even; symmetrized by averaging "
                "n0(u) and n0(-u) (max adjustment %.3e)",
                float(np.max(np.abs(direct - sym))),
            )
        object.__setattr__(self, "grid", Grid1D(points=mirrored))
        object.__setattr__(self, "values", sym)

    def tag(self) -> str:
        return f"tabulated(n={len(self.grid)})"

    def _density(self, u):
        pts = self.grid.points
        return 0.5 * (np.interp(u, pts, self.values) + np.interp(-u, pts, self.values))

    def quadrature_panels_hint(self) -> int:
        return max(2, math.ceil(len(self.grid) / PANEL_FRACTION))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TabulatedProfile):
            return NotImplemented
        return self.grid == other.grid and bool(np.all(self.values == other.values))


#: The profile classes by the `kind` that names them in a scenario config.
PROFILE_KINDS = {
    cls.kind: cls
    for cls in (GaussianProfile, SurfaceCoshProfile, UniformProfile, CosineModeProfile,
                TabulatedProfile)
}


@dataclass(frozen=True)
class SpectralCoefficients:
    """Cosine-series coefficients shared by all solution families.

    Attributes:
        mean: coefficient of the constant mode; equals the slab mass and
            hence the equilibrium density.
        modes: coefficients of cos(2*m*pi*u) for m = 1..M.
        profile_tag: provenance string of the source profile.
    """

    mean: float
    modes: np.ndarray
    profile_tag: str = ""

    def __post_init__(self):
        object.__setattr__(self, "modes", np.asarray(self.modes, dtype=float))

    @property
    def truncation(self) -> int:
        """Number of retained modes M."""
        return len(self.modes)

    @property
    def tail(self) -> float:
        """|k_M| of the last retained mode, a truncation diagnostic."""
        return float(abs(self.modes[-1]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpectralCoefficients):
            return NotImplemented
        return (
            self.mean == other.mean
            and self.modes.shape == other.modes.shape
            and self.profile_tag == other.profile_tag
            and bool(np.all(self.modes == other.modes))
        )


def evaluate_profile(profile: InitialProfile, u):
    """Evaluate n0 at u (scalar or array); u must lie in [-1/2, 1/2]."""
    u_arr = slab_positions(u)
    out = profile._density(u_arr)
    if np.isscalar(u) or u_arr.ndim == 0:
        return float(out)
    return out


def compute_coefficients(profile: InitialProfile, truncation: int) -> SpectralCoefficients:
    """Compute k0 and k_1..k_M by adaptive quadrature (abs tol 1e-12).

    The integrand of k_m oscillates m times across the slab, so the initial
    panel count scales with m as well as with the profile's own sharpest
    feature.

    Raises:
        QuadratureError: some coefficient integral did not converge.
    """
    if not (isinstance(truncation, int) and truncation >= 1):
        raise InvalidParameterError(f"truncation must be >= 1, got {truncation!r}")
    base_hint = profile.quadrature_panels_hint()
    mean = integrate_adaptive(
        profile._density,
        -HALF_WIDTH,
        HALF_WIDTH,
        abs_tol=COEFFICIENT_ABS_TOL,
        min_panels=base_hint,
    )
    modes = np.empty(truncation)
    for m in range(1, truncation + 1):
        w = 2.0 * math.pi * m

        def integrand(u, _w=w):
            return profile._density(u) * np.cos(_w * u)

        modes[m - 1] = 2.0 * integrate_adaptive(
            integrand,
            -HALF_WIDTH,
            HALF_WIDTH,
            abs_tol=COEFFICIENT_ABS_TOL,
            min_panels=max(base_hint, min_panels_for_oscillations(m)),
        )
    return SpectralCoefficients(mean=mean, modes=modes, profile_tag=profile.tag())


def surface_cosh_mode_closed_form(profile: SurfaceCoshProfile, m: int) -> float:
    """Exact k_m of the surface profile: 2*A*s^2*(-1)^m / ((2*m*pi)^2 + s^2).

    Kept as an independent cross-check for the quadrature path.
    """
    s = profile.sharpness
    return 2.0 * profile.amplitude * s**2 * (-1.0) ** m / ((2.0 * math.pi * m) ** 2 + s**2)
