"""Even initial density profiles and their cosine-series coefficients.

Every admissible profile n0(u) is even on [-1/2, 1/2], so it expands in the
zero-flux eigenbasis {1, cos(2*m*pi*u)}:

    n0(u) = k0 + sum_m k_m * cos(2*m*pi*u),
    k0  = integral of n0 over the slab (the equilibrium density),
    k_m = 2 * integral of n0(u) * cos(2*m*pi*u).

A tabulated profile is piecewise linear, and its coefficients have an exact
closed form. For the analytic kinds, one composite Gauss-Legendre rule on
equal panels gives every coefficient. One FFT pass of it over all modes
(Dutt & Rokhlin 1993) gives k0 and checks each k_m, which is a direct sum
on panels fine enough for its m oscillations; a sum that misses the FFT
value is replaced by it. A mode whose FFT value is within the tolerance of
zero, as the tail of a smooth profile, takes that value with no direct sum.
The closed forms available for some kinds are independent references in
the tests, not part of the package.

The coefficients depend on the profile and the truncation alone, not on
eps, so the quadrature runs once per process for each (profile,
truncation), in a cache of 8 entries whose modes arrays are read-only. A
tabulated profile is not cached: its closed form needs no quadrature, and
its table is an unhashable array. Every call still returns a new
SpectralCoefficients, tagged with the caller's own profile.

Each profile class is a frozen dataclass whose `kind` names it in the
scenario `[profile]` section; its dataclass fields are that section's keys
and, for the closed-form kinds, the arguments of its provenance tag. Each
float field is stored as a float, so every spelling of a value, such as
100, 100.0 and np.float32(100.0), is one profile with one tag.

core.check_count owns the rule for a count, here the series terms and a
cosine profile's mode; check_truncation owns only the reach of the
coefficient rules under MAX_EVALUATIONS.

numpy is imported only inside the functions that make arrays, so that
validating a scenario loads it only for a tabulated profile, whose table is
an array: every other profile's checks and peak() are plain float
arithmetic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import TYPE_CHECKING

from .core import HALF_WIDTH, Grid1D, check_count, slab_positions
from .errors import InvalidParameterError, QuadratureError

if TYPE_CHECKING:
    import numpy as np

#: Quadrature tolerance of the coefficients, in units of max(1, |k0|): the
#: rounding noise of a coefficient integral scales with the slab mass k0.
COEFFICIENT_ABS_TOL = 1e-12

#: Largest peak density a scenario accepts. The series and the FD oracle
#: multiply the density by mode counts, two-timescale weights and telegraph
#: factors; this bound keeps every such product far inside the float range.
MAX_DENSITY = 1e100

#: Gauss-Legendre nodes per panel of the composite rule.
PANEL_ORDER = 16

#: Hard cap on the density evaluations of one rule: the FFT passes, or one
#: mode's direct sum, which is replaced by the FFT value, not refined.
MAX_EVALUATIONS = 2**20


@lru_cache(maxsize=1)
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the PANEL_ORDER-point Gauss-Legendre rule on [-1, 1]."""
    import numpy as np

    return np.polynomial.legendre.leggauss(PANEL_ORDER)


def _panel_grid(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of `panels` equal panels on the slab, shape (panels, PANEL_ORDER),
    and each panel's half-width, shape (panels,)."""
    import numpy as np

    nodes, _ = _gauss_rule()
    edges = np.linspace(-HALF_WIDTH, HALF_WIDTH, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    return mid[:, None] + half[:, None] * nodes[None, :], half


def _panel_sum(y: np.ndarray, half: np.ndarray) -> float:
    """The composite rule's value from integrand samples y on a _panel_grid."""
    import numpy as np

    _, weights = _gauss_rule()
    return float(np.sum((y.reshape(half.size, PANEL_ORDER) @ weights) * half))


def _oscillation_panels(m: int) -> int:
    """Panels on the slab that give cos(2*m*pi*u) 8 nodes per period, at least 2."""
    return max(2, -(-m // 2))


class InitialProfile:
    """Base class for even, non-negative initial distributions.

    Subclasses set `kind`, the name of the profile in a scenario config,
    and `echo_source`, the position (0 or 1/2) from which the profile
    launches wavefront echoes, or None where it has no single source.
    """

    kind = ""
    echo_source = None

    def tag(self) -> str:
        """Provenance string: kind(field=value,...) over the dataclass fields."""
        args = ",".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self))
        return f"{self.kind}({args})"

    def _store_floats(self):
        """Store float() of each float field; called after the checks, which refuse a string.

        So 100, 100.0 and np.float32(100.0) make one profile: equal, with
        one hash, one tag and one set of coefficients.
        """
        for f in fields(self):
            if f.type == "float":
                try:
                    object.__setattr__(self, f.name, float(getattr(self, f.name)))
                except OverflowError:  # an int beyond the floats
                    raise InvalidParameterError(f"{f.name} must be finite") from None

    def _density(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def peak(self) -> float:
        """Largest value of n0 on the slab."""
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
    Subclasses declare no field, so they inherit this dataclass undecorated
    and cost no dataclass build of their own at import.
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
        self._store_floats()


class GaussianProfile(_SharpProfile):
    """Mass concentrated at the slab center.

    n0(u) = amplitude * sqrt(sharpness/pi) * exp(-sharpness * u^2); the
    bulk of the mass sits within |u| ~ 1/sqrt(sharpness).
    """

    kind = "gaussian"
    echo_source = 0.0
    sharpness_limit = 1e6

    def _norm(self) -> float:
        """sqrt(sharpness/pi); the quotient underflows for a sharpness below 7e-308."""
        quotient = self.sharpness / math.pi
        if quotient >= sys.float_info.min:
            return math.sqrt(quotient)
        return math.sqrt(self.sharpness) / math.sqrt(math.pi)

    def _density(self, u):
        import numpy as np

        return self.amplitude * self._norm() * np.exp(-self.sharpness * u**2)

    def peak(self) -> float:
        return self.amplitude * self._norm()

    def quadrature_panels_hint(self) -> int:
        return max(2, math.ceil(math.sqrt(self.sharpness)))


class SurfaceCoshProfile(_SharpProfile):
    """Mass localized near both walls.

    n0(u) = (amplitude * sharpness / 2) * cosh(sharpness*u) / sinh(sharpness/2);
    the boundary layers have width ~ 1/sharpness and the slab integral is
    exactly `amplitude`.
    """

    kind = "surface_cosh"
    echo_source = 0.5
    sharpness_limit = 1e4

    def _density(self, u):
        import numpy as np

        s = self.sharpness
        # cosh(s*u)/sinh(s/2) computed via exponentials relative to the wall
        # to stay finite for large s: cosh(s*u) ~ exp(s*|u|)/2 overflows at
        # s ~ 1400 if formed directly.
        au = np.abs(u)
        return self._scaled(np.exp(s * (au - HALF_WIDTH)) + np.exp(-s * (au + HALF_WIDTH)))

    def _scaled(self, num):
        """The density whose numerator exp(s*(|u| - 1/2)) + exp(-s*(|u| + 1/2)) is num."""
        s = self.sharpness
        scale = 0.5 * self.amplitude * s
        den = -math.expm1(-s)  # 1 - exp(-s), which rounds to 0 for s < 1.1e-16
        if scale < sys.float_info.min:
            # The product underflows (a subnormal s, or a small amplitude);
            # s/den, about 1 for small s, cannot.
            return self.amplitude * (s / den) * 0.5 * num
        return scale * num / den

    def peak(self) -> float:
        return self._scaled(1.0 + math.exp(-self.sharpness))  # at the walls, |u| = 1/2

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
        self._store_floats()

    def _density(self, u):
        import numpy as np

        return np.full_like(np.asarray(u, dtype=float), self.level)

    def peak(self) -> float:
        return self.level


@dataclass(frozen=True)
class CosineModeProfile(InitialProfile):
    """Single eigenmode on a constant background: offset + amplitude*cos(2*m*pi*u).

    mode is a count >= 1 (core.check_count), stored as an int. offset >=
    |amplitude| keeps the density non-negative everywhere.
    """

    mode: int
    offset: float
    amplitude: float

    kind = "cosine_mode"

    def __post_init__(self):
        object.__setattr__(self, "mode", check_count(self.mode, "mode", 1))
        if not (0 <= self.offset < math.inf):
            raise InvalidParameterError(f"offset must be finite and >= 0, got {self.offset!r}")
        if not (self.offset >= abs(self.amplitude)):
            raise InvalidParameterError(
                f"offset must be >= |amplitude| to keep the density non-negative, "
                f"got offset={self.offset!r}, amplitude={self.amplitude!r}"
            )
        self._store_floats()

    def _density(self, u):
        import numpy as np

        return self.offset + self.amplitude * np.cos(2.0 * math.pi * self.mode * u)

    def peak(self) -> float:
        return self.offset + abs(self.amplitude)

    def quadrature_panels_hint(self) -> int:
        return _oscillation_panels(self.mode)


#: Bytes of one (modes x segments) float array that
#: TabulatedProfile.exact_coefficients forms per block of modes; its peak
#: memory is a few such arrays, whatever the truncation.
TABULATED_BLOCK_BYTES = 4 * 2**20

#: Table nodes whose distances from the center differ by at most this many
#: ulps of the half-width are stored as one node; a linspace node and its
#: mirror image differ by up to 8 ulps of their own.
SNAP_ULPS = 4


@dataclass(frozen=True)
class TabulatedProfile(InitialProfile):
    """Profile given by samples on a grid, linearly interpolated.

    The stored table is symmetrized at construction onto the union of the
    grid and its mirror image, averaging n0(u) and n0(-u); evaluation also
    averages the two lookups so evenness holds exactly. A node and a mirror
    image a few ulps away from it (as -0.45 and 0.45000000000000007 of an
    11-node linspace) are one node, the one nearer the center. Points
    outside the tabulated range take the nearest endpoint value.
    """

    grid: Grid1D
    values: np.ndarray

    kind = "tabulated"

    def __post_init__(self):
        import numpy as np

        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size != len(self.grid):
            raise InvalidParameterError(
                f"values must match the grid: {vals.shape} vs {len(self.grid)} points"
            )
        if np.any(vals < 0):
            raise InvalidParameterError("values must be >= 0")
        pts = self.grid.points
        half = np.unique(np.abs(pts))
        half = half[np.concatenate(([True], np.diff(half) > SNAP_ULPS * np.spacing(HALF_WIDTH)))]
        # + 0.0 stores a node at 0 as 0.0, not -0.0; the clamp drops the
        # rounding below 0 that interpolating across nearly coincident nodes
        # can leave.
        mirrored = np.union1d(-half, half) + 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            direct = np.interp(mirrored, pts, vals)
            sym = np.maximum(0.5 * (direct + np.interp(-mirrored, pts, vals)), 0.0)
        if not np.all(np.isfinite(sym)):
            raise InvalidParameterError(
                "values must be finite, and interpolating between them must not overflow"
            )
        if not np.allclose(direct, sym, rtol=0, atol=1e-12):
            import logging  # here, so that validate does not load it

            logging.getLogger(__name__).info(
                "tabulated profile was not even; symmetrized by averaging "
                "n0(u) and n0(-u) (max adjustment %.3e)",
                float(np.max(np.abs(direct - sym))),
            )
        object.__setattr__(self, "grid", Grid1D(points=mirrored))
        object.__setattr__(self, "values", sym)

    def tag(self) -> str:
        return f"tabulated(n={len(self.grid)})"

    def _density(self, u):
        import numpy as np

        pts = self.grid.points
        return 0.5 * (np.interp(u, pts, self.values) + np.interp(-u, pts, self.values))

    def peak(self) -> float:
        return float(self.values.max())

    def exact_coefficients(self, truncation: int) -> tuple[float, np.ndarray]:
        """k0 and k_1..k_M of the interpolant, in closed form.

        k0 is the trapezoid sum over the nodes and the walls. Integrating
        k_m = 2 * integral of n0(u) cos(a*u), a = 2*m*pi, by parts twice
        leaves boundary terms, which vanish at the walls, and the kinks'
        sum -(2/a^2) * sum_i jump_i(n0') cos(a*u_i). Summed segment by
        segment (rise dn_j, width h_j, midpoint c_j) that is
        -(2/a) * sum_j dn_j sin(a*c_j) sinc(m*h_j), which never divides by
        a width, however close two nodes are. It is summed in blocks of
        modes of TABULATED_BLOCK_BYTES each, so memory does not grow with
        the truncation.
        """
        import numpy as np

        knots = np.union1d(self.grid.points, [-HALF_WIDTH, HALF_WIDTH])
        n0 = self._density(knots)
        rise, width = np.diff(n0), np.diff(knots)
        mid = 0.5 * (knots[1:] + knots[:-1])
        mean = float(np.sum(0.5 * (n0[1:] + n0[:-1]) * width))
        rows = max(1, TABULATED_BLOCK_BYTES // (8 * mid.size))
        modes = np.empty(truncation)
        for first in range(0, truncation, rows):
            m = np.arange(first + 1, min(first + rows, truncation) + 1, dtype=float)[:, None]
            a = 2.0 * math.pi * m
            modes[first:first + rows] = (
                (-2.0 / a[:, 0]) * ((np.sin(a * mid) * np.sinc(m * width)) @ rise))
        return mean, modes

    def __eq__(self, other) -> bool:
        if not isinstance(other, TabulatedProfile):
            return NotImplemented
        return self.grid == other.grid and bool((self.values == other.values).all())


#: The profile classes by the `kind` that names them in a scenario config.
PROFILE_KINDS = {
    cls.kind: cls
    for cls in (GaussianProfile, SurfaceCoshProfile, UniformProfile, CosineModeProfile,
                TabulatedProfile)
}


@dataclass(frozen=True, eq=False)
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
        import numpy as np

        object.__setattr__(self, "modes", np.asarray(self.modes, dtype=float))

    @property
    def truncation(self) -> int:
        """Number of retained modes M."""
        return len(self.modes)

    @property
    def tail(self) -> float:
        """|k_M| of the last retained mode, a truncation diagnostic."""
        return float(abs(self.modes[-1]))


def evaluate_profile(profile: InitialProfile, u):
    """Evaluate n0 at u (scalar or array); u must lie in [-1/2, 1/2]."""
    import numpy as np

    u_arr = slab_positions(u)
    out = profile._density(u_arr)
    if np.isscalar(u) or u_arr.ndim == 0:
        return float(out)
    return out


def check_truncation(profile: InitialProfile, truncation) -> tuple[int, int]:
    """Raise unless `truncation` is a mode count the coefficient rules reach; evaluate nothing.

    A mode count is an integer >= 1, numpy integers included, and a float is
    refused, even a whole one: core.check_count owns that rule. The FFT rule
    starts on max(hint, ceil(M/4)) panels over [0, 1/2] and needs two
    passes, 3x those panels, to compare anything; k_M's direct sum takes
    2*max(hint, ceil(M/2)) panels over the slab. Both give the last mode 8
    nodes per period. Under MAX_EVALUATIONS = 2**20 no profile reaches
    M > 65536, and one whose hint exceeds 21845
    panels (a cosine mode above 43690) reaches no M.

    Returns:
        The mode count as an int, and the FFT rule's first panel count.

    Raises:
        InvalidParameterError: the truncation is no integer, is below 1, or
            either rule's first step exceeds MAX_EVALUATIONS.
    """
    terms = check_count(truncation, "terms", 1)
    hint = profile.quadrature_panels_hint()
    fft, direct = max(hint, -(-terms // 4)), 2 * max(hint, _oscillation_panels(terms))
    evaluations = PANEL_ORDER * max(3 * fft, direct)
    if evaluations > MAX_EVALUATIONS:
        raise InvalidParameterError(
            f"terms={terms} needs {evaluations} density evaluations before the "
            f"coefficient quadrature can converge, above its cap of {MAX_EVALUATIONS}"
        )
    return terms, fft


def _fft_modes(
    profile: InitialProfile, truncation: int, panels: int
) -> tuple[np.ndarray, int, float]:
    """k0..k_M of the composite rule on [0, 1/2], by one FFT per node offset.

    The profile is even, so k0 = 2 and k_m = 4 times an integral over
    [0, 1/2]. Panel p of P has width h = 1/L, L = 2P, and its nodes are
    panel 0's shifted by p*h, so with f_pj = n0(node) * weight,

        k_m = 4 * Re sum_j F_j(m mod L) * exp(-i*a_m*u_0j),  a_m = 2*m*pi,

    where F_j is the length-L DFT of f_pj over the panels and u_0j are
    panel 0's nodes (Dutt & Rokhlin 1993, with only the 16 in-panel
    offsets off the lattice); k0 is 2 * the sum of bin 0. P starts at
    `panels` (check_truncation) and doubles until two passes agree in every
    k0..k_M to COEFFICIENT_ABS_TOL * max(1, |k0|), k0 the finer pass's.

    Returns:
        The finer pass's k0..k_M, its panel count and the tolerance it met.

    Raises:
        QuadratureError: the evaluation cap was hit before two passes agreed.
    """
    import numpy as np

    m = np.arange(truncation + 1)
    a = 2.0 * math.pi * m
    scale = np.where(m > 0, 4.0, 2.0)
    nodes, weights = _gauss_rule()

    def estimate(panels):
        # Nominal widths and offsets, not a linspace's: a panel width that
        # is a difference of rounded edges is off by up to 1e-16/h relative.
        half = 0.25 / panels
        u0 = half * (1.0 + nodes)
        u = (2.0 * half) * np.arange(panels)[:, None] + u0
        f = profile._density(u.ravel()).reshape(u.shape) * (half * weights)
        spectrum = np.fft.fft(f, n=2 * panels, axis=0)[m % (2 * panels)]
        return scale * np.sum(spectrum * np.exp(-1j * np.outer(a, u0)), axis=1).real

    evaluations = panels * PANEL_ORDER
    previous = estimate(panels)
    tol = COEFFICIENT_ABS_TOL * max(1.0, abs(previous[0]))
    last_delta, worst = math.inf, 0
    while True:
        panels *= 2
        evaluations += panels * PANEL_ORDER
        if evaluations > MAX_EVALUATIONS:
            raise QuadratureError(
                f"FFT coefficient rule over {truncation} modes did not reach abs_tol={tol!r}",
                best=float(previous[worst]),
                last_delta=last_delta,
                evaluations=evaluations - panels * PANEL_ORDER,
            )
        current = estimate(panels)
        tol = COEFFICIENT_ABS_TOL * max(1.0, abs(current[0]))
        delta = np.abs(current - previous)
        worst = int(np.argmax(delta))
        last_delta = float(delta[worst])
        if last_delta <= tol:
            return current, panels, tol
        previous = current


def compute_coefficients(profile: InitialProfile, truncation: int) -> SpectralCoefficients:
    """Compute k0 and k_1..k_M: exactly for a tabulated profile, else by quadrature.

    check_truncation refuses, before any evaluation, a truncation that is no
    mode count or that the rules cannot reach under the evaluation cap. A
    tabulated profile takes its closed form (exact_coefficients) on every
    call. Every other profile takes the quadrature (_quadrature), which is
    computed once per process for each (profile, truncation): a profile
    stores its fields as floats, so profiles that compare equal compute
    equal coefficients and share one entry, and its modes array is
    read-only, since every caller is handed it. Each call returns a new
    SpectralCoefficients whose tag is this profile's own: equal profiles
    may still be spelt apart, as amplitude=0.0 and amplitude=-0.0.

    Raises:
        InvalidParameterError: the truncation is no mode count or is out of reach.
        QuadratureError: the FFT rule did not converge within the evaluation cap.
    """
    truncation, fft_panels = check_truncation(profile, truncation)
    if isinstance(profile, TabulatedProfile):
        mean, modes = profile.exact_coefficients(truncation)
    else:
        mean, modes = _quadrature(profile, truncation, fft_panels)
    return SpectralCoefficients(mean=mean, modes=modes, profile_tag=profile.tag())


@lru_cache(maxsize=8)
def _quadrature(
    profile: InitialProfile, truncation: int, fft_panels: int
) -> tuple[float, np.ndarray]:
    """k0 and k_1..k_M by quadrature, k_1..k_M read-only; 8 entries of at most 512 KB.

    k0 comes from the FFT rule (_fft_modes), which starts on `fft_panels`,
    and the tolerance is COEFFICIENT_ABS_TOL * max(1, |k0|). Each k_m is the
    composite Gauss-Legendre sum on 2*P_m panels over the slab, P_m =
    max(hint, m/2), which resolves both the profile's sharpest feature and
    the m oscillations of cos(2*m*pi*u). The FFT rule checks those sums: a
    k_m farther than the tolerance from it is replaced by the FFT value. A
    mode at the tolerance floor, whose FFT value is at most the tolerance
    in magnitude, takes the FFT value without a direct sum, so a smooth
    profile pays direct sums only for the modes above the tolerance. A
    QuadratureError is raised, not cached.
    """
    import numpy as np

    hint = profile.quadrature_panels_hint()
    check, check_panels, tol = _fft_modes(profile, truncation, fft_panels)

    @lru_cache(maxsize=1)  # the panel count never falls with m
    def grid(panels):
        x, half = _panel_grid(panels)
        u = x.ravel()
        return u, half, profile._density(u)

    modes = check[1:].copy()
    max_delta, kept, floor = 0.0, 0, 0
    for m in range(1, truncation + 1):
        if abs(check[m]) <= tol:
            floor += 1
            continue
        w = 2.0 * math.pi * m
        u, half, density = grid(2 * max(hint, _oscillation_panels(m)))
        value = 2.0 * _panel_sum(density * np.cos(w * u), half)
        delta = abs(value - check[m])
        if delta <= tol:
            modes[m - 1] = value
            kept += 1
        max_delta = max(max_delta, delta)
    modes.flags.writeable = False
    import logging  # here, so that validate does not load it

    logging.getLogger(__name__).debug(
        "coefficients of %s: FFT check on %d panels over [0, 1/2], "
        "max |direct - FFT| = %.3e, %d of %d direct sums kept, "
        "%d modes at the floor took the FFT value",
        profile.tag(), check_panels, max_delta, kept, truncation, floor,
    )
    return float(check[0]), modes
