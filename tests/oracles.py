"""Independent references that the tests check the package against.

Each reference is written from its own formula and shares no code with the
package it checks: the wall-free Gaussian, the closed-form Gaussian and
surface coefficients, the two-timescale fast/slow split, a per-mode series
summed one mode at a time, the telegraph mode ODE integrated numerically,
and the explicit finite-difference schemes marched one step at a time.
The one exception is a separate adaptive integral per coefficient, which
calls the package's `integrate_adaptive` (checked on its own in
test_quadrature.py) once per mode.
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from slabdiff import (
    DomainError,
    GaussianProfile,
    InvalidParameterError,
    SpectralCoefficients,
    SurfaceCoshProfile,
)
from slabdiff.core import HALF_WIDTH
from slabdiff.profiles import COEFFICIENT_ABS_TOL
from slabdiff.quadrature import integrate_adaptive, min_panels_for_oscillations
from slabdiff.spectral import CRITICAL_DISC_TOL, check_wkb_eps

# ---------------------------------------------------------------------------
# Wall-free short-time Gaussian
# ---------------------------------------------------------------------------

#: The wall-free reference requires the Gaussian support to stay this far
#: from the walls: 1/sqrt(sharpness) + sqrt(4*v) <= WALL_CLEARANCE.
WALL_CLEARANCE = 0.25


class ReferenceInvalidError(ValueError):
    """The wall-free reference solution is not applicable (wall influence)."""


def free_space_reference(profile: GaussianProfile, v: float):
    """Exact evolution of the Gaussian profile with the walls removed.

    Diffusing a Gaussian adds 4*v to the squared-width parameter:
    1/b' = 1/b + 4*v. Valid only while the support stays clear of the walls
    (1/sqrt(b) + sqrt(4*v) <= WALL_CLEARANCE), as a short-time oracle for
    the parabolic series.

    Returns:
        A closure mapping u to the reference density.
    """
    if not isinstance(profile, GaussianProfile):
        raise InvalidParameterError("the wall-free reference is defined for Gaussian profiles")
    if not (v > 0):
        raise DomainError(f"v must be > 0, got {v!r}")
    support = 1.0 / math.sqrt(profile.sharpness) + math.sqrt(4.0 * v)
    if support > WALL_CLEARANCE:
        raise ReferenceInvalidError(
            f"wall influence is not negligible: 1/sqrt(b) + sqrt(4v) = {support:.4g} "
            f"> {WALL_CLEARANCE}"
        )
    b_eff = 1.0 / (1.0 / profile.sharpness + 4.0 * v)
    amp = profile.amplitude * math.sqrt(b_eff / math.pi)

    def reference(u):
        return amp * np.exp(-b_eff * np.asarray(u, dtype=float) ** 2)

    return reference


# ---------------------------------------------------------------------------
# Coefficients
# ---------------------------------------------------------------------------


def surface_cosh_mode_closed_form(profile: SurfaceCoshProfile, m: int) -> float:
    """Exact k_m of the surface profile: 2*A*s^2*(-1)^m / ((2*m*pi)^2 + s^2)."""
    s = profile.sharpness
    return 2.0 * profile.amplitude * s**2 * (-1.0) ** m / ((2.0 * math.pi * m) ** 2 + s**2)


def gaussian_mode_closed_form(profile: GaussianProfile, m: int) -> float:
    """Exact k_m of the Gaussian at 60 digits.

    k_m = 2*A*exp(-(pi*m)^2/s) * Re erf(sqrt(s)/2 + i*pi*m/sqrt(s)).

    Completing the square in 2 * integral of n0(u) * exp(2*i*m*pi*u) over
    the slab leaves erf at the two complex walls; the real part's
    cancellation for large m is why it runs in extended precision.
    """
    with mpmath.workdps(60):
        s, amplitude = mpmath.mpf(profile.sharpness), mpmath.mpf(profile.amplitude)
        root = mpmath.sqrt(s)
        z = mpmath.mpc(root / 2, mpmath.pi * m / root)
        return float(2 * amplitude * mpmath.exp(-((mpmath.pi * m) ** 2) / s)
                     * mpmath.re(mpmath.erf(z)))


def adaptive_coefficients(profile, truncation: int) -> SpectralCoefficients:
    """k0 and k_1..k_M as one adaptive integral each, at the package's tolerance.

    Integral m starts on max(hint, m/2) panels over the slab and doubles
    until two successive composite sums agree to
    COEFFICIENT_ABS_TOL * max(1, |k0|); no integral shares work with another.
    """
    hint = profile.quadrature_panels_hint()
    mean = integrate_adaptive(profile._density, -HALF_WIDTH, HALF_WIDTH,
                              abs_tol=COEFFICIENT_ABS_TOL, rel_tol=COEFFICIENT_ABS_TOL,
                              min_panels=hint)
    tol = COEFFICIENT_ABS_TOL * max(1.0, abs(mean))
    modes = np.empty(truncation)
    for m in range(1, truncation + 1):
        w = 2.0 * math.pi * m

        def integrand(u, _w=w):
            return profile._density(u) * np.cos(_w * u)

        modes[m - 1] = 2.0 * integrate_adaptive(
            integrand, -HALF_WIDTH, HALF_WIDTH, abs_tol=tol,
            min_panels=max(hint, min_panels_for_oscillations(m)))
    return SpectralCoefficients(mean=mean, modes=modes, profile_tag=profile.tag())


@dataclass(frozen=True)
class WkbCoefficients:
    """Mode weights of the two-timescale approximation.

    fast[m-1] multiplies the boundary-layer decay exp(-v/eps) and slow[m-1]
    the parabolic decay exp(-(2*m*pi)^2 v); their sum is k_m.
    """

    fast: np.ndarray
    slow: np.ndarray


def wkb_coefficients(coefficients, eps: float) -> WkbCoefficients:
    """Split k_m into fast/slow weights, q_m = eps*(2*m*pi)^2:

        fast_m = -q_m / (1 - q_m) * k_m
        slow_m = k_m / (1 - q_m)

    Refuses, as the package does, an eps at which some retained mode is
    resonant (ResonantModeError) or a negative eps (InvalidParameterError).
    """
    check_wkb_eps(eps, coefficients.truncation)
    k = coefficients.modes
    q = eps * (2.0 * math.pi * np.arange(1, k.size + 1)) ** 2
    return WkbCoefficients(fast=-q / (1.0 - q) * k, slow=k / (1.0 - q))


# ---------------------------------------------------------------------------
# Series, one mode at a time
# ---------------------------------------------------------------------------
# The reference sums one mode at a time, highest m first, with compensated
# (Kahan) summation, and evaluates each telegraph mode through the closed
# form of its own damping class.


def reference_telegraph_factor(eps, m, v):
    """V_m(v)/k_m of telegraph mode m: eps*V'' + V' + (2*m*pi)^2*V = 0, V(0) = 1, V'(0) = 0."""
    disc = 1.0 - (4.0 * math.pi * m) ** 2 * eps
    sigma = -1.0 / (2.0 * eps)
    if disc > CRITICAL_DISC_TOL:
        sq = math.sqrt(disc)
        mu1 = -((4.0 * math.pi * m) ** 2) / (2.0 * (1.0 + sq))
        mu2 = -(1.0 + sq) / (2.0 * eps)
        return (mu2 * np.exp(mu1 * v) - mu1 * np.exp(mu2 * v)) / (mu2 - mu1)
    if disc < -CRITICAL_DISC_TOL:
        omega = math.sqrt(-disc) / (2.0 * eps)
        return np.exp(sigma * v) * (
            np.cos(omega * v) + (1.0 / (2.0 * eps * omega)) * np.sin(omega * v)
        )
    return np.exp(sigma * v) * (1.0 - sigma * v)


def reference_density(model, c, eps, u, v):
    """k0 + sum_m k_m T_m(v) cos(2*m*pi*u) of one family, u and v broadcast."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if model == "wkb":
        w = wkb_coefficients(c, eps)
        fast_factor = np.exp(-v / eps) if eps > 0 else np.zeros_like(v)
    total = np.zeros(np.broadcast_shapes(u.shape, v.shape))
    comp = np.zeros_like(total)
    for m in range(c.truncation, 0, -1):
        slow = np.exp(-((2.0 * math.pi * m) ** 2) * v)
        if model == "parabolic":
            amplitude = c.modes[m - 1] * slow
        elif model == "hyperbolic":
            amplitude = c.modes[m - 1] * reference_telegraph_factor(eps, m, v)
        else:
            amplitude = w.fast[m - 1] * fast_factor + w.slow[m - 1] * slow
        y = amplitude * np.cos(2.0 * math.pi * m * u) - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return c.mean + total


def ode_telegraph_factor(eps: float, m: int, v: float) -> float:
    """V_m(v)/k_m by integrating eps*V'' + V' + (2*m*pi)^2*V = 0 numerically (DOP853)."""
    from scipy.integrate import solve_ivp

    lam = (2 * math.pi * m) ** 2

    def rhs(t, y):
        return [y[1], -(y[1] + lam * y[0]) / eps]

    sol = solve_ivp(rhs, [0.0, v], [1.0, 0.0], rtol=1e-11, atol=1e-13, method="DOP853")
    return float(sol.y[0, -1])


# ---------------------------------------------------------------------------
# Explicit finite-difference schemes, marched step by step
# ---------------------------------------------------------------------------
# The package's solvers evaluate these schemes in DCT mode space. These
# plain-numpy kernels march the same schemes one step at a time, with the
# mirror ghost cells n[-1] = n[0] and n[nu] = n[nu-1] inlined.


def mirror_laplacian(n):
    lap = np.empty_like(n)
    lap[1:-1] = n[2:] - 2.0 * n[1:-1] + n[:-2]
    lap[0] = n[1] - n[0]
    lap[-1] = n[-2] - n[-1]
    return lap


def step_heat(n0, cfg, steps):
    r = cfg.dv / cfg.du**2
    cur = n0.copy()
    for _ in range(steps):
        cur = cur + r * mirror_laplacian(cur)
    return cur


def step_telegraph(n0, cfg, steps):
    eps, dv, du = cfg.eps, cfg.dv, cfg.du
    if steps == 0:
        return n0.copy()
    denom = eps + 0.5 * dv
    p_lap = dv * dv / (du * du) / denom
    p_prev = (eps - 0.5 * dv) / denom
    prev = n0.copy()
    cur = prev + (dv * dv / (2.0 * eps)) / (du * du) * mirror_laplacian(prev)
    for _ in range(steps - 1):
        prev, cur = cur, cur + p_lap * mirror_laplacian(cur) + p_prev * (cur - prev)
    return cur
